package tlswire

import (
	"testing"
)

func TestSNIRoundTrip(t *testing.T) {
	for _, name := range []string{"dl.dropbox.com", "a.b.c.example.org", "x.io"} {
		rec := AppendClientHello(nil, name)
		got, ok := SNI(rec)
		if !ok || got != name {
			t.Fatalf("SNI = %q ok=%v, want %q", got, ok, name)
		}
	}
}

func TestCertificateCNRoundTrip(t *testing.T) {
	for _, cn := range []string{"*.dropbox.com", "www.netflix.com"} {
		rec := AppendCertificate(nil, cn)
		got, ok := CertificateCN(rec)
		if !ok || got != cn {
			t.Fatalf("CN = %q ok=%v, want %q", got, ok, cn)
		}
	}
}

func TestServerHelloParses(t *testing.T) {
	ct, payload, rest, err := ParseRecord(AppendServerHello(nil))
	if err != nil || ct != RecordHandshake || len(rest) != 0 {
		t.Fatalf("ct=%d err=%v", ct, err)
	}
	if payload[0] != HandshakeServerHello {
		t.Fatalf("msg type = %d", payload[0])
	}
}

func TestSNIRejectsOtherRecords(t *testing.T) {
	if _, ok := SNI(AppendServerHello(nil)); ok {
		t.Fatal("SNI from ServerHello")
	}
	if _, ok := SNI(AppendCertificate(nil, "x")); ok {
		t.Fatal("SNI from Certificate")
	}
	if _, ok := SNI([]byte("GET / HTTP/1.1\r\n")); ok {
		t.Fatal("SNI from HTTP")
	}
	if _, ok := SNI(nil); ok {
		t.Fatal("SNI from nil")
	}
}

func TestCNRejectsOtherRecords(t *testing.T) {
	if _, ok := CertificateCN(AppendClientHello(nil, "x")); ok {
		t.Fatal("CN from ClientHello")
	}
	if _, ok := CertificateCN([]byte{1, 2, 3}); ok {
		t.Fatal("CN from junk")
	}
}

func TestApplicationData(t *testing.T) {
	rec := AppendApplicationData(nil, 1000)
	ct, payload, rest, err := ParseRecord(rec)
	if err != nil || ct != RecordApplicationData || len(payload) != 1000 || len(rest) != 0 {
		t.Fatalf("ct=%d len=%d err=%v", ct, len(payload), err)
	}
	// Length capped at TLS max.
	rec = AppendApplicationData(nil, 1<<20)
	_, payload, _, _ = ParseRecord(rec)
	if len(payload) != 16384 {
		t.Fatalf("cap failed: %d", len(payload))
	}
}

func TestSnapTruncatedRecord(t *testing.T) {
	rec := AppendClientHello(nil, "very-long-name.example.com")
	// Cut the record body short of its declared length.
	cut := rec[:len(rec)-10]
	ct, payload, rest, err := ParseRecord(cut)
	if err != nil || ct != RecordHandshake || rest != nil {
		t.Fatalf("truncated parse: ct=%d err=%v", ct, err)
	}
	if len(payload) != len(cut)-5 {
		t.Fatalf("payload = %d", len(payload))
	}
	// SNI extraction from a record truncated before the extension fails
	// cleanly rather than panicking.
	if _, ok := SNI(rec[:40]); ok {
		t.Fatal("SNI from 40-byte prefix")
	}
}

func TestMultipleRecordsSequential(t *testing.T) {
	stream := append(append(AppendServerHello(nil), AppendCertificate(nil, "svc.example.com")...), AppendApplicationData(nil, 64)...)
	var types []byte
	for len(stream) > 0 {
		ct, _, rest, err := ParseRecord(stream)
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, ct)
		stream = rest
	}
	if len(types) != 3 || types[0] != RecordHandshake || types[2] != RecordApplicationData {
		t.Fatalf("types = %v", types)
	}
	// CN still extractable from the second record in the stream.
	_, _, rest, _ := ParseRecord(append(AppendServerHello(nil), AppendCertificate(nil, "svc.example.com")...))
	cn, ok := CertificateCN(rest)
	if !ok || cn != "svc.example.com" {
		t.Fatalf("cn=%q ok=%v", cn, ok)
	}
}
