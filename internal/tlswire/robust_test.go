package tlswire

import (
	"testing"
	"testing/quick"
)

func TestParsersNeverPanicOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", data, r)
			}
		}()
		_, _, _, _ = ParseRecord(data)
		_, _ = SNI(data)
		_, _ = CertificateCN(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParsersNeverPanicOnMutatedRecords(t *testing.T) {
	base := append(AppendClientHello(nil, "dl.dropbox.com"), AppendCertificate(nil, "*.dropbox.com")...)
	f := func(pos uint16, val byte, cut uint16) bool {
		data := append([]byte(nil), base...)
		data[int(pos)%len(data)] = val
		data = data[:len(data)-int(cut)%len(data)]
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic pos=%d val=%d cut=%d: %v", pos, val, cut, r)
			}
		}()
		_, _ = SNI(data)
		_, _ = CertificateCN(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
