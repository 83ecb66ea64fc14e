package httpwire

import (
	"bytes"
	"strings"
	"testing"
)

// roundTrips reports whether a header value survives serialization and
// parsing unchanged: the parser cuts lines at LF and trims surrounding
// white space, so a value containing a newline or edged by white space
// cannot come back as written.
func roundTrips(v string) bool {
	return !strings.Contains(v, "\n") && strings.TrimSpace(v) == v
}

// FuzzParseRequest: ParseRequest never panics on arbitrary bytes, and a
// head AppendRequest wrote (after whatever bytes the buffer already
// held) parses back with its Host intact.
func FuzzParseRequest(f *testing.F) {
	for _, r := range []Request{
		{Host: "www.dropbox.com", Path: "/index.html", Headers: map[string]string{"User-Agent": "Mozilla/5.0 (cloudscope)"}},
		{Method: "POST", Host: "api.example.com", Path: "/v1/items?page=2"},
		{},
	} {
		raw := r.AppendRequest(nil)
		f.Add(raw, r.Host)
		f.Add(raw[:len(raw)/2], r.Host)
	}
	f.Add([]byte("GET / HTTP/1.1\nHost: a.b\n\n"), "a.b")
	f.Add([]byte("GET  HTTP/1.1\r\n:\r\n"), "")
	f.Fuzz(func(t *testing.T, data []byte, host string) {
		ParseRequest(data)
		if !roundTrips(host) {
			return
		}
		prefix := []byte("prefix")
		raw := (&Request{Host: host, Headers: browserLike}).AppendRequest(prefix)
		if !bytes.HasPrefix(raw, prefix) {
			t.Fatalf("AppendRequest overwrote the buffer's contents: %q", raw)
		}
		got, ok := ParseRequest(raw[len(prefix):])
		if !ok || got.Host != host {
			t.Fatalf("round trip of Host %q gave %+v ok=%v from %q", host, got, ok, raw)
		}
	})
}

// browserLike is a header set the generator's requests carry.
var browserLike = map[string]string{"User-Agent": "Mozilla/5.0 (cloudscope)"}

// FuzzParseResponse: ParseResponse never panics on arbitrary bytes, and
// a head AppendResponse wrote parses back with its Content-Type and
// Content-Length intact (an absent, negative length reads back as -1).
func FuzzParseResponse(f *testing.F) {
	for _, r := range []Response{
		{StatusCode: 200, ContentType: "text/html", ContentLength: 5120},
		{StatusCode: 304, ContentLength: -1},
		{StatusCode: 206, ContentType: "video/mp4", ContentLength: 1 << 40, Headers: map[string]string{"Server": "Apache"}},
	} {
		raw := r.AppendResponse(nil)
		f.Add(raw, r.StatusCode, r.ContentType, r.ContentLength)
		f.Add(raw[:len(raw)/2], r.StatusCode, r.ContentType, r.ContentLength)
	}
	f.Add([]byte("HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\r\n"), 200, "text/html", int64(-1))
	f.Add([]byte("HTTP/1.0 +99\r\nContent-Length: x\r\n"), 0, "", int64(0))
	f.Fuzz(func(t *testing.T, data []byte, code int, ctype string, length int64) {
		ParseResponse(data)
		if code < 100 || code > 599 || !roundTrips(ctype) || strings.Contains(ctype, ";") {
			return
		}
		raw := (&Response{StatusCode: code, ContentType: ctype, ContentLength: length}).AppendResponse(nil)
		got, ok := ParseResponse(raw)
		want := length
		if want < 0 {
			want = -1
		}
		if !ok || got.StatusCode != code || got.ContentType != ctype || got.ContentLength != want {
			t.Fatalf("round trip of (%d, %q, %d) gave %+v ok=%v from %q", code, ctype, length, got, ok, raw)
		}
	})
}
