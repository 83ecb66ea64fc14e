package httpwire

import (
	"testing"
	"testing/quick"
)

func TestParsersNeverPanicOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %q: %v", data, r)
			}
		}()
		_, _ = ParseRequest(data)
		_, _ = ParseResponse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseAnyTruncationOfValidMessages(t *testing.T) {
	req := (&Request{Host: "api.example.com", Path: "/v1/items?page=2",
		Headers: map[string]string{"User-Agent": "x", "Accept": "*/*"}}).AppendRequest(nil)
	resp := (&Response{StatusCode: 200, ContentType: "text/html", ContentLength: 1234}).AppendResponse(nil)
	for i := 0; i <= len(req); i++ {
		_, _ = ParseRequest(req[:i]) // must not panic; ok may be false
	}
	for i := 0; i <= len(resp); i++ {
		_, _ = ParseResponse(resp[:i])
	}
}
