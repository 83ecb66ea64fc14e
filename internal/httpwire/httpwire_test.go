package httpwire

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	req := Request{
		Method: "GET", Path: "/index.html", Host: "www.dropbox.com",
		Headers: map[string]string{"User-Agent": "cloudscope/1.0", "Accept": "*/*"},
	}
	raw := req.AppendRequest(nil)
	got, ok := ParseRequest(raw)
	if !ok {
		t.Fatal("parse failed")
	}
	if got.Method != "GET" || got.Path != "/index.html" || got.Host != "www.dropbox.com" {
		t.Fatalf("got %+v", got)
	}
	if got.Headers["User-Agent"] != "cloudscope/1.0" {
		t.Fatalf("headers: %v", got.Headers)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := Response{StatusCode: 200, ContentType: "text/html", ContentLength: 5120,
		Headers: map[string]string{"Server": "Apache"}}
	raw := resp.AppendResponse(nil)
	got, ok := ParseResponse(raw)
	if !ok {
		t.Fatal("parse failed")
	}
	if got.StatusCode != 200 || got.ContentType != "text/html" || got.ContentLength != 5120 {
		t.Fatalf("got %+v", got)
	}
}

func TestContentTypeParamsStripped(t *testing.T) {
	raw := []byte("HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\r\n")
	got, ok := ParseResponse(raw)
	if !ok || got.ContentType != "text/html" {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
}

func TestMissingContentLength(t *testing.T) {
	raw := []byte("HTTP/1.1 304 Not Modified\r\n\r\n")
	got, ok := ParseResponse(raw)
	if !ok || got.ContentLength != -1 {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
}

func TestTruncatedHeadStillYieldsHost(t *testing.T) {
	req := Request{Host: "api.netflix.com", Headers: map[string]string{"X-Long": "aaaa"}}
	raw := req.AppendRequest(nil)
	// Snap truncation mid-headers, after the Host line.
	cut := bytes.Index(raw, []byte("X-Long")) + 3
	got, ok := ParseRequest(raw[:cut])
	if !ok || got.Host != "api.netflix.com" {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
}

func TestNonHTTPRejected(t *testing.T) {
	for _, raw := range [][]byte{
		nil,
		[]byte("\x16\x03\x01\x00\x05hello"),
		[]byte("NOT A REQUEST"),
		[]byte("123 456 789\r\n"),
		[]byte("HTTP/1.1 abc OK\r\n"),
	} {
		if _, ok := ParseRequest(raw); ok {
			t.Errorf("ParseRequest(%q) accepted", raw)
		}
	}
	if _, ok := ParseResponse([]byte("GET / HTTP/1.1\r\n")); ok {
		t.Error("ParseResponse accepted a request line")
	}
}

func TestLoneLFAccepted(t *testing.T) {
	raw := []byte("GET / HTTP/1.1\nHost: a.b\n\n")
	got, ok := ParseRequest(raw)
	if !ok || got.Host != "a.b" {
		t.Fatalf("got %+v ok=%v", got, ok)
	}
}

func TestDefaultsInSerialization(t *testing.T) {
	raw := (&Request{Host: "h"}).AppendRequest(nil)
	if !bytes.HasPrefix(raw, []byte("GET / HTTP/1.1\r\n")) {
		t.Fatalf("raw = %q", raw)
	}
	rraw := (&Response{ContentLength: -1}).AppendResponse(nil)
	if !bytes.HasPrefix(rraw, []byte("HTTP/1.1 200 OK\r\n")) {
		t.Fatalf("rraw = %q", rraw)
	}
	if bytes.Contains(rraw, []byte("Content-Length")) {
		t.Fatal("negative Content-Length serialized")
	}
}

// fmtRequest and fmtResponse are the fmt-based renderings the append
// serializers replaced; the wire bytes must not change.
func fmtRequest(r *Request) []byte {
	var sb strings.Builder
	method, path := r.Method, r.Path
	if method == "" {
		method = "GET"
	}
	if path == "" {
		path = "/"
	}
	fmt.Fprintf(&sb, "%s %s HTTP/1.1\r\n", method, path)
	fmt.Fprintf(&sb, "Host: %s\r\n", r.Host)
	fmtHeaders(&sb, r.Headers)
	sb.WriteString("\r\n")
	return []byte(sb.String())
}

func fmtResponse(r *Response) []byte {
	var sb strings.Builder
	code := r.StatusCode
	if code == 0 {
		code = 200
	}
	fmt.Fprintf(&sb, "HTTP/1.1 %d %s\r\n", code, statusText(code))
	if r.ContentType != "" {
		fmt.Fprintf(&sb, "Content-Type: %s\r\n", r.ContentType)
	}
	if r.ContentLength >= 0 {
		fmt.Fprintf(&sb, "Content-Length: %d\r\n", r.ContentLength)
	}
	fmtHeaders(&sb, r.Headers)
	sb.WriteString("\r\n")
	return []byte(sb.String())
}

func fmtHeaders(sb *strings.Builder, headers map[string]string) {
	keys := make([]string, 0, len(headers))
	for k := range headers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(sb, "%s: %s\r\n", k, headers[k])
	}
}

func TestSerializeMatchesFmtRendering(t *testing.T) {
	many := map[string]string{}
	for i := 0; i < 12; i++ { // more than appendSorted's stack buffer
		many[fmt.Sprintf("X-H%02d", 11-i)] = fmt.Sprint(i)
	}
	reqs := []Request{
		{},
		{Host: "h"},
		{Method: "POST", Path: "/upload?x=1", Host: "api.example.com"},
		{Host: "www.dropbox.com", Headers: map[string]string{"User-Agent": "Mozilla/5.0 (cloudscope)"}},
		{Method: "HEAD", Path: "/a b", Host: "", Headers: map[string]string{"Zeta": "z", "Accept": "*/*", "Mid": ""}},
		{Host: "many.example", Headers: many},
	}
	for _, r := range reqs {
		if got, want := r.AppendRequest(nil), fmtRequest(&r); !bytes.Equal(got, want) {
			t.Errorf("request %+v:\ngot  %q\nwant %q", r, got, want)
		}
	}
	resps := []Response{
		{},
		{ContentLength: -1},
		{StatusCode: 404, ContentLength: 0},
		{StatusCode: 200, ContentType: "video/mp4", ContentLength: 1 << 40},
		{StatusCode: 999, ContentType: "text/html", ContentLength: -1, Headers: map[string]string{"Server": "Apache", "ETag": "\"x\"", "Age": "3"}},
		{StatusCode: 206, Headers: many},
	}
	for _, r := range resps {
		if got, want := r.AppendResponse(nil), fmtResponse(&r); !bytes.Equal(got, want) {
			t.Errorf("response %+v:\ngot  %q\nwant %q", r, got, want)
		}
	}
	// Headers come out in sorted key order.
	raw := string((&Request{Host: "h", Headers: map[string]string{"B": "2", "A": "1", "C": "3"}}).AppendRequest(nil))
	if want := "GET / HTTP/1.1\r\nHost: h\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n"; raw != want {
		t.Errorf("got %q, want %q", raw, want)
	}
}
