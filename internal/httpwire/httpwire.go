// Package httpwire serializes and parses the HTTP/1.1 messages that
// appear in the synthetic border capture. It is deliberately not
// net/http: the capture analyzer must parse header blocks out of
// possibly snap-truncated TCP payloads, exactly as the paper's Bro
// pipeline extracted Host and Content-Type fields, so the parser works
// on raw bytes and tolerates missing bodies.
package httpwire

import (
	"bytes"
	"slices"
	"strconv"
)

// Request is a parsed (or to-be-serialized) HTTP request head.
type Request struct {
	Method  string
	Path    string
	Host    string
	Headers map[string]string // Host excluded; nil when the head has no other header
}

// Response is a parsed (or to-be-serialized) HTTP response head.
type Response struct {
	StatusCode    int
	ContentType   string
	ContentLength int64             // -1 when absent
	Headers       map[string]string // nil when the head has no other header
}

// AppendRequest appends the request head (no body) to b.
func (r *Request) AppendRequest(b []byte) []byte {
	method := r.Method
	if method == "" {
		method = "GET"
	}
	path := r.Path
	if path == "" {
		path = "/"
	}
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, r.Host...)
	b = append(b, "\r\n"...)
	b = appendSorted(b, r.Headers)
	return append(b, "\r\n"...)
}

// AppendResponse appends the response head (no body) to b.
func (r *Response) AppendResponse(b []byte) []byte {
	code := r.StatusCode
	if code == 0 {
		code = 200
	}
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	b = append(b, statusText(code)...)
	b = append(b, "\r\n"...)
	if r.ContentType != "" {
		b = append(b, "Content-Type: "...)
		b = append(b, r.ContentType...)
		b = append(b, "\r\n"...)
	}
	if r.ContentLength >= 0 {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, r.ContentLength, 10)
		b = append(b, "\r\n"...)
	}
	b = appendSorted(b, r.Headers)
	return append(b, "\r\n"...)
}

// appendSorted appends headers as "k: v" lines in key order.
func appendSorted(b []byte, headers map[string]string) []byte {
	var small [8]string // typical heads sort without a heap slice
	keys := small[:0]
	for k := range headers {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b = append(b, k...)
		b = append(b, ": "...)
		b = append(b, headers[k]...)
		b = append(b, "\r\n"...)
	}
	return b
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 206:
		return "Partial Content"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	}
	return "Status"
}

// ParseRequest extracts a request head from the start of data. ok is
// false when data does not begin with a plausible HTTP request line.
// A truncated header block still yields the fields seen so far. The
// head is scanned in place: only the fields kept become strings.
func ParseRequest(data []byte) (req Request, ok bool) {
	line, rest, found := cutLine(data)
	if !found && len(line) == 0 {
		return req, false
	}
	// method SP path SP version, the version running to the line's end.
	method, after, ok1 := bytes.Cut(line, space)
	path, version, ok2 := bytes.Cut(after, space)
	if !ok1 || !ok2 || !bytes.HasPrefix(version, http1) || !isToken(method) {
		return req, false
	}
	req.Method = string(method)
	req.Path = string(path)
	for {
		var hline []byte
		hline, rest, found = cutLine(rest)
		if len(hline) == 0 {
			break
		}
		k, v, hok := cutHeader(hline)
		if !hok {
			break
		}
		if bytes.EqualFold(k, []byte("Host")) {
			req.Host = string(v)
		} else {
			if req.Headers == nil {
				req.Headers = map[string]string{}
			}
			req.Headers[string(k)] = string(v)
		}
		if !found {
			break
		}
	}
	return req, true
}

// ParseResponse extracts a response head from the start of data.
func ParseResponse(data []byte) (resp Response, ok bool) {
	resp.ContentLength = -1
	line, rest, found := cutLine(data)
	if !found && len(line) == 0 {
		return resp, false
	}
	if !bytes.HasPrefix(line, http1) {
		return resp, false
	}
	_, after, hasCode := bytes.Cut(line, space)
	if !hasCode {
		return resp, false
	}
	codeText, _, _ := bytes.Cut(after, space)
	code, err := strconv.Atoi(string(codeText))
	if err != nil || code < 100 || code > 599 {
		return resp, false
	}
	resp.StatusCode = code
	for {
		var hline []byte
		hline, rest, found = cutLine(rest)
		if len(hline) == 0 {
			break
		}
		k, v, hok := cutHeader(hline)
		if !hok {
			break
		}
		switch {
		case bytes.EqualFold(k, []byte("Content-Type")):
			mediaType, _, _ := bytes.Cut(v, []byte(";"))
			resp.ContentType = string(bytes.TrimSpace(mediaType))
		case bytes.EqualFold(k, []byte("Content-Length")):
			if n, err := strconv.ParseInt(string(v), 10, 64); err == nil {
				resp.ContentLength = n
			}
		default:
			if resp.Headers == nil {
				resp.Headers = map[string]string{}
			}
			resp.Headers[string(k)] = string(v)
		}
		if !found {
			break
		}
	}
	return resp, true
}

var (
	space = []byte(" ")
	http1 = []byte("HTTP/1.")
)

// cutLine splits at the first CRLF (or lone LF). found is false when no
// terminator existed (line holds the partial tail). line aliases data.
func cutLine(data []byte) (line, rest []byte, found bool) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return data, nil, false
	}
	end := i
	if end > 0 && data[end-1] == '\r' {
		end--
	}
	return data[:end], data[i+1:], true
}

// cutHeader splits a "key: value" line into its trimmed key and value,
// both aliasing line.
func cutHeader(line []byte) (key, value []byte, ok bool) {
	colon := bytes.IndexByte(line, ':')
	if colon <= 0 {
		return nil, nil, false
	}
	return bytes.TrimSpace(line[:colon]), bytes.TrimSpace(line[colon+1:]), true
}

func isToken(s []byte) bool {
	if len(s) == 0 {
		return false
	}
	for _, c := range s {
		if !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c == '-') {
			return false
		}
	}
	return true
}
