// Package httpwire serializes and parses the HTTP/1.1 messages that
// appear in the synthetic border capture. It is deliberately not
// net/http: the capture analyzer must parse header blocks out of
// possibly snap-truncated TCP payloads, exactly as the paper's Bro
// pipeline extracted Host and Content-Type fields, so the parser works
// on raw bytes and tolerates missing bodies.
package httpwire

import (
	"slices"
	"strconv"
	"strings"
)

// Request is a parsed (or to-be-serialized) HTTP request head.
type Request struct {
	Method  string
	Path    string
	Host    string
	Headers map[string]string // canonical-cased keys, Host excluded
}

// Response is a parsed (or to-be-serialized) HTTP response head.
type Response struct {
	StatusCode    int
	ContentType   string
	ContentLength int64 // -1 when absent
	Headers       map[string]string
}

// headCap is the initial buffer size of a serialized head; most of
// the capture's heads fit in it.
const headCap = 128

// SerializeRequest renders the request head (no body).
func (r *Request) SerializeRequest() []byte {
	method := r.Method
	if method == "" {
		method = "GET"
	}
	path := r.Path
	if path == "" {
		path = "/"
	}
	b := make([]byte, 0, headCap)
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, r.Host...)
	b = append(b, "\r\n"...)
	b = appendSorted(b, r.Headers)
	return append(b, "\r\n"...)
}

// SerializeResponse renders the response head (no body).
func (r *Response) SerializeResponse() []byte {
	code := r.StatusCode
	if code == 0 {
		code = 200
	}
	b := make([]byte, 0, headCap)
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
// A truncated header block still yields the fields seen so far.
func ParseRequest(data []byte) (req Request, ok bool) {
	line, rest, found := cutLine(data)
	if !found && len(line) == 0 {
		return req, false
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return req, false
	}
	if !isToken(parts[0]) {
		return req, false
	}
	req.Method = parts[0]
	req.Path = parts[1]
	req.Headers = map[string]string{}
	for {
		var hline string
		hline, rest, found = cutLine(rest)
		if hline == "" {
			break
		}
		k, v, hok := cutHeader(hline)
		if !hok {
			break
		}
		if strings.EqualFold(k, "Host") {
			req.Host = v
		} else {
			req.Headers[k] = v
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
	if !strings.HasPrefix(line, "HTTP/1.") {
		return resp, false
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) < 2 {
		return resp, false
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil || code < 100 || code > 599 {
		return resp, false
	}
	resp.StatusCode = code
	resp.Headers = map[string]string{}
	for {
		var hline string
		hline, rest, found = cutLine(rest)
		if hline == "" {
			break
		}
		k, v, hok := cutHeader(hline)
		if !hok {
			break
		}
		switch {
		case strings.EqualFold(k, "Content-Type"):
			resp.ContentType = strings.TrimSpace(strings.SplitN(v, ";", 2)[0])
		case strings.EqualFold(k, "Content-Length"):
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				resp.ContentLength = n
			}
		default:
			resp.Headers[k] = v
		}
		if !found {
			break
		}
	}
	return resp, true
}

// cutLine splits at the first CRLF (or lone LF). found is false when no
// terminator existed (line holds the partial tail).
func cutLine(data []byte) (line string, rest []byte, found bool) {
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			end := i
			if end > 0 && data[end-1] == '\r' {
				end--
			}
			return string(data[:end]), data[i+1:], true
		}
	}
	return string(data), nil, false
}

func cutHeader(line string) (key, value string, ok bool) {
	colon := strings.IndexByte(line, ':')
	if colon <= 0 {
		return "", "", false
	}
	return strings.TrimSpace(line[:colon]), strings.TrimSpace(line[colon+1:]), true
}

func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'A' && c <= 'Z' || c >= 'a' && c <= 'z' || c == '-') {
			return false
		}
	}
	return true
}
