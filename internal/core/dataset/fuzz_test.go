package dataset

import (
	"bytes"
	"testing"
)

// writeRead is one WriteTo∘Read pass over a dataset file.
func writeRead(data []byte) ([]byte, error) {
	d, err := Read(bytes.NewReader(data), nil)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if _, err := d.WriteTo(&out); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// FuzzRead throws arbitrary bytes at the dataset text reader, which
// loads saved datasets (experiments -save) from outside the program.
// Malformed input must come back as an error, never a panic, and
// WriteTo∘Read is idempotent: whatever Read accepts is rewritten in
// the canonical form, which reads back and rewrites to itself.
func FuzzRead(f *testing.F) {
	valid := "# cloudscope alexa-subdomains dataset: 2 domains, 1 cloud subdomains\n" +
		"D amazon.com 1 68 1\n" +
		"D example.org 0 3 0\n" +
		"S ws.amazon.com amazon.com\n" +
		"R ws.amazon.com CNAME 300 elb.us-east-1.amazonaws.com\n" +
		"R elb.us-east-1.amazonaws.com A 60 54.230.0.1\n" +
		"E\n"
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)-2])) // unterminated S block
	f.Add([]byte("  D b.com 1 +2 007 \r\n\n# comment\nD a.com 9 0 -1\n"))
	f.Add([]byte("S x.com com\nR x.com MX 60 foo\nE\n"))
	f.Add([]byte("D x.com 0 1 0\nD x.com 0 1 0\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		once, err := writeRead(data)
		if err != nil {
			return
		}
		twice, err := writeRead(once)
		if err != nil {
			t.Fatalf("Read rejects WriteTo's own output: %v\n%s", err, once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("WriteTo∘Read is not idempotent:\n%s\nthen\n%s", once, twice)
		}
	})
}
