// Package der implements the small subset of ASN.1 DER needed to build
// and parse the X.509-style certificates appearing in the synthetic
// capture's TLS handshakes: TLV encoding with definite lengths,
// SEQUENCE/SET constructors, OIDs, and printable strings.
package der

import (
	"bytes"
	"errors"
	"fmt"
)

// Universal tags used by the certificate encoder.
const (
	TagInteger         = 0x02
	TagOID             = 0x06
	TagPrintableString = 0x13
	TagUTF8String      = 0x0c
	TagSequence        = 0x30
	TagSet             = 0x31
)

// Errors.
var (
	ErrTruncated = errors.New("der: truncated")
	ErrBadLength = errors.New("der: bad length")
)

// TLV is one decoded element.
type TLV struct {
	Tag   int
	Value []byte
}

// Encode renders a TLV with definite-length encoding.
func Encode(tag int, value []byte) []byte {
	return append(AppendHeader(make([]byte, 0, Len(len(value))), tag, len(value)), value...)
}

// AppendHeader appends the tag and definite length of a TLV holding n
// content bytes; the caller appends the content itself. With Len, it
// lets an encoder write nested TLVs front to back into one buffer.
func AppendHeader(b []byte, tag, n int) []byte {
	b = append(b, byte(tag))
	switch {
	case n < 0x80:
		return append(b, byte(n))
	case n <= 0xff:
		return append(b, 0x81, byte(n))
	case n <= 0xffff:
		return append(b, 0x82, byte(n>>8), byte(n))
	default:
		return append(b, 0x83, byte(n>>16), byte(n>>8), byte(n))
	}
}

// Len returns the encoded size of a TLV holding n content bytes.
func Len(n int) int {
	switch {
	case n < 0x80:
		return 2 + n
	case n <= 0xff:
		return 3 + n
	case n <= 0xffff:
		return 4 + n
	default:
		return 5 + n
	}
}

// Sequence encodes a SEQUENCE of already-encoded children.
func Sequence(children ...[]byte) []byte {
	return Encode(TagSequence, bytes.Join(children, nil))
}

// Set encodes a SET of already-encoded children.
func Set(children ...[]byte) []byte {
	return Encode(TagSet, bytes.Join(children, nil))
}

// PrintableString encodes s.
func PrintableString(s string) []byte { return Encode(TagPrintableString, []byte(s)) }

// Integer encodes a small non-negative integer.
func Integer(v uint64) []byte {
	var b []byte
	for v > 0 {
		b = append([]byte{byte(v & 0xff)}, b...)
		v >>= 8
	}
	if len(b) == 0 || b[0]&0x80 != 0 {
		b = append([]byte{0}, b...)
	}
	return Encode(TagInteger, b)
}

// OID encodes an object identifier from its arc values.
func OID(arcs ...int) []byte {
	if len(arcs) < 2 {
		panic("der: OID needs at least two arcs")
	}
	out := []byte{byte(arcs[0]*40 + arcs[1])}
	for _, arc := range arcs[2:] {
		out = append(out, base128(arc)...)
	}
	return Encode(TagOID, out)
}

func base128(v int) []byte {
	if v == 0 {
		return []byte{0}
	}
	var tmp []byte
	for v > 0 {
		tmp = append([]byte{byte(v & 0x7f)}, tmp...)
		v >>= 7
	}
	for i := 0; i < len(tmp)-1; i++ {
		tmp[i] |= 0x80
	}
	return tmp
}

// Parse decodes the first TLV in data, returning it and the remainder.
func Parse(data []byte) (TLV, []byte, error) {
	if len(data) < 2 {
		return TLV{}, nil, ErrTruncated
	}
	tag := int(data[0])
	lb := data[1]
	var n, skip int
	switch {
	case lb < 0x80:
		n, skip = int(lb), 2
	case lb == 0x81:
		if len(data) < 3 {
			return TLV{}, nil, ErrTruncated
		}
		n, skip = int(data[2]), 3
	case lb == 0x82:
		if len(data) < 4 {
			return TLV{}, nil, ErrTruncated
		}
		n, skip = int(data[2])<<8|int(data[3]), 4
	case lb == 0x83:
		if len(data) < 5 {
			return TLV{}, nil, ErrTruncated
		}
		n, skip = int(data[2])<<16|int(data[3])<<8|int(data[4]), 5
	default:
		return TLV{}, nil, fmt.Errorf("%w: form %#02x", ErrBadLength, lb)
	}
	if len(data) < skip+n {
		return TLV{}, nil, ErrTruncated
	}
	return TLV{Tag: tag, Value: data[skip : skip+n]}, data[skip+n:], nil
}

// Children parses all TLVs inside a constructed value.
func Children(value []byte) ([]TLV, error) {
	var out []TLV
	for len(value) > 0 {
		tlv, rest, err := Parse(value)
		if err != nil {
			return nil, err
		}
		out = append(out, tlv)
		value = rest
	}
	return out, nil
}

// FindString walks a DER structure depth-first and returns the first
// printable/UTF8 string directly following an OID equal to want
// (encoded form, tag+len stripped). This is how the capture analyzer
// digs the CN out of a certificate's subject.
func FindString(data []byte, wantOID []byte) (string, bool) {
	tlvs, err := Children(data)
	if err != nil {
		return "", false
	}
	prevWasOID := false
	for _, tlv := range tlvs {
		switch tlv.Tag {
		case TagOID:
			prevWasOID = bytes.Equal(tlv.Value, wantOID)
		case TagPrintableString, TagUTF8String:
			if prevWasOID {
				return string(tlv.Value), true
			}
			prevWasOID = false
		case TagSequence, TagSet:
			if s, ok := FindString(tlv.Value, wantOID); ok {
				return s, true
			}
			prevWasOID = false
		default:
			prevWasOID = false
		}
	}
	return "", false
}

// OIDCommonName is the encoded value of id-at-commonName (2.5.4.3),
// without the tag/length prefix.
var OIDCommonName = []byte{0x55, 0x04, 0x03}
