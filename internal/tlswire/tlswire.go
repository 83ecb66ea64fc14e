// Package tlswire frames the TLS 1.0/1.2 records and handshake messages
// the synthetic capture needs: a ClientHello carrying an SNI extension
// and a Certificate message carrying a minimal DER certificate whose
// subject CN names the server. The capture analyzer extracts SNI and CN
// the way the paper used Bro: TLS hides HTTP hostnames, so certificate
// common names stand in for them.
//
// No cryptography is involved — the capture never completes a real
// handshake; it records the cleartext handshake flights real captures
// expose.
package tlswire

import (
	"encoding/binary"
	"errors"

	"cloudscope/internal/der"
)

// Record content types.
const (
	RecordHandshake       = 22
	RecordApplicationData = 23
)

// Handshake message types.
const (
	HandshakeClientHello = 1
	HandshakeServerHello = 2
	HandshakeCertificate = 11
)

// VersionTLS12 is the record version used throughout.
const VersionTLS12 = 0x0303

// Errors.
var (
	ErrTruncated = errors.New("tlswire: truncated")
	ErrBadRecord = errors.New("tlswire: malformed record")
)

// The Append builders write each record front to back into the
// caller's buffer, leaving its fixed-width length fields open and
// filling them in once the body is written, so building a flight costs
// no allocation when the buffer has room.

// beginRecord appends a record header whose length is filled in by
// endRecord, returning the record's offset in b.
func beginRecord(b []byte, contentType byte) ([]byte, int) {
	return append(b, contentType, VersionTLS12>>8, VersionTLS12&0xff, 0, 0), len(b)
}

// endRecord fills in the length of the record begun at start.
func endRecord(b []byte, start int) []byte {
	binary.BigEndian.PutUint16(b[start+3:], uint16(len(b)-start-5))
	return b
}

// beginHandshake appends a handshake record's two headers, returning
// the record's offset in b for endHandshake.
func beginHandshake(b []byte, msgType byte) ([]byte, int) {
	b, start := beginRecord(b, RecordHandshake)
	return append(b, msgType, 0, 0, 0), start
}

// endHandshake fills in the message and record lengths of the
// handshake record begun at start.
func endHandshake(b []byte, start int) []byte {
	putUint24(b[start+6:], len(b)-start-9)
	return endRecord(b, start)
}

func putUint24(b []byte, v int) {
	b[0], b[1], b[2] = byte(v>>16), byte(v>>8), byte(v)
}

// zeroRandom is the hellos' 32-byte random field.
var zeroRandom [32]byte

// AppendClientHello appends a handshake record containing a ClientHello
// with a server_name extension for sni.
func AppendClientHello(b []byte, sni string) []byte {
	b, start := beginHandshake(b, HandshakeClientHello)
	b = binary.BigEndian.AppendUint16(b, VersionTLS12)
	b = append(b, zeroRandom[:]...)
	b = append(b, 0) // session id length
	b = binary.BigEndian.AppendUint16(b, 2)
	b = binary.BigEndian.AppendUint16(b, 0x002f) // one cipher suite
	b = append(b, 1, 0)                          // compression: null
	// One extension, server_name (type 0), holding one host_name.
	b = binary.BigEndian.AppendUint16(b, uint16(len(sni)+9)) // extensions length
	b = binary.BigEndian.AppendUint16(b, 0)                  // extension type
	b = binary.BigEndian.AppendUint16(b, uint16(len(sni)+5)) // extension length
	b = binary.BigEndian.AppendUint16(b, uint16(len(sni)+3)) // server_name_list length
	b = append(b, 0)                                         // name type: host_name
	b = binary.BigEndian.AppendUint16(b, uint16(len(sni)))
	b = append(b, sni...)
	return endHandshake(b, start)
}

// AppendServerHello appends a minimal ServerHello record.
func AppendServerHello(b []byte) []byte {
	b, start := beginHandshake(b, HandshakeServerHello)
	b = binary.BigEndian.AppendUint16(b, VersionTLS12)
	b = append(b, zeroRandom[:]...)
	b = append(b, 0) // session id length
	b = binary.BigEndian.AppendUint16(b, 0x002f)
	b = append(b, 0) // compression
	return endHandshake(b, start)
}

// AppendCertificate appends a Certificate record whose single
// certificate has subject CN = commonName.
func AppendCertificate(b []byte, commonName string) []byte {
	b, start := beginHandshake(b, HandshakeCertificate)
	// certificate_list: 3-byte total length, then 3-byte per-cert length.
	lists := len(b)
	b = appendCert(append(b, 0, 0, 0, 0, 0, 0), commonName)
	putUint24(b[lists:], len(b)-lists-3)
	putUint24(b[lists+3:], len(b)-lists-6)
	return endHandshake(b, start)
}

// certSerial is every certificate's serial number, DER-encoded.
var certSerial = der.Integer(0x01beef)

// appendCert appends a compact X.509-shaped DER structure: a SEQUENCE
// holding a serial and a subject Name with one CN RDN. DER lengths
// vary in width, so each is sized from its content before it is
// written.
func appendCert(b []byte, cn string) []byte {
	atv := der.Len(len(der.OIDCommonName)) + der.Len(len(cn)) // AttributeTypeAndValue
	rdn := der.Len(atv)                                       // the SET holding it
	name := der.Len(rdn)                                      // the subject Name
	b = der.AppendHeader(b, der.TagSequence, len(certSerial)+der.Len(name))
	b = append(b, certSerial...)
	b = der.AppendHeader(b, der.TagSequence, name)
	b = der.AppendHeader(b, der.TagSet, rdn)
	b = der.AppendHeader(b, der.TagSequence, atv)
	b = der.AppendHeader(b, der.TagOID, len(der.OIDCommonName))
	b = append(b, der.OIDCommonName...)
	b = der.AppendHeader(b, der.TagPrintableString, len(cn))
	return append(b, cn...)
}

// AppendApplicationData appends one opaque application-data record of
// length bytes of ciphertext (capped at the TLS maximum of 16384);
// the payload bytes are zeros (truncated in snap captures anyway).
func AppendApplicationData(b []byte, length int) []byte {
	length = min(length, 16384)
	b, start := beginRecord(b, RecordApplicationData)
	b = append(b, make([]byte, length)...)
	return endRecord(b, start)
}

// ParseRecord splits one TLS record off data.
func ParseRecord(data []byte) (contentType byte, payload []byte, rest []byte, err error) {
	if len(data) < 5 {
		return 0, nil, nil, ErrTruncated
	}
	contentType = data[0]
	n := int(binary.BigEndian.Uint16(data[3:5]))
	if len(data) < 5+n {
		// Snap truncation: return what exists.
		return contentType, data[5:], nil, nil
	}
	return contentType, data[5 : 5+n], data[5+n:], nil
}

// SNI extracts the server name from a ClientHello record at the start
// of data.
func SNI(data []byte) (string, bool) {
	ct, payload, _, err := ParseRecord(data)
	if err != nil || ct != RecordHandshake || len(payload) < 4 || payload[0] != HandshakeClientHello {
		return "", false
	}
	body := payload[4:]
	// Skip version(2) random(32) then session id, ciphers, compression.
	if len(body) < 35 {
		return "", false
	}
	p := 34
	p += 1 + int(body[p]) // session id
	if len(body) < p+2 {
		return "", false
	}
	p += 2 + int(binary.BigEndian.Uint16(body[p:])) // cipher suites
	if len(body) < p+1 {
		return "", false
	}
	p += 1 + int(body[p]) // compression methods
	if len(body) < p+2 {
		return "", false
	}
	extLen := int(binary.BigEndian.Uint16(body[p:]))
	p += 2
	if len(body) < p+extLen {
		return "", false
	}
	exts := body[p : p+extLen]
	for len(exts) >= 4 {
		extType := binary.BigEndian.Uint16(exts[0:2])
		n := int(binary.BigEndian.Uint16(exts[2:4]))
		if len(exts) < 4+n {
			return "", false
		}
		if extType == 0 {
			inner := exts[4 : 4+n]
			if len(inner) < 5 {
				return "", false
			}
			nameLen := int(binary.BigEndian.Uint16(inner[3:5]))
			if len(inner) < 5+nameLen {
				return "", false
			}
			return string(inner[5 : 5+nameLen]), true
		}
		exts = exts[4+n:]
	}
	return "", false
}

// CertificateCN extracts the subject CN from a Certificate record at
// the start of data (tolerating snap truncation of later bytes).
func CertificateCN(data []byte) (string, bool) {
	ct, payload, _, err := ParseRecord(data)
	if err != nil || ct != RecordHandshake || len(payload) < 4 || payload[0] != HandshakeCertificate {
		return "", false
	}
	body := payload[4:]
	if len(body) < 6 {
		return "", false
	}
	certLen := int(body[3])<<16 | int(body[4])<<8 | int(body[5])
	if len(body) < 6+certLen {
		certLen = len(body) - 6
	}
	cert := body[6 : 6+certLen]
	tlv, _, err := der.Parse(cert)
	if err != nil || tlv.Tag != der.TagSequence {
		return "", false
	}
	return der.FindString(tlv.Value, der.OIDCommonName)
}
