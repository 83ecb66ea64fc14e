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

// record frames a payload as one TLS record.
func record(contentType byte, payload []byte) []byte {
	out := make([]byte, 5+len(payload))
	out[0] = contentType
	binary.BigEndian.PutUint16(out[1:3], VersionTLS12)
	binary.BigEndian.PutUint16(out[3:5], uint16(len(payload)))
	copy(out[5:], payload)
	return out
}

// handshake frames a handshake message body.
func handshake(msgType byte, body []byte) []byte {
	out := make([]byte, 4+len(body))
	out[0] = msgType
	out[1] = byte(len(body) >> 16)
	out[2] = byte(len(body) >> 8)
	out[3] = byte(len(body))
	copy(out[4:], body)
	return out
}

// ClientHello builds a handshake record containing a ClientHello with a
// server_name extension for sni.
func ClientHello(sni string) []byte {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, VersionTLS12)
	body = append(body, make([]byte, 32)...) // random
	body = append(body, 0)                   // session id length
	body = binary.BigEndian.AppendUint16(body, 2)
	body = binary.BigEndian.AppendUint16(body, 0x002f) // one cipher suite
	body = append(body, 1, 0)                          // compression: null

	// server_name extension (type 0).
	name := []byte(sni)
	var ext []byte
	ext = binary.BigEndian.AppendUint16(ext, 0) // extension type
	inner := make([]byte, 0, len(name)+5)
	inner = binary.BigEndian.AppendUint16(inner, uint16(len(name)+3)) // server_name_list length
	inner = append(inner, 0)                                          // name type: host_name
	inner = binary.BigEndian.AppendUint16(inner, uint16(len(name)))
	inner = append(inner, name...)
	ext = binary.BigEndian.AppendUint16(ext, uint16(len(inner)))
	ext = append(ext, inner...)

	body = binary.BigEndian.AppendUint16(body, uint16(len(ext)))
	body = append(body, ext...)
	return record(RecordHandshake, handshake(HandshakeClientHello, body))
}

// ServerHello builds a minimal ServerHello record.
func ServerHello() []byte {
	var body []byte
	body = binary.BigEndian.AppendUint16(body, VersionTLS12)
	body = append(body, make([]byte, 32)...) // random
	body = append(body, 0)                   // session id length
	body = binary.BigEndian.AppendUint16(body, 0x002f)
	body = append(body, 0) // compression
	return record(RecordHandshake, handshake(HandshakeServerHello, body))
}

// Certificate builds a Certificate record whose single certificate has
// subject CN = commonName.
func Certificate(commonName string) []byte {
	cert := buildCert(commonName)
	// certificate_list: 3-byte total length, then 3-byte per-cert length.
	body := make([]byte, 0, len(cert)+6)
	total := len(cert) + 3
	body = append(body, byte(total>>16), byte(total>>8), byte(total))
	body = append(body, byte(len(cert)>>16), byte(len(cert)>>8), byte(len(cert)))
	body = append(body, cert...)
	return record(RecordHandshake, handshake(HandshakeCertificate, body))
}

// buildCert produces a compact X.509-shaped DER structure: a SEQUENCE
// holding a serial and a subject Name with one CN RDN.
func buildCert(cn string) []byte {
	subject := der.Sequence(
		der.Set(der.Sequence(
			der.Encode(der.TagOID, der.OIDCommonName),
			der.PrintableString(cn),
		)),
	)
	return der.Sequence(
		der.Integer(0x01beef),
		subject,
	)
}

// ApplicationData builds one opaque application-data record header for
// length bytes of ciphertext; payload bytes are zeros (truncated in
// snap captures anyway).
func ApplicationData(length int) []byte {
	if length > 16384 {
		length = 16384
	}
	return record(RecordApplicationData, make([]byte, length))
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
