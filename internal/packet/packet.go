// Package packet implements the packet layers the border-capture
// pipeline produces and parses: Ethernet, IPv4, TCP, UDP, and ICMP,
// with correct lengths and checksums on serialization (frame.go) and
// strict validation on decode.
//
// The design follows gopacket's layering model in miniature: each layer
// type knows how to decode itself from bytes, and Decode walks the
// stack producing a Packet whose layers can be inspected. Five-tuple
// Flow values are comparable and usable as map keys, like gopacket's
// Flow/Endpoint.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cloudscope/internal/netaddr"
)

// EtherType values.
const (
	EtherTypeIPv4 uint16 = 0x0800
)

// IP protocol numbers.
const (
	ProtoICMP uint8 = 1
	ProtoTCP  uint8 = 6
	ProtoUDP  uint8 = 17
)

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// Errors returned by decoders.
var (
	ErrTruncated = errors.New("packet: truncated")
	ErrBadField  = errors.New("packet: invalid field")
	ErrChecksum  = errors.New("packet: bad checksum")
	// ErrUnknownTransport is returned by Decode for IP protocols other
	// than TCP/UDP/ICMP. The returned Packet still carries the valid
	// Ethernet and IPv4 layers (with the rest in Payload), so analyzers
	// can account for exotic traffic (IPv6-in-IPv4, GRE, ...) the way
	// Bro files it under "other".
	ErrUnknownTransport = errors.New("packet: unknown transport protocol")
)

// MAC is an Ethernet address.
type MAC [6]byte

// String returns colon-separated hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Ethernet is the link layer.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
}

const ethernetLen = 14

// Decode parses the header and returns the payload.
func (e *Ethernet) Decode(data []byte) (payload []byte, err error) {
	if len(data) < ethernetLen {
		return nil, ErrTruncated
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = binary.BigEndian.Uint16(data[12:14])
	return data[ethernetLen:], nil
}

// IPv4 is the network layer (no options support; IHL is fixed at 5).
type IPv4 struct {
	TOS         uint8
	TotalLength uint16
	ID          uint16
	TTL         uint8
	Protocol    uint8
	Checksum    uint16
	Src, Dst    netaddr.IP
}

const ipv4Len = 20

// Decode parses the header, verifies the checksum, and returns the
// payload clipped to TotalLength.
func (ip *IPv4) Decode(data []byte) (payload []byte, err error) {
	if len(data) < ipv4Len {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 4 {
		return nil, fmt.Errorf("%w: version %d", ErrBadField, data[0]>>4)
	}
	ihl := int(data[0]&0xf) * 4
	if ihl < ipv4Len || len(data) < ihl {
		return nil, fmt.Errorf("%w: IHL %d", ErrBadField, ihl)
	}
	if checksum16(data[:ihl], 0) != 0 {
		return nil, ErrChecksum
	}
	ip.TOS = data[1]
	ip.TotalLength = binary.BigEndian.Uint16(data[2:4])
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.TTL = data[8]
	ip.Protocol = data[9]
	ip.Checksum = binary.BigEndian.Uint16(data[10:12])
	ip.Src = netaddr.IP(binary.BigEndian.Uint32(data[12:16]))
	ip.Dst = netaddr.IP(binary.BigEndian.Uint32(data[16:20]))
	end := int(ip.TotalLength)
	if end < ihl {
		return nil, fmt.Errorf("%w: total length %d < IHL", ErrBadField, end)
	}
	if end > len(data) {
		// Snap-length truncation: the header says more than was
		// captured. Return what we have.
		end = len(data)
	}
	return data[ihl:end], nil
}

// TCP is the transport layer (no options; data offset fixed at 5).
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
}

const tcpLen = 20

// Decode parses the header and returns the payload. The checksum is not
// verified by default because snap-truncated captures cannot carry the
// full segment; use VerifyTCPChecksum for intact packets.
func (t *TCP) Decode(data []byte) (payload []byte, err error) {
	if len(data) < tcpLen {
		return nil, ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:2])
	t.DstPort = binary.BigEndian.Uint16(data[2:4])
	t.Seq = binary.BigEndian.Uint32(data[4:8])
	t.Ack = binary.BigEndian.Uint32(data[8:12])
	off := int(data[12]>>4) * 4
	if off < tcpLen {
		return nil, fmt.Errorf("%w: data offset %d", ErrBadField, off)
	}
	if off > len(data) {
		return nil, ErrTruncated
	}
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:16])
	t.Checksum = binary.BigEndian.Uint16(data[16:18])
	return data[off:], nil
}

// UDP is the transport layer for datagrams.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

const udpLen = 8

// Decode parses the header and returns the payload.
func (u *UDP) Decode(data []byte) (payload []byte, err error) {
	if len(data) < udpLen {
		return nil, ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:2])
	u.DstPort = binary.BigEndian.Uint16(data[2:4])
	u.Length = binary.BigEndian.Uint16(data[4:6])
	u.Checksum = binary.BigEndian.Uint16(data[6:8])
	return data[udpLen:], nil
}

// ICMP covers echo request/reply.
type ICMP struct {
	Type, Code uint8
	Checksum   uint16
}

const icmpLen = 4

// Decode parses the header and returns the payload.
func (ic *ICMP) Decode(data []byte) (payload []byte, err error) {
	if len(data) < icmpLen {
		return nil, ErrTruncated
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = binary.BigEndian.Uint16(data[2:4])
	return data[icmpLen:], nil
}

// checksum16 is the Internet checksum over data with an initial sum.
func checksum16(data []byte, initial uint32) uint16 {
	sum := initial
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// transportChecksum computes the TCP/UDP checksum with the IPv4
// pseudo-header. The checksum field inside segment must be zero.
func transportChecksum(src, dst netaddr.IP, proto uint8, segment []byte) uint16 {
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:4], uint32(src))
	binary.BigEndian.PutUint32(pseudo[4:8], uint32(dst))
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	sum := uint32(0)
	for i := 0; i < 12; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(pseudo[i : i+2]))
	}
	return checksum16(segment, sum)
}

// VerifyTCPChecksum reports whether a full (untruncated) TCP segment's
// checksum is valid.
func VerifyTCPChecksum(src, dst netaddr.IP, segment []byte) bool {
	if len(segment) < tcpLen {
		return false
	}
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:4], uint32(src))
	binary.BigEndian.PutUint32(pseudo[4:8], uint32(dst))
	pseudo[9] = ProtoTCP
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	sum := uint32(0)
	for i := 0; i < 12; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(pseudo[i : i+2]))
	}
	return checksum16(segment, sum) == 0
}

// Packet is a decoded packet stack.
type Packet struct {
	Ethernet Ethernet
	IPv4     IPv4
	// Exactly one of the following is meaningful, per IPv4.Protocol.
	TCP     TCP
	UDP     UDP
	ICMP    ICMP
	Payload []byte
}

// Decode parses an Ethernet frame into a Packet. Non-IPv4 frames and
// unknown transports yield an error identifying what was unsupported.
func Decode(frame []byte) (*Packet, error) {
	p := &Packet{}
	if err := DecodeHeaders(p, frame); err != nil {
		if errors.Is(err, ErrUnknownTransport) {
			return p, err
		}
		return nil, err
	}
	return p, nil
}

// DecodeHeaders decodes frame's link, network, and transport headers
// into p without heap-allocating: p can live on the caller's stack or
// in a reused slot, and p.Payload is a view into frame — the lazy half
// of the decode, left for callers to parse on demand (most packets'
// application bytes are never looked at). On ErrUnknownTransport the
// Ethernet and IPv4 layers are valid and Payload carries the rest; on
// any other error p is partially filled and must not be used.
func DecodeHeaders(p *Packet, frame []byte) error {
	rest, err := p.Ethernet.Decode(frame)
	if err != nil {
		return err
	}
	if p.Ethernet.EtherType != EtherTypeIPv4 {
		return fmt.Errorf("%w: ethertype %#04x", ErrBadField, p.Ethernet.EtherType)
	}
	rest, err = p.IPv4.Decode(rest)
	if err != nil {
		return err
	}
	switch p.IPv4.Protocol {
	case ProtoTCP:
		p.Payload, err = p.TCP.Decode(rest)
	case ProtoUDP:
		p.Payload, err = p.UDP.Decode(rest)
	case ProtoICMP:
		p.Payload, err = p.ICMP.Decode(rest)
	default:
		p.Payload = rest
		return ErrUnknownTransport
	}
	return err
}

// Flow is a comparable transport five-tuple.
type Flow struct {
	Proto            uint8
	Src, Dst         netaddr.IP
	SrcPort, DstPort uint16
}

// Flow extracts the packet's five-tuple (ports zero for ICMP).
func (p *Packet) Flow() Flow {
	f := Flow{Proto: p.IPv4.Protocol, Src: p.IPv4.Src, Dst: p.IPv4.Dst}
	switch p.IPv4.Protocol {
	case ProtoTCP:
		f.SrcPort, f.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case ProtoUDP:
		f.SrcPort, f.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return f
}

// Reverse returns the opposite direction's tuple.
func (f Flow) Reverse() Flow {
	return Flow{Proto: f.Proto, Src: f.Dst, Dst: f.Src, SrcPort: f.DstPort, DstPort: f.SrcPort}
}

// Canonical returns a direction-independent key: the lexicographically
// smaller of f and f.Reverse(), so both directions of a connection map
// to one value (the symmetric-hash property gopacket's FastHash has).
func (f Flow) Canonical() Flow {
	r := f.Reverse()
	if f.Src < r.Src || (f.Src == r.Src && f.SrcPort <= r.SrcPort) {
		return f
	}
	return r
}

// String renders "proto src:port > dst:port".
func (f Flow) String() string {
	return fmt.Sprintf("%d %s:%d > %s:%d", f.Proto, f.Src, f.SrcPort, f.Dst, f.DstPort)
}
