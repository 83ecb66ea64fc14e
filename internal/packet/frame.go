package packet

import (
	"encoding/binary"
)

// This file is the package's only encoder, the zero-copy write half of
// the capture hot loop. Each Put*Frame builds a complete
// Ethernet/IPv4/transport frame directly into a caller-provided buffer
// (typically a pcapio.Block's reserved record slice) with no
// intermediate allocations. dst must be zeroed (block reservations are)
// and exactly *FrameLen(len(payload)) bytes long.
//
// The encoders write back what they default or compute: a zero TTL
// becomes 64 and a zero TCP Window 65535; IPv4 TotalLength is raised to
// the real datagram length but a larger pre-set value is kept (a
// snap-truncated frame describing the original datagram); the UDP
// Length and every checksum — IPv4 header, ICMP, and TCP/UDP over the
// IPv4 pseudo-header — are computed over the bytes written.

// TCPFrameLen returns the byte length of an Ethernet+IPv4+TCP frame
// carrying payloadLen application bytes.
func TCPFrameLen(payloadLen int) int { return ethernetLen + ipv4Len + tcpLen + payloadLen }

// UDPFrameLen returns the byte length of an Ethernet+IPv4+UDP frame.
func UDPFrameLen(payloadLen int) int { return ethernetLen + ipv4Len + udpLen + payloadLen }

// ICMPFrameLen returns the byte length of an Ethernet+IPv4+ICMP frame.
func ICMPFrameLen(payloadLen int) int { return ethernetLen + ipv4Len + icmpLen + payloadLen }

// putEthernet writes the link header into dst[0:14].
func putEthernet(dst []byte, e *Ethernet) {
	copy(dst[0:6], e.Dst[:])
	copy(dst[6:12], e.Src[:])
	binary.BigEndian.PutUint16(dst[12:14], e.EtherType)
}

// putIPv4 writes the network header into dst[0:20] over a payload of
// payloadLen bytes already in place after it, computing the header
// checksum in place.
func putIPv4(dst []byte, ip *IPv4, payloadLen int) {
	want := uint16(ipv4Len + payloadLen)
	if ip.TotalLength < want {
		ip.TotalLength = want
	}
	dst[0] = 4<<4 | 5
	dst[1] = ip.TOS
	binary.BigEndian.PutUint16(dst[2:4], ip.TotalLength)
	binary.BigEndian.PutUint16(dst[4:6], ip.ID)
	if ip.TTL == 0 {
		ip.TTL = 64
	}
	dst[8] = ip.TTL
	dst[9] = ip.Protocol
	binary.BigEndian.PutUint32(dst[12:16], uint32(ip.Src))
	binary.BigEndian.PutUint32(dst[16:20], uint32(ip.Dst))
	ip.Checksum = checksum16(dst[:ipv4Len], 0)
	binary.BigEndian.PutUint16(dst[10:12], ip.Checksum)
}

// PutTCPFrame serializes a full TCP frame into dst, which must be
// exactly TCPFrameLen(len(payload)) zeroed bytes. The segment checksum
// uses the pseudo-header from ip.Src/ip.Dst; ip.Protocol is forced to
// TCP. Defaulted and computed fields are written back to ip and t.
func PutTCPFrame(dst []byte, eth *Ethernet, ip *IPv4, t *TCP, payload []byte) {
	ip.Protocol = ProtoTCP
	seg := dst[ethernetLen+ipv4Len:]
	binary.BigEndian.PutUint16(seg[0:2], t.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], t.DstPort)
	binary.BigEndian.PutUint32(seg[4:8], t.Seq)
	binary.BigEndian.PutUint32(seg[8:12], t.Ack)
	seg[12] = 5 << 4
	seg[13] = t.Flags
	if t.Window == 0 {
		t.Window = 65535
	}
	binary.BigEndian.PutUint16(seg[14:16], t.Window)
	copy(seg[tcpLen:], payload)
	t.Checksum = transportChecksum(ip.Src, ip.Dst, ProtoTCP, seg)
	binary.BigEndian.PutUint16(seg[16:18], t.Checksum)
	putIPv4(dst[ethernetLen:], ip, len(seg))
	putEthernet(dst, eth)
}

// PutUDPFrame serializes a full UDP frame into dst, which must be
// exactly UDPFrameLen(len(payload)) zeroed bytes.
func PutUDPFrame(dst []byte, eth *Ethernet, ip *IPv4, u *UDP, payload []byte) {
	ip.Protocol = ProtoUDP
	seg := dst[ethernetLen+ipv4Len:]
	u.Length = uint16(len(seg))
	binary.BigEndian.PutUint16(seg[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(seg[2:4], u.DstPort)
	binary.BigEndian.PutUint16(seg[4:6], u.Length)
	copy(seg[udpLen:], payload)
	u.Checksum = transportChecksum(ip.Src, ip.Dst, ProtoUDP, seg)
	binary.BigEndian.PutUint16(seg[6:8], u.Checksum)
	putIPv4(dst[ethernetLen:], ip, len(seg))
	putEthernet(dst, eth)
}

// PutICMPFrame serializes a full ICMP frame into dst, which must be
// exactly ICMPFrameLen(len(payload)) zeroed bytes.
func PutICMPFrame(dst []byte, eth *Ethernet, ip *IPv4, ic *ICMP, payload []byte) {
	ip.Protocol = ProtoICMP
	seg := dst[ethernetLen+ipv4Len:]
	seg[0] = ic.Type
	seg[1] = ic.Code
	copy(seg[icmpLen:], payload)
	ic.Checksum = checksum16(seg, 0)
	binary.BigEndian.PutUint16(seg[2:4], ic.Checksum)
	putIPv4(dst[ethernetLen:], ip, len(seg))
	putEthernet(dst, eth)
}
