package packet

import (
	"bytes"
	"errors"
	"testing"

	"cloudscope/internal/netaddr"
)

// fuzzFrame builds one well-formed TCP frame to seed the corpus.
func fuzzFrame(payload []byte) []byte {
	eth := &Ethernet{Src: MAC{0, 1, 2, 3, 4, 5}, Dst: MAC{6, 7, 8, 9, 10, 11}, EtherType: EtherTypeIPv4}
	ip := &IPv4{Src: netaddr.IP(0x0a000001), Dst: netaddr.IP(0x36ed1401)}
	tcp := &TCP{SrcPort: 49152, DstPort: 80, Seq: 7, Ack: 9, Flags: FlagACK | FlagPSH}
	return tcpFrame(eth, ip, tcp, payload)
}

// FuzzDecodePacket throws arbitrary bytes at the header decoder. The
// contract under attack: truncated headers, lying length fields, and
// unknown protocols must come back as errors — never a panic and never
// a Payload that extends past the frame — and the allocating Decode
// wrapper must agree with the in-place DecodeHeaders on every input.
func FuzzDecodePacket(f *testing.F) {
	valid := fuzzFrame([]byte("GET / HTTP/1.1\r\nHost: fuzz.example.com\r\n\r\n"))
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:13])             // truncated link header
	f.Add(valid[:ethernetLen+7])  // truncated IP header
	f.Add(valid[:ethernetLen+25]) // truncated TCP header
	f.Add(append([]byte{}, valid...)[:len(valid)-1])
	short := append([]byte{}, valid...)
	short[ethernetLen+2] = 0xff // absurd IP total length
	short[ethernetLen+3] = 0xff
	f.Add(short)
	proto := append([]byte{}, valid...)
	proto[ethernetLen+9] = 132 // SCTP: unknown transport
	f.Add(proto)

	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		err := DecodeHeaders(&p, data)
		ok := err == nil || errors.Is(err, ErrUnknownTransport)
		if ok && len(p.Payload) > len(data) {
			t.Fatalf("payload over-read: %d bytes from a %d-byte frame", len(p.Payload), len(data))
		}
		p2, err2 := Decode(data)
		if (p2 != nil) != ok {
			t.Fatalf("Decode and DecodeHeaders disagree on %d bytes: %v vs %v", len(data), err2, err)
		}
		if !ok {
			return
		}
		if p2.Ethernet != p.Ethernet || p2.IPv4 != p.IPv4 ||
			p2.TCP != p.TCP || p2.UDP != p.UDP || p2.ICMP != p.ICMP ||
			!bytes.Equal(p2.Payload, p.Payload) {
			t.Fatal("Decode and DecodeHeaders decoded different packets")
		}
	})
}
