package packet

import (
	"bytes"
	"testing"
	"testing/quick"

	"cloudscope/internal/netaddr"
)

var (
	src = netaddr.MustParseIP("128.105.1.1")
	dst = netaddr.MustParseIP("54.230.0.1")
)

// Test frames come from the capture's own encoder (PutTCPFrame and
// friends), so every round trip below covers the bytes that ship.

// tcpFrame encodes one Ethernet/IPv4/TCP frame.
func tcpFrame(eth *Ethernet, ip *IPv4, tcp *TCP, payload []byte) []byte {
	frame := make([]byte, TCPFrameLen(len(payload)))
	PutTCPFrame(frame, eth, ip, tcp, payload)
	return frame
}

// segment returns a TCP frame's transport segment.
func segment(frame []byte) []byte { return frame[ethernetLen+ipv4Len:] }

func buildTCP(t *testing.T, payload []byte) []byte {
	t.Helper()
	tcp := &TCP{SrcPort: 43210, DstPort: 443, Seq: 1000, Ack: 2000, Flags: FlagACK | FlagPSH}
	ip := &IPv4{Src: src, Dst: dst, ID: 7}
	eth := &Ethernet{Dst: MAC{1, 2, 3, 4, 5, 6}, Src: MAC{7, 8, 9, 10, 11, 12}, EtherType: EtherTypeIPv4}
	return tcpFrame(eth, ip, tcp, payload)
}

func TestTCPRoundTrip(t *testing.T) {
	payload := []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	frame := buildTCP(t, payload)
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.IPv4.Src != src || p.IPv4.Dst != dst || p.IPv4.Protocol != ProtoTCP {
		t.Fatalf("ip: %+v", p.IPv4)
	}
	if p.TCP.SrcPort != 43210 || p.TCP.DstPort != 443 || p.TCP.Seq != 1000 {
		t.Fatalf("tcp: %+v", p.TCP)
	}
	if p.TCP.Flags != FlagACK|FlagPSH {
		t.Fatalf("flags: %x", p.TCP.Flags)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload: %q", p.Payload)
	}
}

func TestTCPChecksumValid(t *testing.T) {
	payload := []byte("hello world")
	tcp := &TCP{SrcPort: 1, DstPort: 2, Seq: 3}
	seg := segment(tcpFrame(&Ethernet{EtherType: EtherTypeIPv4}, &IPv4{Src: src, Dst: dst}, tcp, payload))
	if !VerifyTCPChecksum(src, dst, seg) {
		t.Fatal("serialized segment fails checksum")
	}
	seg[25] ^= 0xff // corrupt payload
	if VerifyTCPChecksum(src, dst, seg) {
		t.Fatal("corrupted segment passes checksum")
	}
}

func TestIPv4ChecksumVerified(t *testing.T) {
	frame := buildTCP(t, []byte("x"))
	// Corrupt the IP TTL without fixing the checksum.
	frame[ethernetLen+8] ^= 0xff
	if _, err := Decode(frame); err != ErrChecksum {
		t.Fatalf("err = %v, want ErrChecksum", err)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	udp := &UDP{SrcPort: 5353, DstPort: 53}
	frame := make([]byte, UDPFrameLen(len(payload)))
	PutUDPFrame(frame, &Ethernet{EtherType: EtherTypeIPv4}, &IPv4{Src: src, Dst: dst}, udp, payload)
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.UDP.SrcPort != 5353 || p.UDP.DstPort != 53 || int(p.UDP.Length) != 8+len(payload) {
		t.Fatalf("udp: %+v", p.UDP)
	}
	if !bytes.Equal(p.Payload, payload) {
		t.Fatalf("payload: %x", p.Payload)
	}
}

func TestICMPRoundTrip(t *testing.T) {
	ic := &ICMP{Type: 8, Code: 0}
	frame := make([]byte, ICMPFrameLen(len("ping")))
	PutICMPFrame(frame, &Ethernet{EtherType: EtherTypeIPv4}, &IPv4{Src: src, Dst: dst}, ic, []byte("ping"))
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.ICMP.Type != 8 || string(p.Payload) != "ping" {
		t.Fatalf("icmp: %+v payload %q", p.ICMP, p.Payload)
	}
}

func TestSnapTruncatedTotalLength(t *testing.T) {
	// A generator can pre-set TotalLength larger than the captured
	// payload — decode must still work, clipping to what exists.
	tcp := &TCP{SrcPort: 1, DstPort: 80, Seq: 9}
	ip := &IPv4{Src: src, Dst: dst, TotalLength: 1500}
	frame := tcpFrame(&Ethernet{EtherType: EtherTypeIPv4}, ip, tcp, nil)
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p.IPv4.TotalLength != 1500 {
		t.Fatalf("TotalLength = %d", p.IPv4.TotalLength)
	}
	if len(p.Payload) != 0 {
		t.Fatalf("payload = %d bytes", len(p.Payload))
	}
}

func TestDecodeErrors(t *testing.T) {
	frame := buildTCP(t, []byte("abc"))
	for _, n := range []int{0, 10, ethernetLen + 3, ethernetLen + ipv4Len + 5} {
		if _, err := Decode(frame[:n]); err == nil {
			t.Errorf("Decode of %d bytes succeeded", n)
		}
	}
	// Wrong ethertype.
	bad := append([]byte(nil), frame...)
	bad[12], bad[13] = 0x86, 0xdd // IPv6
	if _, err := Decode(bad); err == nil {
		t.Error("IPv6 frame decoded")
	}
}

func TestFlow(t *testing.T) {
	frame := buildTCP(t, nil)
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	f := p.Flow()
	if f.Src != src || f.DstPort != 443 || f.Proto != ProtoTCP {
		t.Fatalf("flow: %+v", f)
	}
	r := f.Reverse()
	if r.Src != dst || r.SrcPort != 443 || r.DstPort != 43210 {
		t.Fatalf("reverse: %+v", r)
	}
	if f.Canonical() != r.Canonical() {
		t.Fatal("canonical not symmetric")
	}
}

func TestFlowCanonicalProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, sp, dp uint16) bool {
		fl := Flow{Proto: ProtoTCP, Src: netaddr.IP(srcIP), Dst: netaddr.IP(dstIP), SrcPort: sp, DstPort: dp}
		return fl.Canonical() == fl.Reverse().Canonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPayloadRoundTripProperty(t *testing.T) {
	f := func(payload []byte, sp, dp uint16, seq uint32) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		tcp := &TCP{SrcPort: sp, DstPort: dp, Seq: seq, Flags: FlagACK}
		frame := tcpFrame(&Ethernet{EtherType: EtherTypeIPv4}, &IPv4{Src: src, Dst: dst}, tcp, payload)
		if !VerifyTCPChecksum(src, dst, segment(frame)) {
			return false
		}
		p, err := Decode(frame)
		if err != nil {
			return false
		}
		return bytes.Equal(p.Payload, payload) && p.TCP.Seq == seq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0, 1, 2, 3}
	if m.String() != "de:ad:00:01:02:03" {
		t.Fatalf("MAC = %s", m)
	}
}

func TestFlowString(t *testing.T) {
	f := Flow{Proto: 6, Src: src, Dst: dst, SrcPort: 1, DstPort: 2}
	want := "6 128.105.1.1:1 > 54.230.0.1:2"
	if f.String() != want {
		t.Fatalf("Flow = %q", f.String())
	}
}
