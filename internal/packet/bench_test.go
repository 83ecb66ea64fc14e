package packet

import "testing"

func benchFrame() []byte {
	tcp := &TCP{SrcPort: 43210, DstPort: 443, Seq: 1000, Ack: 2000, Flags: FlagACK | FlagPSH}
	return tcpFrame(&Ethernet{EtherType: EtherTypeIPv4}, &IPv4{Src: src, Dst: dst}, tcp, []byte("GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n"))
}

func BenchmarkDecode(b *testing.B) {
	frame := benchFrame()
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutTCPFrame(b *testing.B) {
	payload := []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")
	frame := make([]byte, TCPFrameLen(len(payload)))
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clear(frame)
		tcp := TCP{SrcPort: 1, DstPort: 80, Seq: uint32(i)}
		ip := IPv4{Src: src, Dst: dst}
		PutTCPFrame(frame, &Ethernet{EtherType: EtherTypeIPv4}, &ip, &tcp, payload)
	}
}
