package packet

import (
	"testing"
	"testing/quick"
)

func TestDecodeNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %x: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeNeverPanicsOnMutatedFrames(t *testing.T) {
	tcp := &TCP{SrcPort: 40000, DstPort: 443, Seq: 1, Flags: FlagACK | FlagPSH}
	base := tcpFrame(&Ethernet{EtherType: EtherTypeIPv4}, &IPv4{Src: src, Dst: dst}, tcp, []byte("GET / HTTP/1.1\r\nHost: x.com\r\n\r\n"))
	f := func(pos uint16, val byte, cut uint16) bool {
		data := append([]byte(nil), base...)
		data[int(pos)%len(data)] = val
		data = data[:len(data)-int(cut)%len(data)]
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic pos=%d val=%d cut=%d: %v", pos, val, cut, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
