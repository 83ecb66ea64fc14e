package chaos

import "testing"

// TestCapturePacketBoostedMissAllocatesNothing: a capture draw that a
// live trigger boosts but that does not fire formats no causal label,
// so CapturePacket allocates nothing. hostile-capture's
// brownout:us-east=>loss=>cap-drop chain boosts every cap-drop draw
// inside the brownout's window.
func TestCapturePacketBoostedMissAllocatesNothing(t *testing.T) {
	sc, err := Load("hostile-capture")
	if err != nil {
		t.Fatal(err)
	}
	e := New(sc, 3)
	flow, pkt := -1, 0
	for f := 0; f < 1000 && flow < 0; f++ {
		if e.boostFor(CapDrop, e.capFlowPhase(f)).p == 0 {
			continue
		}
		for p := 0; p < 16; p++ {
			if v := e.CapturePacket(f, p); !v.Drop && v.Corrupt == 0 {
				flow, pkt = f, p
				break
			}
		}
	}
	if flow < 0 {
		t.Fatal("no boosted capture draw that does not fire in 1000 flows")
	}
	if n := testing.AllocsPerRun(200, func() { e.CapturePacket(flow, pkt) }); n != 0 {
		t.Fatalf("CapturePacket(%d, %d) on a boosted draw that does not fire: %v allocs, want 0", flow, pkt, n)
	}
}
