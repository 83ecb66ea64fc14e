package cloudscope

import (
	"strings"
	"testing"

	"cloudscope/internal/chaos"
	"cloudscope/internal/chaos/trace"
)

// captureTrace records a study's capture stage under the
// hostile-capture scenario and returns its fault trace.
func captureTrace(t *testing.T, seed int64, workers int) *trace.Trace {
	t.Helper()
	sc, err := chaos.Load("hostile-capture")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Seed: seed, Domains: 300, Vantages: 8, CaptureFlows: 400,
		WANClients: 6, Workers: workers, Chaos: sc, ChaosRecord: true,
	}
	s := NewStudy(cfg)
	s.Capture()
	tr := s.FaultTrace()
	if tr.Len() == 0 {
		t.Fatal("hostile-capture run recorded no verdicts")
	}
	return tr
}

// TestFaultTraceDiffSameSeedEmpty: two recorded runs of the same seed —
// even at different worker counts — produce byte-identical verdict
// sets, so their diff is empty; a seed change produces a readable delta
// that includes the capture-layer decision points. The seed-3 trace's
// bytes are pinned: it is the one root-level trace that records the
// capture decision points.
func TestFaultTraceDiffSameSeedEmpty(t *testing.T) {
	a := captureTrace(t, 3, 1)
	if got, want := traceSHA(t, a), "22e760c92b260030778b240a2091a2b6cc9282d201392778d4022dcf1c6442d5"; got != want {
		t.Errorf("hostile-capture seed-3 trace sha256 = %s, want %s", got, want)
	}
	b := captureTrace(t, 3, 4)
	if d := trace.Diff(a, b); !d.Empty() {
		t.Fatalf("same-seed runs diff non-empty:\n%s", d)
	}

	c := captureTrace(t, 4, 1)
	d := trace.Diff(a, c)
	if d.Empty() {
		t.Fatal("different seeds produced identical fault traces")
	}
	out := d.String()
	if !strings.Contains(out, "capflow") && !strings.Contains(out, "cappkt") {
		t.Fatalf("cross-seed delta mentions no capture verdicts:\n%s", out)
	}

	// The capture stage recorded capture-point verdicts at all.
	sawCap := false
	for _, ev := range a.Events {
		if ev.Point == trace.PointCapFlow || ev.Point == trace.PointCapPacket {
			sawCap = true
			break
		}
	}
	if !sawCap {
		t.Fatal("no capture-layer verdicts in the recorded trace")
	}
}
