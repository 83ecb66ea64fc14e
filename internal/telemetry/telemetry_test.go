package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				// Re-fetch through the registry half the time to exercise
				// the get-or-create path under contention.
				if j%2 == 0 {
					r.Counter("x").Inc()
				} else {
					c.Inc()
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Observe(float64(i%4) * 30) // 0, 30, 60, 90
			}
		}(i)
	}
	wg.Wait()
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	want := float64(per) * (0 + 30 + 60 + 90) * float64(workers) / 4
	if got := h.Sum(); got != want {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 100} {
		h.Observe(v)
	}
	hv, ok := r.Snapshot().Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	wantCounts := []int64{1, 2, 1, 1} // <=1, <=2, <=4, overflow
	for i, n := range wantCounts {
		if hv.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hv.Counts[i], n, hv.Counts)
		}
	}
	if m := hv.Mean(); m != (0.5+1.5+1.7+3+100)/5 {
		t.Fatalf("mean = %g", m)
	}
	if q := hv.Quantile(0.5); q != 2 {
		t.Fatalf("p50 = %g, want 2", q)
	}
}

func TestSnapshotVsReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", SmallCountBuckets)
	c.Add(7)
	g.Set(3)
	h.Observe(2)

	snap := r.Snapshot()
	r.Reset()

	// The snapshot is a copy: unchanged by the reset.
	if snap.Counter("c") != 7 || snap.Gauge("g") != 3 {
		t.Fatalf("snapshot mutated by reset: c=%d g=%d", snap.Counter("c"), snap.Gauge("g"))
	}
	if hv, _ := snap.Histogram("h"); hv.Count != 1 {
		t.Fatalf("snapshot histogram count = %d, want 1", hv.Count)
	}
	// Live instruments are zeroed but the handed-out pointers stay wired.
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("reset left values: c=%d g=%d h=%d", c.Value(), g.Value(), h.Count())
	}
	c.Inc()
	if r.Counter("c").Value() != 1 {
		t.Fatal("pointer decoupled from registry after reset")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(5)
	r.Histogram("x", LatencyBucketsMs).Observe(1)
	r.Reset()
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}

	var tel *Telemetry
	tel.StartSpan("x").End()
	if got := tel.Report(); got != "telemetry disabled\n" {
		t.Fatalf("nil report = %q", got)
	}
	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "{}" {
		t.Fatalf("nil JSON = %q", buf.String())
	}

	var tr *Tracer
	tr.StartSpan("x").End()
	if tr.Find("x") != nil || tr.Tree() != "" {
		t.Fatal("nil tracer not inert")
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTracer()
	outer := tr.StartSpan("outer")
	inner := tr.StartSpan("inner")
	leaf := tr.StartSpan("leaf")
	leaf.End()
	inner.End()
	sibling := tr.StartSpan("sibling")
	sibling.End()
	outer.End()

	roots := tr.Roots()
	if len(roots) != 1 || roots[0].Name() != "outer" {
		t.Fatalf("roots = %v", roots)
	}
	kids := roots[0].Children()
	if len(kids) != 2 || kids[0].Name() != "inner" || kids[1].Name() != "sibling" {
		t.Fatalf("outer children wrong: %d", len(kids))
	}
	grand := kids[0].Children()
	if len(grand) != 1 || grand[0].Name() != "leaf" {
		t.Fatal("leaf not nested under inner")
	}
	if tr.Find("leaf") != grand[0] {
		t.Fatal("Find missed the leaf")
	}
	tree := tr.Tree()
	if !strings.Contains(tree, "outer") || !strings.Contains(tree, "    leaf") {
		t.Fatalf("tree rendering wrong:\n%s", tree)
	}
	if strings.Contains(tree, "(open)") {
		t.Fatalf("all spans ended but tree shows open:\n%s", tree)
	}
}

func TestSpanEndIdempotentAndOutOfOrder(t *testing.T) {
	tr := NewTracer()
	a := tr.StartSpan("a")
	b := tr.StartSpan("b")
	a.End() // out of order: a removed from the stack, b stays open
	a.End() // idempotent
	c := tr.StartSpan("c")
	if got := tr.Find("c"); got == nil {
		t.Fatal("c not recorded")
	}
	// c opened while b was innermost, so it nests under b.
	if kids := b.Children(); len(kids) != 1 || kids[0].Name() != "c" {
		t.Fatalf("c should nest under b; b has %d children", len(kids))
	}
	if !strings.Contains(tr.Tree(), "(open)") {
		t.Fatal("b and c still open; tree should say so")
	}
	c.End()
	b.End()
}

func TestSpanSimClock(t *testing.T) {
	tr := NewTracer()
	sim := time.Date(2013, 4, 5, 0, 0, 0, 0, time.UTC)
	tr.SetSimClock(func() time.Time { return sim })
	sp := tr.StartSpan("work")
	sim = sim.Add(3 * time.Hour)
	sp.End()
	if got := sp.Sim(); got != 3*time.Hour {
		t.Fatalf("sim duration = %v, want 3h", got)
	}
	if sp.Wall() < 0 {
		t.Fatal("negative wall duration")
	}

	// A sim clock that isn't running yet (zero time) yields no sim span.
	tr2 := NewTracer()
	tr2.SetSimClock(func() time.Time { return time.Time{} })
	sp2 := tr2.StartSpan("idle")
	sp2.End()
	if sp2.Sim() != 0 {
		t.Fatalf("zero-clock sim duration = %v, want 0", sp2.Sim())
	}
}

func TestJSONDump(t *testing.T) {
	tel := New()
	tel.Registry().Counter("dns.queries").Add(42)
	tel.Registry().Histogram("fabric.rtt_ms", LatencyBucketsMs).Observe(12)
	sp := tel.StartSpan("study/dataset")
	tel.StartSpan("study/world").End()
	sp.End()

	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
		Spans []struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump does not parse: %v\n%s", err, buf.String())
	}
	if d.Counters["dns.queries"] != 42 {
		t.Fatalf("counters = %v", d.Counters)
	}
	if d.Histograms["fabric.rtt_ms"].Count != 1 {
		t.Fatalf("histograms = %v", d.Histograms)
	}
	if len(d.Spans) != 1 || d.Spans[0].Name != "study/dataset" ||
		len(d.Spans[0].Children) != 1 || d.Spans[0].Children[0].Name != "study/world" {
		t.Fatalf("span tree wrong: %+v", d.Spans)
	}
}

func TestReportRendering(t *testing.T) {
	tel := New()
	tel.Registry().Counter("dns.queries").Inc()
	tel.Registry().Gauge("runtime.goroutines").Set(9)
	tel.StartSpan("study/world").End()
	rep := tel.Report()
	for _, want := range []string{"=== telemetry ===", "dns.queries", "runtime.goroutines", "spans:", "study/world"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	// Spans from concurrent goroutines interleave on one stack; the
	// tracer must stay consistent (no lost spans, no panics) even if
	// parentage is then arbitrary.
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp := tr.StartSpan("w")
				sp.End()
			}
		}()
	}
	wg.Wait()
	var count func(spans []*Span) int
	count = func(spans []*Span) int {
		n := 0
		for _, sp := range spans {
			n += 1 + count(sp.Children())
		}
		return n
	}
	if got := count(tr.Roots()); got != 800 {
		t.Fatalf("recorded %d spans, want 800", got)
	}
}

// TestSpanSimBackfill covers spans opened before the simulated clock
// starts: once the clock turns non-zero, every still-open span is
// backfilled so it charges sim time from that moment on — the
// experiment-span case, where a span triggers world construction and
// then drives a long simulated campaign.
func TestSpanSimBackfill(t *testing.T) {
	tr := NewTracer()
	var sim time.Time // zero: simulation not built yet
	tr.SetSimClock(func() time.Time { return sim })

	outer := tr.StartSpan("experiment/x") // opens before the sim clock runs
	sim = time.Date(2013, 4, 4, 0, 0, 0, 0, time.UTC)
	inner := tr.StartSpan("study/dataset") // first non-zero sample: backfills outer
	sim = sim.Add(71 * time.Hour)
	inner.End()
	sim = sim.Add(time.Hour)
	outer.End()

	if got := inner.Sim(); got != 71*time.Hour {
		t.Errorf("inner sim = %v, want 71h", got)
	}
	if got := outer.Sim(); got != 72*time.Hour {
		t.Errorf("outer sim = %v, want 72h (backfilled from first non-zero sample)", got)
	}

	// A span whose whole life predates the clock still reports zero.
	tr2 := NewTracer()
	var sim2 time.Time
	tr2.SetSimClock(func() time.Time { return sim2 })
	sp := tr2.StartSpan("early")
	sp.End()
	if sp.Sim() != 0 {
		t.Errorf("pre-clock span sim = %v, want 0", sp.Sim())
	}
}
