package telemetry

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer records a tree of timed spans. Spans nest by call order: a
// span started while another is open becomes its child. Each span
// measures wall-clock time, allocation deltas (bytes and objects, via
// runtime.ReadMemStats), and, when a simulated clock is installed,
// simulated time — wall and sim diverge wildly in this codebase (a
// three-day measurement campaign runs in milliseconds of wall time),
// so both are worth seeing.
//
// A nil *Tracer (and the nil *Span it returns) is a no-op.
type Tracer struct {
	mu     sync.Mutex
	now    func() time.Time            // wall clock; swappable for tests
	simNow func() time.Time            // simulated clock; zero time when absent
	mem    func() (bytes, objs uint64) // alloc source; swappable for tests
	epoch  time.Time                   // start of the first span; trace-export origin
	roots  []*Span
	stack  []*Span
}

// NewTracer returns an empty tracer on the real wall clock.
func NewTracer() *Tracer {
	return &Tracer{now: time.Now}
}

// readMem samples cumulative allocation counters. The default source
// is runtime.ReadMemStats — a stop-the-world read, affordable because
// spans are stage-grained, not probe-grained.
func (t *Tracer) readMem() (uint64, uint64) {
	if t.mem != nil {
		return t.mem()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// SetSimClock installs the simulated-time source. fn may return the
// zero time while the simulation is not yet constructed; spans open
// across that boundary report zero simulated duration.
func (t *Tracer) SetSimClock(fn func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.simNow = fn
}

// Span is one timed region of the pipeline.
type Span struct {
	tr       *Tracer
	name     string
	start    time.Time
	simStart time.Time
	wall     time.Duration
	sim      time.Duration
	children []*Span
	ended    bool

	// Cumulative allocation counters at start, and the fixed deltas
	// after End. The counters are process-global, so deltas are exact
	// for the sequential stage spans and approximate when spans overlap
	// across goroutines.
	startAllocB, startAllocO uint64
	allocB, allocO           uint64

	// stats are named accumulators fed by instrumented layers while the
	// span is open (e.g. the worker pool's shard counts and queue
	// waits); they ride into the flame summary and trace export.
	stats map[string]float64
}

// sampleSim reads the simulated clock and, on the first non-zero
// reading, backfills every open span that started before the clock was
// wired. A span that triggers the simulation's construction (an
// experiment forcing world generation) therefore charges the simulated
// time spent from the moment the clock existed, instead of reporting
// zero forever. Callers must hold t.mu.
func (t *Tracer) sampleSim() time.Time {
	if t.simNow == nil {
		return time.Time{}
	}
	now := t.simNow()
	if !now.IsZero() {
		for _, sp := range t.stack {
			if sp.simStart.IsZero() {
				sp.simStart = now
			}
		}
	}
	return now
}

// StartSpan opens a span named name as a child of the innermost open
// span (or as a root). Close it with End.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &Span{tr: t, name: name, start: t.now(), simStart: t.sampleSim()}
	sp.startAllocB, sp.startAllocO = t.readMem()
	if t.epoch.IsZero() {
		t.epoch = sp.start
	}
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		parent.children = append(parent.children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	t.stack = append(t.stack, sp)
	return sp
}

// End closes the span, fixing its durations. Ending a span that is not
// the innermost open one also closes nothing else — it is simply
// removed from the open stack wherever it sits. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.wall = t.now().Sub(s.start)
	if end := t.sampleSim(); !end.IsZero() && !s.simStart.IsZero() {
		s.sim = end.Sub(s.simStart)
	}
	if b, o := t.readMem(); b >= s.startAllocB && o >= s.startAllocO {
		s.allocB, s.allocO = b-s.startAllocB, o-s.startAllocO
	}
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Wall returns the wall-clock duration (zero until End).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.wall
}

// Sim returns the simulated-clock duration (zero until End, or when no
// simulated clock spanned the region).
func (s *Span) Sim() time.Duration {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.sim
}

// AllocBytes returns the bytes allocated while the span was open
// (zero until End). The measurement is a process-global delta: exact
// for sequential stage spans, approximate under concurrent spans.
func (s *Span) AllocBytes() uint64 {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.allocB
}

// AllocObjects returns the heap objects allocated while the span was
// open (zero until End); same caveats as AllocBytes.
func (s *Span) AllocObjects() uint64 {
	if s == nil {
		return 0
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.allocO
}

// AddStat accumulates delta into the span's named statistic.
// Instrumented layers use it to charge per-stage facts (shard counts,
// queue waits) to the span that covers them; stats appear in the flame
// summary and the Chrome trace export.
func (s *Span) AddStat(name string, delta float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.stats == nil {
		s.stats = map[string]float64{}
	}
	s.stats[name] += delta
}

// MaxStat keeps the maximum of v and the current value of the span's
// named statistic.
func (s *Span) MaxStat(name string, v float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.stats == nil {
		s.stats = map[string]float64{}
	}
	if cur, ok := s.stats[name]; !ok || v > cur {
		s.stats[name] = v
	}
}

// Stats returns a copy of the span's named statistics (nil when none
// were recorded).
func (s *Span) Stats() map[string]float64 {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if len(s.stats) == 0 {
		return nil
	}
	out := make(map[string]float64, len(s.stats))
	for k, v := range s.stats {
		out[k] = v
	}
	return out
}

// statNames returns the span's stat names sorted. Callers hold tr.mu.
func (s *Span) statNames() []string {
	if len(s.stats) == 0 {
		return nil
	}
	names := make([]string, 0, len(s.stats))
	for k := range s.stats {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Children returns the span's direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Roots returns the tracer's top-level spans.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// Current returns the innermost open span, or nil when the stack is
// empty. Layers that cannot be handed a span explicitly (the worker
// pool under a stage) use it to charge stats to whatever stage span
// covers them.
func (t *Tracer) Current() *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return nil
}

// Find returns the first span named name in depth-first order, or nil.
func (t *Tracer) Find(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var walk func(spans []*Span) *Span
	walk = func(spans []*Span) *Span {
		for _, sp := range spans {
			if sp.name == name {
				return sp
			}
			if hit := walk(sp.children); hit != nil {
				return hit
			}
		}
		return nil
	}
	return walk(t.roots)
}

// Tree renders the span forest, one span per line, indented by depth:
//
//	study/dataset              wall=412ms   sim=71h12m3s
//	  study/world              wall=98ms    sim=0s
func (t *Tracer) Tree() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	var walk func(spans []*Span, depth int)
	walk = func(spans []*Span, depth int) {
		for _, sp := range spans {
			pad := strings.Repeat("  ", depth)
			state := ""
			if !sp.ended {
				state = "  (open)"
			}
			fmt.Fprintf(&b, "%-44s wall=%-12s sim=%s%s\n",
				pad+sp.name, fmtDur(sp.wall), fmtDur(sp.sim), state)
			walk(sp.children, depth+1)
		}
	}
	walk(t.roots, 0)
	return b.String()
}

// fmtDur trims sub-microsecond noise from rendered durations.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	default:
		return d.Round(time.Microsecond).String()
	}
}
