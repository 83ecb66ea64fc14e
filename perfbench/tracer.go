package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Parent links
// a span to the span that caused it (0 = root); spans of one request
// share the request's span as their parent.
type span struct {
	Name       string
	ID, Parent int
	Start, End time.Duration // since the tracer started
}

// tracer keeps spans in memory until writeFile. A nil *tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return sp.End - sp.Start
}

// durations returns the closed spans named name, in start order.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, sp := range t.spans {
		if sp.Name == name && sp.End >= 0 {
			out = append(out, seconds(sp.End-sp.Start))
		}
	}
	return out
}

// traceEvent is one Chrome trace_event "complete" event, so the file
// loads in chrome://tracing or Perfetto.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeFile writes every closed span as a trace event.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.spans))
	for _, sp := range t.spans {
		if sp.End < 0 {
			continue
		}
		events = append(events, traceEvent{
			Name: sp.Name, Ph: "X", PID: 1, TID: 1,
			TS:   float64(sp.Start) / 1e3,
			Dur:  float64(sp.End-sp.Start) / 1e3,
			Args: map[string]int{"id": sp.ID, "parent": sp.Parent},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
