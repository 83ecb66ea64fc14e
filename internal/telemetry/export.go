package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// CounterValue is one counter's snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge's snapshot.
type GaugeValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram's snapshot. Counts has one entry per
// bound plus a final overflow bucket.
type HistogramValue struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the average observation (0 when empty).
func (h HistogramValue) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 < q < 1) by linear position over
// the bucket counts, returning the upper bound of the holding bucket.
func (h HistogramValue) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := int64(q * float64(h.Count))
	var acc int64
	for i, n := range h.Counts {
		acc += n
		if acc > target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1] // overflow bucket: report last bound
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// Snapshot is a point-in-time copy of a Registry, sorted by name.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Counter returns the named counter's value (0 when absent).
func (s *Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Gauge returns the named gauge's value (0 when absent).
func (s *Snapshot) Gauge(name string) int64 {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// Histogram returns the named histogram's snapshot.
func (s *Snapshot) Histogram(name string) (HistogramValue, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramValue{}, false
}

// Table renders the snapshot as an aligned text table.
func (s *Snapshot) Table() string {
	var b strings.Builder
	if len(s.Counters) > 0 {
		b.WriteString("counters:\n")
		for _, c := range s.Counters {
			fmt.Fprintf(&b, "  %-44s %12d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		b.WriteString("gauges:\n")
		for _, g := range s.Gauges {
			fmt.Fprintf(&b, "  %-44s %12d\n", g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		b.WriteString("histograms:\n")
		for _, h := range s.Histograms {
			fmt.Fprintf(&b, "  %-44s n=%-10d mean=%-10.3g p50=%-8.3g p99=%.3g\n",
				h.Name, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.99))
		}
	}
	return b.String()
}

// jsonDump is the machine-consumption shape: flat name→value maps in
// the spirit of expvar, with histograms expanded. encoding/json writes
// map keys in sorted order, so the dump is byte-identical for identical
// telemetry state — a property the golden test and the bench harness
// rely on.
type jsonDump struct {
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]jsonHistogram `json:"histograms"`
	Spans      []jsonSpan               `json:"spans,omitempty"`
	// Completeness reports per-stage attempted/succeeded/retried/
	// abandoned measurement accounting; present only when recorded.
	Completeness []StageCompleteness `json:"completeness,omitempty"`
}

type jsonHistogram struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []jsonBucket `json:"buckets"`
}

type jsonBucket struct {
	LE float64 `json:"le"` // +Inf encoded as 0-valued "overflow": true bound omitted
	N  int64   `json:"n"`
}

type jsonSpan struct {
	Name       string             `json:"name"`
	WallMs     float64            `json:"wall_ms"`
	SimMs      float64            `json:"sim_ms"`
	AllocBytes uint64             `json:"alloc_bytes,omitempty"`
	AllocObjs  uint64             `json:"alloc_objects,omitempty"`
	Stats      map[string]float64 `json:"stats,omitempty"`
	Children   []jsonSpan         `json:"children,omitempty"`
}

// WriteJSON writes the snapshot as an expvar-style JSON document.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	return writeDump(w, s, nil, nil)
}

func writeDump(w io.Writer, s *Snapshot, tr *Tracer, comp *Completeness) error {
	d := jsonDump{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]jsonHistogram{},
	}
	for _, c := range s.Counters {
		d.Counters[c.Name] = c.Value
	}
	for _, g := range s.Gauges {
		d.Gauges[g.Name] = g.Value
	}
	for _, h := range s.Histograms {
		jh := jsonHistogram{Count: h.Count, Sum: h.Sum}
		for i, n := range h.Counts {
			le := 0.0
			if i < len(h.Bounds) {
				le = h.Bounds[i]
			}
			jh.Buckets = append(jh.Buckets, jsonBucket{LE: le, N: n})
		}
		d.Histograms[h.Name] = jh
	}
	if tr != nil {
		var convert func(spans []*Span) []jsonSpan
		convert = func(spans []*Span) []jsonSpan {
			var out []jsonSpan
			for _, sp := range spans {
				out = append(out, jsonSpan{
					Name:       sp.Name(),
					WallMs:     float64(sp.Wall().Microseconds()) / 1000,
					SimMs:      float64(sp.Sim().Microseconds()) / 1000,
					AllocBytes: sp.AllocBytes(),
					AllocObjs:  sp.AllocObjects(),
					Stats:      sp.Stats(),
					Children:   convert(sp.Children()),
				})
			}
			return out
		}
		d.Spans = convert(tr.Roots())
	}
	d.Completeness = comp.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Report renders the full observability state — metrics table plus span
// tree — for human consumption after a run.
func (t *Telemetry) Report() string {
	if t == nil {
		return "telemetry disabled\n"
	}
	var b strings.Builder
	b.WriteString("=== telemetry ===\n")
	b.WriteString(t.reg.Snapshot().Table())
	if comp := t.comp.Report(); comp != "" {
		b.WriteString(comp)
	}
	if tree := t.tr.Tree(); tree != "" {
		b.WriteString("spans:\n")
		b.WriteString(tree)
	}
	return b.String()
}

// WriteJSON dumps metrics, completeness, and the span tree as one JSON
// document.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	return writeDump(w, t.reg.Snapshot(), t.tr, t.comp)
}
