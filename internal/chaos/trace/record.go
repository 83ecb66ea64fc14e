package trace

import (
	"sort"
	"sync"
)

// key addresses one decision in the recorder's and replayer's maps.
type key struct {
	pt Point
	id uint64
}

// Recorder accumulates fault verdicts as a run executes. It is safe
// for concurrent use: workers record in whatever order scheduling
// produces, and Snapshot returns the canonical (point, id)-sorted
// trace, so the recorded bytes are identical at every worker count.
//
// The same decision may be recorded many times (an identical datagram
// retried on the same flow meets the same verdict); duplicates collapse
// onto the first recording. A nil *Recorder ignores all recordings, so
// the engine can call it unconditionally.
type Recorder struct {
	mu  sync.Mutex
	hdr Header
	ev  map[key]Event
}

// NewRecorder returns an empty recorder carrying the run's metadata.
func NewRecorder(hdr Header) *Recorder {
	return &Recorder{hdr: hdr, ev: map[key]Event{}}
}

// Record logs one faulting verdict.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	k := key{ev.Point, ev.ID}
	r.mu.Lock()
	if _, dup := r.ev[k]; !dup {
		r.ev[k] = ev
	}
	r.mu.Unlock()
}

// Len returns the number of distinct verdicts recorded so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ev)
}

// Snapshot returns the trace recorded so far in canonical order — a
// pure function of the verdict set, independent of recording order.
func (r *Recorder) Snapshot() *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	events := make([]Event, 0, len(r.ev))
	for _, ev := range r.ev {
		events = append(events, ev)
	}
	hdr := r.hdr
	r.mu.Unlock()
	sort.Slice(events, func(i, j int) bool {
		if events[i].Point != events[j].Point {
			return events[i].Point < events[j].Point
		}
		return events[i].ID < events[j].ID
	})
	hdr.Version = 1
	hdr.Events = len(events)
	return &Trace{Header: hdr, Events: events}
}

// Lookup answers replay-mode verdict queries in O(1). A nil *Lookup
// returns no faults.
type Lookup struct {
	m map[key]Event
}

// NewLookup indexes a trace for replay. A nil trace yields a nil
// lookup. Later duplicates of a (point, id) key are ignored, mirroring
// the recorder.
func NewLookup(t *Trace) *Lookup {
	if t == nil {
		return nil
	}
	l := &Lookup{m: make(map[key]Event, len(t.Events))}
	for _, ev := range t.Events {
		k := key{ev.Point, ev.ID}
		if _, dup := l.m[k]; !dup {
			l.m[k] = ev
		}
	}
	return l
}

// Get returns the recorded verdict for a decision, if any.
func (l *Lookup) Get(pt Point, id uint64) (Event, bool) {
	if l == nil {
		return Event{}, false
	}
	ev, ok := l.m[key{pt, id}]
	return ev, ok
}
