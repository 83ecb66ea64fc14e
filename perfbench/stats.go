package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler tracks the peak live heap: the heap the last completed GC
// found reachable, read every few milliseconds through runtime/metrics
// (no stop-the-world, unlike runtime.ReadMemStats). The live heap, not
// the allocated one, so the figure does not swing with where in the
// allocation cycle a sample happens to land. The peak is kept per lap,
// one op or window: the workloads report the median of the laps' peaks,
// since the largest of a whole run's samples moved by a quarter between
// runs of the same seed.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64 // this lap's
}

const heapLive = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	v := s[0].Value.Uint64()
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// lap returns the peak since the previous lap (or the start) in MB and
// starts the next lap at the current live heap.
func (h *heapSampler) lap() float64 {
	h.sample()
	h.mu.Lock()
	p := h.peak
	h.peak = 0
	h.mu.Unlock()
	h.sample()
	return float64(p) / (1 << 20)
}

// stopSampling stops the sampler and waits for it.
func (h *heapSampler) stopSampling() {
	close(h.stop)
	<-h.done
}

// memDelta is a MemStats difference over an interval.
type memDelta struct {
	before runtime.MemStats
}

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// since returns allocated bytes, malloc count, GC cycles and total GC
// pause since startMem.
func (m *memDelta) since() (allocBytes, mallocs uint64, gcs uint32, pause time.Duration) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	return now.TotalAlloc - m.before.TotalAlloc, now.Mallocs - m.before.Mallocs,
		now.NumGC - m.before.NumGC, time.Duration(now.PauseTotalNs - m.before.PauseTotalNs)
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
