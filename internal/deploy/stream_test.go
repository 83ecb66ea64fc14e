package deploy

import (
	"runtime"
	"testing"
	"time"

	"cloudscope/internal/telemetry"
	"cloudscope/internal/telemetry/runtimeprof"
)

// TestStreamingPeakHeapBudget is the bounded-memory claim as a hard
// number: streaming a 100K-domain world chunk-by-chunk must fit a
// fixed heap budget far below the in-memory build (~1.2 GB at 100K).
// The stream alone peaks near 40 MB; here it reads 80–105 MB, because
// testW stays live and raises the GC target. The budget leaves ~2x
// headroom for GC timing noise — blowing it means chunks are no longer
// being released.
func TestStreamingPeakHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 100K-domain world")
	}
	const (
		size     = 100000
		budgetMB = 200
	)
	// The sampler ratchets absolute HeapAlloc, so drop earlier tests'
	// dead heap first. Two collections, not one: sync.Pool contents
	// survive a single GC in the victim cache.
	runtime.GC()
	runtime.GC()
	reg := telemetry.NewRegistry()
	sampler := runtimeprof.Start(reg, 10*time.Millisecond)

	ws := GenerateStream(Config{Seed: 1, NumDomains: size}, 4096)
	n := 0
	for {
		chunk, err := ws.Next()
		if err != nil {
			t.Fatal(err)
		}
		if chunk == nil {
			break
		}
		n += len(chunk.Domains)
		ws.Release(chunk)
	}
	sampler.Stop()
	if n != size {
		t.Fatalf("streamed %d domains, want %d", n, size)
	}
	peakMB := float64(reg.Gauge("runtime.peak_heap_alloc_bytes").Value()) / 1e6
	if peakMB <= 0 || peakMB > budgetMB {
		t.Fatalf("streaming %d-domain world peaked at %.1f MB, budget %d MB", size, peakMB, budgetMB)
	}
}
