package dataset

import (
	"bytes"
	"fmt"
	"testing"

	"cloudscope/internal/deploy"
	"cloudscope/internal/parallel"
)

// freshWorld generates a small world per build: scan results embed
// simulated-clock-dependent state, so builds only compare equal when
// each starts from an identical clock.
func freshWorld() *deploy.World {
	return must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 200}))
}

func buildWith(w *deploy.World, workers int) *Dataset {
	names := make([]string, 0, len(w.Domains))
	for _, d := range w.Domains {
		names = append(names, d.Name)
	}
	return must(Build(Config{
		Fabric:   w.Fabric,
		Registry: w.Registry,
		Ranges:   w.Ranges,
		Domains:  names,
		Vantages: 8,
		Par:      parallel.Options{Workers: workers},
	}))
}

func datasetBytes(t testing.TB, d *Dataset) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestBuildWorkerCountInvariant checks the discovery pipeline is
// byte-identical at every worker bound (0 = GOMAXPROCS, the only
// worker knob now that the Parallelism alias is gone). Run under -race
// this doubles as the scan fan-out's concurrency stress test.
func TestBuildWorkerCountInvariant(t *testing.T) {
	golden := datasetBytes(t, buildWith(freshWorld(), 1))
	for _, workers := range []int{0, 2, 4} {
		if got := datasetBytes(t, buildWith(freshWorld(), workers)); got != golden {
			t.Errorf("dataset differs at Workers=%d", workers)
		}
	}
}

// BenchmarkDatasetBuildWorkers measures the discovery scan at several
// worker bounds. On a single-core host the parallel runs mostly measure
// pool overhead; multi-core hosts see the fan-out.
func BenchmarkDatasetBuildWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			w := freshWorld()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buildWith(w, workers)
			}
		})
	}
}
