package deploy

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"cloudscope/internal/parallel"
)

// worldDigest hashes the full ground-truth dump of a generated world.
func worldDigest(w *World) string {
	h := sha256.New()
	w.DumpTruth(h)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func genDigest(seed int64, domains, workers, shardSize int) string {
	cfg := Config{Seed: seed, NumDomains: domains, Par: parallel.Options{Workers: workers, ShardSize: shardSize}}
	return worldDigest(must(Generate(cfg)))
}

// TestGenerateWorkerCountInvariant drives the generator's parallel path
// with a deliberately tiny shard size (so shard boundaries cut through
// every synthesis stage) and checks the world is byte-identical to the
// sequential run. Run under -race this doubles as the generator's
// concurrency stress test.
func TestGenerateWorkerCountInvariant(t *testing.T) {
	for _, seed := range []int64{7, 21} {
		golden := genDigest(seed, 300, 1, 0)
		for _, workers := range []int{2, 4} {
			for _, shard := range []int{1, 17} {
				if got := genDigest(seed, 300, workers, shard); got != golden {
					t.Errorf("seed %d: world digest differs at Workers=%d ShardSize=%d", seed, workers, shard)
				}
			}
		}
	}
}

// BenchmarkWorldGenWorkers measures domain synthesis at several worker
// bounds. On a single-core host the parallel runs mostly measure pool
// overhead; multi-core hosts see the fan-out.
func BenchmarkWorldGenWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Config{Seed: 5, NumDomains: 1000, Par: parallel.Options{Workers: workers}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				must(Generate(cfg))
			}
		})
	}
}
