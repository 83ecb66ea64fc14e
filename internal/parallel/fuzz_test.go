package parallel

import (
	"errors"
	"fmt"
	"testing"
)

// FuzzMergeShards drives MapShards through random (n, shardSize,
// workers, failShard) combinations — including empty shards,
// single-item inputs, and a worker panicking mid-shard — and asserts
// the two invariants the pipeline depends on: merged output is exactly
// the input order, and a failure is always reported as the
// lowest-indexed failing shard regardless of scheduling.
func FuzzMergeShards(f *testing.F) {
	f.Add(0, 0, 0, -1)      // empty input
	f.Add(1, 0, 4, -1)      // single item
	f.Add(100, 1, 8, -1)    // one item per shard
	f.Add(100, 1000, 4, -1) // one shard holds everything
	f.Add(257, 16, 3, 5)    // panic mid-run
	f.Add(64, 7, 2, 0)      // panic in the first shard
	f.Fuzz(func(t *testing.T, n, shardSize, workers, failShard int) {
		if n < 0 || n > 5000 || shardSize > 10000 || workers < 0 || workers > 32 {
			t.Skip()
		}
		shards := shardsAt(0, n, shardSize)
		opt := Options{Workers: workers, ShardSize: shardSize}
		got, err := MapShards(opt, n, func(sh Shard) ([]int, error) {
			if sh.Index == failShard {
				panic(fmt.Sprintf("fuzz shard %d", sh.Index))
			}
			out := make([]int, 0, sh.Len())
			for i := sh.Lo; i < sh.Hi; i++ {
				out = append(out, i)
			}
			return out, nil
		})

		if failShard >= 0 && failShard < len(shards) {
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("n=%d size=%d workers=%d: got err %v, want *PanicError", n, shardSize, workers, err)
			}
			// The reported shard must be the lowest-indexed failure;
			// with a single failing shard that is failShard itself.
			if pe.Shard.Index != failShard {
				t.Fatalf("reported shard %d, want %d", pe.Shard.Index, failShard)
			}
			if got != nil {
				t.Fatalf("failed run returned results: %v", got)
			}
			return
		}
		if err != nil {
			t.Fatalf("n=%d size=%d workers=%d: %v", n, shardSize, workers, err)
		}
		if len(got) != n {
			t.Fatalf("merged %d items, want %d", len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("merged[%d] = %d: order broken", i, v)
			}
		}
	})
}
