package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cloudscope/internal/telemetry"
	"cloudscope/internal/xrand"
)

func TestShardsLayout(t *testing.T) {
	cases := []struct {
		n, size    int
		wantShards int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{16, 0, 1},
		{17, 0, 2},    // default size 16 for small n
		{1024, 0, 64}, // 1024/64 = 16 per shard
		{1025, 0, 61}, // ceil(1025/64)=17 per shard -> ceil(1025/17)
		{100, 7, 15},
		{100, 100, 1},
		{100, 1000, 1},
	}
	for _, c := range cases {
		shards := shardsAt(0, c.n, c.size)
		if len(shards) != c.wantShards {
			t.Errorf("shardsAt(0, %d, %d): got %d shards, want %d", c.n, c.size, len(shards), c.wantShards)
		}
		// Layout must tile [0, n) exactly, in order.
		next := 0
		for i, sh := range shards {
			if sh.Index != i {
				t.Errorf("shardsAt(0, %d, %d)[%d].Index = %d", c.n, c.size, i, sh.Index)
			}
			if sh.Lo != next || sh.Hi <= sh.Lo || sh.Hi > c.n {
				t.Errorf("shardsAt(0, %d, %d)[%d] = [%d,%d), want lo=%d", c.n, c.size, i, sh.Lo, sh.Hi, next)
			}
			next = sh.Hi
		}
		if len(shards) > 0 && next != c.n {
			t.Errorf("shardsAt(0, %d, %d) covers [0,%d), want [0,%d)", c.n, c.size, next, c.n)
		}
	}
}

// TestShardsIndependentOfWorkers is the determinism keystone: the
// layout must not consult the worker count or GOMAXPROCS.
func TestShardsIndependentOfWorkers(t *testing.T) {
	ref := shardsAt(0, 5000, 0)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	got := shardsAt(0, 5000, 0)
	if len(got) != len(ref) {
		t.Fatalf("shard layout changed with GOMAXPROCS: %d vs %d shards", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("shard %d changed with GOMAXPROCS: %+v vs %+v", i, got[i], ref[i])
		}
	}
}

func TestMapOrderAndDeterminism(t *testing.T) {
	const n = 3000
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	fn := func(i int, v int) (int, error) { return v * v, nil }

	var ref []int
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		got, err := Map(Options{Workers: workers}, in, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		if ref == nil {
			ref = got
			for i, v := range got {
				if v != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], ref[i])
			}
		}
	}
}

// TestPerShardStreams exercises the intended stage pattern: one xrand
// stream per shard, derived from shard index. Output must not depend
// on worker count.
func TestPerShardStreams(t *testing.T) {
	const n, seed = 2000, 42
	run := func(workers int) []float64 {
		out := make([]float64, n)
		err := Run(Options{Workers: workers, ShardSize: 64}, n, func(sh Shard) error {
			rng := xrand.SplitSeeded(seed, fmt.Sprintf("stage/shard%d", sh.Index))
			for i := sh.Lo; i < sh.Hi; i++ {
				out[i] = rng.Float64()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := run(1)
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestMapShardsConcatOrder(t *testing.T) {
	// Shards emit variable-length slices; concat must follow layout order.
	got, err := MapShards(Options{Workers: 4, ShardSize: 10}, 95, func(sh Shard) ([]int, error) {
		var rs []int
		for i := sh.Lo; i < sh.Hi; i++ {
			if i%3 == 0 { // uneven per-shard lengths
				rs = append(rs, i)
			}
		}
		return rs, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range got {
		if v != want {
			t.Fatalf("merged order broken: got %d, want %d", v, want)
		}
		want += 3
	}
	if want != 96 {
		t.Fatalf("merged %d items, want 32", len(got))
	}
}

func TestErrorPropagation(t *testing.T) {
	sentinel := errors.New("shard 3 failed")
	err := Run(Options{Workers: 4, ShardSize: 10}, 100, func(sh Shard) error {
		if sh.Index >= 3 {
			return fmt.Errorf("shard %d failed", sh.Index)
		}
		return nil
	})
	if err == nil || err.Error() != sentinel.Error() {
		t.Fatalf("got %v, want lowest-indexed failure %q", err, sentinel)
	}
	// Same failure must be reported at Workers=1.
	err = Run(Options{Workers: 1, ShardSize: 10}, 100, func(sh Shard) error {
		if sh.Index >= 3 {
			return fmt.Errorf("shard %d failed", sh.Index)
		}
		return nil
	})
	if err == nil || err.Error() != sentinel.Error() {
		t.Fatalf("workers=1: got %v, want %q", err, sentinel)
	}
}

func TestPanicCapture(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Run(Options{Workers: workers, ShardSize: 8}, 64, func(sh Shard) error {
			if sh.Index == 2 {
				panic("boom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
		}
		if pe.Shard.Index != 2 || pe.Value != "boom" {
			t.Fatalf("workers=%d: PanicError = %+v", workers, pe)
		}
		if !strings.Contains(string(pe.Stack), "goroutine") {
			t.Fatalf("workers=%d: PanicError has no stack", workers)
		}
		if !strings.Contains(pe.Error(), "boom") {
			t.Fatalf("workers=%d: Error() = %q", workers, pe.Error())
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Run(Options{Workers: 2, ShardSize: 1, Ctx: ctx}, 10000, func(sh Shard) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Fatalf("cancellation did not stop the feed: %d shards ran", n)
	}

	// Pre-cancelled context: nothing runs, even at Workers=1.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	var ran2 atomic.Int64
	err = Run(Options{Workers: 1, Ctx: ctx2}, 100, func(Shard) error { ran2.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran2.Load() != 0 {
		t.Fatalf("pre-cancelled context ran %d shards", ran2.Load())
	}
}

func TestMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg, "teststage")
	err := Run(Options{Workers: 4, ShardSize: 10, Metrics: m}, 100, func(Shard) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("parallel.teststage.workers").Value(); got != 4 {
		t.Errorf("workers gauge = %d, want 4", got)
	}
	if got := reg.Gauge("parallel.teststage.shards").Value(); got != 10 {
		t.Errorf("shards gauge = %d, want 10", got)
	}
	if got := reg.Histogram("parallel.teststage.queue_wait_ms", QueueWaitBucketsMs).Count(); got != 10 {
		t.Errorf("queue-wait observations = %d, want 10", got)
	}

	// Nil registry and nil metrics are no-ops.
	if NewMetrics(nil, "x") != nil {
		t.Error("NewMetrics(nil) != nil")
	}
	if err := Run(Options{Workers: 2, Metrics: nil}, 50, func(Shard) error { return nil }); err != nil {
		t.Errorf("nil metrics run: %v", err)
	}
}

func TestEmptyAndSingleInput(t *testing.T) {
	if err := Run(Options{}, 0, func(Shard) error { t.Fatal("fn called for n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
	got, err := Map(Options{}, []int{7}, func(i, v int) (int, error) { return v + 1, nil })
	if err != nil || len(got) != 1 || got[0] != 8 {
		t.Fatalf("single-item Map = %v, %v", got, err)
	}
	got2, err := MapShards(Options{}, 0, func(Shard) ([]int, error) { return []int{1}, nil })
	if err != nil || len(got2) != 0 {
		t.Fatalf("empty MapShards = %v, %v", got2, err)
	}
}

// TestStressShardBoundaries forces shard-boundary interleavings with
// tiny shards and many workers; run under -race -count=5 by `make
// check`. Every worker writes its own disjoint output range, so the
// race detector stays quiet iff sharding really partitions the input.
func TestStressShardBoundaries(t *testing.T) {
	const n = 5000
	out := make([]int64, n)
	var calls atomic.Int64
	err := Run(Options{Workers: 16, ShardSize: 3}, n, func(sh Shard) error {
		calls.Add(1)
		for i := sh.Lo; i < sh.Hi; i++ {
			out[i] = int64(i) * 7
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64((n + 2) / 3); calls.Load() != want {
		t.Fatalf("ran %d shards, want %d", calls.Load(), want)
	}
	for i, v := range out {
		if v != int64(i)*7 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
