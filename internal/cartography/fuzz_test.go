package cartography

import (
	"reflect"
	"testing"

	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/parallel"
	"cloudscope/internal/xrand"
)

// fuzzSamples builds a multi-account sample set with overlapping /16
// evidence — the input shape MergeAccounts' commit step folds.
func fuzzSamples() []Sample {
	c := cloud.NewEC2(31)
	ref := c.NewAccount("fuzz-ref")
	return must(SampleAccounts(c, ref, 3, 4, core.Options{Seed: 31, Par: parallel.Options{Workers: 1}}))
}

// pmEqual compares the externally observable state of two proximity
// maps: reference, zone map, recovered permutations, and the indexes
// built from retained samples at both paper granularities.
func pmEqual(t *testing.T, a, b *ProximityMap) {
	t.Helper()
	if a.Reference != b.Reference {
		t.Errorf("Reference %q != %q", a.Reference, b.Reference)
	}
	if !reflect.DeepEqual(a.ZoneOf16, b.ZoneOf16) {
		t.Error("ZoneOf16 differs")
	}
	if !reflect.DeepEqual(a.Permutations, b.Permutations) {
		t.Error("Permutations differ")
	}
	for region := range a.ZoneOf16 {
		for _, bits := range []int{16, 24} {
			if !reflect.DeepEqual(a.Index(region, bits), b.Index(region, bits)) {
				t.Errorf("Index(%s, /%d) differs", region, bits)
			}
		}
	}
}

// FuzzMergeAccountsOrder fuzzes the commit-step ordering contract: with
// an explicit reference account, MergeAccounts must build the same
// proximity map from any arrival order of the same sample set, at any
// worker count and shard layout.
func FuzzMergeAccountsOrder(f *testing.F) {
	samples := fuzzSamples()
	golden := must(MergeAccounts(samples, "fuzz-ref", core.Options{Par: parallel.Options{Workers: 1}}))
	f.Add(int64(1), uint8(1), uint8(0))
	f.Add(int64(42), uint8(4), uint8(1))
	f.Add(int64(-7), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, shuffleSeed int64, workers, shardSize uint8) {
		shuffled := append([]Sample(nil), samples...)
		rng := xrand.New(shuffleSeed)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		opt := parallel.Options{Workers: int(workers%8) + 1, ShardSize: int(shardSize % 16)}
		pmEqual(t, golden, must(MergeAccounts(shuffled, "fuzz-ref", core.Options{Par: opt})))
	})
}

// TestMergeAccountsArrivalOrderInvariant is the deterministic slice of
// the fuzz target, exercised on every test run (and under -race as the
// merge fan-out's stress test).
func TestMergeAccountsArrivalOrderInvariant(t *testing.T) {
	samples := fuzzSamples()
	golden := must(MergeAccounts(samples, "fuzz-ref", core.Options{Par: parallel.Options{Workers: 1}}))
	for _, shuffleSeed := range []int64{1, 2, 3, 99} {
		shuffled := append([]Sample(nil), samples...)
		rng := xrand.New(shuffleSeed)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, workers := range []int{1, 4} {
			pmEqual(t, golden, must(MergeAccounts(shuffled, "fuzz-ref", core.Options{Par: parallel.Options{Workers: workers, ShardSize: 1}})))
		}
	}
}

// TestSampleAccountsWorkerCountInvariant checks the plan/commit launch
// schedule yields the same samples at every worker count. Each worker
// count gets its own cloud: launches move shared allocator cursors, so
// only clouds with identical histories compare.
func TestSampleAccountsWorkerCountInvariant(t *testing.T) {
	sample := func(workers int) []Sample {
		c := cloud.NewEC2(32)
		ref := c.NewAccount("inv-ref")
		return must(SampleAccounts(c, ref, 3, 4, core.Options{Seed: 32, Par: parallel.Options{Workers: workers, ShardSize: 1}}))
	}
	golden := sample(1)
	for _, workers := range []int{2, 4} {
		if got := sample(workers); !reflect.DeepEqual(got, golden) {
			t.Errorf("samples differ at Workers=%d", workers)
		}
	}
}
