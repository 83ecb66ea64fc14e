package capture

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"cloudscope/internal/chaos"
	"cloudscope/internal/parallel"
)

// compareEvents is the reference emission order sortEvents must give:
// (timestamp, flow, packet), through the events' positions.
func compareEvents(a, b event) int {
	if c := cmp.Compare(a.nano, b.nano); c != 0 {
		return c
	}
	if c := cmp.Compare(a.blk, b.blk); c != 0 {
		return c
	}
	return cmp.Compare(a.rec, b.rec)
}

// checkSortEvents asserts sortEvents orders events exactly as the
// comparison sort on (timestamp, flow, packet) does.
func checkSortEvents(t *testing.T, name string, events []event) {
	t.Helper()
	want := slices.Clone(events)
	slices.SortFunc(want, compareEvents)
	if got := sortEvents(slices.Clone(events)); !slices.Equal(got, want) {
		t.Errorf("%s: sortEvents differs from slices.SortFunc(compareEvents) on %d events", name, len(events))
	}
}

// TestSortEventsMatchesComparisonSort: on inputs in ascending position,
// the order synthesize collects events in, the radix sort gives exactly
// the comparison sort's order — with timestamp ties, on degenerate
// inputs, and for spans that take every pass count from one to five.
func TestSortEventsMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := captureStart.UnixNano()
	// ascending builds n events in ascending position, spread over a
	// few blocks with gaps between records, whose timestamps come from
	// nano(i).
	ascending := func(n int, nano func(i int) int64) []event {
		events := make([]event, n)
		blk, rec := int32(0), int32(0)
		for i := range events {
			if rng.Intn(50) == 0 {
				blk, rec = blk+1, 0
			}
			rec += 1 + int32(rng.Intn(3))
			events[i] = event{nano: nano(i), blk: blk, rec: rec}
		}
		return events
	}

	checkSortEvents(t, "empty", nil)
	checkSortEvents(t, "single", ascending(1, func(int) int64 { return base }))
	checkSortEvents(t, "all tied", ascending(500, func(int) int64 { return base }))
	for digits := 1; digits <= 5; digits++ {
		span := int64(1)<<(radixBits*digits) - 1 // needs exactly digits digits
		for _, n := range []int{2, 3, 100, 5000} {
			events := ascending(n, func(int) int64 { return base + rng.Int63n(span+1) })
			for i := range events { // ties, between any two events
				if rng.Intn(4) == 0 {
					events[i].nano = events[rng.Intn(n)].nano
				}
			}
			events[rng.Intn(n)].nano = base // pin the span's two ends
			events[rng.Intn(n)].nano = base + span
			checkSortEvents(t, "random", events)
		}
	}
	// Timestamps that differ only in their top digit, so every pass
	// over a lower digit finds one value throughout.
	checkSortEvents(t, "top digit only", ascending(300, func(int) int64 {
		return base + int64(rng.Intn(5))<<(4*radixBits)
	}))
}

// TestSortEventsOnCollectedEvents runs the same equivalence on the
// events synthesize really collects under hostile-capture, whose
// reorder fault swaps timestamps inside flows, at Workers 1 and 4, and
// checks the invariant the radix sort relies on: the collected events
// are in strictly ascending position. (That position order is the
// (flow, packet) order is what TestCapturePcapPinned holds against
// the pinned bytes of a build that sorted on flow and packet.)
func TestSortEventsOnCollectedEvents(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := chaosCfg(t, 900, "hostile-capture", 3)
		cfg.Par = parallel.Options{Workers: workers, ShardSize: 23}
		g := NewGenerator(cfg, capWorld)
		events, blocks, err := g.synthesize()
		if err != nil {
			t.Fatal(err)
		}
		if g.truth.Faults[string(chaos.CapReorder)] == 0 {
			t.Fatalf("Workers=%d: no reorder fault fired", workers)
		}
		for i := 1; i < len(events); i++ {
			a, b := events[i-1], events[i]
			if a.blk > b.blk || a.blk == b.blk && a.rec >= b.rec {
				t.Fatalf("Workers=%d: collected events %d and %d out of position order: (%d, %d) then (%d, %d)",
					workers, i-1, i, a.blk, a.rec, b.blk, b.rec)
			}
		}
		checkSortEvents(t, "hostile-capture", events)
		for _, b := range blocks {
			b.Release()
		}
	}
}
