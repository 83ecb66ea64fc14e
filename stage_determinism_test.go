package cloudscope

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"cloudscope/internal/capture"
	"cloudscope/internal/cartography"
	"cloudscope/internal/core"
	"cloudscope/internal/core/dataset"
	"cloudscope/internal/core/traffic"
	"cloudscope/internal/deploy"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
)

// stageWorkerCounts are the bounds every stage golden is checked at:
// the sequential path, a fixed parallel bound, and whatever the host
// really has.
func stageWorkerCounts() []int {
	counts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// stageHashes runs each pipeline stage in isolation at the given worker
// bound and returns a content hash per stage. Every stage uses a small
// explicit shard size so shard boundaries cut through real work even on
// small inputs.
func stageHashes(t *testing.T, seed int64, workers int) map[string]string {
	t.Helper()
	opt := parallel.Options{Workers: workers, ShardSize: 19}
	hashes := map[string]string{}
	digest := func(stage string, render func(h *sha256Writer)) {
		h := &sha256Writer{}
		render(h)
		hashes[stage] = h.Sum()
	}

	// Stage 1: world synthesis.
	world := must(deploy.Generate(deploy.Config{Seed: seed, NumDomains: 400, Par: opt}))
	digest("world", func(h *sha256Writer) { world.DumpTruth(h) })

	// Stage 2: subdomain discovery over the world.
	names := make([]string, 0, len(world.Domains))
	for _, d := range world.Domains {
		names = append(names, d.Name)
	}
	ds := must(dataset.Build(dataset.Config{
		Fabric:   world.Fabric,
		Registry: world.Registry,
		Ranges:   world.Ranges,
		Domains:  names,
		Vantages: 8,
		Par:      opt,
	}))
	digest("dataset", func(h *sha256Writer) {
		if _, err := ds.WriteTo(h); err != nil {
			t.Fatal(err)
		}
	})

	// Stage 3: border capture generation and analysis.
	var pcap bytes.Buffer
	g := capture.NewGenerator(capture.Config{Seed: seed, Flows: 500, Par: opt}, world)
	if _, err := g.Generate(pcapio.NewWriter(&pcap, capture.Snaplen)); err != nil {
		t.Fatal(err)
	}
	digest("capture", func(h *sha256Writer) { h.Write(pcap.Bytes()) })
	an, err := capture.AnalyzePar(&pcap, world.Ranges, opt)
	if err != nil {
		t.Fatal(err)
	}
	digest("capture_analysis", func(h *sha256Writer) {
		fmt.Fprintln(h, traffic.Table1(an))
		fmt.Fprintln(h, traffic.Table2(an))
		fmt.Fprintln(h, traffic.Table5(an, 15))
		fmt.Fprintln(h, traffic.Table6(an, 10))
	})

	// Stage 4: cartography sampling and the proximity-map merge.
	ref := world.EC2.NewAccount("stage-ref")
	samples := must(cartography.SampleAccounts(world.EC2, ref, 3, 3, core.Options{Seed: seed, Par: opt}))
	pm := must(cartography.MergeAccounts(samples, ref.Name, core.Options{Par: opt}))
	digest("cartography", func(h *sha256Writer) {
		for _, s := range samples {
			fmt.Fprintf(h, "S %s %s %s %s\n", s.Account, s.Region, s.Label, s.InternalIP)
		}
		for _, region := range world.EC2.Regions() {
			fmt.Fprintf(h, "R %s %v %v\n", region, pm.Index(region, 16), pm.Index(region, 24))
		}
		fmt.Fprintf(h, "ref=%s perms=%v\n", pm.Reference, pm.Permutations)
	})
	return hashes
}

// streamChunkSizes are the chunk sizes every streaming golden is
// checked at: degenerate one-domain chunks, a small odd size that cuts
// through every boundary, a size larger than the world (one full
// chunk), and 0 — the explicit whole-world-in-one-chunk spelling.
var streamChunkSizes = []int{1, 7, 1000, 0}

// streamedWorldHash generates the world chunk-by-chunk, hashing each
// chunk's ground-truth dump and releasing it before the next, then
// appends the stream's trailer — the same byte stream DumpTruth writes
// for the in-memory world.
func streamedWorldHash(t *testing.T, seed int64, workers, chunk int) string {
	t.Helper()
	wcfg := deploy.Config{Seed: seed, NumDomains: 400, Par: parallel.Options{Workers: workers, ShardSize: 19}}
	ws := deploy.GenerateStream(wcfg, chunk)
	h := &sha256Writer{}
	for {
		c := must(ws.Next())
		if c == nil {
			break
		}
		for _, d := range c.Domains {
			d.DumpTo(h)
		}
		ws.Release(c)
	}
	ws.DumpTrailer(h)
	return h.Sum()
}

// streamedDatasetHash runs the spill-to-disk discovery pipeline over a
// chunk-streamed world and hashes the merged text dataset.
func streamedDatasetHash(t *testing.T, seed int64, workers, chunk int) string {
	t.Helper()
	wcfg := deploy.Config{Seed: seed, NumDomains: 400, Par: parallel.Options{Workers: workers, ShardSize: 19}}
	ws := deploy.GenerateStream(wcfg, chunk)
	w := ws.World()
	sb, err := dataset.NewStreamBuilder(dataset.StreamConfig{
		Config: dataset.Config{
			Fabric:   w.Fabric,
			Registry: w.Registry,
			Ranges:   w.Ranges,
			Vantages: 8,
			Par:      parallel.Options{Workers: workers},
		},
		Total: wcfg.NumDomains,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	for {
		c := must(ws.Next())
		if c == nil {
			break
		}
		names := make([]string, len(c.Domains))
		for i, d := range c.Domains {
			names[i] = d.Name
		}
		if err := sb.AddChunk(names); err != nil {
			t.Fatal(err)
		}
		ws.Release(c)
	}
	h := &sha256Writer{}
	if _, err := sb.Finish(h); err != nil {
		t.Fatal(err)
	}
	return h.Sum()
}

// TestStreamingStageDeterminism pins the bounded-memory data path to
// the in-memory goldens: the chunk-streamed world's ground-truth dump
// and the spill-to-disk dataset must hash identically to
// deploy.Generate's DumpTruth and dataset.Build's WriteTo at every
// chunk size × worker bound × seed. This is the oracle that lets the
// 1M-domain streaming run stand in for the in-memory study.
func TestStreamingStageDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the world and discovery stages many times")
	}
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			golden := stageHashes(t, seed, 1)
			for _, workers := range stageWorkerCounts() {
				for _, chunk := range streamChunkSizes {
					if got := streamedWorldHash(t, seed, workers, chunk); got != golden["world"] {
						t.Errorf("streamed world differs from in-memory at Workers=%d chunk=%d seed=%d", workers, chunk, seed)
					}
					if got := streamedDatasetHash(t, seed, workers, chunk); got != golden["dataset"] {
						t.Errorf("streamed dataset differs from in-memory at Workers=%d chunk=%d seed=%d", workers, chunk, seed)
					}
				}
			}
		})
	}
}

// TestStreamingSmallChunkInvariance is the cheap slice of the
// streaming golden that `make check` runs under -race: one seed,
// GOMAXPROCS workers, pathological one-domain chunks against the
// whole-world chunk. Any cross-chunk data race or order dependence in
// the release bookkeeping shows up here.
func TestStreamingSmallChunkInvariance(t *testing.T) {
	const seed = 3
	tiny := streamedDatasetHash(t, seed, 0, 1)
	whole := streamedDatasetHash(t, seed, 0, 0)
	if tiny != whole {
		t.Fatalf("dataset bytes differ between chunk=1 and one-chunk streaming at seed %d", seed)
	}
	if streamedWorldHash(t, seed, 0, 1) != streamedWorldHash(t, seed, 0, 0) {
		t.Fatalf("world dump differs between chunk=1 and one-chunk streaming at seed %d", seed)
	}
}

// sha256Writer hashes everything written through it.
type sha256Writer struct{ data []byte }

func (w *sha256Writer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}
func (w *sha256Writer) Sum() string { return fmt.Sprintf("%x", sha256.Sum256(w.data)) }

// capturePcapHash generates the capture stage's pcap under one
// parallelism layout and returns its content hash.
func capturePcapHash(t *testing.T, world *deploy.World, seed int64, opt parallel.Options) string {
	t.Helper()
	var pcap bytes.Buffer
	g := capture.NewGenerator(capture.Config{Seed: seed, Flows: 500, Par: opt}, world)
	if _, err := g.Generate(pcapio.NewWriter(&pcap, capture.Snaplen)); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(pcap.Bytes()))
}

// TestCapturePcapLayoutDeterminism pins the capture's pcap bytes to be
// identical not just at every worker bound (Workers=1, 4, GOMAXPROCS —
// TestStageDeterminism's axis) but across shard layouts too: per-flow
// random sub-streams and the total event order make the pcap a pure
// function of seed + world, with the worker/shard machinery invisible
// in the output. A layout-dependent draw anywhere in the generator
// shows up here as a hash mismatch.
func TestCapturePcapLayoutDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the capture under many layouts")
	}
	const seed = 3
	world := must(deploy.Generate(deploy.Config{Seed: seed, NumDomains: 400}))
	golden := capturePcapHash(t, world, seed, parallel.Options{Workers: 1})
	for _, workers := range stageWorkerCounts() {
		for _, shard := range []int{0, 1, 19, 128} {
			got := capturePcapHash(t, world, seed, parallel.Options{Workers: workers, ShardSize: shard})
			if got != golden {
				t.Errorf("pcap bytes differ from sequential default layout at Workers=%d ShardSize=%d", workers, shard)
			}
		}
	}
}

// TestStageDeterminism pins each pipeline stage individually — world
// synthesis, discovery, capture generation and analysis, and the
// cartography merge — to be bit-identical at Workers=1, Workers=4, and
// Workers=GOMAXPROCS, at two seeds. The golden is the runtime Workers=1
// run, so the test needs no checked-in fixtures and survives intended
// output changes; what it cannot survive is any worker-count
// dependence.
func TestStageDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every stage several times")
	}
	counts := stageWorkerCounts()
	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			golden := stageHashes(t, seed, 1)
			for _, workers := range counts[1:] {
				got := stageHashes(t, seed, workers)
				for stage, want := range golden {
					if got[stage] != want {
						t.Errorf("stage %s differs between Workers=1 and Workers=%d at seed %d", stage, workers, seed)
					}
				}
			}
		})
	}
}
