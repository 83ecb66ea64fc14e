package bench

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"cloudscope"
	"cloudscope/internal/capture"
	"cloudscope/internal/chaos"
	"cloudscope/internal/deploy"
	"cloudscope/internal/parallel"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/telemetry/runtimeprof"
)

// MatrixConfig parameterizes a benchmark matrix run.
type MatrixConfig struct {
	// Sizes are the world sizes (ranked-list domain counts) to sweep.
	Sizes []int
	// Workers are the worker bounds to sweep; 0 means GOMAXPROCS and is
	// reported as "max" so snapshots from different machines share
	// metric names.
	Workers []int
	// Reps runs each cell this many times and keeps the best value per
	// metric (fastest rate, lowest cost). Default 1.
	Reps int
	// Seed drives the generated worlds. Default 1.
	Seed int64
	// Vantages is the discovery vantage count. Default 10 — enough to
	// exercise the distributed-resolution merge without making the
	// discovery leg dominate the matrix.
	Vantages int
	// DiscoveryMax caps the world size for the discovery and chaos legs
	// (the crawl is quadratic-ish in practice and would dwarf the rest
	// of the matrix at the largest sizes). Default 10000.
	DiscoveryMax int
	// Chaos names a fault scenario for the chaos-overhead leg; empty
	// skips the leg.
	Chaos string
	// CaptureChaos names a fault scenario for the capture-fault leg: the
	// capture data path (pcap generation + analysis) timed under
	// capture-layer fault injection against a clean run of the same
	// world. Empty skips the leg.
	CaptureChaos string
	// StreamSizes are world sizes for the streaming world-build leg:
	// each world is generated chunk-by-chunk via deploy.GenerateStream
	// with chunks released as soon as they are counted, and the cell
	// records peak heap as peak_rss_vs_world_size/world=N. Flat values
	// across sizes — 100K vs 1M in the committed snapshots — are the
	// proof the streaming data path runs in bounded memory. Empty skips
	// the leg.
	StreamSizes []int
	// StreamChunk is the streaming leg's chunk size. Default 4096.
	StreamChunk int
	// Serve enables the query-daemon leg: a cloudscoped server over
	// loopback HTTP, warmed, then driven closed-loop with a seeded mix.
	// Gated to sizes <= DiscoveryMax (the zones endpoint needs the
	// discovery crawl).
	Serve bool
	// ServeRequests is the serve leg's request budget per rep. Default
	// 2000.
	ServeRequests int
	// Log receives one progress line per cell; nil is quiet.
	Log io.Writer
}

func (c *MatrixConfig) fill() {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000, 10000, 100000}
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 4, 0}
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Vantages <= 0 {
		c.Vantages = 10
	}
	if c.DiscoveryMax == 0 {
		c.DiscoveryMax = 10000
	}
	if c.StreamChunk <= 0 {
		c.StreamChunk = 4096
	}
	if c.ServeRequests <= 0 {
		c.ServeRequests = 2000
	}
}

// WorkerLabel renders a worker bound for metric names: "max" for 0
// (GOMAXPROCS) so names stay machine-independent, the number otherwise.
func WorkerLabel(w int) string {
	if w == 0 {
		return "max"
	}
	return fmt.Sprintf("%d", w)
}

// flowsFor sizes the border capture to the world: enough flows that
// the generator and analyzer run long enough to time, scaled so the
// 100K cell stays in seconds.
func flowsFor(size int) int {
	f := size
	if f < 2000 {
		f = 2000
	}
	if f > 60000 {
		f = 60000
	}
	return f
}

// cell accumulates one (size, workers) cell's metrics, keeping the
// best value per metric across reps.
type cell struct {
	vals map[string]Metric
}

func (c *cell) keep(name string, v float64, unit, better string) {
	if c.vals == nil {
		c.vals = map[string]Metric{}
	}
	old, ok := c.vals[name]
	if !ok || (better == Higher && v > old.Value) || (better == Lower && v < old.Value) {
		c.vals[name] = Metric{Name: name, Value: v, Unit: unit, Better: better}
	}
}

// Run executes the matrix and returns the snapshot (CreatedAt is left
// for the caller to stamp).
func Run(cfg MatrixConfig) (*Snapshot, error) {
	cfg.fill()
	var scenario *chaos.Scenario
	if cfg.Chaos != "" {
		var err error
		scenario, err = chaos.Load(cfg.Chaos)
		if err != nil {
			return nil, err
		}
	}
	var capScenario *chaos.Scenario
	if cfg.CaptureChaos != "" {
		var err error
		capScenario, err = chaos.Load(cfg.CaptureChaos)
		if err != nil {
			return nil, err
		}
	}

	snap := &Snapshot{Schema: Schema, Host: CurrentHost()}
	snap.Params = Params{
		Reps: cfg.Reps, Seed: cfg.Seed, Vantages: cfg.Vantages,
		DiscoveryMax: cfg.DiscoveryMax, Chaos: cfg.Chaos,
		CaptureChaos: cfg.CaptureChaos,
		Serve:        cfg.Serve,
	}
	if cfg.Serve {
		snap.Params.ServeRequests = cfg.ServeRequests
	}
	snap.Params.Sizes = append(snap.Params.Sizes, cfg.Sizes...)
	snap.Params.StreamSizes = append(snap.Params.StreamSizes, cfg.StreamSizes...)
	for _, w := range cfg.Workers {
		snap.Params.Workers = append(snap.Params.Workers, WorkerLabel(w))
	}

	chaosWorkers := cfg.Workers[len(cfg.Workers)-1]
	for _, size := range cfg.Sizes {
		// cleanDataset is the best clean discovery time at this size
		// under the chaos leg's worker setting — the like-for-like
		// baseline the overhead ratio divides by.
		var cleanDataset time.Duration
		for _, w := range cfg.Workers {
			c := &cell{}
			for rep := 0; rep < cfg.Reps; rep++ {
				dt, err := runCell(cfg, size, w, c)
				if err != nil {
					return nil, err
				}
				if w == chaosWorkers && dt > 0 && (cleanDataset == 0 || dt < cleanDataset) {
					cleanDataset = dt
				}
			}
			for _, m := range c.vals {
				snap.Metrics = append(snap.Metrics, m)
			}
			logf(cfg.Log, "bench: world=%d workers=%s done", size, WorkerLabel(w))
		}
		if scenario != nil && size <= cfg.DiscoveryMax && cleanDataset > 0 {
			ratio, err := chaosOverhead(cfg, scenario, size, cleanDataset)
			if err != nil {
				return nil, err
			}
			snap.Metrics = append(snap.Metrics, Metric{
				Name:   fmt.Sprintf("chaos_overhead_ratio/world=%d", size),
				Value:  ratio,
				Unit:   "ratio",
				Better: Lower,
			})
			logf(cfg.Log, "bench: world=%d chaos leg done (%.2fx)", size, ratio)
		}
		if capScenario != nil {
			c := &cell{}
			ratio, err := captureChaosLeg(cfg, capScenario, size, c)
			if err != nil {
				return nil, err
			}
			for _, m := range c.vals {
				snap.Metrics = append(snap.Metrics, m)
			}
			logf(cfg.Log, "bench: world=%d capture-chaos leg done (%.2fx)", size, ratio)
		}
		if cfg.Serve && size <= cfg.DiscoveryMax {
			c := &cell{}
			for rep := 0; rep < cfg.Reps; rep++ {
				if err := serveLeg(cfg, size, c); err != nil {
					return nil, err
				}
			}
			for _, m := range c.vals {
				snap.Metrics = append(snap.Metrics, m)
			}
			logf(cfg.Log, "bench: world=%d serve leg done", size)
		}
	}
	for _, size := range cfg.StreamSizes {
		c := &cell{}
		for rep := 0; rep < cfg.Reps; rep++ {
			if err := runStreamCell(cfg, size, c); err != nil {
				return nil, err
			}
		}
		for _, m := range c.vals {
			snap.Metrics = append(snap.Metrics, m)
		}
		logf(cfg.Log, "bench: stream world=%d done", size)
	}
	return snap, nil
}

// runStreamCell measures the streaming world-build leg: generate the
// world chunk-by-chunk, releasing each chunk once counted, and record
// the peak heap the sweep ever needed. Unlike the main matrix there is
// no workers axis — the metric is a memory ceiling, not a rate, and
// one name per size keeps the trajectory across snapshots legible.
func runStreamCell(cfg MatrixConfig, size int, c *cell) error {
	// Drop the previous cells' dead heap first — the sampler ratchets
	// absolute HeapAlloc, and the claim here is the streaming build's
	// own footprint, not whatever the in-memory matrix left uncollected.
	// Two collections, not one: sync.Pool contents (the capture cells'
	// pooled packet blocks) survive a single GC in the victim cache.
	runtime.GC()
	runtime.GC()
	reg := telemetry.NewRegistry()
	sampler := runtimeprof.Start(reg, 10*time.Millisecond)

	dcfg := deploy.DefaultConfig().Scaled(size)
	dcfg.Seed = cfg.Seed
	ws := deploy.GenerateStream(dcfg, cfg.StreamChunk)
	n := 0
	for {
		chunk, err := ws.Next()
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		n += len(chunk.Domains)
		ws.Release(chunk)
	}
	sampler.Stop()
	if n != size {
		return fmt.Errorf("bench: streaming leg generated %d domains, want %d", n, size)
	}
	peak := reg.Gauge("runtime.peak_heap_alloc_bytes").Value()
	c.keep(fmt.Sprintf("peak_rss_vs_world_size/world=%d", size), float64(peak)/1e6, "MB", Lower)
	return nil
}

// runCell measures one rep of one matrix cell, folding results into c.
// It returns the clean discovery wall time (0 when the discovery leg
// was skipped) so the chaos leg can use it as baseline.
func runCell(cfg MatrixConfig, size, w int, c *cell) (time.Duration, error) {
	suffix := fmt.Sprintf("/world=%d/workers=%s", size, WorkerLabel(w))

	// The sampler watches the whole cell on a private registry, so peak
	// heap covers world synthesis, discovery, and the capture legs.
	reg := telemetry.NewRegistry()
	sampler := runtimeprof.Start(reg, 10*time.Millisecond)

	study := cloudscope.NewStudy(cloudscope.Config{
		Seed:         cfg.Seed,
		Domains:      size,
		Vantages:     cfg.Vantages,
		CaptureFlows: flowsFor(size),
		Workers:      w,
		NoTelemetry:  true,
	})

	// World synthesis.
	t0 := time.Now()
	world := study.World()
	dt := time.Since(t0)
	c.keep("worldgen_domains_per_s"+suffix, rate(size, dt), "domains/s", Higher)

	// Capture generation: pcap MB/s and allocations per packet.
	var buf bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	if _, err := study.WriteCapture(&buf); err != nil {
		sampler.Stop()
		return 0, err
	}
	dt = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	genAllocs := ms1.Mallocs - ms0.Mallocs
	mb := float64(buf.Len()) / 1e6
	c.keep("capture_gen_mb_per_s"+suffix, mb/secs(dt), "MB/s", Higher)

	// Capture analysis over the same bytes.
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	an, err := capture.AnalyzePar(bytes.NewReader(buf.Bytes()), world.Ranges, parallel.Options{Workers: w})
	dt = time.Since(t0)
	if err != nil {
		sampler.Stop()
		return 0, err
	}
	runtime.ReadMemStats(&ms1)
	packets := an.NonIPv4 + an.UnknownIP + an.DecodeErrs
	for _, fr := range an.Flows {
		packets += fr.Packets
	}
	c.keep("capture_analyze_mb_per_s"+suffix, mb/secs(dt), "MB/s", Higher)
	if packets > 0 {
		c.keep("capture_gen_allocs_per_packet"+suffix, float64(genAllocs)/float64(packets), "allocs/pkt", Lower)
		c.keep("capture_analyze_allocs_per_packet"+suffix, float64(ms1.Mallocs-ms0.Mallocs)/float64(packets), "allocs/pkt", Lower)
		// Wire density of the pcap: creeping per-packet overhead (frame
		// padding, record bloat) shows up here before it moves MB/s.
		c.keep("capture_bytes_per_packet"+suffix, float64(buf.Len())/float64(packets), "B/pkt", Lower)
	}
	buf = bytes.Buffer{} // release the pcap before the discovery leg

	// Discovery, gated: the crawl dominates wall time at large sizes.
	var dsTime time.Duration
	if size <= cfg.DiscoveryMax {
		t0 = time.Now()
		study.Dataset()
		dsTime = time.Since(t0)
		c.keep("discovery_domains_per_s"+suffix, rate(size, dsTime), "domains/s", Higher)
	}

	sampler.Stop()
	peak := reg.Gauge("runtime.peak_heap_alloc_bytes").Value()
	c.keep("peak_heap_mb"+suffix, float64(peak)/1e6, "MB", Lower)
	return dsTime, nil
}

// captureChaosLeg times the capture data path — pcap generation plus
// flow analysis — under capture-layer fault injection against a clean
// run of the same world, folding faulted throughput and the wall-time
// overhead ratio into c. The capture-fault draws are per-flow hashes,
// so the leg measures the cost of the injection machinery and of the
// analyzer's partial-flow fallbacks, not a different workload.
func captureChaosLeg(cfg MatrixConfig, sc *chaos.Scenario, size int, c *cell) (float64, error) {
	w := cfg.Workers[len(cfg.Workers)-1]
	suffix := fmt.Sprintf("/world=%d", size)

	runOnce := func(faulted bool) (wall time.Duration, genMBs, anMBs float64, err error) {
		ccfg := cloudscope.Config{
			Seed:         cfg.Seed,
			Domains:      size,
			Vantages:     cfg.Vantages,
			CaptureFlows: flowsFor(size),
			Workers:      w,
			NoTelemetry:  true,
		}
		if faulted {
			ccfg.Chaos = sc
		}
		study := cloudscope.NewStudy(ccfg)
		world := study.World()
		var buf bytes.Buffer
		t0 := time.Now()
		if _, err := study.WriteCapture(&buf); err != nil {
			return 0, 0, 0, err
		}
		genDt := time.Since(t0)
		mb := float64(buf.Len()) / 1e6
		t0 = time.Now()
		_, err = capture.AnalyzePar(bytes.NewReader(buf.Bytes()), world.Ranges, parallel.Options{Workers: w})
		anDt := time.Since(t0)
		if err != nil {
			return 0, 0, 0, err
		}
		return genDt + anDt, mb / secs(genDt), mb / secs(anDt), nil
	}

	bestClean, bestFaulted := time.Duration(0), time.Duration(0)
	for rep := 0; rep < cfg.Reps; rep++ {
		clean, _, _, err := runOnce(false)
		if err != nil {
			return 0, err
		}
		faulted, genMBs, anMBs, err := runOnce(true)
		if err != nil {
			return 0, err
		}
		c.keep("capture_chaos_gen_mb_per_s"+suffix, genMBs, "MB/s", Higher)
		c.keep("capture_chaos_analyze_mb_per_s"+suffix, anMBs, "MB/s", Higher)
		if bestClean == 0 || clean < bestClean {
			bestClean = clean
		}
		if bestFaulted == 0 || faulted < bestFaulted {
			bestFaulted = faulted
		}
	}
	ratio := secs(bestFaulted) / secs(bestClean)
	c.keep("capture_chaos_overhead_ratio"+suffix, ratio, "ratio", Lower)
	return ratio, nil
}

// chaosOverhead times the discovery pipeline under the fault scenario
// (hardened path: retries, backoff, breakers) against the clean
// baseline and returns the wall-time ratio.
func chaosOverhead(cfg MatrixConfig, sc *chaos.Scenario, size int, clean time.Duration) (float64, error) {
	w := cfg.Workers[len(cfg.Workers)-1]
	best := 0.0
	for rep := 0; rep < cfg.Reps; rep++ {
		study := cloudscope.NewStudy(cloudscope.Config{
			Seed:         cfg.Seed,
			Domains:      size,
			Vantages:     cfg.Vantages,
			CaptureFlows: flowsFor(size),
			Workers:      w,
			NoTelemetry:  true,
			Chaos:        sc,
		})
		study.World()
		t0 := time.Now()
		study.Dataset()
		dt := time.Since(t0)
		ratio := secs(dt) / secs(clean)
		if rep == 0 || ratio < best {
			best = ratio
		}
	}
	return best, nil
}

func rate(n int, d time.Duration) float64 { return float64(n) / secs(d) }

// secs guards against a sub-resolution timer reading turning a rate
// into +Inf on very fast cells.
func secs(d time.Duration) float64 {
	s := d.Seconds()
	if s <= 0 {
		return 1e-9
	}
	return s
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}
