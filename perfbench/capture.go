package main

import (
	"bytes"
	"time"

	"cloudscope"
	"cloudscope/internal/capture"
	"cloudscope/internal/deploy"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
)

// captureSize sizes the capture workload.
type captureSize struct {
	domains, flows int
	setupReps      int // world syntheses timed for setup_s
	// dropFlow makes the check see one flow fewer than the analyzer
	// recovered; the self-check uses it to prove the check can fail.
	dropFlow bool
}

var captureFull = captureSize{domains: 4000, flows: 20000, setupReps: 9}

// bytesUnchecked are the flow kinds whose byte totals the check does
// not compare. capture.Truth books an "other TCP" flow at the server's
// bytes only, while the generator also sends a client request and the
// analyzer counts both directions; until Truth and the generator agree,
// that kind's flows are counted but its bytes are not compared.
var bytesUnchecked = map[capture.Kind]bool{capture.KindOtherTCP: true}

// captureCycle is one generated-and-analyzed pcap.
type captureCycle struct {
	gen, analyze        time.Duration
	cpu                 time.Duration // process CPU time over gen and analyze
	peakMB              float64       // peak live heap during the cycle
	genAllocs, anAllocs uint64
	bytes, packets      int
	flows, truthFlows   int
}

func runCapture(r *run, tr *tracer, sz captureSize) error {
	cfg := cloudscope.Config{Seed: r.seed, Domains: sz.domains, CaptureFlows: sz.flows, Workers: 1}
	if err := cfg.Validate(); err != nil {
		return err
	}
	var setups []float64
	var st *cloudscope.Study
	for i := 0; i < sz.setupReps; i++ {
		// Each synthesis starts from a collected heap, the previous
		// world included, so the samples differ by the work alone.
		st = nil
		liveHeap()
		st = cloudscope.NewStudy(cfg)
		id := tr.begin("deploy.generate", 0)
		c0 := processCPU()
		st.World()
		setups = append(setups, seconds(processCPU()-c0))
		tr.end(id)
	}
	w := st.World()
	r.log("capture: world synthesis median %.3fs cpu over %d", median(setups), len(setups))

	var buf bytes.Buffer
	phase := func(tr *tracer, d time.Duration) ([]captureCycle, error) {
		var cycles []captureCycle
		// One untimed cycle first: it grows the pcap buffer and fills
		// the block pools, which every later cycle reuses.
		if _, err := captureOnce(r, nil, st, w, &buf, sz.dropFlow); err != nil {
			return nil, err
		}
		liveHeap()
		heap := startHeapSampler()
		defer heap.stopSampling()
		start := time.Now()
		for len(cycles) == 0 || time.Since(start) < d {
			c, err := captureOnce(r, tr, st, w, &buf, sz.dropFlow)
			if err != nil {
				return nil, err
			}
			c.peakMB = heap.lap()
			cycles = append(cycles, c)
		}
		return cycles, nil
	}

	if tr == nil {
		cycles, err := phase(nil, r.seconds)
		if err != nil {
			return err
		}
		var ms, cpu, peaks []float64
		for _, c := range cycles {
			ms = append(ms, millis(c.gen+c.analyze))
			cpu = append(cpu, millis(c.cpu))
			peaks = append(peaks, c.peakMB)
		}
		r.metrics["setup_s"] = median(setups)
		r.metrics["p50_ms"] = median(ms)
		r.metrics["cpu_ms_per_op"] = median(cpu)
		r.metrics["peak_heap_mb"] = median(peaks)
		r.summary["capture_mb_per_s"] = float64(cycles[0].bytes) / (1 << 20) / (r.metrics["p50_ms"] / 1e3)
		return nil
	}

	plain, err := phase(nil, r.seconds/2)
	if err != nil {
		return err
	}
	mem := startMem()
	traced, err := phase(tr, r.seconds/2)
	if err != nil {
		return err
	}
	_, _, gcs, pause := mem.since()

	var plainS, tracedS, genS, anS []float64
	for _, c := range plain {
		plainS = append(plainS, seconds(c.gen+c.analyze))
	}
	for _, c := range traced {
		tracedS = append(tracedS, seconds(c.gen+c.analyze))
		genS = append(genS, seconds(c.gen))
		anS = append(anS, seconds(c.analyze))
	}
	last := traced[len(traced)-1]
	m := r.metrics
	m["deploy.generate_s"] = median(tr.durations("deploy.generate"))
	m["capture.gen_s"] = median(genS)
	m["capture.analyze_s"] = median(anS)
	m["capture.gen_allocs_per_packet"] = float64(last.genAllocs) / float64(last.packets)
	m["capture.analyze_allocs_per_packet"] = float64(last.anAllocs) / float64(last.packets)
	m["capture.packets"] = float64(last.packets)
	m["capture.bytes_per_packet"] = float64(last.bytes) / float64(last.packets)
	m["capture.flows_recovered_frac"] = float64(last.flows) / float64(last.truthFlows)
	m["runtime.gc_cycles"] = float64(gcs) / float64(len(traced))
	m["runtime.gc_pause_s"] = seconds(pause) / float64(len(traced))
	m["tracing.overhead_frac"] = median(tracedS)/median(plainS) - 1
	return pcapProbes(r, tr, buf.Bytes())
}

// captureOnce writes the study's border capture into buf and analyzes
// it, checking the analysis against the generator's ground truth.
func captureOnce(r *run, tr *tracer, st *cloudscope.Study, w *deploy.World, buf *bytes.Buffer, dropFlow bool) (captureCycle, error) {
	var c captureCycle
	buf.Reset()
	var mem *memDelta
	if tr != nil {
		mem = startMem()
	}
	id := tr.begin("capture.gen", 0)
	c0 := processCPU()
	t0 := time.Now()
	truth, err := st.WriteCapture(buf)
	c.gen = time.Since(t0)
	tr.end(id)
	if err != nil {
		return c, err
	}
	if tr != nil {
		_, c.genAllocs, _, _ = mem.since()
		mem = startMem()
	}
	id = tr.begin("capture.analyze", 0)
	t1 := time.Now()
	an, err := capture.AnalyzePar(bytes.NewReader(buf.Bytes()), w.Ranges, parallel.Options{Workers: 1})
	c.analyze = time.Since(t1)
	c.cpu = processCPU() - c0
	tr.end(id)
	if err != nil {
		return c, err
	}
	if tr != nil {
		_, c.anAllocs, _, _ = mem.since()
	}
	c.bytes, c.packets = buf.Len(), an.Records
	c.flows, c.truthFlows = len(an.Flows), truth.TotalFlows

	flows := an.Flows
	if dropFlow {
		flows = flows[1:]
	}
	type cloudKind struct {
		cloud ipranges.Provider
		kind  capture.Kind
	}
	gotFlows := map[cloudKind]int{}
	gotBytes := map[cloudKind]int64{}
	for _, f := range flows {
		k := cloudKind{f.Cloud, f.Kind}
		gotFlows[k]++
		gotBytes[k] += f.Bytes()
	}
	ok := an.DecodeErrs == 0
	want := 0
	for cl, kinds := range truth.FlowsByKind {
		for kind, n := range kinds {
			k := cloudKind{cl, kind}
			want += n
			ok = ok && gotFlows[k] == n && (bytesUnchecked[kind] || gotBytes[k] == truth.BytesByKind[cl][kind])
		}
	}
	ok = ok && len(flows) == want
	r.check(ok, "capture analysis vs truth: flows %v want %v, bytes %v want %v (decode errors %d)",
		gotFlows, truth.FlowsByKind, gotBytes, truth.BytesByKind, an.DecodeErrs)
	return c, nil
}
