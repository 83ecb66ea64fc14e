package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"cloudscope"
	"cloudscope/internal/deploy"
	"cloudscope/internal/parallel"
)

// studySize sizes the study workload.
type studySize struct {
	domains, vantages, flows, wanClients int
	setupReps                            int // world syntheses timed for setup_s before the first pass
	probeDomains                         int // domains in the DNS layer probes' sample
}

var studyFull = studySize{domains: 600, vantages: 10, flows: 10000, wanClients: 80, setupReps: 20, probeDomains: 1000}

func (sz studySize) config(seed int64) cloudscope.Config {
	return cloudscope.Config{
		Seed:         seed,
		Domains:      sz.domains,
		Vantages:     sz.vantages,
		CaptureFlows: sz.flows,
		WANClients:   sz.wanClients,
		Workers:      1,
	}
}

// firstTrigger names, per experiment, the stage the experiment is the
// first in paper order to build. The traced pass builds that stage
// under its own span just before the experiment, so stages are built
// in exactly the untraced order and the outputs stay byte-identical.
var firstTrigger = map[string]struct {
	span  string
	build func(*cloudscope.Study)
}{
	"table1":  {"capture.study", func(s *cloudscope.Study) { s.Capture() }},
	"table3":  {"dataset.build", nil}, // built by buildDataset, which also reads counters
	"table7":  {"patterns.detect", func(s *cloudscope.Study) { s.Detection() }},
	"table9":  {"regions.analyze", func(s *cloudscope.Study) { s.Regions() }},
	"table12": {"zones.run", func(s *cloudscope.Study) { s.Zones() }},
	"figure5": {"nameservers.analyze", func(s *cloudscope.Study) { s.NameServers() }},
}

// wanExperiments are the §5 experiments (intra-cloud RTTs, ISP
// diversity, and the WAN campaign's matrices and series).
var wanExperiments = map[string]bool{
	"table11": true, "table16": true, "figure9": true, "figure10": true, "figure11": true, "figure12": true,
}

// datasetCounts are the discovery crawl's counters, read from the
// study's own telemetry around Study.Dataset.
type datasetCounts struct {
	queries, noerror int64
	allocBytes       uint64
	queueWait        float64 // seconds
}

// studyPass is one full reproduction on a fresh Study.
type studyPass struct {
	worldCPU time.Duration // world synthesis, process CPU time
	run      time.Duration // world ready → every experiment answered
	cpu      time.Duration // process CPU time over run
	peakMB   float64       // peak live heap during the pass
	digest   [32]byte      // sha256 over every experiment's output
	subset   bool          // discovered cloud domains ⊆ planted truth
	ds       datasetCounts
	wanS     float64
	renderS  float64
	study    *cloudscope.Study
}

func runStudy(r *run, tr *tracer, sz studySize) error {
	cfg := sz.config(r.seed)
	if err := cfg.Validate(); err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < sz.setupReps; i++ {
		// Each synthesis starts from a collected heap, so the samples
		// differ by the work, not by where the GC cycle happens to fall.
		liveHeap()
		st := cloudscope.NewStudy(cfg)
		id := tr.begin("deploy.generate", 0)
		c0 := processCPU()
		st.World()
		setups = append(setups, seconds(processCPU()-c0))
		tr.end(id)
	}
	r.log("study: world synthesis median %.3fs cpu over %d", median(setups), len(setups))

	// One untimed pass first: the first Study in a process runs while the
	// GC pacer grows the heap from nothing, and was 10-40% slower than
	// every later pass. Its digest is the one every later pass must match.
	warm := studyOnce(cfg, nil)
	r.check(warm.subset, "study warm-up pass: discovered ⊆ truth = %v", warm.subset)
	first := warm.digest
	phase := func(tr *tracer, d time.Duration) []studyPass {
		var passes []studyPass
		heap := startHeapSampler()
		defer heap.stopSampling()
		start := time.Now()
		for len(passes) == 0 || time.Since(start) < d {
			// Every pass, its world synthesis included, starts from a
			// collected heap.
			liveHeap()
			heap.lap()
			p := studyOnce(cfg, tr)
			p.peakMB = heap.lap()
			r.check(p.digest == first && p.subset,
				"study pass %d: digest %x (first %x), discovered ⊆ truth = %v", len(passes), p.digest[:6], first[:6], p.subset)
			r.log("study pass %d: %.3fs, cpu %.3fs (world %.3fs) digest %x", len(passes), seconds(p.run), seconds(p.cpu), seconds(p.worldCPU), p.digest[:6])
			passes = append(passes, p)
		}
		return passes
	}

	if tr == nil {
		passes := phase(nil, r.seconds)
		var ms, cpu, peaks []float64
		for _, p := range passes {
			ms = append(ms, millis(p.run))
			cpu = append(cpu, millis(p.cpu))
			peaks = append(peaks, p.peakMB)
			// Each pass synthesizes its world too: more setup samples,
			// spread over the run rather than bunched at its start.
			setups = append(setups, seconds(p.worldCPU))
		}
		r.metrics["setup_s"] = median(setups)
		r.metrics["p50_ms"] = median(ms)
		r.metrics["cpu_ms_per_op"] = median(cpu)
		r.metrics["peak_heap_mb"] = median(peaks)
		r.summary["study_s"] = r.metrics["p50_ms"] / 1e3
		r.summary["study_cpu_s"] = r.metrics["cpu_ms_per_op"] / 1e3
		return nil
	}

	plain := phase(nil, r.seconds/2)
	mem := startMem()
	traced := phase(tr, r.seconds/2)
	_, _, gcs, pause := mem.since()

	var plainS, tracedS, wanS, renderS []float64
	for _, p := range plain {
		plainS = append(plainS, seconds(p.run))
	}
	for _, p := range traced {
		tracedS = append(tracedS, seconds(p.run))
		wanS = append(wanS, p.wanS)
		renderS = append(renderS, p.renderS)
	}
	last := traced[len(traced)-1]
	m := r.metrics
	m["deploy.generate_s"] = median(tr.durations("deploy.generate"))
	m["dataset.build_s"] = median(tr.durations("dataset.build"))
	m["dataset.dns_queries"] = float64(last.ds.queries)
	m["dataset.queries_per_s"] = float64(last.ds.queries) / m["dataset.build_s"]
	m["dataset.useful_frac"] = float64(last.ds.noerror) / float64(last.ds.queries)
	m["dataset.alloc_mb"] = float64(last.ds.allocBytes) / (1 << 20)
	m["dataset.queue_wait_s"] = last.ds.queueWait
	m["patterns.detect_s"] = median(tr.durations("patterns.detect"))
	m["regions.analyze_s"] = median(tr.durations("regions.analyze"))
	m["zones.run_s"] = median(tr.durations("zones.run"))
	m["nameservers.analyze_s"] = median(tr.durations("nameservers.analyze"))
	m["capture.study_s"] = median(tr.durations("capture.study"))
	m["wanperf.experiments_s"] = median(wanS)
	m["experiments.render_s"] = median(renderS)
	m["runtime.gc_cycles"] = float64(gcs) / float64(len(traced))
	m["runtime.gc_pause_s"] = seconds(pause) / float64(len(traced))
	m["tracing.overhead_frac"] = median(tracedS)/median(plainS) - 1
	dnsProbes(r, tr, last.study.World(), sz.probeDomains)
	return nil
}

// studyOnce runs every registered experiment on a fresh Study. With a
// tracer it also times each stage and experiment under spans.
func studyOnce(cfg cloudscope.Config, tr *tracer) studyPass {
	st := cloudscope.NewStudy(cfg)
	pass := tr.begin("study.pass", 0)
	defer tr.end(pass)

	var p studyPass
	p.study = st
	id := tr.begin("deploy.generate", pass)
	c0 := processCPU()
	w := st.World()
	p.worldCPU = processCPU() - c0
	tr.end(id)

	h := sha256.New()
	t1 := time.Now()
	c1 := processCPU()
	for _, e := range cloudscope.Experiments() {
		if tr != nil {
			if ft, ok := firstTrigger[e.ID]; ok {
				id := tr.begin(ft.span, pass)
				if ft.build == nil {
					p.ds = buildDataset(st)
				} else {
					ft.build(st)
				}
				tr.end(id)
			}
		}
		id := tr.begin("experiment/"+e.ID, pass)
		out := e.Run(st)
		d := seconds(tr.end(id))
		if wanExperiments[e.ID] {
			p.wanS += d
		} else {
			p.renderS += d
		}
		fmt.Fprintf(h, "%s\x00%s\x00", e.ID, out)
	}
	p.run = time.Since(t1)
	p.cpu = processCPU() - c1
	h.Sum(p.digest[:0])
	p.subset = discoveredSubsetOfTruth(st, w)
	return p
}

// buildDataset runs the discovery crawl and reads its counters.
func buildDataset(st *cloudscope.Study) datasetCounts {
	reg := st.Telemetry().Registry()
	q0, n0 := reg.Counter("dns.queries").Value(), reg.Counter("dns.rcode.noerror").Value()
	mem := startMem()
	st.Dataset()
	alloc, _, _, _ := mem.since()
	return datasetCounts{
		queries:    reg.Counter("dns.queries").Value() - q0,
		noerror:    reg.Counter("dns.rcode.noerror").Value() - n0,
		allocBytes: alloc,
		queueWait:  reg.Histogram("parallel.dataset.queue_wait_ms", parallel.QueueWaitBucketsMs).Sum() / 1e3,
	}
}

// discoveredSubsetOfTruth checks §2.1's lower-bound property: every
// domain discovery calls cloud-using was planted as cloud-using.
func discoveredSubsetOfTruth(st *cloudscope.Study, w *deploy.World) bool {
	truth := map[string]bool{}
	for _, d := range w.CloudDomains {
		truth[d.Name] = true
	}
	found := st.Dataset().CloudDomains()
	for _, name := range found {
		if !truth[name] {
			return false
		}
	}
	return len(found) > 0
}

// sampleDomains draws n distinct domains of w, seeded.
func sampleDomains(w *deploy.World, n int, seed int64) []*deploy.Domain {
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(w.Domains))
	if n > len(idx) {
		n = len(idx)
	}
	out := make([]*deploy.Domain, n)
	for i := range out {
		out[i] = w.Domains[idx[i]]
	}
	return out
}
