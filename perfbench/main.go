// Command perfbench is cloudscope's repository benchmark. It runs one
// seeded workload against the program's public Go API, checks the
// answers, and prints one JSON result line:
//
//	perfbench --workload study --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the same workload runs once untraced
// and once traced, the layer probes run on the workload's own world,
// and the result carries the per-layer metrics; the spans are kept in
// memory and written to --trace-dir at the end. See README.md for the
// workloads, the metric definitions, and which layer metric is
// predicted to move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of each workload sees. Every workload
// reports every one; an "op" is the workload's unit of work (one full
// study, one generated-and-analyzed pcap, one HTTP request).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's layer metrics. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"deploy.generate_s", "s"},
	{"dataset.build_s", "s"},
	{"dataset.dns_queries", "count"},
	{"dataset.queries_per_s", "1/s"},
	{"dataset.useful_frac", "fraction"},
	{"dataset.alloc_mb", "MB"},
	{"dataset.queue_wait_s", "s"},
	{"dnssrv.query_us", "us"},
	{"resolver.lookup_a_us", "us"},
	{"dnswire.codec_us", "us"},
	{"patterns.detect_s", "s"},
	{"regions.analyze_s", "s"},
	{"zones.run_s", "s"},
	{"nameservers.analyze_s", "s"},
	{"capture.study_s", "s"},
	{"wanperf.experiments_s", "s"},
	{"experiments.render_s", "s"},
	{"capture.gen_s", "s"},
	{"capture.analyze_s", "s"},
	{"capture.gen_allocs_per_packet", "count"},
	{"capture.analyze_allocs_per_packet", "count"},
	{"capture.packets", "count"},
	{"capture.bytes_per_packet", "B"},
	{"capture.flows_recovered_frac", "fraction"},
	{"pcapio.read_block_mb_per_s", "MB/s"},
	{"packet.decode_headers_ns", "ns"},
	{"serve.handler_us", "us"},
	{"api.domain_us", "us"},
	{"serve.cache_hit_frac", "fraction"},
	{"serve.cache_entries", "count"},
	{"serve.heap_bytes_per_entry", "B"},
	{"serve.rejected", "count"},
	{"serve.warm_s", "s"},
	{"load.p50_ms", "ms"},
	{"load.p99_ms", "ms"},
	{"load.lag_p50_ms", "ms"},
	{"load.lag_p99_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"tracing.overhead_frac", "fraction"},
}

// run is one invocation's settings and accumulating outcome.
type run struct {
	seed    int64
	seconds time.Duration
	trace   bool
	log     func(format string, args ...any)

	mu                sync.Mutex // guards attempted and failed
	attempted, failed int64
	metrics           map[string]float64
	// summary holds per-workload names (study_s, capture_mb_per_s,
	// req_per_s, error_frac, ...) printed to stderr for people.
	summary map[string]float64
}

// check records one operation and whether its answer was right.
func (r *run) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 5 {
			r.log("check failed: "+format, args...)
		}
	}
}

// workload runs a measurement for r.seconds and fills r.metrics with
// the end-to-end metrics, or with per-layer metrics when tr is non-nil.
type workload func(r *run, tr *tracer) error

var workloads = map[string]workload{
	"study":     func(r *run, tr *tracer) error { return runStudy(r, tr, studyFull) },
	"capture":   func(r *run, tr *tracer) error { return runCapture(r, tr, captureFull) },
	"serve-hot": func(r *run, tr *tracer) error { return runServe(r, tr, serveHotFull) },
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: study, capture or serve-hot")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 15, "measurement time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "where the traced run writes its spans")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	r := newRun(*seed, time.Duration(*seconds)*time.Second, *trace == 1)
	var tr *tracer
	if r.trace {
		tr = newTracer()
	}
	if err := wl(r, tr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if tr != nil {
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		r.log("spans written to %s", path)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	r.printSummary(*name)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newRun(seed int64, seconds time.Duration, trace bool) *run {
	return &run{
		seed:    seed,
		seconds: seconds,
		trace:   trace,
		log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		},
		metrics: map[string]float64{},
		summary: map[string]float64{},
	}
}

// result assembles the JSON result: every end-to-end metric for an
// untraced run (a missing one is a benchmark bug), every per-layer
// metric for a traced run (0 where the workload does not reach the
// layer).
func (r *run) result() (*result, error) {
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultMetric{},
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !r.trace {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = resultMetric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// printSummary writes the per-workload summary of the run to stderr.
func (r *run) printSummary(name string) {
	r.summary["error_frac"] = float64(r.failed) / float64(r.attempted)
	keys := make([]string, 0, len(r.summary))
	for k := range r.summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.log("%s %s = %.6g", name, k, r.summary[k])
	}
}
