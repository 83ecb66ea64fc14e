package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Tiny sizes: every code path of the full workloads, in about a second.
var (
	studyTiny   = studySize{domains: 120, vantages: 2, flows: 500, wanClients: 8, setupReps: 2, probeDomains: 40}
	captureTiny = captureSize{domains: 200, flows: 800, setupReps: 2}
	serveTiny   = serveSize{
		domains: 120, vantages: 2, flows: 500, wanClients: 8,
		setupReps: 2, conns: 2, rate: 400, window: 100 * time.Millisecond,
		probeRequests: 50, missProbes: 60,
	}
)

func tinyWorkloads() map[string]workload {
	return map[string]workload{
		"study":     func(r *run, tr *tracer) error { return runStudy(r, tr, studyTiny) },
		"capture":   func(r *run, tr *tracer) error { return runCapture(r, tr, captureTiny) },
		"serve-hot": func(r *run, tr *tracer) error { return runServe(r, tr, serveTiny) },
	}
}

func runTiny(t *testing.T, wl workload, trace bool) *result {
	t.Helper()
	r := newRun(3, time.Second, trace)
	r.log = t.Logf
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	if err := wl(r, tr); err != nil {
		t.Fatal(err)
	}
	res, err := r.result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTinyRunsEmitEveryMetric runs each workload at tiny size, untraced
// and traced, and checks that the result names every metric with its
// unit, that end-to-end values are positive, and that nothing failed.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	for name, wl := range tinyWorkloads() {
		for _, trace := range []bool{false, true} {
			res := runTiny(t, wl, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// TestTracedRunReachesEachWorkloadsLayers pins the layer metrics each
// workload must measure in its traced run.
func TestTracedRunReachesEachWorkloadsLayers(t *testing.T) {
	want := map[string][]string{
		"study":   {"dataset.build_s", "dataset.dns_queries", "dnssrv.query_us", "resolver.lookup_a_us", "dnswire.codec_us", "capture.study_s", "wanperf.experiments_s"},
		"capture": {"capture.gen_s", "capture.analyze_s", "capture.packets", "pcapio.read_block_mb_per_s", "packet.decode_headers_ns"},
		"serve-hot": {"serve.handler_us", "serve.warm_s", "serve.cache_hit_frac", "dataset.build_s", "dataset.dns_queries",
			"api.domain_us", "serve.cache_entries", "serve.heap_bytes_per_entry", "load.p50_ms"},
	}
	wls := tinyWorkloads()
	for name, metrics := range want {
		res := runTiny(t, wls[name], true)
		for _, m := range metrics {
			if !(res.Metrics[m].Value > 0) {
				t.Errorf("%s: traced metric %s = %v, want > 0", name, m, res.Metrics[m].Value)
			}
		}
	}
}

// TestCountsRepeat checks that the traced run's work counts repeat
// exactly at a fixed seed.
func TestCountsRepeat(t *testing.T) {
	wls := tinyWorkloads()
	for _, c := range []struct{ workload, metric string }{
		{"study", "dataset.dns_queries"},
		{"capture", "capture.packets"},
	} {
		a := runTiny(t, wls[c.workload], true).Metrics[c.metric].Value
		b := runTiny(t, wls[c.workload], true).Metrics[c.metric].Value
		if a != b || a == 0 {
			t.Errorf("%s %s: %v then %v, want the same non-zero count", c.workload, c.metric, a, b)
		}
	}
}

// TestChecksTrip proves the correctness checks can fail: a dropped flow
// and a tampered response body (every 5th) must both count as failed
// operations.
func TestChecksTrip(t *testing.T) {
	capDrop := captureTiny
	capDrop.dropFlow = true
	hotTamper := serveTiny
	hotTamper.tamper = 5
	for name, wl := range map[string]workload{
		"capture dropped flow":    func(r *run, tr *tracer) error { return runCapture(r, tr, capDrop) },
		"serve-hot tampered body": func(r *run, tr *tracer) error { return runServe(r, tr, hotTamper) },
	} {
		r := newRun(3, time.Second, false)
		r.log = t.Logf
		if err := wl(r, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := r.result()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: correct=%v failed=%d of %d, want a failed operation", name, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables here in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bench.EndToEnd, endToEnd)
	same("per_layer", bench.PerLayer, perLayer)
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(bench.Workloads), len(workloads))
	}
}
