package cloudscope

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestStudyTelemetry runs a small study end to end and checks that every
// instrumented layer reported and every pipeline stage left a span.
func TestStudyTelemetry(t *testing.T) {
	s := NewStudy(Config{Seed: 7, Domains: 300, Vantages: 10, CaptureFlows: 400, WANClients: 16})
	tel := s.Telemetry()
	if tel == nil {
		t.Fatal("telemetry should be on by default")
	}

	// World first, so the simulated clock is wired before any stage that
	// should be charged simulated time.
	s.World()
	s.Dataset()
	s.Detection()
	s.Breakdown()
	s.Regions()
	s.Zones()
	s.NameServers()
	s.Capture()
	if _, err := s.RunExperiment("figure10"); err != nil {
		t.Fatal(err)
	}

	snap := tel.Registry().Snapshot()
	for _, name := range []string{
		"fabric.datagrams.sent",
		"fabric.datagrams.delivered",
		"dns.queries",
		"cloud.ec2.probes",
		"wan.rtt.samples",
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %s = 0 after full pipeline\n%s", name, snap.Table())
		}
	}
	// The parallelized stages report their fan-out shape.
	for _, stage := range []string{"detect", "regions", "zones", "wanperf"} {
		if snap.Gauge("parallel."+stage+".workers") == 0 {
			t.Errorf("parallel.%s.workers = 0 after full pipeline", stage)
		}
		if snap.Gauge("parallel."+stage+".shards") == 0 {
			t.Errorf("parallel.%s.shards = 0 after full pipeline", stage)
		}
	}
	rcodes := snap.Counter("dns.rcode.noerror") + snap.Counter("dns.rcode.nxdomain") +
		snap.Counter("dns.rcode.refused") + snap.Counter("dns.rcode.servfail")
	if rcodes == 0 {
		t.Error("no rcodes recorded")
	}
	// Every wire query resolves to exactly one rcode (or a failure).
	if q := snap.Counter("dns.queries"); rcodes > q {
		t.Errorf("rcodes (%d) exceed queries (%d)", rcodes, q)
	}
	if h, ok := snap.Histogram("fabric.rtt_ms"); !ok || h.Count == 0 {
		t.Error("fabric RTT histogram empty")
	}
	if h, ok := snap.Histogram("cloud.ec2.probe_rtt_ms"); !ok || h.Count != snap.Counter("cloud.ec2.probes") {
		t.Errorf("cloud probe histogram count %d != probes counter %d", h.Count, snap.Counter("cloud.ec2.probes"))
	}

	tr := tel.Tracer()
	for _, name := range []string{
		"study/world", "study/dataset", "study/detect", "study/classify",
		"study/regions", "study/zones", "study/nameservers", "study/capture",
		"study/wanperf", "experiment/figure10",
	} {
		if tr.Find(name) == nil {
			t.Errorf("span %s missing\n%s", name, tr.Tree())
		}
	}
	// The discovery campaign consumes simulated network time; its span
	// opened after the world wired the simulated clock.
	if sp := tr.Find("study/dataset"); sp != nil && sp.Sim() <= 0 {
		t.Errorf("study/dataset sim duration = %v, want > 0", sp.Sim())
	}
	if strings.Contains(tr.Tree(), "(open)") {
		t.Errorf("unclosed span after pipeline:\n%s", tr.Tree())
	}

	// An experiment span opened on a cold study triggers world
	// construction inside itself; the tracer backfills its sim start,
	// so it still charges the discovery campaign's simulated time.
	cold := NewStudy(Config{Seed: 7, Domains: 300, Vantages: 10, CaptureFlows: 400, WANClients: 16})
	if _, err := cold.RunExperiment("table3"); err != nil {
		t.Fatal(err)
	}
	if sp := cold.Telemetry().Tracer().Find("experiment/table3"); sp == nil {
		t.Error("cold study has no experiment span")
	} else if sp.Sim() <= 0 {
		t.Errorf("cold experiment/table3 sim duration = %v, want > 0", sp.Sim())
	}

	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Counters map[string]int64 `json:"counters"`
		Spans    []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("telemetry JSON does not parse: %v", err)
	}
	if dump.Counters["dns.queries"] != snap.Counter("dns.queries") {
		t.Error("JSON dump disagrees with snapshot")
	}
	if len(dump.Spans) == 0 {
		t.Error("JSON dump has no spans")
	}
}

// TestStudyNoTelemetry checks the pipeline runs identically with
// telemetry disabled.
func TestStudyNoTelemetry(t *testing.T) {
	s := NewStudy(Config{Seed: 7, Domains: 300, Vantages: 10, CaptureFlows: 400, WANClients: 16, NoTelemetry: true})
	if s.Telemetry() != nil {
		t.Fatal("NoTelemetry study still has a handle")
	}
	if got := s.Telemetry().Report(); got != "telemetry disabled\n" {
		t.Fatalf("nil report = %q", got)
	}
	ds := s.Dataset()
	if ds.Stats.QueriesIssued == 0 {
		t.Fatal("pipeline did not run without telemetry")
	}

	// Determinism: telemetry must not perturb the measurement.
	ref := NewStudy(Config{Seed: 7, Domains: 300, Vantages: 10, CaptureFlows: 400, WANClients: 16})
	if ref.Dataset().Stats != ds.Stats {
		t.Fatalf("telemetry changed pipeline results:\n  with:    %+v\n  without: %+v",
			ref.Dataset().Stats, ds.Stats)
	}
}
