package dataset

import (
	"strings"
	"testing"

	"cloudscope/internal/chaos"
	"cloudscope/internal/deploy"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/parallel"
	"cloudscope/internal/telemetry"
)

// Failure injection: the discovery pipeline must degrade gracefully,
// not collapse, when the network drops packets — resolvers retry across
// a delegation's name servers.

// lossEngine returns a chaos engine that drops wire datagrams as spec
// declares. Installed only as the fabric's interceptor, it faults the
// network without hardening the crawl (Config.Chaos stays nil).
func lossEngine(t *testing.T, spec string, seed int64) *chaos.Engine {
	t.Helper()
	sc, err := chaos.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return chaos.New(sc, seed)
}

func TestDiscoveryUnderPacketLoss(t *testing.T) {
	w := must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 400}))
	names := make([]string, 0, len(w.Domains))
	for _, d := range w.Domains {
		names = append(names, d.Name)
	}
	baseline := must(Build(Config{
		Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
		Domains: names, Vantages: 10,
	}))

	// 15% loss: most domains have 3+ NS, so per-lookup failure
	// probability is ~0.3%. Discovery should lose almost nothing.
	w.Fabric.SetInterceptor(lossEngine(t, "loss,p=0.15", 7))
	defer w.Fabric.SetInterceptor(nil)
	lossy := must(Build(Config{
		Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
		Domains: names, Vantages: 10,
	}))

	if lossy.Stats.CloudSubdomains == 0 {
		t.Fatal("discovery collapsed under loss")
	}
	ratio := float64(lossy.Stats.CloudSubdomains) / float64(baseline.Stats.CloudSubdomains)
	t.Logf("discovery under 15%% loss: %.3f of baseline", ratio)
	if ratio < 0.85 {
		t.Fatalf("loss degraded discovery to %.2f of baseline", ratio)
	}
	// Results stay a subset of truth (loss cannot invent records).
	for fqdn := range lossy.Subdomains {
		if _, ok := w.Subdomain(fqdn); !ok {
			t.Fatalf("phantom subdomain %s under loss", fqdn)
		}
	}
}

func TestDiscoveryUnderHeavyLossIsLowerBound(t *testing.T) {
	w := must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 300}))
	names := make([]string, 0, len(w.Domains))
	for _, d := range w.Domains {
		names = append(names, d.Name)
	}
	w.Fabric.SetInterceptor(lossEngine(t, "loss,p=0.5", 11))
	defer w.Fabric.SetInterceptor(nil)
	ds := must(Build(Config{
		Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
		Domains: names, Vantages: 5,
	}))
	// Heavy loss shrinks the dataset but never corrupts it.
	truthSubs := 0
	for _, d := range w.CloudDomains {
		truthSubs += len(d.CloudSubdomains())
	}
	if ds.Stats.CloudSubdomains > truthSubs {
		t.Fatalf("found %d > truth %d", ds.Stats.CloudSubdomains, truthSubs)
	}
	for fqdn, obs := range ds.Subdomains {
		sub, ok := w.Subdomain(fqdn)
		if !ok || !sub.CloudUsing() {
			t.Fatalf("corrupt observation %s", fqdn)
		}
		if len(obs.IPs) == 0 {
			t.Fatalf("%s kept with no addresses", fqdn)
		}
	}
}

// --- Worker-count invariance under faults ---------------------------
//
// The invariance contract must survive fault injection: every loss
// verdict, retry, breaker trip, and completeness count is a pure
// function of stable identities, never of worker scheduling.

func buildFaulted(w *deploy.World, workers int, eng *chaos.Engine, comp *telemetry.Completeness) *Dataset {
	names := make([]string, 0, len(w.Domains))
	for _, d := range w.Domains {
		names = append(names, d.Name)
	}
	return must(Build(Config{
		Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
		Domains: names, Vantages: 8, Par: parallel.Options{Workers: workers},
		Chaos:        eng,
		Completeness: comp,
	}))
}

// TestBuildUnderLossWorkerInvariant runs the hardened crawl — retries,
// breaker and budget — against wire loss drawn by a chaos engine.
func TestBuildUnderLossWorkerInvariant(t *testing.T) {
	run := func(workers int) (string, string) {
		w := freshWorld()
		eng := lossEngine(t, "loss,p=0.15", 7)
		w.Fabric.SetInterceptor(eng)
		comp := telemetry.NewCompleteness()
		ds := buildFaulted(w, workers, eng, comp)
		return datasetBytes(t, ds), comp.Report()
	}
	goldenDS, goldenComp := run(1)
	for _, workers := range []int{2, 4} {
		ds, comp := run(workers)
		if ds != goldenDS {
			t.Errorf("dataset differs at Workers=%d under loss", workers)
		}
		if comp != goldenComp {
			t.Errorf("completeness differs at Workers=%d under loss:\n%s\nvs\n%s", workers, comp, goldenComp)
		}
	}
}

func TestBuildChaosWorkerInvariant(t *testing.T) {
	sc, err := chaos.Load("planetlab-flux")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (string, string) {
		w := freshWorld()
		eng := chaos.New(sc, 42)
		w.Fabric.SetInterceptor(eng)
		comp := telemetry.NewCompleteness()
		ds := buildFaulted(w, workers, eng, comp)
		return datasetBytes(t, ds), comp.Report()
	}
	goldenDS, goldenComp := run(1)
	if !strings.Contains(goldenComp, "dataset") {
		t.Fatalf("completeness report records nothing:\n%s", goldenComp)
	}
	for _, workers := range []int{2, 4} {
		ds, comp := run(workers)
		if ds != goldenDS {
			t.Errorf("dataset differs at Workers=%d under chaos", workers)
		}
		if comp != goldenComp {
			t.Errorf("completeness differs at Workers=%d under chaos:\n%s\nvs\n%s", workers, comp, goldenComp)
		}
	}
}

// TestBuildHardensOnlyUnderChaos pins where the crawl's hardening
// policy applies: with every answer a SERVFAIL, a crawl given
// Config.Chaos retries each question up to chaosBackoff.MaxAttempts,
// while a crawl without it asks each authoritative server once.
func TestBuildHardensOnlyUnderChaos(t *testing.T) {
	sc, err := chaos.Parse("servfail,p=1")
	if err != nil {
		t.Fatal(err)
	}
	// attemptsPerQuestion returns wire attempts per question and the
	// largest delegation among the scanned domains.
	attemptsPerQuestion := func(hardened bool) (float64, int) {
		w := freshWorld()
		eng := chaos.New(sc, 1)
		w.Fabric.SetInterceptor(eng)
		names := make([]string, 0, 20)
		maxServers := 0
		for _, d := range w.Domains[:20] {
			names = append(names, d.Name)
			_, servers, _ := w.Registry.Authoritative(d.Name)
			maxServers = max(maxServers, len(servers))
		}
		reg := telemetry.NewRegistry()
		cfg := Config{
			Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
			Domains: names, Wordlist: []string{"www", "m", "cdn"}, Vantages: 4,
			Metrics: dnssrv.NewResolverMetrics(reg),
		}
		if hardened {
			cfg.Chaos = eng
		}
		ds := must(Build(cfg))
		if ds.Stats.CloudSubdomains != 0 {
			t.Fatalf("hardened=%v: %d cloud subdomains found through total SERVFAIL", hardened, ds.Stats.CloudSubdomains)
		}
		snap := reg.Snapshot()
		q := snap.Counter("dns.queries")
		if q == 0 {
			t.Fatalf("hardened=%v: no wire queries", hardened)
		}
		return float64(q+snap.Counter("dns.retries")) / float64(q), maxServers
	}
	plain, maxServers := attemptsPerQuestion(false)
	if maxServers >= chaosBackoff.MaxAttempts {
		t.Fatalf("a delegation has %d servers; the test needs fewer than %d", maxServers, chaosBackoff.MaxAttempts)
	}
	if plain > float64(maxServers) {
		t.Errorf("without Chaos: %.2f attempts per question, more than the %d servers of the largest delegation", plain, maxServers)
	}
	if hardened, _ := attemptsPerQuestion(true); hardened != float64(chaosBackoff.MaxAttempts) {
		t.Errorf("with Chaos: %.2f attempts per question, want %d", hardened, chaosBackoff.MaxAttempts)
	}
}

// TestVantageOutageRecordsAbandonment pins the degradation contract: a
// vantage outage mid-campaign yields a partial dataset that is still a
// subset of truth, and Completeness reports the abandoned work.
func TestVantageOutageRecordsAbandonment(t *testing.T) {
	sc, err := chaos.Parse("vantage-down,frac=0.5,window=0.2-0.9")
	if err != nil {
		t.Fatal(err)
	}
	w := freshWorld()
	eng := chaos.New(sc, 3)
	comp := telemetry.NewCompleteness()
	ds := buildFaulted(w, 2, eng, comp)
	if !comp.Degraded() {
		t.Fatalf("expected degraded completeness, got:\n%s", comp.Report())
	}
	abandoned := int64(0)
	for _, st := range comp.Snapshot() {
		if st.Stage == "dataset" {
			abandoned += st.Abandoned
		}
	}
	if abandoned == 0 {
		t.Fatal("vantage outage recorded no abandoned probes")
	}
	for fqdn := range ds.Subdomains {
		if _, ok := w.Subdomain(fqdn); !ok {
			t.Fatalf("phantom subdomain %s under outage", fqdn)
		}
	}
}
