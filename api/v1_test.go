package api

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudscope"
	"cloudscope/internal/chaos"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testConfig() cloudscope.Config {
	cfg := cloudscope.DefaultConfig()
	cfg.Domains = 300
	cfg.Vantages = 8
	cfg.CaptureFlows = 500
	cfg.Workers = 1
	return cfg
}

// marshal renders a StudyV1 exactly as the daemon and experiments
// -json do.
func marshalStudy(t *testing.T, s *cloudscope.Study) []byte {
	t.Helper()
	v, err := Study(context.Background(), s)
	if err != nil {
		t.Fatalf("Study: %v", err)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(b, '\n')
}

// TestStudyV1Golden pins the whole V1 wire format: any schema or
// value change shows up as a golden diff. Regenerate with -update.
func TestStudyV1Golden(t *testing.T) {
	got := marshalStudy(t, cloudscope.NewStudy(testConfig()))
	path := filepath.Join("testdata", "study_v1.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("V1 JSON diverged from golden %s (rerun with -update if intended); got %d bytes want %d", path, len(got), len(want))
	}
}

// TestStudyV1WorkerInvariant proves the wire bytes are independent of
// the fan-out: Workers=1 and Workers=3 marshal byte-identically
// (modulo the workers field itself, which we pin equal here by
// comparing payloads, not envelopes).
func TestStudyV1WorkerInvariant(t *testing.T) {
	seq := marshalStudy(t, cloudscope.NewStudy(testConfig()))
	cfg := testConfig()
	cfg.Workers = 3
	par := marshalStudy(t, cloudscope.NewStudy(cfg))
	if string(seq) != string(par) {
		t.Fatal("V1 JSON differs between Workers=1 and Workers=3")
	}
}

// TestOutageHeadlineMatchesExperiment holds the outage headline to one
// definition: the ext-outage experiment prints the same cloud share
// /v1/outage serves, both over the discovered cloud-using domains.
func TestOutageHeadlineMatchesExperiment(t *testing.T) {
	// At 300 domains discovery finds all 25 planted cloud-using
	// domains; at 500 it finds 32 of 34, so a planted denominator
	// would print a different share.
	cfg := testConfig()
	cfg.Domains = 500
	s := cloudscope.NewStudy(cfg)
	text, err := s.RunExperiment("ext-outage")
	if err != nil {
		t.Fatal(err)
	}
	og, err := Outage(context.Background(), s, "ec2.us-east-1")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%.1f%% of cloud-using domains", 100*og.Headline.CloudShare)
	if !strings.Contains(text, want) {
		t.Fatalf("ext-outage does not print %q:\n%s", want, text)
	}
}

// TestEnvelopeDegraded checks the degraded-but-honest contract: a
// chaos-scenario study's envelope flags Degraded and carries
// success fractions below 1 for the affected stages.
func TestEnvelopeDegraded(t *testing.T) {
	sc, err := chaos.Load("hostile")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.Seed = 3
	cfg.Domains = 500
	cfg.Vantages = 10
	cfg.Chaos = sc
	s := cloudscope.NewStudy(cfg)
	if _, err := Patterns(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	env := NewEnvelope("patterns", 1, s, nil)
	if env.APIVersion != Version || env.Endpoint != "patterns" || env.Epoch != 1 {
		t.Fatalf("envelope identity wrong: %+v", env)
	}
	if env.Scenario != "hostile" {
		t.Fatalf("scenario = %q", env.Scenario)
	}
	if !env.Degraded {
		t.Fatal("chaos study not flagged degraded")
	}
	found := false
	for _, st := range env.Completeness {
		if st.SuccessRate < 1 {
			found = true
		}
		if st.SuccessRate > 1 || st.SuccessRate < 0 {
			t.Fatalf("stage %s success rate %v out of range", st.Stage, st.SuccessRate)
		}
	}
	if !found {
		t.Fatal("no stage reported a success fraction below 1 under hostile chaos")
	}
}

// TestStagesFor pins the endpoint → stage-prefix map.
func TestStagesFor(t *testing.T) {
	if got := StagesFor("patterns"); len(got) != 1 || got[0] != "dataset" {
		t.Fatalf("patterns stages = %v", got)
	}
	if got := StagesFor("completeness"); got != nil {
		t.Fatalf("completeness stages = %v, want nil (all)", got)
	}
}

// TestDomainEndpoint sanity-checks the per-domain answer against the
// raw study.
func TestDomainEndpoint(t *testing.T) {
	s := cloudscope.NewStudy(testConfig())
	ds := s.Dataset()
	cloudDomains := ds.CloudDomains()
	if len(cloudDomains) == 0 {
		t.Skip("no cloud-using domains at this size")
	}
	name := cloudDomains[0]
	d, err := Domain(context.Background(), s, name)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Found {
		t.Fatalf("domain %s not found", name)
	}
	if len(d.Subdomains) != len(ds.ByDomain[name]) {
		t.Fatalf("subdomain count %d != dataset %d", len(d.Subdomains), len(ds.ByDomain[name]))
	}
	if d.Rank != s.RankOf(name) {
		t.Fatalf("rank %d != %d", d.Rank, s.RankOf(name))
	}
	// A domain absent from the world answers found=false, not an error.
	missing, err := Domain(context.Background(), s, "no-such-domain.example")
	if err != nil {
		t.Fatal(err)
	}
	if missing.Found {
		t.Fatal("missing domain reported found")
	}
}

// TestContextCancelled proves builders abort instead of computing.
func TestContextCancelled(t *testing.T) {
	s := cloudscope.NewStudy(testConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Patterns(ctx, s); err == nil {
		t.Fatal("cancelled Patterns returned nil error")
	}
	// The study retries cleanly afterwards.
	if _, err := Patterns(context.Background(), s); err != nil {
		t.Fatalf("retry after cancel: %v", err)
	}
}
