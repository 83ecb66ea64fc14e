package cloudscope

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// smallStudy is shared across facade tests.
var smallStudy = NewStudy(Config{Seed: 2, Domains: 1200, Vantages: 25, CaptureFlows: 2500, WANClients: 40})

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range Experiments() {
		out := e.Run(smallStudy)
		if len(strings.TrimSpace(out)) == 0 {
			t.Fatalf("experiment %s produced no output", e.ID)
		}
	}
}

func TestRunExperimentByID(t *testing.T) {
	out, err := smallStudy.RunExperiment("table3")
	if err != nil || !strings.Contains(out, "EC2 only") {
		t.Fatalf("table3: %v\n%s", err, out)
	}
	if _, err := smallStudy.RunExperiment("table99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentIDsUniqueAndComplete(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
	}
	for i := 1; i <= 16; i++ {
		id := "table" + itoa(i)
		if !seen[id] {
			t.Fatalf("missing %s", id)
		}
	}
	for i := 3; i <= 12; i++ {
		id := "figure" + itoa(i)
		if !seen[id] {
			t.Fatalf("missing %s", id)
		}
	}
}

func itoa(i int) string {
	if i >= 10 {
		return string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return string(rune('0' + i))
}

func TestStudyMemoization(t *testing.T) {
	a := smallStudy.Dataset()
	b := smallStudy.Dataset()
	if a != b {
		t.Fatal("Dataset not memoized")
	}
	if smallStudy.Detection() != smallStudy.Detection() {
		t.Fatal("Detection not memoized")
	}
}

func TestStudyConcurrentAccess(t *testing.T) {
	s := NewStudy(Config{Seed: 5, Domains: 300, Vantages: 10, CaptureFlows: 400, WANClients: 16})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Dataset()
			_ = s.Detection()
			_ = s.Regions()
		}()
	}
	wg.Wait()
}

func TestWriteCapture(t *testing.T) {
	var buf bytes.Buffer
	truth, err := smallStudy.WriteCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if truth.TotalFlows < 2000 {
		t.Fatalf("flows = %d", truth.TotalFlows)
	}
	if buf.Len() < 10000 {
		t.Fatalf("pcap = %d bytes", buf.Len())
	}
	// Valid pcap magic.
	if buf.Bytes()[0] != 0xd4 {
		t.Fatalf("bad magic %x", buf.Bytes()[:4])
	}
}

func TestConfigDefaults(t *testing.T) {
	s := NewStudy(Config{})
	if s.Cfg.Domains != DefaultConfig().Domains || s.Cfg.Seed != DefaultConfig().Seed {
		t.Fatalf("defaults not applied: %+v", s.Cfg)
	}
}

func TestRankOf(t *testing.T) {
	if smallStudy.RankOf("amazon.com") != 9 {
		t.Fatalf("amazon.com rank = %d", smallStudy.RankOf("amazon.com"))
	}
	if smallStudy.RankOf("not-a-domain.zz") != 0 {
		t.Fatal("unknown domain should rank 0")
	}
}

func TestFigureSeriesCoverage(t *testing.T) {
	for _, e := range Experiments() {
		series, ok := smallStudy.FigureSeries(e.ID)
		isFigure := strings.HasPrefix(e.ID, "figure")
		if isFigure && !ok {
			t.Fatalf("%s has no series", e.ID)
		}
		if !isFigure && ok {
			t.Fatalf("%s unexpectedly has series", e.ID)
		}
		if ok && len(series) == 0 {
			t.Fatalf("%s series empty", e.ID)
		}
	}
}

func TestWriteSeriesTSV(t *testing.T) {
	series, _ := smallStudy.FigureSeries("figure12")
	var buf bytes.Buffer
	if err := WriteSeriesTSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# latency") || !strings.Contains(out, "# throughput") {
		t.Fatalf("TSV output:\n%s", out)
	}
	// Deterministic ordering: latency block precedes throughput.
	if strings.Index(out, "# latency") > strings.Index(out, "# throughput") {
		t.Fatal("series not sorted")
	}
}
