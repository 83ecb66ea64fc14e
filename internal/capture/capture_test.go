package capture

import (
	"bytes"
	"math"
	"testing"
	"time"

	"cloudscope/internal/deploy"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
	"cloudscope/internal/stats"
)

// capWorld is a small shared world; the capture only needs host names
// and front-end IPs.
var capWorld = must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 2000}))

func generate(t testing.TB, cfg Config) (*Truth, *Analysis) {
	t.Helper()
	return generateSnap(t, cfg, Snaplen)
}

// generateSnap is generate with the pcap written at snap length snaplen.
func generateSnap(t testing.TB, cfg Config, snaplen int) (*Truth, *Analysis) {
	t.Helper()
	var buf bytes.Buffer
	g := NewGenerator(cfg, capWorld)
	w := pcapio.NewWriter(&buf, snaplen)
	truth, err := g.Generate(w)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzePar(&buf, capWorld.Ranges, parallel.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return truth, a
}

func testCfg(flows int) Config {
	return Config{Seed: 1, Flows: flows}
}

func TestFlowCountRecovered(t *testing.T) {
	truth, a := generate(t, testCfg(3000))
	// Analyzer flows should match generated flows closely (tiny
	// client-endpoint collisions tolerated).
	if math.Abs(float64(len(a.Flows)-truth.TotalFlows)) > float64(truth.TotalFlows)*0.01 {
		t.Fatalf("analyzer flows %d vs truth %d", len(a.Flows), truth.TotalFlows)
	}
}

func TestTable1CloudShares(t *testing.T) {
	truth, a := generate(t, testCfg(4000))
	bytesPct, flowsPct := a.CloudShare()
	// Paper: EC2 81.7% bytes / 80.7% flows.
	if bytesPct[ipranges.EC2] < 70 || bytesPct[ipranges.EC2] > 93 {
		t.Fatalf("EC2 byte share %.1f%%, want ~82%%", bytesPct[ipranges.EC2])
	}
	if flowsPct[ipranges.EC2] < 75 || flowsPct[ipranges.EC2] > 87 {
		t.Fatalf("EC2 flow share %.1f%%, want ~81%%", flowsPct[ipranges.EC2])
	}
	// Analyzer's byte totals track truth.
	var analyzedBytes int64
	for _, f := range a.Flows {
		analyzedBytes += f.Bytes()
	}
	ratio := float64(analyzedBytes) / float64(truth.TotalBytes)
	if ratio < 0.95 || ratio > 1.05 {
		t.Fatalf("analyzed bytes/truth = %.3f", ratio)
	}
}

func TestTable2ProtocolShares(t *testing.T) {
	_, a := generate(t, testCfg(6000))
	bytesPct, flowsPct := a.ProtocolShare("")
	if flowsPct[KindHTTP] < 60 || flowsPct[KindHTTP] > 80 {
		t.Fatalf("HTTP flow share %.1f%%, want ~70%%", flowsPct[KindHTTP])
	}
	if flowsPct[KindDNS] < 7 || flowsPct[KindDNS] > 14 {
		t.Fatalf("DNS flow share %.1f%%, want ~10%%", flowsPct[KindDNS])
	}
	// HTTPS dominates bytes despite few flows (the dropbox effect).
	if bytesPct[KindHTTPS] < 55 {
		t.Fatalf("HTTPS byte share %.1f%%, want ~73%%", bytesPct[KindHTTPS])
	}
	if bytesPct[KindHTTPS] < bytesPct[KindHTTP] {
		t.Fatal("HTTPS should out-carry HTTP in bytes")
	}
	if flowsPct[KindHTTP] < flowsPct[KindHTTPS]*5 {
		t.Fatal("HTTP should dominate flow counts")
	}
	// Azure's UDP component is visible.
	_, azFlows := a.ProtocolShare(ipranges.Azure)
	if azFlows[KindOtherUDP] < 5 {
		t.Fatalf("Azure Other-UDP %.1f%%, want ~15%%", azFlows[KindOtherUDP])
	}
}

func TestTable5DropboxDominance(t *testing.T) {
	_, a := generate(t, testCfg(6000))
	top := a.TopDomains(ipranges.EC2, 15)
	if len(top) == 0 {
		t.Fatal("no EC2 domains")
	}
	if top[0].Domain != "dropbox.com" {
		t.Fatalf("top EC2 domain = %s, want dropbox.com", top[0].Domain)
	}
	share := float64(top[0].Bytes) / float64(a.HTTPTotalBytes())
	if share < 0.50 || share > 0.85 {
		t.Fatalf("dropbox share = %.2f, want ~0.68", share)
	}
	// Azure table led by the big Microsoft properties.
	azTop := a.TopDomains(ipranges.Azure, 15)
	if len(azTop) < 5 {
		t.Fatalf("azure top domains = %d", len(azTop))
	}
	found := map[string]bool{}
	for _, dv := range azTop {
		found[dv.Domain] = true
	}
	for _, want := range []string{"atdmt.com", "msn.com", "microsoft.com"} {
		if !found[want] {
			t.Errorf("azure top-15 missing %s: %v", want, azTop)
		}
	}
}

func TestTable6ContentTypes(t *testing.T) {
	truth, a := generate(t, testCfg(8000))
	rows := a.ContentTypes()
	if len(rows) < 8 {
		t.Fatalf("content types = %d", len(rows))
	}
	// text/html and text/plain should be the top two by bytes among
	// non-anchor HTTP traffic; verify they're both in the top 4.
	rank := map[string]int{}
	for i, r := range rows {
		rank[r.Type] = i
	}
	if rank["text/html"] > 4 || rank["text/plain"] > 4 {
		t.Fatalf("text types not dominant: %v", rows[:4])
	}
	// Analyzer's content-type byte counts track the generator's truth.
	for _, r := range rows[:3] {
		want := truth.ContentTypeBytes[r.Type]
		if want == 0 {
			continue
		}
		ratio := float64(r.Bytes) / float64(want)
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("%s bytes ratio %.2f", r.Type, ratio)
		}
	}
}

func TestFigure3FlowCDFs(t *testing.T) {
	_, a := generate(t, testCfg(8000))
	perDomain, sizes := a.FlowStats(ipranges.EC2, KindHTTP)
	if len(perDomain) < 20 || len(sizes) < 100 {
		t.Fatalf("thin data: %d domains, %d flows", len(perDomain), len(sizes))
	}
	cdf := stats.NewCDF(perDomain)
	// ~50% of domains have <1000 HTTP flows (trivially true at our
	// scale) and the distribution is heavy-tailed: max >> median.
	if cdf.Quantile(0.5) >= cdf.Quantile(1.0) {
		t.Fatal("flow-count distribution not skewed")
	}
	_, httpsSizes := a.FlowStats(ipranges.EC2, KindHTTPS)
	med := stats.Median(sizes)
	medS := stats.Median(httpsSizes)
	if medS <= med {
		t.Fatalf("HTTPS median (%v) should exceed HTTP median (%v)", medS, med)
	}
}

func TestHostnameExtraction(t *testing.T) {
	_, a := generate(t, testCfg(2000))
	var httpWithHost, httpsWithName, httpTotal, httpsTotal int
	for _, f := range a.Flows {
		switch f.Kind {
		case KindHTTP:
			httpTotal++
			if f.Host != "" {
				httpWithHost++
			}
		case KindHTTPS:
			httpsTotal++
			if f.Host != "" || f.CertCN != "" {
				httpsWithName++
			}
		}
	}
	if httpTotal == 0 || httpsTotal == 0 {
		t.Fatal("missing flows")
	}
	if float64(httpWithHost)/float64(httpTotal) < 0.98 {
		t.Fatalf("HTTP host extraction %d/%d", httpWithHost, httpTotal)
	}
	if float64(httpsWithName)/float64(httpsTotal) < 0.98 {
		t.Fatalf("HTTPS name extraction %d/%d", httpsWithName, httpsTotal)
	}
}

func TestDurationsWithinCapture(t *testing.T) {
	cfg := testCfg(1500)
	_, a := generate(t, cfg)
	for _, f := range a.Flows {
		if f.Duration() < 0 {
			t.Fatal("negative duration")
		}
		if f.Duration() > 5*time.Hour {
			t.Fatalf("duration %v exceeds cap", f.Duration())
		}
	}
}

func TestSnapTruncationStillParses(t *testing.T) {
	_, a := generateSnap(t, testCfg(1000), 256) // aggressive truncation
	hosts := 0
	for _, f := range a.Flows {
		if f.Kind == KindHTTP && f.Host != "" {
			hosts++
		}
	}
	if hosts == 0 {
		t.Fatal("no hosts extracted under snap truncation")
	}
}

func TestDomainOf(t *testing.T) {
	cases := map[string]string{
		"dl.dropbox.com":      "dropbox.com",
		"dropbox.com":         "dropbox.com",
		"a.b.c.example.co.uk": "example.co.uk",
		"x.site.com.br":       "site.com.br",
		"single":              "single",
	}
	for in, want := range cases {
		if got := DomainOf(in); got != want {
			t.Errorf("DomainOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestDeterministicCapture(t *testing.T) {
	var b1, b2 bytes.Buffer
	cfg := testCfg(500)
	g1 := NewGenerator(cfg, capWorld)
	g2 := NewGenerator(cfg, capWorld)
	if _, err := g1.Generate(pcapio.NewWriter(&b1, Snaplen)); err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Generate(pcapio.NewWriter(&b2, Snaplen)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("captures differ across identical seeds")
	}
}

// TestTruthMatchesAnalysisPerKind: on a clean capture the analyzer
// recovers exactly the ground truth's flows and bytes for every (cloud,
// kind) pair — other-TCP included, whose flows carry a 200-byte client
// request on top of the server's bytes.
func TestTruthMatchesAnalysisPerKind(t *testing.T) {
	truth, a := generate(t, testCfg(3000))
	type cloudKind struct {
		cloud ipranges.Provider
		kind  Kind
	}
	flows := map[cloudKind]int{}
	bytes := map[cloudKind]int64{}
	for _, f := range a.Flows {
		flows[cloudKind{f.Cloud, f.Kind}]++
		bytes[cloudKind{f.Cloud, f.Kind}] += f.Bytes()
	}
	if a.DecodeErrs != 0 || len(a.Flows) != truth.TotalFlows {
		t.Fatalf("analyzed %d flows (%d decode errors), truth %d", len(a.Flows), a.DecodeErrs, truth.TotalFlows)
	}
	for cloud, kinds := range truth.FlowsByKind {
		for _, kind := range Kinds {
			k := cloudKind{cloud, kind}
			if flows[k] != kinds[kind] {
				t.Errorf("%s %v: %d flows analyzed, truth %d", cloud, kind, flows[k], kinds[kind])
			}
			if want := truth.BytesByKind[cloud][kind]; bytes[k] != want {
				t.Errorf("%s %v: %d bytes analyzed, truth %d", cloud, kind, bytes[k], want)
			}
		}
	}
	if truth.FlowsByKind[ipranges.EC2][KindOtherTCP] == 0 {
		t.Fatal("capture has no other-TCP flows to check")
	}
}

// must unwraps a fixture build; fixtures run without a cancellable
// context, so an error can only be a worker panic.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
