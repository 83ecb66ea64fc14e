package classify

import (
	"testing"

	"cloudscope/internal/core/dataset"
	"cloudscope/internal/deploy"
)

var (
	world = must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 1500}))
	ds    = buildDataset()
	bd    = Classify(ds)
)

func buildDataset() *dataset.Dataset {
	names := make([]string, 0, len(world.Domains))
	for _, d := range world.Domains {
		names = append(names, d.Name)
	}
	return must(dataset.Build(dataset.Config{
		Fabric:   world.Fabric,
		Registry: world.Registry,
		Ranges:   world.Ranges,
		Domains:  names,
		Vantages: 30,
	}))
}

type ranker struct{}

func (ranker) RankOf(domain string) int {
	if d, ok := world.List.Lookup(domain); ok {
		return d.Rank
	}
	return 0
}

func TestTable3Consistency(t *testing.T) {
	var domSum, subSum int
	for c := Category(0); c < NumCategories; c++ {
		domSum += bd.Domains[c]
		subSum += bd.Subdomains[c]
	}
	if domSum != bd.TotalDomains || subSum != bd.TotalSubdomains {
		t.Fatalf("category sums %d/%d != totals %d/%d", domSum, subSum, bd.TotalDomains, bd.TotalSubdomains)
	}
	if bd.TotalDomains < 40 {
		t.Fatalf("cloud domains = %d", bd.TotalDomains)
	}
}

func TestEC2Dominance(t *testing.T) {
	// Paper: 94.9% of cloud-using domains use EC2; 5.8% Azure; most EC2
	// domains are EC2+Other; subdomain-level EC2-only is 96%.
	if f := float64(bd.EC2Domains) / float64(bd.TotalDomains); f < 0.85 {
		t.Fatalf("EC2 domain share %.2f", f)
	}
	if bd.Domains[EC2Other] < bd.Domains[EC2Only] {
		t.Fatalf("EC2+Other (%d) should exceed EC2-only (%d)", bd.Domains[EC2Other], bd.Domains[EC2Only])
	}
	// At paper scale EC2-only subdomains are 96%; at this scale the
	// scripted Azure anchors (msn.com's 89 subdomains etc.) hold a
	// fixed absolute count and inflate the Azure share, so only the
	// ordering is asserted.
	subEC2Only := float64(bd.Subdomains[EC2Only]) / float64(bd.TotalSubdomains)
	if subEC2Only < 0.45 {
		t.Fatalf("EC2-only subdomain share %.2f", subEC2Only)
	}
	if bd.Subdomains[EC2Only] <= bd.Subdomains[AzureOnly] {
		t.Fatalf("EC2-only (%d) should exceed Azure-only (%d)", bd.Subdomains[EC2Only], bd.Subdomains[AzureOnly])
	}
}

func TestHybridSubdomainsSmall(t *testing.T) {
	f := float64(bd.Subdomains[EC2Other]) / float64(bd.TotalSubdomains)
	if f > 0.10 {
		t.Fatalf("EC2+Other subdomain share %.2f, want ~0.03", f)
	}
}

func TestTable4TopDomains(t *testing.T) {
	rows := TopEC2Domains(ds, ranker{}, 10)
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Rank < rows[i-1].Rank {
			t.Fatal("rows not rank-sorted")
		}
	}
	// amazon.com (rank 9) leads Table 4; Azure anchors are excluded.
	if rows[0].Domain != "amazon.com" {
		t.Fatalf("top EC2 domain = %s (rank %d)", rows[0].Domain, rows[0].Rank)
	}
	for _, r := range rows {
		if r.Domain == "live.com" || r.Domain == "msn.com" || r.Domain == "bing.com" {
			t.Fatalf("Azure-only domain %s in Table 4", r.Domain)
		}
		if r.CloudSubs > r.TotalSubs {
			t.Fatalf("%s: cloud subs %d > total %d", r.Domain, r.CloudSubs, r.TotalSubs)
		}
	}
	// amazon.com: 2 cloud subdomains of ~68 total.
	if rows[0].CloudSubs != 2 {
		t.Fatalf("amazon.com cloud subs = %d, want 2", rows[0].CloudSubs)
	}
	if rows[0].TotalSubs < 30 {
		t.Fatalf("amazon.com total subs = %d, want ~68", rows[0].TotalSubs)
	}
}

func TestTopCloudDomainsIncludesAzure(t *testing.T) {
	rows := TopCloudDomains(ds, ranker{}, 10)
	found := false
	for _, r := range rows {
		if r.Domain == "live.com" {
			found = true
		}
	}
	if !found {
		t.Fatal("live.com (rank 7) missing from top cloud domains")
	}
}

func TestRankSkew(t *testing.T) {
	top, bottom := RankSkew(ds, ranker{}, world.Cfg.NumDomains)
	if top < 0.30 || top > 0.60 {
		t.Fatalf("top-quarter share %.2f, want ~0.42", top)
	}
	if bottom >= top {
		t.Fatalf("bottom quarter (%.2f) should trail top (%.2f)", bottom, top)
	}
}

func TestTopPrefixes(t *testing.T) {
	prefixes := TopPrefixes(ds, 10)
	if len(prefixes) == 0 {
		t.Fatal("no prefixes")
	}
	// www leads (§3.2).
	if prefixes[0].Prefix != "www" {
		t.Fatalf("top prefix = %q, want www", prefixes[0].Prefix)
	}
	for i := 1; i < len(prefixes); i++ {
		if prefixes[i].Count > prefixes[i-1].Count {
			t.Fatal("prefixes not sorted by count")
		}
	}
}

func TestTable3Renders(t *testing.T) {
	s := bd.Table3().String()
	for _, want := range []string{"EC2 only", "EC2 + Other", "Azure only", "EC2 total"} {
		if !containsStr(s, want) {
			t.Fatalf("Table 3 missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// must unwraps a fixture build; fixtures run without a cancellable
// context, so an error can only be a worker panic.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
