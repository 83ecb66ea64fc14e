package regions

import (
	"testing"

	"cloudscope/internal/core/dataset"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/deploy"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
	"cloudscope/internal/stats"
)

var (
	world = must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 1500}))
	ds    = buildDataset()
	det   = must(patterns.DetectAllPar(ds, parallel.Options{}))
	an    = must(AnalyzePar(ds, det, parallel.Options{}))
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

func TestRegionsMatchGroundTruth(t *testing.T) {
	checked := 0
	for _, sr := range an.Subdomains {
		sub, ok := world.Subdomain(sr.FQDN)
		if !ok {
			t.Fatalf("phantom subdomain %s", sr.FQDN)
		}
		truth := map[string]bool{}
		for _, r := range sub.Regions {
			truth[r] = true
		}
		if len(truth) == 0 {
			continue
		}
		for _, r := range sr.Regions {
			if !truth[r] {
				t.Fatalf("%s: observed region %s not in truth %v", sr.FQDN, r, sub.Regions)
			}
		}
		checked++
	}
	if checked < 150 {
		t.Fatalf("only %d subdomains checked", checked)
	}
}

func TestSingleRegionDominates(t *testing.T) {
	if s := an.SingleRegionShare(ipranges.EC2); s < 0.93 || s > 1 {
		t.Fatalf("EC2 single-region share %.3f, want ~0.97", s)
	}
	azure := an.SingleRegionShare(ipranges.Azure)
	if azure < 0.80 || azure > 1 {
		t.Fatalf("Azure single-region share %.3f, want ~0.92", azure)
	}
}

func TestUSEastDominance(t *testing.T) {
	totalEC2 := 0
	for _, r := range ipranges.EC2Regions {
		totalEC2 += an.RegionSubs[r]
	}
	share := stats.Frac(float64(an.RegionSubs["ec2.us-east-1"]), float64(totalEC2))
	if share < 0.55 || share > 0.85 {
		t.Fatalf("us-east share %.2f, want ~0.73", share)
	}
	if an.RegionSubs["ec2.eu-west-1"] <= an.RegionSubs["ec2.ap-southeast-2"] {
		t.Fatal("eu-west should outrank ap-southeast-2")
	}
}

func TestFigure6CDFs(t *testing.T) {
	ec2 := an.RegionCountCDF(ipranges.EC2)
	if len(ec2) < 100 {
		t.Fatalf("EC2 samples = %d", len(ec2))
	}
	cdf := stats.NewCDF(ec2)
	if got := cdf.At(1); got < 0.9 {
		t.Fatalf("P(regions<=1) = %.2f", got)
	}
	dom := an.DomainAvgRegionCDF(ipranges.EC2)
	if len(dom) == 0 {
		t.Fatal("no domain averages")
	}
	dcdf := stats.NewCDF(dom)
	// Figure 6b: domain-level single-region share is slightly lower
	// than subdomain-level for Azure; for EC2 both are ≥0.9.
	if got := dcdf.At(1); got < 0.75 {
		t.Fatalf("P(domain avg regions<=1) = %.2f", got)
	}
}

func TestTable10TopDomains(t *testing.T) {
	rows := TopDomains(an, ranker{}, 14)
	if len(rows) < 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byDomain := map[string]TopDomainRow{}
	for _, r := range rows {
		byDomain[r.Domain] = r
		if r.K1+r.K2 > r.CloudSubs {
			t.Fatalf("%s: k1+k2 %d > subs %d", r.Domain, r.K1+r.K2, r.CloudSubs)
		}
	}
	// Anchors with known shapes: pinterest single region; msn multiple.
	if pin, ok := byDomain["pinterest.com"]; ok {
		if pin.TotalRegions != 1 || pin.K1 != pin.CloudSubs {
			t.Fatalf("pinterest row: %+v", pin)
		}
	}
	if msn, ok := byDomain["msn.com"]; ok {
		if msn.TotalRegions < 3 {
			t.Fatalf("msn regions = %d, want 5-ish", msn.TotalRegions)
		}
		if msn.K2 == 0 {
			t.Fatalf("msn should have 2-region subdomains (TM): %+v", msn)
		}
	}
	// live.com: 18 subs across 3 regions, each single-region.
	if live, ok := byDomain["live.com"]; ok {
		if live.TotalRegions != 3 || live.K1 != live.CloudSubs {
			t.Fatalf("live row: %+v", live)
		}
	}
}

func TestCustomerCountryMismatch(t *testing.T) {
	res := CustomerCountry(an, world.AWIS)
	if res.Identified < 100 {
		t.Fatalf("identified = %d", res.Identified)
	}
	country := stats.Frac(float64(res.CountryMismatch), float64(res.Identified))
	continent := stats.Frac(float64(res.ContinentMismatch), float64(res.Identified))
	// Paper: 47% country mismatch, 32% continent mismatch.
	if country < 0.25 || country > 0.70 {
		t.Fatalf("country mismatch %.2f, want ~0.47", country)
	}
	if continent >= country {
		t.Fatalf("continent mismatch %.2f should be below country %.2f", continent, country)
	}
	if continent < 0.10 {
		t.Fatalf("continent mismatch %.2f suspiciously low", continent)
	}
}

func TestTable9Renders(t *testing.T) {
	s := an.Table9().String()
	for _, want := range []string{"ec2.us-east-1", "az.us-south", "Virginia"} {
		if !containsStr(s, want) {
			t.Fatalf("Table 9 missing %q", want)
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
