package patterns

import (
	"math"
	"testing"

	"cloudscope/internal/core/dataset"
	"cloudscope/internal/deploy"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
	"cloudscope/internal/stats"
)

var (
	world = must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 1500}))
	ds    = buildDataset()
	res   = must(DetectAllPar(ds, parallel.Options{}))
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

// truthFeature maps ground-truth patterns onto expected detections.
func truthFeature(p deploy.Pattern) (Feature, bool) {
	switch p {
	case deploy.PatternVM, deploy.PatternHybrid:
		return FeatureVM, true
	case deploy.PatternELB:
		return FeatureELB, true
	case deploy.PatternBeanstalk:
		return FeatureBeanstalk, true
	case deploy.PatternHerokuELB:
		return FeatureHerokuELB, true
	case deploy.PatternHeroku:
		return FeatureHeroku, true
	case deploy.PatternOpaqueCNAME, deploy.PatternAzureOpaque:
		return FeatureUnknownCNAME, true
	case deploy.PatternAzureCS, deploy.PatternAzureIP:
		return FeatureCS, true
	case deploy.PatternAzureTM:
		return FeatureTM, true
	case deploy.PatternCDN:
		return FeatureCloudFront, true
	case deploy.PatternAzureCDN:
		return FeatureAzureCDN, true
	}
	return "", false
}

func TestDetectionMatchesGroundTruth(t *testing.T) {
	checked, correct := 0, 0
	wrongByPair := map[string]int{}
	for fqdn, c := range res.Classes {
		sub, ok := world.Subdomain(fqdn)
		if !ok {
			t.Fatalf("phantom classified subdomain %s", fqdn)
		}
		want, ok := truthFeature(sub.Pattern)
		if !ok {
			continue
		}
		checked++
		if c.Primary == want {
			correct++
		} else {
			wrongByPair[string(sub.Pattern)+"->"+string(c.Primary)]++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d classifications checked", checked)
	}
	if acc := float64(correct) / float64(checked); acc < 0.97 {
		t.Fatalf("detection accuracy %.3f; confusion: %v", acc, wrongByPair)
	}
}

func TestTable7Shares(t *testing.T) {
	if res.EC2Subs < 150 {
		t.Fatalf("EC2 subs = %d", res.EC2Subs)
	}
	share := func(f Feature) float64 { return float64(res.SubCounts[f]) / float64(res.EC2Subs) }
	if s := share(FeatureVM); s < 0.60 || s > 0.82 {
		t.Fatalf("VM share %.2f, want ~0.72", s)
	}
	if s := share(FeatureHeroku) + share(FeatureHerokuELB); s < 0.04 || s > 0.14 {
		t.Fatalf("heroku share %.2f, want ~0.08", s)
	}
	// The ~14 scripted anchor ELB subdomains inflate the share at this
	// small scale (paper scale: 4%); accept up to 13%.
	if s := share(FeatureELB) + share(FeatureBeanstalk) + share(FeatureHerokuELB); s < 0.02 || s > 0.13 {
		t.Fatalf("ELB share %.2f, want ~0.04-0.12", s)
	}
	if s := share(FeatureUnknownCNAME); s < 0.09 || s > 0.24 {
		t.Fatalf("unidentified share %.2f, want ~0.16", s)
	}
	// Azure: CS front ends dominate what is identifiable.
	azShare := func(f Feature) float64 { return float64(res.SubCounts[f]) / float64(res.AzureSubs) }
	if s := azShare(FeatureCS); s < 0.5 {
		t.Fatalf("CS share %.2f, want ~0.70", s)
	}
}

func TestHerokuMultiplexing(t *testing.T) {
	// All Heroku-no-ELB subdomains resolve into the small shared pool.
	ips := map[string]bool{}
	herokuSubs := 0
	for _, c := range res.Classes {
		if c.Primary != FeatureHeroku {
			continue
		}
		herokuSubs++
		for _, ip := range c.FrontIPs {
			ips[ip.String()] = true
		}
	}
	if herokuSubs < 5 {
		t.Skip("too few heroku subdomains in this world")
	}
	if len(ips) > len(world.Heroku.Pool) {
		t.Fatalf("heroku IPs %d exceed pool %d", len(ips), len(world.Heroku.Pool))
	}
	if herokuSubs < len(ips) {
		t.Fatalf("no multiplexing: %d subs over %d IPs", herokuSubs, len(ips))
	}
}

func TestFigure4CDFs(t *testing.T) {
	vm := res.VMInstanceCounts()
	if len(vm) < 100 {
		t.Fatalf("VM subdomains = %d", len(vm))
	}
	cdf := stats.NewCDF(vm)
	// Figure 4a: ~35% one VM, about half two, 15% three+.
	if got := cdf.At(1); math.Abs(got-0.33) > 0.15 {
		t.Fatalf("P(vms<=1) = %.2f, want ~0.35", got)
	}
	if got := 1 - cdf.At(2); got < 0.08 || got > 0.35 {
		t.Fatalf("P(vms>=3) = %.2f, want ~0.15", got)
	}
	// Figure 4b over non-anchor subdomains (scripted anchors like
	// m.netflix.com carry the paper's published 58- and 90-IP fleets,
	// which dominate a small sample): ~95% have ≤5 physical IPs.
	var elb []float64
	anchors := map[string]bool{
		"netflix.com": true, "fc2.com": true, "amazon.com": true,
		"conduit.com": true, "dropbox.com": true, "instagram.com": true,
		"foursquare.com": true, "linkedin.com": true,
	}
	for fqdn, c := range res.Classes {
		switch c.Primary {
		case FeatureELB, FeatureBeanstalk, FeatureHerokuELB:
			sub, _ := world.Subdomain(fqdn)
			if sub != nil && anchors[sub.Domain.Name] {
				continue
			}
			elb = append(elb, float64(len(c.FrontIPs)))
		}
	}
	if len(elb) == 0 {
		t.Skip("no non-anchor ELB subdomains")
	}
	ecdf := stats.NewCDF(elb)
	if got := ecdf.At(5); got < 0.80 {
		t.Fatalf("P(elbIPs<=5) = %.2f over %d subs, want ~0.95", got, len(elb))
	}
	// The anchors' big fleets are themselves visible (m.netflix.com).
	if m, ok := res.Classes["m.netflix.com"]; ok {
		if len(m.FrontIPs) < 60 {
			t.Fatalf("m.netflix.com physical ELBs = %d, want ~90", len(m.FrontIPs))
		}
	}
}

func TestSharedELBs(t *testing.T) {
	physical, shared10 := res.SharedELBStats()
	if physical == 0 {
		t.Skip("no physical ELBs")
	}
	// Total (subdomain, IP) pairs ≥ distinct physical IPs; strictly
	// greater once any proxy is shared.
	pairs := 0
	for _, c := range res.Classes {
		switch c.Primary {
		case FeatureELB, FeatureBeanstalk, FeatureHerokuELB:
			pairs += len(c.FrontIPs)
		}
	}
	if pairs < physical {
		t.Fatalf("pairs %d < physical %d", pairs, physical)
	}
	_ = shared10 // sharing by 10+ needs paper-scale data; just exercise it
}

func TestNSAnalysis(t *testing.T) {
	ns := must(AnalyzeNSPar(ds, world.Fabric, world.Registry, 20, nil, parallel.Options{}))
	if len(ns.Servers) == 0 {
		t.Fatal("no name servers analyzed")
	}
	total := 0
	for _, n := range ns.Counts {
		total += n
	}
	if total != len(ns.Servers) {
		t.Fatalf("counts %d != servers %d", total, len(ns.Servers))
	}
	// Majority outside the clouds; route53 present.
	if ns.Counts[NSOutside] < ns.Counts[NSCloudFront] {
		t.Fatalf("outside (%d) should dominate route53 (%d)", ns.Counts[NSOutside], ns.Counts[NSCloudFront])
	}
	if ns.Counts[NSCloudFront] == 0 {
		t.Fatal("no route53 name servers found")
	}
	// Figure 5: most subdomains use 2–10 name servers.
	if len(ns.PerSubdomainNS) == 0 {
		t.Fatal("no per-subdomain NS counts")
	}
	cdf := stats.NewCDF(ns.PerSubdomainNS)
	if got := cdf.At(10) - cdf.At(1); got < 0.6 {
		t.Fatalf("P(2<=ns<=10) = %.2f", got)
	}
}

func TestTable7Renders(t *testing.T) {
	tbl := res.Table7()
	s := tbl.String()
	for _, want := range []string{"VM", "Heroku", "CS", "Unidentified"} {
		if !contains(s, want) {
			t.Fatalf("Table 7 missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && (stringIndex(s, sub) >= 0))
}

func stringIndex(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestProviderAssignment(t *testing.T) {
	for fqdn, c := range res.Classes {
		sub, _ := world.Subdomain(fqdn)
		if sub == nil {
			continue
		}
		if sub.Provider == ipranges.EC2 && c.Provider == ipranges.Azure {
			t.Fatalf("%s: EC2 deployment classified as Azure", fqdn)
		}
		if sub.Provider == ipranges.Azure && c.Provider == ipranges.EC2 {
			t.Fatalf("%s: Azure deployment classified as EC2", fqdn)
		}
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
