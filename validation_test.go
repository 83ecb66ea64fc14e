package cloudscope

// validation_test enforces the paper's headline claims end-to-end: one
// medium study, every §-level takeaway asserted. EXPERIMENTS.md is the
// human-readable version of this file.

import (
	"testing"

	"cloudscope/internal/capture"
	"cloudscope/internal/core/classify"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/core/traffic"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/stats"
	"cloudscope/internal/wan"
)

var headlineStudy = NewStudy(Config{Seed: 7, Domains: 3000, Vantages: 40, CaptureFlows: 6000, WANClients: 80})

func TestHeadlineCloudAdoption(t *testing.T) {
	// "4% of the Alexa top million use EC2/Azure."
	w := headlineStudy.World()
	frac := float64(len(w.CloudDomains)) / float64(len(w.Domains))
	if frac < 0.025 || frac > 0.055 {
		t.Fatalf("cloud adoption %.3f, want ~0.04", frac)
	}
	// Discovery recovers most of it with zero false positives.
	ds := headlineStudy.Dataset()
	found := len(ds.CloudDomains())
	if float64(found) < 0.85*float64(len(w.CloudDomains)) {
		t.Fatalf("discovered %d of %d cloud domains", found, len(w.CloudDomains))
	}
}

func TestHeadlineEC2Dominance(t *testing.T) {
	// "94.9% of cloud-using domains use EC2."
	bd := classify.Classify(headlineStudy.Dataset())
	if f := float64(bd.EC2Domains) / float64(bd.TotalDomains); f < 0.85 {
		t.Fatalf("EC2 domain share %.2f", f)
	}
}

func TestHeadlineTrafficShape(t *testing.T) {
	// "~1% of traffic goes to EC2/Azure, majority EC2; HTTPS bytes
	// dominate due to cloud storage."
	_, an := headlineStudy.Capture()
	bytesPct, flowsPct := an.CloudShare()
	if bytesPct[ipranges.EC2] < 70 || flowsPct[ipranges.EC2] < 75 {
		t.Fatalf("EC2 shares: %.1f%% bytes / %.1f%% flows", bytesPct[ipranges.EC2], flowsPct[ipranges.EC2])
	}
	ob, of := an.ProtocolShare("")
	if ob[capture.KindHTTPS] < ob[capture.KindHTTP] {
		t.Fatal("HTTPS should out-carry HTTP in bytes")
	}
	if of[capture.KindHTTP] < of[capture.KindHTTPS] {
		t.Fatal("HTTP should dominate flows")
	}
	// dropbox.com dominates volume.
	top := an.TopDomains(ipranges.EC2, 1)
	if len(top) == 0 || top[0].Domain != "dropbox.com" {
		t.Fatalf("top domain: %+v", top)
	}
}

func TestHeadlineFrontEndMix(t *testing.T) {
	// "~72% VM front ends, 4% ELB, 8% PaaS, mostly Heroku."
	det := headlineStudy.Detection()
	share := func(f patterns.Feature) float64 {
		return stats.Frac(float64(det.SubCounts[f]), float64(det.EC2Subs))
	}
	if s := share("VM"); s < 0.60 || s > 0.82 {
		t.Fatalf("VM share %.2f", s)
	}
	heroku := share("Heroku (no ELB)") + share("Heroku (w/ ELB)")
	if heroku < 0.04 || heroku > 0.14 {
		t.Fatalf("PaaS share %.2f", heroku)
	}
	if det.SubCounts["Heroku (no ELB)"] < det.SubCounts["BeanStalk (w/ ELB)"] {
		t.Fatal("Heroku should dwarf Beanstalk")
	}
}

func TestHeadlineSingleRegion(t *testing.T) {
	// "97% of EC2 and 92% of Azure subdomains use one region."
	reg := headlineStudy.Regions()
	if s := reg.SingleRegionShare(ipranges.EC2); s < 0.93 {
		t.Fatalf("EC2 single-region %.3f", s)
	}
	az := reg.SingleRegionShare(ipranges.Azure)
	ec2 := reg.SingleRegionShare(ipranges.EC2)
	if az > ec2 {
		t.Fatalf("Azure (%.3f) should be less single-region than EC2 (%.3f)", az, ec2)
	}
}

func TestHeadlineZoneUsage(t *testing.T) {
	// "66% of subdomains use more than one zone; only 22% more than two"
	// (library scale shifts mildly; orderings must hold).
	z := headlineStudy.Zones()
	counts := z.ZonesPerSubdomain()
	if len(counts) < 100 {
		t.Skipf("thin zone data: %d", len(counts))
	}
	cdf := stats.NewCDF(counts)
	multi := 1 - cdf.At(1)
	if multi < 0.40 || multi > 0.85 {
		t.Fatalf("multi-zone share %.2f, want ~0.66", multi)
	}
	three := 1 - cdf.At(2)
	if three >= multi {
		t.Fatal("three-zone share must trail multi-zone share")
	}
}

func TestHeadlineOptimalK(t *testing.T) {
	// "Expanding from one region to three could yield 33% lower average
	// latency, with diminishing returns after k=3."
	c := headlineStudy.Campaign()
	res := must(c.OptimalK(wan.MetricLatency, 4))
	if res[0].Regions[0] != "ec2.us-east-1" {
		t.Fatalf("k=1 best = %v", res[0].Regions)
	}
	drop3 := (res[0].Value - res[2].Value) / res[0].Value
	if drop3 < 0.20 || drop3 > 0.55 {
		t.Fatalf("k=3 improvement %.2f, want ~0.33", drop3)
	}
	drop4 := (res[2].Value - res[3].Value) / res[0].Value
	if drop4 > drop3/2 {
		t.Fatalf("no diminishing returns: k4 marginal %.2f vs k3 total %.2f", drop4, drop3)
	}
}

func TestHeadlineUSEastBlastRadius(t *testing.T) {
	// "An outage of EC2's US East would take down critical components of
	// at least 2.3% of the domains (61% of EC2-using domains)."
	reg := headlineStudy.Regions()
	listShare, cloudShare := reg.HeadlineImpact("ec2.us-east-1", headlineStudy.Cfg.Domains, len(headlineStudy.World().CloudDomains))
	if listShare < 0.01 || listShare > 0.05 {
		t.Fatalf("list share %.3f, want ~0.023", listShare)
	}
	if cloudShare < 0.40 || cloudShare > 0.90 {
		t.Fatalf("cloud share %.2f, want ~0.61", cloudShare)
	}
}

func TestHeadlineCompressionOpportunity(t *testing.T) {
	// "The predominance of plain text and HTML points to compression."
	_, an := headlineStudy.Capture()
	est := traffic.EstimateCompression(an)
	if est.TextShareOfBytes < 0.25 {
		t.Fatalf("text share %.2f, want ~0.5", est.TextShareOfBytes)
	}
	if est.SavedShare < 0.15 {
		t.Fatalf("savings %.2f implausibly low", est.SavedShare)
	}
}

func TestHeadlineISPDiversity(t *testing.T) {
	// "Different zones of a region have almost the same downstream ISPs;
	// diversity varies from >30 to just 4."
	m := wan.New(headlineStudy.Cfg.Seed, 200, ipranges.EC2Regions)
	east0 := m.DownstreamISPs("ec2.us-east-1", 0)
	east1 := m.DownstreamISPs("ec2.us-east-1", 1)
	sa := m.DownstreamISPs("ec2.sa-east-1", 0)
	if len(east0) < 30 || len(sa) != 4 {
		t.Fatalf("pools: east %d, sa %d", len(east0), len(sa))
	}
	shared := 0
	inEast1 := map[int]bool{}
	for _, a := range east1 {
		inEast1[a] = true
	}
	for _, a := range east0 {
		if inEast1[a] {
			shared++
		}
	}
	if shared < len(east0)*9/10 {
		t.Fatalf("zones share only %d/%d ISPs", shared, len(east0))
	}
}
