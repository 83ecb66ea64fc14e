package deploy

import (
	"math"
	"testing"

	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
)

// testWorld is shared across tests: generation is the expensive step.
var testW = must(Generate(Config{Seed: 1, NumDomains: 4000}))

func TestCloudFraction(t *testing.T) {
	frac := float64(len(testW.CloudDomains)) / float64(len(testW.Domains))
	if frac < 0.028 || frac > 0.056 {
		t.Fatalf("cloud-using fraction = %.3f, want ~0.04", frac)
	}
}

func TestRankSkew(t *testing.T) {
	quarter := testW.Cfg.NumDomains / 4
	top := 0
	for _, d := range testW.CloudDomains {
		if d.Rank <= quarter {
			top++
		}
	}
	share := float64(top) / float64(len(testW.CloudDomains))
	if share < 0.30 || share > 0.55 {
		t.Fatalf("top-quarter share = %.2f, want ~0.42", share)
	}
}

func TestProviderMix(t *testing.T) {
	var ec2, azure int
	for _, d := range testW.CloudDomains {
		if d.UsesEC2() {
			ec2++
		}
		if d.UsesAzure() {
			azure++
		}
	}
	n := len(testW.CloudDomains)
	if f := float64(ec2) / float64(n); f < 0.88 || f > 0.99 {
		t.Fatalf("EC2 share of cloud domains = %.2f, want ~0.95", f)
	}
	if f := float64(azure) / float64(n); f < 0.02 || f > 0.12 {
		t.Fatalf("Azure share = %.2f, want ~0.06", f)
	}
}

func TestPatternShares(t *testing.T) {
	counts := map[Pattern]int{}
	totalEC2 := 0
	for _, d := range testW.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			if s.Provider == ipranges.EC2 {
				totalEC2++
				counts[s.Pattern]++
			}
		}
	}
	if totalEC2 < 500 {
		t.Fatalf("only %d EC2 subdomains generated", totalEC2)
	}
	share := func(p Pattern) float64 { return float64(counts[p]) / float64(totalEC2) }
	if s := share(PatternVM) + share(PatternHybrid); s < 0.60 || s < 0.5 {
		t.Fatalf("VM-front share = %.2f, want ~0.72", s)
	}
	if s := share(PatternHeroku) + share(PatternHerokuELB); s < 0.04 || s > 0.14 {
		t.Fatalf("heroku share = %.2f, want ~0.08", s)
	}
	if s := share(PatternELB) + share(PatternBeanstalk) + share(PatternHerokuELB); s < 0.015 || s > 0.09 {
		t.Fatalf("ELB share = %.2f, want ~0.04", s)
	}
	if s := share(PatternOpaqueCNAME); s < 0.09 || s > 0.24 {
		t.Fatalf("opaque share = %.2f, want ~0.16", s)
	}
}

func TestRegionDistribution(t *testing.T) {
	regionSubs := map[string]int{}
	single, multi := 0, 0
	for _, d := range testW.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			if s.Provider != ipranges.EC2 || len(s.Regions) == 0 {
				continue
			}
			for _, r := range s.Regions {
				regionSubs[r]++
			}
			if len(s.Regions) == 1 {
				single++
			} else {
				multi++
			}
		}
	}
	total := single + multi
	if f := float64(single) / float64(total); f < 0.94 || f > 0.995 {
		t.Fatalf("single-region share = %.3f, want ~0.97", f)
	}
	if f := float64(regionSubs["ec2.us-east-1"]) / float64(total); f < 0.55 || f > 0.85 {
		t.Fatalf("us-east share = %.2f, want ~0.73", f)
	}
	if regionSubs["ec2.eu-west-1"] < regionSubs["ec2.ap-southeast-2"] {
		t.Fatal("eu-west should dominate ap-southeast-2")
	}
}

func TestZoneDistribution(t *testing.T) {
	zc := map[int]int{}
	total := 0
	for _, d := range testW.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			if s.Provider != ipranges.EC2 || s.Pattern == PatternCDN {
				continue
			}
			zones := 0
			for _, zs := range s.Zones {
				zones += len(zs)
			}
			if zones == 0 {
				continue
			}
			k := zones
			if k > 3 {
				k = 3
			}
			zc[k]++
			total++
		}
	}
	one := float64(zc[1]) / float64(total)
	two := float64(zc[2]) / float64(total)
	three := float64(zc[3]) / float64(total)
	if math.Abs(one-0.33) > 0.12 || math.Abs(two-0.445) > 0.13 || math.Abs(three-0.223) > 0.12 {
		t.Fatalf("zone-count mix = %.2f/%.2f/%.2f, want ~0.33/0.45/0.22", one, two, three)
	}
}

func TestGroundTruthMatchesDNS(t *testing.T) {
	// Every VM-front subdomain's A records must resolve (through the
	// real resolver) to its recorded VM IPs.
	rv := dnssrv.NewResolver(testW.Fabric, testW.Registry, netaddr.MustParseIP("128.105.1.1"))
	checked := 0
	for _, d := range testW.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			if s.Pattern != PatternVM || len(s.Regions) != 1 {
				continue
			}
			chain, err := rv.LookupA(s.FQDN)
			if err != nil {
				t.Fatalf("LookupA(%s): %v", s.FQDN, err)
			}
			want := map[netaddr.IP]bool{}
			for _, vm := range s.VMs {
				want[vm.PublicIP] = true
			}
			for _, rr := range chain {
				if rr.Type == dnswire.TypeA && !want[rr.IP] {
					t.Fatalf("%s resolved to unexpected IP %v", s.FQDN, rr.IP)
				}
			}
			checked++
			if checked >= 50 {
				return
			}
		}
	}
	if checked == 0 {
		t.Fatal("no VM subdomains checked")
	}
}

func TestELBResolvesThroughCNAME(t *testing.T) {
	rv := dnssrv.NewResolver(testW.Fabric, testW.Registry, netaddr.MustParseIP("128.105.1.2"))
	for _, d := range testW.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			if s.Pattern != PatternELB {
				continue
			}
			chain, err := rv.LookupA(s.FQDN)
			if err != nil {
				t.Fatalf("LookupA(%s): %v", s.FQDN, err)
			}
			var sawCNAME, sawA bool
			for _, rr := range chain {
				if rr.Type == dnswire.TypeCNAME && rr.Target == s.ELB.Name {
					sawCNAME = true
				}
				if rr.Type == dnswire.TypeA {
					sawA = true
					if testW.Ranges.Region(rr.IP) != s.ELB.Region {
						t.Fatalf("%s ELB proxy in %s, want %s", s.FQDN, testW.Ranges.Region(rr.IP), s.ELB.Region)
					}
				}
			}
			if !sawCNAME || !sawA {
				t.Fatalf("%s chain incomplete: %v", s.FQDN, chain)
			}
			return
		}
	}
	t.Skip("no ELB subdomain in test world")
}

func TestAnchorsDeployed(t *testing.T) {
	for _, name := range []string{"amazon.com", "pinterest.com", "msn.com", "dropbox.com", "netflix.com"} {
		var dom *Domain
		for _, d := range testW.CloudDomains {
			if d.Name == name {
				dom = d
			}
		}
		if dom == nil {
			t.Fatalf("anchor %s not cloud-using", name)
		}
	}
	// pinterest: 18 cloud subdomains, single region.
	var pin *Domain
	for _, d := range testW.CloudDomains {
		if d.Name == "pinterest.com" {
			pin = d
		}
	}
	if got := len(pin.CloudSubdomains()); got != 18 {
		t.Fatalf("pinterest cloud subdomains = %d, want 18", got)
	}
	for _, s := range pin.CloudSubdomains() {
		if len(s.Regions) != 1 || s.Regions[0] != "ec2.us-east-1" {
			t.Fatalf("pinterest %s regions = %v", s.FQDN, s.Regions)
		}
	}
	// netflix m. has a large physical ELB fleet.
	msub, ok := testW.Subdomain("m.netflix.com")
	if !ok || msub.ELB == nil {
		t.Fatal("m.netflix.com missing ELB")
	}
	if got := len(msub.ELB.Proxies); got < 60 {
		t.Fatalf("m.netflix.com ELB proxies = %d, want ~90", got)
	}
}

func TestAXFRFraction(t *testing.T) {
	allowed := 0
	for _, d := range testW.Domains {
		if d.Zone.AllowAXFR {
			allowed++
		}
	}
	f := float64(allowed) / float64(len(testW.Domains))
	if f < 0.05 || f > 0.11 {
		t.Fatalf("AXFR fraction = %.3f, want ~0.08", f)
	}
}

func TestNSDelegationsWork(t *testing.T) {
	rv := dnssrv.NewResolver(testW.Fabric, testW.Registry, netaddr.MustParseIP("128.105.1.3"))
	for i, d := range testW.Domains {
		if i >= 30 {
			break
		}
		ns, err := rv.LookupNS(d.Name)
		if err != nil {
			t.Fatalf("LookupNS(%s): %v", d.Name, err)
		}
		if len(ns) < 2 {
			t.Fatalf("%s has %d NS", d.Name, len(ns))
		}
		// NS host names themselves resolve.
		for _, n := range ns {
			if _, err := rv.LookupA(n); err != nil {
				t.Fatalf("NS %s unresolvable: %v", n, err)
			}
		}
	}
}

func TestDNSProviderKindMix(t *testing.T) {
	kinds := map[string]int{}
	for _, d := range testW.CloudDomains {
		kinds[d.DNS.Kind]++
	}
	if kinds["external"] < kinds["route53"] {
		t.Fatal("external DNS hosting should dominate")
	}
	if kinds["route53"] == 0 {
		t.Fatal("no route53-hosted domain")
	}
}

func TestSubdomainIndex(t *testing.T) {
	s, ok := testW.Subdomain("www.pinterest.com")
	if !ok || s.Domain.Name != "pinterest.com" {
		t.Fatal("Subdomain index broken")
	}
	if _, ok := testW.Subdomain("nope.nope.nope"); ok {
		t.Fatal("phantom subdomain")
	}
}

func TestWordlistBias(t *testing.T) {
	in, out := 0, 0
	for _, d := range testW.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			if s.InWordlist {
				in++
			} else {
				out++
			}
		}
	}
	f := float64(in) / float64(in+out)
	if f < 0.80 || f > 0.97 {
		t.Fatalf("wordlist share = %.2f, want ~0.90", f)
	}
}

func TestHerokuSharedPool(t *testing.T) {
	// All heroku apps resolve into the small shared pool.
	pool := map[netaddr.IP]bool{}
	for _, inst := range testW.Heroku.Pool {
		pool[inst.PublicIP] = true
	}
	rv := dnssrv.NewResolver(testW.Fabric, testW.Registry, netaddr.MustParseIP("128.105.1.4"))
	count := 0
	for _, d := range testW.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			if s.Pattern != PatternHeroku {
				continue
			}
			chain, err := rv.LookupA(s.FQDN)
			if err != nil {
				t.Fatalf("LookupA(%s): %v", s.FQDN, err)
			}
			for _, rr := range chain {
				if rr.Type == dnswire.TypeA && !pool[rr.IP] {
					t.Fatalf("%s heroku IP %v outside pool", s.FQDN, rr.IP)
				}
			}
			count++
			if count > 20 {
				return
			}
		}
	}
}

func TestCustomerCountryMismatchRate(t *testing.T) {
	// §4.2: ~47% of subdomains are hosted outside their customer country
	// (we check the domain level, continent-agnostic: country of the
	// home region vs customer country).
	mismatch, total := 0, 0
	for _, d := range testW.CloudDomains {
		if d.HomeRegion == "" || d.CustomerCountry == "" {
			continue
		}
		total++
		if regionCountry(d.HomeRegion) != d.CustomerCountry {
			mismatch++
		}
	}
	f := float64(mismatch) / float64(total)
	if f < 0.32 || f > 0.68 {
		t.Fatalf("customer-country mismatch = %.2f, want ~0.5", f)
	}
}

func regionCountry(region string) string {
	switch region {
	case "ec2.us-east-1", "ec2.us-west-1", "ec2.us-west-2",
		"az.us-east", "az.us-west", "az.us-north", "az.us-south":
		return "US"
	case "ec2.eu-west-1", "az.eu-west":
		return "IE"
	case "az.eu-north":
		return "NL"
	case "ec2.ap-southeast-1", "az.ap-southeast":
		return "SG"
	case "ec2.ap-northeast-1":
		return "JP"
	case "ec2.sa-east-1":
		return "BR"
	case "ec2.ap-southeast-2":
		return "AU"
	case "az.ap-east":
		return "HK"
	}
	return ""
}

func TestDeterminism(t *testing.T) {
	a := must(Generate(Config{Seed: 1, NumDomains: 300}))
	b := must(Generate(Config{Seed: 1, NumDomains: 300}))
	if len(a.CloudDomains) != len(b.CloudDomains) {
		t.Fatalf("cloud domain counts differ: %d vs %d", len(a.CloudDomains), len(b.CloudDomains))
	}
	for i := range a.CloudDomains {
		da, db := a.CloudDomains[i], b.CloudDomains[i]
		if da.Name != db.Name || len(da.Subdomains) != len(db.Subdomains) {
			t.Fatalf("domain %d differs: %s/%d vs %s/%d", i, da.Name, len(da.Subdomains), db.Name, len(db.Subdomains))
		}
	}
}

func TestMeanCloudSubsInRange(t *testing.T) {
	total := 0
	for _, d := range testW.CloudDomains {
		total += len(d.CloudSubdomains())
	}
	mean := float64(total) / float64(len(testW.CloudDomains))
	// Anchors inflate the mean slightly; accept a broad band around 17.7.
	if mean < 4 || mean > 40 {
		t.Fatalf("mean cloud subdomains per domain = %.1f, want ~10-20", mean)
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
