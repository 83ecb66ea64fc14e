package dataset

import (
	"testing"

	"cloudscope/internal/deploy"
	"cloudscope/internal/ipranges"
)

// world and ds are shared: dataset building is the expensive step.
var (
	world = must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 1200}))
	ds    = buildForWorld(world, 0)
)

func buildForWorld(w *deploy.World, vantages int) *Dataset {
	names := make([]string, 0, len(w.Domains))
	for _, d := range w.Domains {
		names = append(names, d.Name)
	}
	if vantages == 0 {
		vantages = 40
	}
	return must(Build(Config{
		Fabric:   w.Fabric,
		Registry: w.Registry,
		Ranges:   w.Ranges,
		Domains:  names,
		Vantages: vantages,
	}))
}

func TestDiscoveryFindsMostCloudDomains(t *testing.T) {
	truthCloud := map[string]bool{}
	for _, d := range world.CloudDomains {
		truthCloud[d.Name] = true
	}
	found := map[string]bool{}
	for _, name := range ds.CloudDomains() {
		found[name] = true
	}
	var hits, missed int
	for name := range truthCloud {
		if found[name] {
			hits++
		} else {
			missed++
		}
	}
	recall := float64(hits) / float64(hits+missed)
	// Brute force misses out-of-wordlist labels; the paper's numbers
	// are explicit lower bounds. With 90% wordlist bias and AXFR for
	// 8%, recall should be high but below 1.
	if recall < 0.90 {
		t.Fatalf("domain recall %.2f", recall)
	}
	// No false positives: every discovered domain truly uses the cloud.
	for name := range found {
		if !truthCloud[name] {
			t.Fatalf("false positive domain %s", name)
		}
	}
}

func TestDiscoveryIsLowerBound(t *testing.T) {
	truthSubs := 0
	for _, d := range world.CloudDomains {
		truthSubs += len(d.CloudSubdomains())
	}
	if ds.Stats.CloudSubdomains > truthSubs {
		t.Fatalf("found %d cloud subdomains, truth has %d — overcounting", ds.Stats.CloudSubdomains, truthSubs)
	}
	if float64(ds.Stats.CloudSubdomains) < 0.75*float64(truthSubs) {
		t.Fatalf("found %d of %d cloud subdomains — recall too low", ds.Stats.CloudSubdomains, truthSubs)
	}
}

func TestSubdomainObservationsMatchTruth(t *testing.T) {
	checked := 0
	for fqdn, obs := range ds.Subdomains {
		sub, ok := world.Subdomain(fqdn)
		if !ok {
			t.Fatalf("observed phantom subdomain %s", fqdn)
		}
		if !sub.CloudUsing() {
			t.Fatalf("non-cloud subdomain %s in dataset", fqdn)
		}
		// Every observed terminal IP must belong to the deployment.
		want := map[string]bool{}
		for _, vm := range sub.VMs {
			want[vm.PublicIP.String()] = true
		}
		if sub.ELB != nil {
			for _, p := range sub.ELB.Proxies {
				want[p.PublicIP.String()] = true
			}
		}
		if sub.CS != nil {
			want[sub.CS.Node.PublicIP.String()] = true
		}
		if sub.TM != nil {
			for _, m := range sub.TM.Members {
				want[m.Node.PublicIP.String()] = true
			}
		}
		if sub.Heroku != nil {
			for _, n := range world.Heroku.Pool {
				want[n.PublicIP.String()] = true
			}
			if sub.Heroku.ELB != nil {
				for _, p := range sub.Heroku.ELB.Proxies {
					want[p.PublicIP.String()] = true
				}
			}
		}
		if sub.CDN != nil {
			for _, ip := range sub.CDN.IPs {
				want[ip.String()] = true
			}
		}
		if sub.AzureCDN != nil {
			want[sub.AzureCDN.Node.PublicIP.String()] = true
		}
		for _, ip := range sub.OtherIPs {
			want[ip.String()] = true
		}
		if len(want) == 0 {
			continue
		}
		for _, ip := range obs.IPs {
			if !want[ip.String()] {
				t.Fatalf("%s observed %v not in ground truth", fqdn, ip)
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("only %d observations checked", checked)
	}
}

func TestAXFRSuccessRate(t *testing.T) {
	rate := float64(ds.Stats.AXFRSuccesses) / float64(ds.Stats.DomainsScanned)
	if rate < 0.04 || rate > 0.13 {
		t.Fatalf("AXFR success rate %.3f, want ~0.08", rate)
	}
}

func TestMultiRegionSubdomainsNeedVantageDiversity(t *testing.T) {
	// Find a ground-truth multi-region EC2 VM subdomain that the
	// dataset observed; distributed resolution must reveal >1 region.
	for fqdn, obs := range ds.Subdomains {
		sub, _ := world.Subdomain(fqdn)
		if sub == nil || len(sub.Regions) < 2 || len(sub.VMs) == 0 {
			continue
		}
		regions := map[string]bool{}
		for _, ip := range obs.IPs {
			if r := world.Ranges.Region(ip); r != "" {
				regions[r] = true
			}
		}
		if len(regions) < 2 {
			t.Fatalf("%s: truth spans %v but dataset saw only %v", fqdn, sub.Regions, regions)
		}
		return
	}
	t.Skip("no multi-region VM subdomain discovered in this world")
}

func TestObservationHelpers(t *testing.T) {
	for fqdn, obs := range ds.Subdomains {
		sub, _ := world.Subdomain(fqdn)
		if sub == nil {
			continue
		}
		switch sub.Pattern {
		case deploy.PatternVM:
			if len(sub.Regions) == 1 && !obs.DirectA() {
				t.Fatalf("%s: VM pattern but not direct A: %v", fqdn, obs.RRs[0])
			}
		case deploy.PatternELB:
			if !obs.HasCNAME() {
				t.Fatalf("%s: ELB without CNAME", fqdn)
			}
		}
		ec2, az, _ := obs.ProviderOf(world.Ranges)
		if sub.Provider == ipranges.EC2 && !ec2 && !az {
			t.Fatalf("%s: provider not recovered", fqdn)
		}
	}
}

func TestStatspopulated(t *testing.T) {
	if ds.Stats.DomainsScanned != len(world.Domains) {
		t.Fatalf("scanned %d of %d", ds.Stats.DomainsScanned, len(world.Domains))
	}
	if ds.Stats.QueriesIssued < int64(ds.Stats.DomainsScanned) {
		t.Fatal("query counter implausible")
	}
	if ds.Stats.SubdomainsSeen <= ds.Stats.CloudSubdomains {
		t.Fatal("should see more subdomains than cloud-using ones")
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
