package deploy

import (
	"fmt"

	"cloudscope/internal/cloud"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/xrand"
)

// DNSProvider is a DNS hosting operator: a set of name-server host
// names and IPs, a server process hosting its customers' zones, and a
// location class the paper's §4.1 name-server analysis recovers.
type DNSProvider struct {
	Name string
	// Kind is where the provider's name servers live: "external" (not
	// in any cloud), "route53" (CloudFront ranges), "ec2-vm" (tenant
	// VMs inside EC2), or "azure".
	Kind    string
	NSNames []string
	NSIPs   []netaddr.IP
	Server  *dnssrv.Server
}

// dnsPool is the shared hosting pool buildDNSProviders provisions and
// assignDNS draws from, with the external hosters' Zipf CDF built once.
// It is held apart from World.DNSProviders, which an in-memory world
// grows by one entry per self-hosting domain, so no domain's provider
// choice scans that list or rebuilds the pool.
type dnsPool struct {
	externals []*DNSProvider  // Zipf-ranked external hosters
	zipf      *xrand.Weighted // weight 1/(i+1) for externals[i]
	route53   *DNSProvider
	azure     *DNSProvider
}

// Addresses of the external hosters' name servers: hoster i owns the
// 64 addresses from externalNSBase + 64i, and its name server j is the
// (j+1)th of them. The carve steps over sharedNSBlock, the /23 holding
// the shared vanity zones' servers (deploySharedZones), which hosters
// from 1344 on — worlds of 1,069,600 domains and more — would reach;
// every hoster below it keeps its address.
var (
	externalNSBase = netaddr.MustParseIP("204.13.0.0")
	sharedNSBlock  = netaddr.MustParseCIDR("204.14.80.0/23")
)

// externalNSIP returns external hoster i's jth name-server address.
func externalNSIP(i, j int) netaddr.IP {
	block := externalNSBase + netaddr.IP(i*64)
	if block >= sharedNSBlock.Base {
		block += netaddr.IP(sharedNSBlock.Size())
	}
	return block + netaddr.IP(j+1)
}

// buildDNSProviders provisions the shared hosting pool: a Zipf-popular
// set of external hosters, a route53 fleet in CloudFront address space,
// and small EC2-VM and Azure pools for self-hosters. Every provider's
// own glue zone (A records for its NS names) is served by itself.
func (w *World) buildDNSProviders() {
	rng := w.rng.Split("dnshosting")
	nExternal := w.Cfg.NumDomains/800 + 8

	// A few big hosters serve most domains.
	weights := make([]float64, nExternal)
	for i := 0; i < nExternal; i++ {
		name := fmt.Sprintf("dnshost%02d.net", i)
		p := &DNSProvider{Name: name, Kind: "external", Server: dnssrv.NewServer()}
		glue := dnssrv.NewZone(name)
		n := rng.Range(3, 8)
		for j := 0; j < n; j++ {
			fq := fmt.Sprintf("ns%d.%s", j+1, name)
			ip := externalNSIP(i, j)
			p.NSNames = append(p.NSNames, fq)
			p.NSIPs = append(p.NSIPs, ip)
			glue.MustAdd(dnswire.RR{Name: fq, Type: dnswire.TypeA, TTL: 86400, IP: ip})
		}
		p.Server.AddZone(glue)
		dnssrv.Deploy(w.Fabric, w.Registry, p.Server, p.NSIPs...)
		w.DNSProviders = append(w.DNSProviders, p)
		w.dns.externals = append(w.dns.externals, p)
		weights[i] = 1 / float64(i+1)
	}
	w.dns.zipf = xrand.NewWeighted(nil, weights)

	// Route53: one logical provider with a larger NS fleet; customers
	// pick 4 servers each. All fleet IPs serve all route53 zones.
	r53 := &DNSProvider{Name: "route53", Kind: "route53", Server: dnssrv.NewServer()}
	fleet := 8 + w.Cfg.NumDomains/2500
	for j := 0; j < fleet; j++ {
		fq, ip := w.EC2.Route53NS()
		r53.NSNames = append(r53.NSNames, fq)
		r53.NSIPs = append(r53.NSIPs, ip)
	}
	dnssrv.Deploy(w.Fabric, w.Registry, r53.Server, r53.NSIPs...)
	w.DNSProviders = append(w.DNSProviders, r53)
	w.dns.route53 = r53

	// A small Azure-hosted provider.
	azp := &DNSProvider{Name: "azuredns.net", Kind: "azure", Server: dnssrv.NewServer()}
	glue := dnssrv.NewZone("azuredns.net")
	for j := 0; j < 2; j++ {
		inst := w.Azure.Launch("az.us-north", -1, "azure.cs", cloud.KindNS)
		fq := fmt.Sprintf("ns%d.azuredns.net", j+1)
		azp.NSNames = append(azp.NSNames, fq)
		azp.NSIPs = append(azp.NSIPs, inst.PublicIP)
		glue.MustAdd(dnswire.RR{Name: fq, Type: dnswire.TypeA, TTL: 86400, IP: inst.PublicIP})
	}
	azp.Server.AddZone(glue)
	dnssrv.Deploy(w.Fabric, w.Registry, azp.Server, azp.NSIPs...)
	w.DNSProviders = append(w.DNSProviders, azp)
	w.dns.azure = azp
}

// assignDNS hosts d's zone: picks a provider kind by the paper's NS
// location mix, installs NS records, and delegates. Self-hosters get a
// fresh per-domain provider whose name servers are VMs in the domain's
// home region. The provider choice (and every draw behind it) happens
// at plan time — the pool it reads (w.dns) is fixed before
// deployDomains runs — while the zone delegation and any VM launches
// land in commit ops.
func (w *World) assignDNS(pl *domainPlan, rng *xrand.Rand, d *Domain) {
	kind := pickKind(rng)
	if (kind == "ec2-vm" || kind == "azure") && d.HomeRegion == "" {
		kind = "external"
	}
	switch kind {
	case "route53":
		base := w.dns.route53
		// Pick 4 fleet servers for this domain.
		p := &DNSProvider{Name: "route53", Kind: "route53", Server: base.Server}
		start := rng.Intn(len(base.NSIPs))
		for j := 0; j < 4 && j < len(base.NSIPs); j++ {
			i := (start + j) % len(base.NSIPs)
			p.NSNames = append(p.NSNames, base.NSNames[i])
			p.NSIPs = append(p.NSIPs, base.NSIPs[i])
		}
		pl.op(func() { w.attachDNS(d, p) })
	case "ec2-vm":
		pl.op(func() { w.attachDNS(d, w.selfHostedProvider(d, w.EC2)) })
	case "azure":
		p := w.dns.azure
		pl.op(func() { w.attachDNS(d, p) })
	default:
		p := w.dns.externals[w.dns.zipf.NextR(rng)]
		pl.op(func() { w.attachDNS(d, p) })
	}
}

// attachDNS installs p's NS records in d's zone and delegates to it.
func (w *World) attachDNS(d *Domain, p *DNSProvider) {
	d.DNS = p
	for _, nsName := range p.NSNames {
		d.Zone.MustAdd(dnswire.RR{Name: d.Name, Type: dnswire.TypeNS, TTL: 86400, Target: nsName})
	}
	p.Server.AddZone(d.Zone)
	w.Registry.Delegate(d.Name, p.NSIPs...)
}

// selfHostedProvider launches name-server VMs inside the tenant's cloud
// (the 5% of cloud-using subdomains whose DNS itself runs on VMs).
func (w *World) selfHostedProvider(d *Domain, c *cloud.Cloud) *DNSProvider {
	region := d.HomeRegion
	if c.Region(region) == nil {
		region = c.Regions()[0]
	}
	p := &DNSProvider{Name: "self:" + d.Name, Kind: "ec2-vm", Server: dnssrv.NewServer()}
	for j := 0; j < 2; j++ {
		inst := c.Launch(region, -1, "m1.small", cloud.KindNS)
		fq := fmt.Sprintf("ns%d.%s", j+1, d.Name)
		p.NSNames = append(p.NSNames, fq)
		p.NSIPs = append(p.NSIPs, inst.PublicIP)
		// Glue lives in the domain's own zone — which makes the NS
		// host a discoverable, genuinely cloud-using subdomain;
		// record it as ground truth like any other VM front end.
		d.Zone.MustAdd(dnswire.RR{Name: fq, Type: dnswire.TypeA, TTL: 86400, IP: inst.PublicIP})
		s := &Subdomain{
			FQDN: fq, Label: fmt.Sprintf("ns%d", j+1), Domain: d,
			Pattern: PatternVM, Provider: ipranges.EC2,
			Regions: []string{region},
			Zones:   map[string][]int{region: {inst.ZoneIndex}},
			VMs:     []*cloud.Instance{inst}, InWordlist: true,
		}
		w.registerSubdomain(s)
	}
	dnssrv.Deploy(w.Fabric, w.Registry, p.Server, p.NSIPs...)
	// The list only serves inspection (plan-time lookups read w.dns);
	// a streaming world drops per-domain providers with their chunk
	// instead of accumulating one per self-hoster.
	if !w.streaming {
		w.DNSProviders = append(w.DNSProviders, p)
	}
	return p
}

func pickKind(rng *xrand.Rand) string {
	return xrand.Pick(rng, nsKinds, nsKindWeights)
}
