package deploy

import (
	"fmt"
	"io"
	"sort"
	"time"

	"cloudscope/internal/alexa"
	"cloudscope/internal/cloud"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/geo"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/simnet"
	"cloudscope/internal/xrand"
)

// Subdomain is one deployed host name with its ground truth.
type Subdomain struct {
	FQDN       string
	Label      string
	Domain     *Domain
	Pattern    Pattern
	Provider   ipranges.Provider // "" for other-hosted
	Regions    []string
	Zones      map[string][]int // region → true zone indexes in use
	InWordlist bool

	VMs []*cloud.Instance
	// Backends are the subdomain's invisible back-end tier (databases,
	// caches, workers): never published in DNS, reachable only through
	// the front ends. BackendPolicy records how they were placed:
	// "colocated" (front ends' zones), "spread" (other zones, same
	// region), or "remote" (a different region).
	Backends      []*cloud.Instance
	BackendPolicy string
	ELB           *cloud.ELB
	Heroku        *cloud.HerokuApp
	Beanstalk     *cloud.BeanstalkEnv
	CS            *cloud.CloudService
	TM            *cloud.TrafficManager
	CDN           *cloud.Distribution // CloudFront, when used (P4)
	AzureCDN      *cloud.AzureCDNEndpoint
	OtherCDN      bool // uses a non-CloudFront CDN
	OtherIPs      []netaddr.IP

	// vanity is the CNAME target this subdomain owns in the shared
	// opaque (or third-party CDN) zone, recorded so streaming release
	// can remove the records; "" when the pattern has none.
	vanity string
}

// CloudUsing reports whether the subdomain resolves into EC2 or Azure.
func (s *Subdomain) CloudUsing() bool { return s.Provider != "" }

// Domain is one ranked site with its zone and deployments.
type Domain struct {
	Name            string
	Rank            int
	Category        providerCategory
	CustomerCountry string
	HomeRegion      string // "" when not cloud-using
	Zone            *dnssrv.Zone
	DNS             *DNSProvider
	Subdomains      []*Subdomain
}

// UsesEC2 reports whether any subdomain is on EC2.
func (d *Domain) UsesEC2() bool { return d.usesProvider(ipranges.EC2) }

// UsesAzure reports whether any subdomain is on Azure.
func (d *Domain) UsesAzure() bool { return d.usesProvider(ipranges.Azure) }

func (d *Domain) usesProvider(p ipranges.Provider) bool {
	for _, s := range d.Subdomains {
		if s.Provider == p {
			return true
		}
	}
	return false
}

// CloudUsing reports whether the domain has any cloud-using subdomain.
func (d *Domain) CloudUsing() bool { return d.UsesEC2() || d.UsesAzure() }

// CloudSubdomains returns the subdomains on either cloud.
func (d *Domain) CloudSubdomains() []*Subdomain {
	var out []*Subdomain
	for _, s := range d.Subdomains {
		if s.CloudUsing() {
			out = append(out, s)
		}
	}
	return out
}

// World is the generated ground truth plus the live simulated Internet.
type World struct {
	Cfg      Config
	List     *alexa.List
	AWIS     *alexa.WebInfoService
	EC2      *cloud.Cloud
	Azure    *cloud.Cloud
	Heroku   *cloud.Heroku
	Fabric   *simnet.Fabric
	Registry *dnssrv.Registry
	Ranges   *ipranges.List

	Domains      []*Domain // every ranked domain, rank order
	CloudDomains []*Domain // subset with cloud deployments, rank order
	DNSProviders []*DNSProvider
	dns          dnsPool

	bySub        map[string]*Subdomain
	subCount     int // distinct FQDNs ever registered; survives release
	otherIPs     *otherAllocator
	rng          *xrand.Rand
	opaqueZone   *dnssrv.Zone // shared vanity zone hiding cloud IPs behind CNAMEs
	otherCDNZone *dnssrv.Zone // shared third-party CDN zone
	// streaming marks a world built by GenerateStream: released chunks
	// are reclaimed, per-domain state (Domains, CloudDomains, AWIS, the
	// self-hosted DNSProviders appends, cloud instance records) is not
	// retained, and bySub only covers live chunks.
	streaming bool
}

// DumpTruth writes a deterministic plain-text rendering of the world's
// entire ground truth — every domain, subdomain, deployment artifact,
// and zone file. Two worlds are behaviorally identical iff their dumps
// match, which is what the worker-count-invariance goldens hash.
func (w *World) DumpTruth(dst io.Writer) {
	for _, d := range w.Domains {
		d.DumpTo(dst)
	}
	fmt.Fprintf(dst, "cloudDomains=%d subs=%d\n", len(w.CloudDomains), w.NumSubdomains())
}

// DumpTo writes one domain's ground-truth block — the per-domain unit
// of DumpTruth. A domain's block is complete as soon as its chunk
// commits, so streaming consumers can dump chunk by chunk and obtain
// exactly the whole-world dump.
func (d *Domain) DumpTo(dst io.Writer) {
	fmt.Fprintf(dst, "D %s rank=%d cat=%v cc=%s home=%s axfr=%v", d.Name, d.Rank, d.Category, d.CustomerCountry, d.HomeRegion, d.Zone.AllowAXFR)
	if d.DNS != nil {
		fmt.Fprintf(dst, " dns=%s/%s ns=%v ips=%v", d.DNS.Name, d.DNS.Kind, d.DNS.NSNames, d.DNS.NSIPs)
	}
	fmt.Fprintln(dst)
	for _, s := range d.Subdomains {
		fmt.Fprintf(dst, "  S %s pat=%s prov=%s regs=%v wl=%v bp=%s ocdn=%v", s.FQDN, s.Pattern, s.Provider, s.Regions, s.InWordlist, s.BackendPolicy, s.OtherCDN)
		regs := make([]string, 0, len(s.Zones))
		for r := range s.Zones {
			regs = append(regs, r)
		}
		sort.Strings(regs)
		for _, r := range regs {
			zs := append([]int(nil), s.Zones[r]...)
			sort.Ints(zs)
			fmt.Fprintf(dst, " z[%s]=%v", r, zs)
		}
		for _, vm := range s.VMs {
			fmt.Fprintf(dst, " vm=%s/%d/%s/%s", vm.Region, vm.ZoneIndex, vm.Type, vm.PublicIP)
		}
		for _, b := range s.Backends {
			fmt.Fprintf(dst, " be=%s/%d/%s/%s", b.Region, b.ZoneIndex, b.Type, b.PublicIP)
		}
		if s.ELB != nil {
			fmt.Fprintf(dst, " elb=%s", s.ELB.Name)
		}
		if s.Heroku != nil {
			fmt.Fprintf(dst, " heroku=%s", s.Heroku.Name)
		}
		if s.Beanstalk != nil {
			fmt.Fprintf(dst, " bean=%s", s.Beanstalk.Name)
		}
		if s.CS != nil {
			fmt.Fprintf(dst, " cs=%s/%s", s.CS.Name, s.CS.Node.PublicIP)
		}
		if s.TM != nil {
			fmt.Fprintf(dst, " tm=%s", s.TM.Name)
		}
		if s.CDN != nil {
			fmt.Fprintf(dst, " cdn=%s", s.CDN.Name)
		}
		if s.AzureCDN != nil {
			fmt.Fprintf(dst, " azcdn=%s", s.AzureCDN.Name)
		}
		fmt.Fprintf(dst, " oips=%v\n", s.OtherIPs)
	}
	// Full zone content as seen from a fixed client.
	d.Zone.WriteTo(dst, netaddr.MustParseIP("8.8.8.8"))
}

// Subdomain returns ground truth for an FQDN.
func (w *World) Subdomain(fqdn string) (*Subdomain, bool) {
	s, ok := w.bySub[dnswire.CanonicalName(fqdn)]
	return s, ok
}

// NumSubdomains returns the total deployed subdomain count, counting
// streamed-and-released subdomains too.
func (w *World) NumSubdomains() int { return w.subCount }

// otherAllocator hands out non-cloud hosting addresses from realistic
// hoster blocks, never colliding with the published cloud ranges.
type otherAllocator struct {
	blocks []netaddr.CIDR
	cursor uint64
	ranges *ipranges.List
}

func newOtherAllocator(ranges *ipranges.List) *otherAllocator {
	return &otherAllocator{
		blocks: []netaddr.CIDR{
			netaddr.MustParseCIDR("66.100.0.0/14"),
			netaddr.MustParseCIDR("72.32.0.0/14"),
			netaddr.MustParseCIDR("88.80.0.0/14"),
			netaddr.MustParseCIDR("93.184.0.0/16"),
			netaddr.MustParseCIDR("119.63.0.0/16"),
			netaddr.MustParseCIDR("151.101.0.0/16"),
			netaddr.MustParseCIDR("199.16.0.0/14"),
		},
		ranges: ranges,
	}
}

func (o *otherAllocator) next() netaddr.IP {
	for {
		o.cursor += 3
		total := uint64(0)
		for _, b := range o.blocks {
			total += b.Size()
		}
		off := o.cursor % total
		for _, b := range o.blocks {
			if off < b.Size() {
				ip := b.Nth(off)
				if !o.ranges.Contains(ip, "") {
					return ip
				}
				break
			}
			off -= b.Size()
		}
	}
}

// Generate builds a world from cfg. It is deterministic in cfg.Seed,
// and — because it is exactly one all-domain chunk of the streaming
// path — byte-identical to GenerateStream at any chunk size. It errors
// only when a planning worker panics or cfg.Par.Ctx is cancelled.
func Generate(cfg Config) (*World, error) {
	w := newWorld(cfg, false)
	w.List = alexa.Generate(cfg.NumDomains, cfg.Seed, alexa.DefaultAnchors)
	w.AWIS = alexa.NewWebInfoService(w.List, 0.75, cfg.Seed)
	rng := w.rng.Split("domains")
	gp := newGenParams(cfg)
	domains, err := w.deployChunk(rng, w.List.Domains, gp)
	if err != nil {
		return nil, err
	}
	for _, d := range domains {
		w.Domains = append(w.Domains, d)
		if d.CloudUsing() {
			w.CloudDomains = append(w.CloudDomains, d)
		}
	}
	return w, nil
}

// newWorld builds the shared substrate both generators start from: the
// clouds, fabric, registry, provider zones, DNS-provider pool, and the
// shared vanity zones — everything that is not per-ranked-domain. In
// streaming mode the clouds skip instance-record retention (collision
// bitmaps still guarantee allocation behavior is unchanged).
func newWorld(cfg Config, streaming bool) *World {
	rng := xrand.SplitSeeded(cfg.Seed, "deploy")
	ranges := ipranges.Published()
	w := &World{
		Cfg:       cfg,
		EC2:       cloud.New(ipranges.EC2, ranges, cfg.Seed),
		Azure:     cloud.New(ipranges.Azure, ranges, cfg.Seed),
		Fabric:    simnet.NewFabric(nil),
		Registry:  dnssrv.NewRegistry(),
		Ranges:    ranges,
		bySub:     make(map[string]*Subdomain),
		rng:       rng,
		streaming: streaming,
	}
	if streaming {
		w.EC2.SetRetain(false)
		w.Azure.SetRetain(false)
	}
	w.otherIPs = newOtherAllocator(ranges)
	w.Heroku = cloud.NewHeroku(w.EC2, herokuPoolSize(cfg.NumDomains))

	// Wide-area-ish DNS latency: a stable per-pair one-way delay in
	// 5–90 ms, so measurement campaigns consume plausible simulated
	// time (dataset.Stats.SerialProbeTime).
	w.Fabric.SetLatency(func(src, dst netaddr.IP) time.Duration {
		h := uint64(src)*2654435761 ^ uint64(dst)*40503
		h ^= h >> 13
		return time.Duration(5+h%86) * time.Millisecond
	})

	w.deployProviderZones()
	w.buildDNSProviders()
	w.deploySharedZones()
	return w
}

// deployProviderZones publishes amazonaws.com, cloudapp.net, etc. on an
// infrastructure DNS server.
func (w *World) deployProviderZones() {
	infra := dnssrv.NewServer()
	for _, z := range w.EC2.ProviderZones() {
		infra.AddZone(z)
	}
	for _, z := range w.Azure.ProviderZones() {
		infra.AddZone(z)
	}
	ns1 := netaddr.MustParseIP("192.5.6.30")
	ns2 := netaddr.MustParseIP("192.33.14.30")
	dnssrv.Deploy(w.Fabric, w.Registry, infra, ns1, ns2)
}

// pickRegion selects a home region for a domain, geo-affine with
// probability geoAffinity.
func (w *World) pickRegion(rng *xrand.Rand, provider ipranges.Provider, customerCountry string) string {
	weights := regionWeightsEC2
	continents := continentRegionsEC2
	if provider == ipranges.Azure {
		weights = regionWeightsAzure
		continents = continentRegionsAzure
	}
	if customerCountry != "" && rng.Bool(geoAffinity) {
		// Exact-country regions first (US customers overwhelmingly land
		// in US regions), then same-continent.
		var exact []string
		for r := range weights {
			if geo.RegionLocation(r).Country == customerCountry {
				exact = append(exact, r)
			}
		}
		if len(exact) > 0 {
			sort.Strings(exact)
			return weightedRegion(rng, exact, weights)
		}
		cont := geoContinent(customerCountry)
		if regs := continents[cont]; len(regs) > 0 {
			return weightedRegion(rng, regs, weights)
		}
	}
	var regs []string
	for r := range weights {
		regs = append(regs, r)
	}
	sort.Strings(regs)
	return weightedRegion(rng, regs, weights)
}

func weightedRegion(rng *xrand.Rand, regs []string, weights map[string]float64) string {
	ws := make([]float64, len(regs))
	for i, r := range regs {
		ws[i] = weights[r]
		if ws[i] == 0 {
			ws[i] = 0.001
		}
	}
	return xrand.Pick(rng, regs, ws)
}

// pickZones chooses how many and which zones a subdomain uses in region.
func (w *World) pickZones(rng *xrand.Rand, c *cloud.Cloud, region string) []int {
	zc := c.ZoneCount(region)
	if zc <= 1 {
		return []int{0}
	}
	want := 1 + xrand.NewWeighted(rng, zoneCountWeights).Next()
	if want > zc {
		want = zc
	}
	weights := zoneWeights[region]
	if len(weights) != zc {
		weights = make([]float64, zc)
		for i := range weights {
			weights[i] = 1
		}
	}
	picked := map[int]bool{}
	out := make([]int, 0, want)
	for len(out) < want {
		z := xrand.NewWeighted(rng, weights).Next()
		if !picked[z] {
			picked[z] = true
			out = append(out, z)
		}
	}
	sort.Ints(out)
	return out
}

func (w *World) cloudFor(p ipranges.Provider) *cloud.Cloud {
	if p == ipranges.Azure {
		return w.Azure
	}
	return w.EC2
}

// registerSubdomain records ground truth and indexes the FQDN. The
// registration counter feeds the opaque vanity names; it only ever
// grows, so releasing chunks never shifts later names.
func (w *World) registerSubdomain(s *Subdomain) {
	s.Domain.Subdomains = append(s.Domain.Subdomains, s)
	if _, dup := w.bySub[s.FQDN]; !dup {
		w.subCount++
	}
	w.bySub[s.FQDN] = s
}

// fqdn joins a label and domain.
func fqdn(label, domain string) string { return fmt.Sprintf("%s.%s", label, domain) }

func geoContinent(country string) string {
	if c, ok := geo.CountryContinent[country]; ok {
		return c
	}
	return "NA"
}
