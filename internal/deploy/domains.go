package deploy

import (
	"fmt"
	"sort"
	"strings"

	"cloudscope/internal/alexa"
	"cloudscope/internal/cloud"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/parallel"
	"cloudscope/internal/wordlist"
	"cloudscope/internal/xrand"
)

// Extra patterns assigned during deployment (see config.go for the
// base sets): CloudFront- and Azure-CDN-fronted subdomains.
const (
	PatternCDN      Pattern = "cloudfront" // CNAME to *.cloudfront.net (P4)
	PatternAzureCDN Pattern = "azure-cdn"  // CNAME to *.msecnd.net (P4)
)

// domainPlan is one domain's deferred deployment. The plan phase —
// which runs in parallel, one call per domain — performs every random
// draw on the domain's private split stream and records each mutation
// of shared or ordered state (cloud launches, allocator advances,
// shared-zone writes, subdomain registration) as an op closure. The
// commit phase replays the ops sequentially in rank order, so every
// shared allocator sees exactly the call sequence the legacy
// sequential generator produced and the world is bit-for-bit
// identical at any worker count.
type domainPlan struct {
	d   *Domain
	ops []func()
}

// op defers a mutation of shared or ordered state to the commit phase.
func (p *domainPlan) op(f func()) { p.ops = append(p.ops, f) }

// commit replays the plan's mutations in order.
func (p *domainPlan) commit() {
	for _, f := range p.ops {
		f()
	}
}

// deploySharedZones publishes the shared vanity zones every chunk's
// opaque subdomains write into. Their servers sit in sharedNSBlock,
// which the external hosters' name-server carve steps over.
func (w *World) deploySharedZones() {
	// Shared vanity zone for opaque CNAME targets.
	w.opaqueZone = dnssrv.NewZone("ghs-hosting.net")
	opaqueSrv := dnssrv.NewServer(w.opaqueZone)
	dnssrv.Deploy(w.Fabric, w.Registry, opaqueSrv, netaddr.MustParseIP("204.14.80.2"), netaddr.MustParseIP("204.14.80.3"))
	// Shared third-party CDN zone (the paper's "CDN other than
	// CloudFront" rows).
	w.otherCDNZone = dnssrv.NewZone("edgekey-cdn.net")
	cdnSrv := dnssrv.NewServer(w.otherCDNZone)
	dnssrv.Deploy(w.Fabric, w.Registry, cdnSrv, netaddr.MustParseIP("204.14.81.2"))
}

// genParams are the rank-skew constants shared by every chunk of one
// generation run.
type genParams struct {
	quarter     int
	pTop, pRest float64
	forced      map[string]bool
}

func newGenParams(cfg Config) genParams {
	// Rank-skewed cloud adoption: probability in the top quarter vs the
	// rest chosen so the overall fraction and top-quarter share match.
	return genParams{
		quarter: cfg.NumDomains / 4,
		pTop:    cloudFraction * topQuarterShare / 0.25,
		pRest:   cloudFraction * (1 - topQuarterShare) / 0.75,
		forced:  anchorNames(),
	}
}

// deployChunk decides who is cloud-using and deploys one rank-contiguous
// run of the ranked list: domains are planned in parallel, then
// committed sequentially in rank order. rng must be the generation's
// shared "domains" stream; its only draws are the per-domain AXFR
// flags, consumed here in rank order, so cutting the list into chunks
// of any size replays the exact flag sequence the whole-list path
// draws. Per-domain draws live on split streams keyed by name, which
// are position-independent, and commit order across chunks equals rank
// order — so the world is bit-for-bit identical at any chunk size and
// worker count. The only error is a planning worker's panic or
// w.Cfg.Par.Ctx's cancellation.
func (w *World) deployChunk(rng *xrand.Rand, ads []*alexa.Domain, gp genParams) ([]*Domain, error) {
	if len(ads) == 0 {
		return nil, nil
	}
	axfr := make([]bool, len(ads))
	for i := range ads {
		axfr[i] = rng.Bool(axfrFraction)
	}

	base := ads[0].Rank - 1
	plans := make([]*domainPlan, len(ads))
	if err := parallel.RunAt(w.Cfg.Par, base, len(ads), func(sh parallel.Shard) error {
		for i := sh.Lo; i < sh.Hi; i++ {
			plans[i-base] = w.planDomain(rng, ads[i-base], axfr[i-base], gp.quarter, gp.pTop, gp.pRest, gp.forced)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	out := make([]*Domain, len(plans))
	for i, p := range plans {
		p.commit()
		out[i] = p.d
	}
	return out, nil
}

// planDomain decides one domain's fate on its private stream and plans
// its deployment. Everything it reads besides the domain itself is
// static by the time deployDomains runs (weight tables, anchor specs,
// zone counts, the external DNS-provider pool); everything it writes
// outside the domain's own structs is deferred to commit ops.
func (w *World) planDomain(rng *xrand.Rand, ad *alexa.Domain, axfr bool, quarter int, pTop, pRest float64, forced map[string]bool) *domainPlan {
	d := &Domain{
		Name:            ad.Name,
		Rank:            ad.Rank,
		CustomerCountry: ad.CustomerCountry(),
		Zone:            dnssrv.NewZone(ad.Name),
	}
	d.Zone.AllowAXFR = axfr
	drng := rng.Split("domain/" + ad.Name)
	p := &domainPlan{d: d}

	_, isAnchor := anchorSpecs[ad.Name]
	prob := pRest
	if ad.Rank <= quarter {
		prob = pTop
	}
	// Cloud adoption skews toward US-customer sites (the paper finds
	// 53% of subdomains hosted in their customer country while
	// us-east alone holds 73% — only possible if the cloud-using
	// population is US-heavy). The bias factors keep the overall
	// adoption rate at cloudFraction.
	if d.CustomerCountry == "US" {
		prob *= 2.2 / 1.15
	} else {
		prob *= 0.7 / 1.15
	}
	// The 2013 top-of-list giants (google, facebook, youtube, ...)
	// ran their own infrastructure; the highest-ranked cloud-using
	// domains were the anchors (live.com at 7, amazon.com at 9).
	if ad.Rank < 7 {
		prob = 0
	}
	cloudUsing := isAnchor || forced[ad.Name] || drng.Bool(prob)

	if cloudUsing {
		if isAnchor {
			w.deployAnchor(p, drng, d)
		} else {
			w.deployCloudDomain(p, drng, d)
		}
	} else {
		w.deployPlainDomain(p, drng, d)
	}
	// Apex record so the bare domain resolves.
	p.op(func() {
		d.Zone.MustAdd(dnswire.RR{Name: d.Name, Type: dnswire.TypeA, TTL: 300, IP: w.otherIPs.next()})
	})
	w.assignDNS(p, drng, d)
	return p
}

// deployPlainDomain gives a non-cloud domain a few ordinary subdomains.
func (w *World) deployPlainDomain(p *domainPlan, rng *xrand.Rand, d *Domain) {
	labels := newLabelPicker(rng, wordlistBias)
	n := rng.Range(1, 5)
	for i := 0; i < n; i++ {
		label, inList := labels.next()
		s := &Subdomain{FQDN: fqdn(label, d.Name), Label: label, Domain: d, Pattern: PatternOther, InWordlist: inList}
		p.op(func() {
			s.OtherIPs = []netaddr.IP{w.otherIPs.next()}
			d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeA, TTL: 300, IP: s.OtherIPs[0]})
			w.registerSubdomain(s)
		})
	}
}

// deployCloudDomain deploys a generic (non-anchor) cloud-using domain.
func (w *World) deployCloudDomain(p *domainPlan, rng *xrand.Rand, d *Domain) {
	d.Category = providerCategory(xrand.NewWeighted(rng, providerCategoryWeights).Next())
	primary := ipranges.EC2
	if d.Category == catAzureOnly || d.Category == catAzureOther {
		primary = ipranges.Azure
	}
	d.HomeRegion = w.pickRegion(rng, primary, d.CustomerCountry)

	// Heavy-tailed cloud subdomain count with the paper's mean.
	alpha := 1.0 + 1.0/(meanCloudSubs-1.0)*2.4
	n := int(rng.Pareto(alpha, 1.2))
	if n < 1 {
		n = 1
	}
	if n > maxCloudSubs {
		n = maxCloudSubs
	}

	labels := newLabelPicker(rng, wordlistBias)
	for i := 0; i < n; i++ {
		label, inList := labels.next()
		provider := primary
		if d.Category == catBoth && rng.Bool(0.3) {
			provider = ipranges.Azure
		}
		pattern := w.pickPattern(rng, provider, label)
		w.deploySubdomain(p, rng, d, label, inList, pattern)
	}

	// Other-hosted subdomains for the "+Other" categories.
	if d.Category == catEC2Other || d.Category == catAzureOther || d.Category == catBoth {
		m := rng.Range(1, 8)
		for i := 0; i < m; i++ {
			label, inList := labels.next()
			s := &Subdomain{FQDN: fqdn(label, d.Name), Label: label, Domain: d, Pattern: PatternOther, InWordlist: inList}
			p.op(func() {
				s.OtherIPs = []netaddr.IP{w.otherIPs.next()}
				d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeA, TTL: 300, IP: s.OtherIPs[0]})
				w.registerSubdomain(s)
			})
		}
	}
}

// pickPattern draws a front-end pattern for a subdomain, biasing CDN
// onto content-ish labels.
func (w *World) pickPattern(rng *xrand.Rand, provider ipranges.Provider, label string) Pattern {
	cdnish := label == "cdn" || label == "static" || label == "img" || label == "images" ||
		label == "assets" || label == "media" || strings.HasPrefix(label, "cdn")
	if provider == ipranges.Azure {
		if cdnish && rng.Bool(0.3) || rng.Bool(0.005) {
			return PatternAzureCDN
		}
		return pickWeighted(rng, patternWeightsAzure)
	}
	if cdnish && rng.Bool(0.4) || rng.Bool(0.006) {
		return PatternCDN
	}
	return pickWeighted(rng, patternWeightsEC2)
}

func pickWeighted(rng *xrand.Rand, m map[Pattern]float64) Pattern {
	// Deterministic iteration order.
	patterns := make([]Pattern, 0, len(m))
	for p := range m {
		patterns = append(patterns, p)
	}
	sortPatterns(patterns)
	weights := make([]float64, len(patterns))
	for i, p := range patterns {
		weights[i] = m[p]
	}
	return xrand.Pick(rng, patterns, weights)
}

func sortPatterns(ps []Pattern) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j] < ps[j-1]; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// deploySubdomain plans infrastructure and DNS for one subdomain: all
// draws happen here, all provisioning lands in commit ops.
func (w *World) deploySubdomain(p *domainPlan, rng *xrand.Rand, d *Domain, label string, inList bool, pattern Pattern) *Subdomain {
	s := &Subdomain{
		FQDN:       fqdn(label, d.Name),
		Label:      label,
		Domain:     d,
		Pattern:    pattern,
		Provider:   providerOf(pattern),
		Zones:      map[string][]int{},
		InWordlist: inList,
	}
	switch pattern {
	case PatternCDN:
		s.Provider = ipranges.EC2 // CloudFront is EC2-affiliated in the dataset
	case PatternAzureCDN:
		s.Provider = ipranges.Azure
	}

	regions := w.pickSubRegions(rng, s.Provider, d)
	s.Regions = regions

	switch pattern {
	case PatternVM:
		w.deployVMFront(p, rng, d, s, regions, 0)
	case PatternHybrid:
		w.deployVMFront(p, rng, d, s, regions[:1], rng.Range(1, 2))
	case PatternELB:
		region := regions[0]
		s.Regions = regions[:1]
		zones := w.pickZones(rng, w.EC2, region)
		placements := elbPlacements(rng, zones)
		s.Zones[region] = zones
		p.op(func() {
			s.ELB = w.EC2.CreateELB(sanitize(label), region, placements, 0.55)
			d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeCNAME, TTL: 300, Target: s.ELB.Name})
		})
	case PatternBeanstalk:
		region := regions[0]
		s.Regions = regions[:1]
		zones := w.pickZones(rng, w.EC2, region)
		s.Zones[region] = zones
		p.op(func() {
			s.Beanstalk = w.EC2.CreateBeanstalk(sanitize(label)+"-"+sanitize(d.Name), region, zones)
			s.ELB = s.Beanstalk.ELB
			d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeCNAME, TTL: 300, Target: s.Beanstalk.Name})
		})
	case PatternHeroku, PatternHerokuELB:
		s.Regions = []string{"ec2.us-east-1"}
		useProxy := pattern == PatternHeroku && rng.Bool(0.35)
		p.op(func() {
			app := w.Heroku.CreateApp(sanitize(label)+"-"+sanitize(strings.Split(d.Name, ".")[0]), useProxy, pattern == PatternHerokuELB)
			s.Heroku = app
			s.ELB = app.ELB
			zones := map[int]bool{}
			for _, node := range append(app.Nodes, w.Heroku.Pool[:min(2, len(w.Heroku.Pool))]...) {
				zones[node.ZoneIndex] = true
			}
			zs := make([]int, 0, len(zones))
			for z := range zones {
				zs = append(zs, z)
			}
			sort.Ints(zs)
			s.Zones["ec2.us-east-1"] = zs
			d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeCNAME, TTL: 300, Target: app.Name})
		})
	case PatternOpaqueCNAME:
		w.deployOpaque(p, rng, d, s, regions[:1])
	case PatternCDN:
		locs := rng.Range(2, 4)
		s.Regions = nil // CloudFront IPs carry no region
		p.op(func() {
			s.CDN = w.EC2.CreateDistribution(locs)
			d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeCNAME, TTL: 300, Target: s.CDN.Name})
		})
	case PatternAzureCDN:
		region := regions[0]
		s.Regions = regions[:1]
		s.Zones[region] = []int{0}
		p.op(func() {
			ep := w.Azure.CreateAzureCDN(region)
			s.AzureCDN = ep
			d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeCNAME, TTL: 300, Target: ep.Name})
		})
	case PatternAzureCS, PatternAzureIP:
		region := regions[0]
		s.Regions = regions[:1]
		s.Zones[region] = []int{0}
		contents := csContents(rng)
		p.op(func() {
			cs := w.Azure.CreateCloudService(sanitize(label), region, contents)
			s.CS = cs
			if pattern == PatternAzureIP {
				d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeA, TTL: 300, IP: cs.Node.PublicIP})
			} else {
				d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeCNAME, TTL: 300, Target: cs.Name})
			}
		})
	case PatternAzureTM:
		contents := make([]string, len(regions))
		for i, region := range regions {
			contents[i] = csContents(rng)
			s.Zones[region] = []int{0}
		}
		policy := xrand.Pick(rng, []string{"performance", "failover", "round-robin"}, []float64{0.5, 0.25, 0.25})
		p.op(func() {
			var members []*cloud.CloudService
			for i, region := range regions {
				members = append(members, w.Azure.CreateCloudService(sanitize(label), region, contents[i]))
			}
			s.TM = w.Azure.CreateTrafficManager(sanitize(label), policy, members)
			d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeCNAME, TTL: 300, Target: s.TM.Name})
		})
	case PatternAzureOpaque:
		region := regions[0]
		s.Regions = regions[:1]
		s.Zones[region] = []int{0}
		contents := csContents(rng)
		p.op(func() {
			cs := w.Azure.CreateCloudService(sanitize(label), region, contents)
			s.CS = cs
			vanity := fmt.Sprintf("az-%s-%d.ghs-hosting.net", sanitize(label), w.subCount)
			s.vanity = vanity
			w.opaqueZone.MustAdd(dnswire.RR{Name: vanity, Type: dnswire.TypeA, TTL: 300, IP: cs.Node.PublicIP})
			d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeCNAME, TTL: 300, Target: vanity})
		})
	default:
		panic("deploy: unhandled pattern " + string(pattern))
	}
	p.op(func() { w.registerSubdomain(s) })
	return s
}

// deployVMFront plans front-end VMs (pattern P1) in each region with
// the Figure 4a instance-count distribution, plus optional other-hosted
// A records (hybrid). Multi-region subdomains answer geo-dependently.
func (w *World) deployVMFront(p *domainPlan, rng *xrand.Rand, d *Domain, s *Subdomain, regions []string, otherCount int) {
	s.Regions = regions
	type regionVMs struct {
		region string
		zones  []int
		types  []string // instance type per VM
	}
	vmPlans := make([]regionVMs, 0, len(regions))
	plannedVMs := 0
	for _, region := range regions {
		zones := w.pickZones(rng, w.EC2, region)
		s.Zones[region] = zones
		nVMs := len(zones) + xrand.Pick(rng, []int{0, 1, 2}, []float64{0.70, 0.25, 0.05})
		rp := regionVMs{region: region, zones: zones}
		for i := 0; i < nVMs; i++ {
			rp.types = append(rp.types, xrand.PickUniform(rng, cloud.InstanceTypes))
		}
		plannedVMs += nVMs
		vmPlans = append(vmPlans, rp)
	}
	perRegion := make(map[string][]*cloud.Instance)
	p.op(func() {
		for _, rp := range vmPlans {
			for i, itype := range rp.types {
				inst := w.EC2.Launch(rp.region, rp.zones[i%len(rp.zones)], itype, cloud.KindVM)
				s.VMs = append(s.VMs, inst)
				perRegion[rp.region] = append(perRegion[rp.region], inst)
			}
		}
		for i := 0; i < otherCount; i++ {
			s.OtherIPs = append(s.OtherIPs, w.otherIPs.next())
		}
	})
	if len(regions) == 1 {
		w.deployBackends(p, rng, s, regions[0], plannedVMs)
		p.op(func() {
			for _, inst := range s.VMs {
				d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeA, TTL: 300, IP: inst.PublicIP})
			}
			for _, ip := range s.OtherIPs {
				d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeA, TTL: 300, IP: ip})
			}
		})
		return
	}
	// Geo-dependent answers: each client source is stably mapped to one
	// region's VM set, so only globally distributed probing reveals the
	// full deployment.
	name := s.FQDN
	p.op(func() {
		d.Zone.SetDynamic(name, func(src netaddr.IP, qtype dnswire.Type) []dnswire.RR {
			if qtype != dnswire.TypeA && qtype != dnswire.TypeANY {
				return nil
			}
			region := regions[int(src>>6)%len(regions)]
			var out []dnswire.RR
			for _, inst := range perRegion[region] {
				out = append(out, dnswire.RR{Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, IP: inst.PublicIP})
			}
			return out
		})
	})
}

// deployBackends plans the DNS-invisible back-end tier behind a
// VM-front subdomain (the paper's dashed boxes in Figure 1, left to
// future work). Placement policy: mostly colocated with the front
// ends' zones, sometimes spread across the region's other zones, rarely
// in another region entirely. plannedVMs is the front-end VM count the
// plan will launch — the sequential code checked len(s.VMs), which is
// not populated until commit.
func (w *World) deployBackends(p *domainPlan, rng *xrand.Rand, s *Subdomain, homeRegion string, plannedVMs int) {
	if !rng.Bool(backendFraction) || plannedVMs == 0 {
		return
	}
	n := rng.Range(1, 3)
	s.BackendPolicy = xrand.Pick(rng, []string{"colocated", "spread", "remote"}, []float64{0.6, 0.3, 0.1})
	frontZones := s.Zones[homeRegion]
	type backendPlan struct {
		region string
		zone   int
		itype  string
	}
	plans := make([]backendPlan, 0, n)
	for i := 0; i < n; i++ {
		region := homeRegion
		zone := -1
		switch s.BackendPolicy {
		case "colocated":
			if len(frontZones) > 0 {
				zone = frontZones[i%len(frontZones)]
			}
		case "spread":
			zc := w.EC2.ZoneCount(region)
			if zc > 0 {
				zone = rng.Intn(zc)
			}
		case "remote":
			for tries := 0; tries < 10 && region == homeRegion; tries++ {
				region = w.pickRegion(rng, ipranges.EC2, "")
			}
			if region == homeRegion { // us-east's weight makes repeats likely
				region = "ec2.eu-west-1"
				if homeRegion == region {
					region = "ec2.us-east-1"
				}
			}
		}
		itype := xrand.PickUniform(rng, []string{"m1.xlarge", "m3.2xlarge", "m1.medium"})
		plans = append(plans, backendPlan{region: region, zone: zone, itype: itype})
	}
	p.op(func() {
		for _, bp := range plans {
			s.Backends = append(s.Backends, w.EC2.Launch(bp.region, bp.zone, bp.itype, "backend"))
		}
	})
}

// deployOpaque hides EC2 VMs behind a vanity CNAME in a third-party
// zone — the 16% of EC2-using subdomains the paper's filters could not
// classify. The vanity name embeds the registration counter, so it is
// computed at commit when w.subCount matches the sequential order.
func (w *World) deployOpaque(p *domainPlan, rng *xrand.Rand, d *Domain, s *Subdomain, regions []string) {
	s.Regions = regions
	region := regions[0]
	zones := w.pickZones(rng, w.EC2, region)
	s.Zones[region] = zones
	types := make([]string, len(zones))
	for i := range zones {
		types[i] = xrand.PickUniform(rng, cloud.InstanceTypes)
	}
	p.op(func() {
		vanity := fmt.Sprintf("edge-%s-%d.ghs-hosting.net", sanitize(s.Label), w.subCount)
		s.vanity = vanity
		for i := 0; i < len(zones); i++ {
			inst := w.EC2.Launch(region, zones[i], types[i], cloud.KindVM)
			s.VMs = append(s.VMs, inst)
			w.opaqueZone.MustAdd(dnswire.RR{Name: vanity, Type: dnswire.TypeA, TTL: 300, IP: inst.PublicIP})
		}
		d.Zone.MustAdd(dnswire.RR{Name: s.FQDN, Type: dnswire.TypeCNAME, TTL: 300, Target: vanity})
	})
}

// pickSubRegions selects a subdomain's regions: home region first, then
// Figure 6a's multi-region tail.
func (w *World) pickSubRegions(rng *xrand.Rand, provider ipranges.Provider, d *Domain) []string {
	weights := regionCountWeightsEC2
	if provider == ipranges.Azure {
		weights = regionCountWeightsAzure
	}
	count := 1 + xrand.NewWeighted(rng, weights).Next()
	home := d.HomeRegion
	c := w.cloudFor(provider)
	if c.Region(home) == nil {
		home = w.pickRegion(rng, provider, d.CustomerCountry)
	}
	regions := []string{home}
	for len(regions) < count {
		r := w.pickRegion(rng, provider, "")
		dup := false
		for _, have := range regions {
			if have == r {
				dup = true
			}
		}
		if !dup {
			regions = append(regions, r)
		}
	}
	return regions
}

// elbPlacements maps a zone set to proxy placements (Figure 4b: ~95% of
// ELB-using subdomains have ≤5 physical instances).
func elbPlacements(rng *xrand.Rand, zones []int) []int {
	placements := append([]int(nil), zones...)
	extra := xrand.Pick(rng, []int{0, 1, 2, 8}, []float64{0.72, 0.18, 0.07, 0.03})
	for i := 0; i < extra; i++ {
		placements = append(placements, zones[i%len(zones)])
	}
	return placements
}

func csContents(rng *xrand.Rand) string {
	return xrand.Pick(rng, []string{"vm", "vm-collection", "paas"}, []float64{0.5, 0.2, 0.3})
}

// labelPicker hands out unique labels for one domain: mostly Zipf draws
// from the shared wordlist, sometimes synthetic labels invisible to
// brute-force discovery.
type labelPicker struct {
	rng      *xrand.Rand
	words    []string
	used     map[string]bool
	bias     float64
	synthSeq int
}

// wordZipf is the shared label-popularity CDF; the word list is static,
// so one table serves every domain (NextR keeps draws on the caller's
// stream, so concurrent planners never contend).
var (
	sharedWords = wordlist.Common()
	wordZipf    = xrand.NewZipf(xrand.New(0), len(sharedWords), 0.9)
)

func newLabelPicker(rng *xrand.Rand, bias float64) *labelPicker {
	return &labelPicker{
		rng:   rng,
		words: sharedWords,
		used:  map[string]bool{},
		bias:  bias,
	}
}

func (lp *labelPicker) next() (label string, inWordlist bool) {
	if lp.rng.Bool(lp.bias) {
		for tries := 0; tries < 40; tries++ {
			w := lp.words[wordZipf.NextR(lp.rng)]
			if !lp.used[w] {
				lp.used[w] = true
				return w, true
			}
		}
	}
	for {
		lp.synthSeq++
		w := fmt.Sprintf("%s%d", xrand.PickUniform(lp.rng, []string{"srv", "x", "app", "node", "zz", "int"}), lp.rng.Intn(10000))
		if !lp.used[w] {
			lp.used[w] = true
			return w, false
		}
	}
}

// sanitize makes a DNS-label-safe token from an arbitrary name.
func sanitize(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s) && sb.Len() < 20; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			sb.WriteByte(c)
		case c >= 'A' && c <= 'Z':
			sb.WriteByte(c + 32)
		}
	}
	if sb.Len() == 0 {
		return "x"
	}
	return sb.String()
}
