// Package dataset builds the paper's primary dataset — the Alexa
// subdomains dataset (§2.1) — by running the published discovery
// pipeline against the simulated DNS:
//
//  1. attempt a zone transfer (AXFR) for each ranked domain;
//  2. fall back to dnsmap/knock-style wordlist brute forcing from
//     distributed vantage points;
//  3. resolve every discovered subdomain once and keep those whose
//     records contain an address inside the published cloud ranges;
//  4. re-resolve the cloud-using subdomains from every vantage point
//     to capture geo-dependent records.
//
// Every query goes straight to the authoritative servers with recursion
// off and nothing cached (see dnssrv.Resolver), as the study's dig
// calls did. Under chaos the crawl hardens itself: retries with
// backoff, a per-domain probe budget and a per-vantage circuit breaker.
//
// The pipeline sees only what a real measurer saw: DNS messages and the
// published range lists. Ground truth from the generator is never
// consulted here — tests compare the output against it afterwards.
package dataset

import (
	"fmt"
	"sort"
	"time"

	"cloudscope/internal/chaos"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/parallel"
	"cloudscope/internal/simnet"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/wordlist"
)

// Observation is everything learned about one cloud-using subdomain.
type Observation struct {
	FQDN   string
	Domain string
	// RRs is the deduplicated union of records seen across vantages,
	// in first-seen order: CNAME chains and terminal A records.
	RRs []dnswire.RR
	// IPs is the deduplicated set of terminal A answers.
	IPs []netaddr.IP
}

// HasCNAME reports whether any observed record is a CNAME.
func (o *Observation) HasCNAME() bool {
	for _, rr := range o.RRs {
		if rr.Type == dnswire.TypeCNAME {
			return true
		}
	}
	return false
}

// CNAMETargets returns the distinct CNAME targets observed.
func (o *Observation) CNAMETargets() []string {
	seen := map[string]bool{}
	var out []string
	for _, rr := range o.RRs {
		if rr.Type == dnswire.TypeCNAME && !seen[rr.Target] {
			seen[rr.Target] = true
			out = append(out, rr.Target)
		}
	}
	return out
}

// DirectA reports whether the lookup directly returned A records (no
// CNAME on the first-seen chain) — the paper's VM-front-end test.
func (o *Observation) DirectA() bool {
	return len(o.RRs) > 0 && o.RRs[0].Type == dnswire.TypeA
}

// DomainSummary tracks discovery totals for one ranked domain.
type DomainSummary struct {
	Domain         string
	AXFRWorked     bool
	SubdomainsSeen int // all valid subdomains discovered (cloud or not)
	CloudUsing     int
}

// Stats counts pipeline work.
type Stats struct {
	DomainsScanned  int
	AXFRSuccesses   int
	QueriesIssued   int64
	SubdomainsSeen  int
	CloudSubdomains int
	// SerialProbeTime is the total simulated network time the campaign's
	// queries consumed end-to-end (the paper spread its three-day
	// campaign over 150 PlanetLab nodes; divide accordingly).
	SerialProbeTime time.Duration
}

// Dataset is the pipeline's output.
type Dataset struct {
	Ranges     *ipranges.List
	Domains    map[string]*DomainSummary
	Subdomains map[string]*Observation // cloud-using only
	ByDomain   map[string][]*Observation
	Stats      Stats
}

// CloudDomains returns the domains with at least one cloud-using
// subdomain, sorted.
func (d *Dataset) CloudDomains() []string {
	var out []string
	for name, obs := range d.ByDomain {
		if len(obs) > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Config parameterizes the pipeline.
type Config struct {
	Fabric   *simnet.Fabric
	Registry *dnssrv.Registry
	Ranges   *ipranges.List
	// Domains is the ranked list to scan (names only — ranks are public
	// Alexa metadata handled by the classify package).
	Domains []string
	// Wordlist is the brute-force dictionary; nil means wordlist.Common.
	Wordlist []string
	// Vantages is the number of distributed resolvers for the full
	// re-resolution pass (200 in the paper).
	Vantages int
	// Par bounds, instruments and cancels the concurrent domain scans.
	// The dataset is identical at every worker count and shard size —
	// domains land in rank slots, brute-force resolvers are assigned
	// by domain index, and the simulated clock sums probe time
	// commutatively. Once Par.Ctx is cancelled the scan stops between
	// shards and returns the context error.
	Par parallel.Options
	// Metrics, when set, is shared by every resolver the pipeline
	// creates, aggregating query/rcode accounting across vantages.
	Metrics *dnssrv.ResolverMetrics
	// Chaos, when set, injects campaign-level faults: vantage points go
	// dark for stretches of the scan and their work is skipped and
	// accounted. Wire-level faults (loss, SERVFAIL bursts) arrive
	// through the fabric's interceptor, not here. A set Chaos also
	// hardens the crawl against those faults (see the package doc).
	Chaos *chaos.Engine
	// Completeness, when set, receives per-vantage
	// attempted/succeeded/retried/abandoned accounting under stages
	// "dataset" (re-resolution vantages) and "dataset/brute".
	Completeness *telemetry.Completeness
}

// The crawl's hardening under chaos. A fault-free crawl asks each
// authoritative server once per question with no budget or breaker.
var (
	// chaosBackoff retries a failed question across the delegation's
	// servers, up to six attempts with jittered exponential backoff.
	chaosBackoff = dnssrv.Backoff{MaxAttempts: 6, Base: 100 * time.Millisecond, Max: 2 * time.Second}
	// chaosBudget bounds each domain scan generously, so pathological
	// domains cannot stall the crawl. An exhausted budget abandons the
	// rest of that domain's queries; the dataset stays valid, just
	// partial, and Completeness says by how much.
	chaosBudget = dnssrv.Budget{MaxQueries: 4096, Deadline: 10 * time.Minute}
)

// chaosBreakerTrip is where the per-vantage circuit breaker trips
// within one domain scan: after this many consecutive failed lookups
// the vantage sits out the rest of that scan.
const chaosBreakerTrip = 4

// vantageIP derives the i-th vantage's source address.
func vantageIP(i int) netaddr.IP {
	return netaddr.MustParseIP("193.5.0.0") + netaddr.IP(i*131+7)
}

// vantageLabel names the i-th re-resolution vantage in chaos plans and
// completeness reports.
func vantageLabel(i int) string {
	return fmt.Sprintf("v%03d", i)
}

// normalize fills the Config's defaults; Build calls it exactly once,
// so every default lives here.
func (cfg *Config) normalize() {
	if cfg.Wordlist == nil {
		cfg.Wordlist = wordlist.Common()
	}
	if cfg.Vantages <= 0 {
		cfg.Vantages = 200
	}
}

// bruteNodes is the size of the shared brute-force resolver pool, one
// resolver per PlanetLab node of the paper's campaign.
const bruteNodes = 150

// resolverPool builds n shared discovery resolvers, the i-th sourced
// from vantageIP(i). Resolvers are stateless between queries, so Build
// and StreamBuilder construct their brute-force and re-resolution pools
// once each.
func resolverPool(cfg Config, n int) []*dnssrv.Resolver {
	pool := make([]*dnssrv.Resolver, n)
	for i := range pool {
		pool[i] = dnssrv.NewResolver(cfg.Fabric, cfg.Registry, vantageIP(i))
		pool[i].Metrics = cfg.Metrics
		if cfg.Chaos != nil {
			pool[i].Backoff = chaosBackoff
		}
	}
	return pool
}

// Build runs the full pipeline. It errors only when a scan worker
// panics or cfg.Par.Ctx is cancelled.
func Build(cfg Config) (*Dataset, error) {
	cfg.normalize()
	campaignStart := cfg.Fabric.Clock().Now()

	brute, vantages := resolverPool(cfg, bruteNodes), resolverPool(cfg, cfg.Vantages)

	results, err := scan(cfg, brute, vantages, cfg.Domains, 0, len(cfg.Domains))
	if err != nil {
		return nil, err
	}
	ds := newDataset(cfg.Ranges)
	ds.fold(results)
	ds.Stats.SerialProbeTime = cfg.Fabric.Clock().Now().Sub(campaignStart)
	return ds, nil
}

// newDataset returns an empty dataset over the published ranges.
func newDataset(ranges *ipranges.List) *Dataset {
	return &Dataset{
		Ranges:     ranges,
		Domains:    map[string]*DomainSummary{},
		Subdomains: map[string]*Observation{},
		ByDomain:   map[string][]*Observation{},
	}
}

// fold adds scanned domains to the dataset and its Stats. Build folds
// the whole list once; StreamBuilder folds each chunk into its own
// partial dataset.
func (d *Dataset) fold(results []domainResult) {
	for _, r := range results {
		d.Stats.add(r)
		d.Domains[r.summary.Domain] = r.summary
		for _, o := range r.obs {
			d.Subdomains[o.FQDN] = o
			d.ByDomain[o.Domain] = append(d.ByDomain[o.Domain], o)
		}
	}
}

// domainResult is one domain's scan: its summary, its cloud-using
// observations and the queries the scan issued.
type domainResult struct {
	summary *DomainSummary
	obs     []*Observation
	queries int64
}

// add folds one domain's scan into the campaign totals. The counters
// are sums, so folding chunk by chunk equals one whole-list fold.
func (s *Stats) add(r domainResult) {
	s.DomainsScanned++
	s.QueriesIssued += r.queries
	s.SubdomainsSeen += r.summary.SubdomainsSeen
	if r.summary.AXFRWorked {
		s.AXFRSuccesses++
	}
	s.CloudSubdomains += len(r.obs)
}

// scan runs scanDomain over names, the domains [base, base+len(names))
// of a ranked list of total domains, fanned out over cfg.Par. The
// brute-force resolver assignment and the chaos phase are functions of
// a domain's global index, not of the shard or chunk, so a chunked scan
// matches the whole-list scan byte for byte. It errors only when a
// worker panics or cfg.Par.Ctx is cancelled.
func scan(cfg Config, brute, vantages []*dnssrv.Resolver, names []string, base, total int) ([]domainResult, error) {
	results := make([]domainResult, len(names))
	if err := parallel.RunAt(cfg.Par, base, len(names), func(sh parallel.Shard) error {
		for i := sh.Lo; i < sh.Hi; i++ {
			results[i-base] = scanDomain(cfg, brute[i%len(brute)], vantages, names[i-base], i, total)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return results, nil
}

// scanDomain runs steps 1–4 for one domain. idx/total is the domain's
// position in the ranked list — the campaign-progress phase chaos
// windows are evaluated against. Everything fault-related is a function
// of (domain, vantage, phase), never of scheduling, so scans compose
// identically at any worker count; completeness counts merge through
// the commutative accumulator for the same reason.
func scanDomain(cfg Config, bruteRV *dnssrv.Resolver, vantages []*dnssrv.Resolver, domain string, idx, total int) (r domainResult) {
	r.summary = &DomainSummary{Domain: domain}
	phase := float64(idx) / float64(total)

	// Per-scan probe budget, shared by every step of this domain.
	var budget *dnssrv.Budget
	if cfg.Chaos != nil {
		b := chaosBudget
		budget = &b
	}
	var bstats telemetry.Counts
	bruteRV = bruteRV.ForUnit("dataset/"+domain, budget, &bstats)
	defer func() {
		cfg.Completeness.Merge("dataset/brute", vantageLabel(idx%bruteNodes), bstats)
	}()

	// Step 1: zone transfer.
	var names []string
	if rrs, err := bruteRV.AXFR(domain); err == nil {
		r.summary.AXFRWorked = true
		r.queries++
		seen := map[string]bool{}
		for _, rr := range rrs {
			n := dnswire.CanonicalName(rr.Name)
			if n != domain && !seen[n] && rr.Type != dnswire.TypeNS {
				seen[n] = true
				names = append(names, n)
			}
		}
	} else {
		r.queries++
		// Step 2: wordlist brute force.
		for _, w := range cfg.Wordlist {
			fqdn := w + "." + domain
			r.queries++
			if _, err := bruteRV.Query(fqdn, dnswire.TypeA); err == nil {
				names = append(names, fqdn)
			}
		}
	}
	r.summary.SubdomainsSeen = len(names)

	// Step 3: single lookup; keep cloud-using names.
	var cloudNames []string
	for _, fqdn := range names {
		chain, err := bruteRV.LookupA(fqdn)
		r.queries++
		if err != nil {
			continue
		}
		if containsCloudIP(cfg.Ranges, chain) {
			cloudNames = append(cloudNames, fqdn)
		}
	}

	// Step 4: distributed re-resolution of cloud-using subdomains.
	// Name-outer, vantage-inner preserves the legacy first-seen record
	// order. Per-vantage unit clones carry the scan's budget plus their
	// own completeness counts; a vantage that is chaos-dark or has
	// tripped its circuit breaker sits the lookup out, and the
	// observation is built from whoever answered.
	vrvs := make([]*dnssrv.Resolver, len(vantages))
	vstats := make([]telemetry.Counts, len(vantages))
	fails := make([]int, len(vantages))
	for _, fqdn := range cloudNames {
		o := &Observation{FQDN: fqdn, Domain: domain}
		seenRR := map[string]bool{}
		seenIP := map[netaddr.IP]bool{}
		for vi, rv := range vantages {
			if cfg.Chaos.VantageOut(vantageLabel(vi), phase) || (cfg.Chaos != nil && fails[vi] >= chaosBreakerTrip) {
				vstats[vi].Attempted++
				vstats[vi].Abandoned++
				continue
			}
			if vrvs[vi] == nil {
				vrvs[vi] = rv.ForUnit(domain+"|"+vantageLabel(vi), budget, &vstats[vi])
			}
			chain, err := vrvs[vi].LookupA(fqdn)
			r.queries++
			if err != nil {
				fails[vi]++
				continue
			}
			fails[vi] = 0
			for _, rr := range chain {
				k := rr.String()
				if !seenRR[k] {
					seenRR[k] = true
					o.RRs = append(o.RRs, rr)
				}
				if rr.Type == dnswire.TypeA && !seenIP[rr.IP] {
					seenIP[rr.IP] = true
					o.IPs = append(o.IPs, rr.IP)
				}
			}
		}
		if len(o.RRs) > 0 {
			r.obs = append(r.obs, o)
			r.summary.CloudUsing++
		}
	}
	for vi := range vstats {
		cfg.Completeness.Merge("dataset", vantageLabel(vi), vstats[vi])
	}
	return r
}

func containsCloudIP(ranges *ipranges.List, chain []dnswire.RR) bool {
	for _, rr := range chain {
		if rr.Type == dnswire.TypeA && ranges.Contains(rr.IP, "") {
			return true
		}
	}
	return false
}

// ProviderOf classifies an observation's providers from its terminal
// IPs: EC2 (CloudFront counts as EC2-affiliated), Azure, and other.
func (o *Observation) ProviderOf(ranges *ipranges.List) (usesEC2, usesAzure, usesOther bool) {
	for _, ip := range o.IPs {
		e, ok := ranges.Lookup(ip)
		switch {
		case !ok:
			usesOther = true
		case e.Provider == ipranges.EC2 || e.Provider == ipranges.CloudFront:
			usesEC2 = true
		case e.Provider == ipranges.Azure:
			usesAzure = true
		}
	}
	return
}
