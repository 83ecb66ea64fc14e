// Package api defines cloudscope's versioned wire format: the V1 DTO
// types every external surface emits — the cloudscoped daemon's
// /v1/* endpoints and cmd/experiments -json both serialize these
// structs, so the wire schema lives in exactly one place and is
// golden-pinned by this package's tests.
//
// Every builder takes a context and the Study it answers from; stage
// compute aborts via the Study's *Context accessors when the request
// is cancelled. All slices are deterministically ordered and no DTO
// contains a map, so same-seed studies marshal byte-identically.
package api

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cloudscope"
	"cloudscope/internal/core/classify"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/core/wanperf"
	"cloudscope/internal/core/zones"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/wan"
)

// Version is the wire-format version tag carried by every Envelope.
const Version = "v1"

// Envelope wraps every response: which endpoint answered, from which
// world epoch and config, and — when the study ran under chaos — how
// complete the answer is. Data holds the endpoint's V1 payload.
type Envelope struct {
	APIVersion string `json:"api_version"`
	Endpoint   string `json:"endpoint"`
	// Epoch identifies the world generation the answer came from; the
	// daemon bumps it on /admin/reload. Library callers (experiments
	// -json) report epoch 0.
	Epoch    int64  `json:"epoch"`
	Seed     int64  `json:"seed"`
	Domains  int    `json:"domains"`
	Workers  int    `json:"workers,omitempty"`
	Scenario string `json:"scenario,omitempty"`
	// Degraded is true when any relevant stage abandoned probes; the
	// Completeness fractions then say how much survived.
	Degraded     bool      `json:"degraded"`
	Completeness []StageV1 `json:"completeness,omitempty"`
	Data         any       `json:"data"`
}

// StageV1 is one pipeline stage's probe accounting.
type StageV1 struct {
	Stage       string  `json:"stage"`
	Attempted   int64   `json:"attempted"`
	Succeeded   int64   `json:"succeeded"`
	Retried     int64   `json:"retried"`
	Abandoned   int64   `json:"abandoned"`
	SuccessRate float64 `json:"success_rate"`
}

// PatternsV1 answers /v1/patterns: Table 7's feature usage plus
// Table 3's provider breakdown.
type PatternsV1 struct {
	Features          []FeatureV1  `json:"features"`
	EC2Subdomains     int          `json:"ec2_subdomains"`
	AzureSubdomains   int          `json:"azure_subdomains"`
	SharedELBPhysical int          `json:"shared_elb_physical"`
	SharedELBBy10Plus int          `json:"shared_elb_by_10_plus"`
	Breakdown         *BreakdownV1 `json:"breakdown"`
}

// FeatureV1 is one Table 7 row.
type FeatureV1 struct {
	Cloud      string `json:"cloud"`
	Feature    string `json:"feature"`
	Domains    int    `json:"domains"`
	Subdomains int    `json:"subdomains"`
	Instances  int    `json:"instances"`
	// SubdomainShare is the feature's fraction of its cloud's subdomains.
	SubdomainShare float64 `json:"subdomain_share"`
}

// BreakdownV1 is Table 3: how domains and subdomains split across
// providers.
type BreakdownV1 struct {
	Categories      []CategoryV1 `json:"categories"`
	TotalDomains    int          `json:"total_domains"`
	TotalSubdomains int          `json:"total_subdomains"`
	EC2Domains      int          `json:"ec2_domains"`
	AzureDomains    int          `json:"azure_domains"`
	EC2Subdomains   int          `json:"ec2_subdomains"`
	AzureSubdomains int          `json:"azure_subdomains"`
}

// CategoryV1 is one Table 3 row.
type CategoryV1 struct {
	Category   string `json:"category"`
	Domains    int    `json:"domains"`
	Subdomains int    `json:"subdomains"`
}

// RegionsV1 answers /v1/regions: Table 9's per-region usage.
type RegionsV1 struct {
	Regions []RegionV1 `json:"regions"`
	// SingleRegionShare is the fraction of each provider's subdomains
	// confined to one region (the paper's ~97%).
	SingleRegionShareEC2   float64 `json:"single_region_share_ec2"`
	SingleRegionShareAzure float64 `json:"single_region_share_azure"`
}

// RegionV1 is one region's usage counts.
type RegionV1 struct {
	Region     string `json:"region"`
	Domains    int    `json:"domains"`
	Subdomains int    `json:"subdomains"`
}

// ZonesV1 answers /v1/zones: §4.3's availability-zone cartography.
type ZonesV1 struct {
	// Coverage is the fraction of targeted EC2 instances whose zone was
	// identified.
	Coverage float64  `json:"coverage"`
	Zones    []ZoneV1 `json:"zones"`
	// MultiRegionZoneShare: among subdomains on 2+ zones, the fraction
	// spanning regions (the paper's 3.1%).
	MultiRegionZoneShare float64 `json:"multi_region_zone_share"`
}

// ZoneV1 is one zone's usage counts; Zone is "ec2.us-east-1a" style.
type ZoneV1 struct {
	Zone       string `json:"zone"`
	Domains    int    `json:"domains"`
	Subdomains int    `json:"subdomains"`
}

// DomainV1 answers /v1/domain?name=: everything the study knows about
// one ranked domain.
type DomainV1 struct {
	Domain string `json:"domain"`
	// Rank is the domain's position in the ranked list (0 = unranked).
	Rank  int  `json:"rank"`
	Found bool `json:"found"`
	// Discovery summary (zero-valued when the domain used no cloud).
	AXFRWorked     bool          `json:"axfr_worked"`
	SubdomainsSeen int           `json:"subdomains_seen"`
	CloudUsing     int           `json:"cloud_using"`
	Subdomains     []DomainSubV1 `json:"subdomains,omitempty"`
	// LatencyEstimates are per-region mean RTTs from the WAN campaign's
	// vantages, restricted to the EC2 regions this domain deploys in.
	LatencyEstimates []LatencyV1 `json:"latency_estimates,omitempty"`
}

// DomainSubV1 is one cloud-using subdomain's identification.
type DomainSubV1 struct {
	FQDN     string   `json:"fqdn"`
	Provider string   `json:"provider,omitempty"`
	Feature  string   `json:"feature"`
	IPs      int      `json:"ips"`
	Regions  []string `json:"regions,omitempty"`
	Zones    []string `json:"zones,omitempty"`
}

// LatencyV1 is one region's mean RTT estimate across WAN vantages.
type LatencyV1 struct {
	Region    string  `json:"region"`
	MeanRTTMs float64 `json:"mean_rtt_ms"`
	Clients   int     `json:"clients"`
}

// WANPerfV1 answers /v1/wanperf: §5's client×region performance
// matrices (US regions, first 15 clients — the paper's figures) and
// the optimal-k region subsets.
type WANPerfV1 struct {
	LatencyMatrix    []MatrixCellV1 `json:"latency_matrix"`
	ThroughputMatrix []MatrixCellV1 `json:"throughput_matrix"`
	OptimalK         []OptimalKV1   `json:"optimal_k"`
}

// MatrixCellV1 is one (client, region) mean.
type MatrixCellV1 struct {
	Client  string  `json:"client"`
	Region  string  `json:"region"`
	Mean    float64 `json:"mean"`
	Samples int     `json:"samples"`
}

// OptimalKV1 is one k's best region subset.
type OptimalKV1 struct {
	K       int      `json:"k"`
	Regions []string `json:"regions"`
	Value   float64  `json:"value"`
}

// OutageV1 answers /v1/outage: the §4.2/§4.3 what-if blast radii.
// With a region parameter, Headline carries that region's summary.
type OutageV1 struct {
	Regions  []RegionOutageV1 `json:"regions"`
	Zones    []ZoneOutageV1   `json:"zones"`
	Headline *HeadlineV1      `json:"headline,omitempty"`
}

// RegionOutageV1 is one region's blast radius.
type RegionOutageV1 struct {
	Region             string `json:"region"`
	SubdomainsDown     int    `json:"subdomains_down"`
	SubdomainsDegraded int    `json:"subdomains_degraded"`
	DomainsHit         int    `json:"domains_hit"`
}

// ZoneOutageV1 is one zone's blast radius.
type ZoneOutageV1 struct {
	Zone               string `json:"zone"`
	SubdomainsDown     int    `json:"subdomains_down"`
	SubdomainsDegraded int    `json:"subdomains_degraded"`
	DomainsDown        int    `json:"domains_down"`
}

// HeadlineV1 is one region's outage summary (the paper's "2.3% of the
// top million" numbers) plus its zone-usage skew.
type HeadlineV1 struct {
	Region     string  `json:"region"`
	ListShare  float64 `json:"list_share"`
	CloudShare float64 `json:"cloud_share"`
	SkewRatio  float64 `json:"skew_ratio"`
}

// CompletenessV1 answers /v1/completeness: every stage's accounting.
type CompletenessV1 struct {
	Degraded bool      `json:"degraded"`
	Stages   []StageV1 `json:"stages"`
}

// StudyV1 bundles every section for cmd/experiments -json.
type StudyV1 struct {
	Patterns     *PatternsV1     `json:"patterns"`
	Regions      *RegionsV1      `json:"regions"`
	Zones        *ZonesV1        `json:"zones"`
	WANPerf      *WANPerfV1      `json:"wanperf"`
	Outage       *OutageV1       `json:"outage"`
	Completeness *CompletenessV1 `json:"completeness"`
}

// StagesFor maps an endpoint name to the Completeness stage prefixes
// its answer depends on; nil means every stage. The daemon and
// NewEnvelope use it to attach only the relevant fractions.
func StagesFor(endpoint string) []string {
	switch endpoint {
	case "patterns", "regions":
		return []string{"dataset"}
	case "zones", "domain", "outage":
		return []string{"dataset", "cartography"}
	case "wanperf":
		return []string{"wanperf"}
	}
	return nil
}

// CompletenessStages snapshots the study's completeness, keeping only
// stages under one of the given prefixes (nil keeps all). Stage "x"
// matches prefix "x" and "x/y" matches prefix "x".
func CompletenessStages(s *cloudscope.Study, prefixes []string) []StageV1 {
	var out []StageV1
	for _, sc := range s.Completeness().Snapshot() {
		if !stageMatches(sc.Stage, prefixes) {
			continue
		}
		out = append(out, StageV1{
			Stage:       sc.Stage,
			Attempted:   sc.Attempted,
			Succeeded:   sc.Succeeded,
			Retried:     sc.Retried,
			Abandoned:   sc.Abandoned,
			SuccessRate: sc.SuccessRate(),
		})
	}
	return out
}

func stageMatches(stage string, prefixes []string) bool {
	if prefixes == nil {
		return true
	}
	for _, p := range prefixes {
		if stage == p || strings.HasPrefix(stage, p+"/") {
			return true
		}
	}
	return false
}

// NewEnvelope wraps an endpoint's payload with the study's identity
// and the endpoint-relevant completeness fractions.
func NewEnvelope(endpoint string, epoch int64, s *cloudscope.Study, data any) *Envelope {
	env := &Envelope{
		APIVersion: Version,
		Endpoint:   endpoint,
		Epoch:      epoch,
		Seed:       s.Cfg.Seed,
		Domains:    s.Cfg.Domains,
		Workers:    s.Cfg.Workers,
		Data:       data,
	}
	if s.Cfg.Chaos != nil {
		env.Scenario = s.Cfg.Chaos.Name
	}
	if c := s.Completeness(); c != nil && c.Degraded() {
		env.Degraded = true
	}
	env.Completeness = CompletenessStages(s, StagesFor(endpoint))
	return env
}

// Patterns builds the /v1/patterns payload.
func Patterns(ctx context.Context, s *cloudscope.Study) (*PatternsV1, error) {
	det, err := s.DetectionContext(ctx)
	if err != nil {
		return nil, err
	}
	bd, err := s.BreakdownContext(ctx)
	if err != nil {
		return nil, err
	}
	out := &PatternsV1{
		EC2Subdomains:   det.EC2Subs,
		AzureSubdomains: det.AzureSubs,
	}
	out.SharedELBPhysical, out.SharedELBBy10Plus = det.SharedELBStats()
	row := func(cloud string, f patterns.Feature, denom int) {
		var share float64
		if denom > 0 {
			share = float64(det.SubCounts[f]) / float64(denom)
		}
		out.Features = append(out.Features, FeatureV1{
			Cloud:          cloud,
			Feature:        string(f),
			Domains:        det.DomCounts[f],
			Subdomains:     det.SubCounts[f],
			Instances:      det.InstCounts[f],
			SubdomainShare: share,
		})
	}
	for _, f := range []patterns.Feature{
		patterns.FeatureVM, patterns.FeatureELB, patterns.FeatureBeanstalk,
		patterns.FeatureHerokuELB, patterns.FeatureHeroku,
		patterns.FeatureCloudFront, patterns.FeatureUnknownCNAME,
	} {
		row("EC2", f, det.EC2Subs)
	}
	for _, f := range []patterns.Feature{patterns.FeatureCS, patterns.FeatureTM, patterns.FeatureAzureCDN} {
		row("Azure", f, det.AzureSubs)
	}
	bv := &BreakdownV1{
		TotalDomains:    bd.TotalDomains,
		TotalSubdomains: bd.TotalSubdomains,
		EC2Domains:      bd.EC2Domains,
		AzureDomains:    bd.AzureDomains,
		EC2Subdomains:   bd.EC2Subdomains,
		AzureSubdomains: bd.AzureSubdomains,
	}
	for c := 0; c < len(bd.Domains); c++ {
		bv.Categories = append(bv.Categories, CategoryV1{
			Category:   classify.Category(c).String(),
			Domains:    bd.Domains[c],
			Subdomains: bd.Subdomains[c],
		})
	}
	out.Breakdown = bv
	return out, nil
}

// Regions builds the /v1/regions payload.
func Regions(ctx context.Context, s *cloudscope.Study) (*RegionsV1, error) {
	reg, err := s.RegionsContext(ctx)
	if err != nil {
		return nil, err
	}
	out := &RegionsV1{
		SingleRegionShareEC2:   reg.SingleRegionShare(ipranges.EC2),
		SingleRegionShareAzure: reg.SingleRegionShare(ipranges.Azure),
	}
	for _, r := range append(append([]string{}, ipranges.EC2Regions...), ipranges.AzureRegions...) {
		if reg.RegionSubs[r] == 0 && reg.RegionDoms[r] == 0 {
			continue
		}
		out.Regions = append(out.Regions, RegionV1{
			Region:     r,
			Domains:    reg.RegionDoms[r],
			Subdomains: reg.RegionSubs[r],
		})
	}
	return out, nil
}

// zoneLabel renders a ZoneKey as "ec2.us-east-1a".
func zoneLabel(k zones.ZoneKey) string {
	return fmt.Sprintf("%s%c", k.Region, 'a'+k.Zone)
}

// Zones builds the /v1/zones payload.
func Zones(ctx context.Context, s *cloudscope.Study) (*ZonesV1, error) {
	z, err := s.ZonesContext(ctx)
	if err != nil {
		return nil, err
	}
	out := &ZonesV1{
		Coverage:             z.Combined.Coverage(),
		MultiRegionZoneShare: z.MultiRegionZoneShare(),
	}
	subCounts, domCounts := z.ZoneUsage()
	keys := make([]zones.ZoneKey, 0, len(subCounts))
	for k := range subCounts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Region != keys[j].Region {
			return keys[i].Region < keys[j].Region
		}
		return keys[i].Zone < keys[j].Zone
	})
	for _, k := range keys {
		out.Zones = append(out.Zones, ZoneV1{
			Zone:       zoneLabel(k),
			Domains:    domCounts[k],
			Subdomains: subCounts[k],
		})
	}
	return out, nil
}

// Domain builds the /v1/domain payload for one ranked domain.
func Domain(ctx context.Context, s *cloudscope.Study, name string) (*DomainV1, error) {
	ds, err := s.DatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	out := &DomainV1{Domain: name, Rank: s.RankOf(name)}
	obs := ds.ByDomain[name]
	if sum := ds.Domains[name]; sum != nil {
		out.Found = true
		out.AXFRWorked = sum.AXFRWorked
		out.SubdomainsSeen = sum.SubdomainsSeen
		out.CloudUsing = sum.CloudUsing
	}
	if out.Rank > 0 {
		out.Found = true
	}
	if len(obs) == 0 {
		return out, nil
	}

	det, err := s.DetectionContext(ctx)
	if err != nil {
		return nil, err
	}
	reg, err := s.RegionsContext(ctx)
	if err != nil {
		return nil, err
	}
	z, err := s.ZonesContext(ctx)
	if err != nil {
		return nil, err
	}
	subRegions := map[string][]string{}
	for _, sr := range reg.Subdomains {
		if sr.Domain == name {
			subRegions[sr.FQDN] = sr.Regions
		}
	}

	fqdns := make([]string, 0, len(obs))
	for _, o := range obs {
		fqdns = append(fqdns, o.FQDN)
	}
	sort.Strings(fqdns)
	ec2Regions := map[string]bool{}
	for _, fqdn := range fqdns {
		sub := DomainSubV1{FQDN: fqdn}
		if c := det.Classes[fqdn]; c != nil {
			sub.Provider = string(c.Provider)
			sub.Feature = string(c.Primary)
		}
		if o := ds.Subdomains[fqdn]; o != nil {
			sub.IPs = len(o.IPs)
		}
		sub.Regions = subRegions[fqdn]
		for _, r := range sub.Regions {
			if strings.HasPrefix(r, "ec2.") {
				ec2Regions[r] = true
			}
		}
		for _, k := range z.SubZones[fqdn] {
			sub.Zones = append(sub.Zones, zoneLabel(k))
		}
		sort.Strings(sub.Zones)
		out.Subdomains = append(out.Subdomains, sub)
	}

	// Latency estimates: mean RTT per deployed EC2 region across the
	// campaign's first 15 vantages (the paper's figure subset).
	if len(ec2Regions) > 0 {
		camp, err := s.CampaignContext(ctx)
		if err != nil {
			return nil, err
		}
		var regionList []string
		for _, r := range ipranges.EC2Regions { // stable paper order
			if ec2Regions[r] {
				regionList = append(regionList, r)
			}
		}
		cells, err := camp.Matrix(wan.MetricLatency, regionList, 15)
		if err != nil {
			return nil, err
		}
		sum := map[string]float64{}
		n := map[string]int{}
		for _, c := range cells {
			sum[c.Region] += c.Mean
			n[c.Region]++
		}
		for _, r := range regionList {
			if n[r] == 0 {
				continue
			}
			out.LatencyEstimates = append(out.LatencyEstimates, LatencyV1{
				Region:    r,
				MeanRTTMs: sum[r] / float64(n[r]),
				Clients:   n[r],
			})
		}
	}
	return out, nil
}

// WANPerf builds the /v1/wanperf payload.
func WANPerf(ctx context.Context, s *cloudscope.Study) (*WANPerfV1, error) {
	camp, err := s.CampaignContext(ctx)
	if err != nil {
		return nil, err
	}
	lat, err := camp.Matrix(wan.MetricLatency, wanperf.USRegions, 15)
	if err != nil {
		return nil, err
	}
	thr, err := camp.Matrix(wan.MetricThroughput, wanperf.USRegions, 15)
	if err != nil {
		return nil, err
	}
	best, err := camp.OptimalK(wan.MetricLatency, 3)
	if err != nil {
		return nil, err
	}
	out := &WANPerfV1{LatencyMatrix: toCells(lat), ThroughputMatrix: toCells(thr)}
	for _, r := range best {
		out.OptimalK = append(out.OptimalK, OptimalKV1{K: r.K, Regions: r.Regions, Value: r.Value})
	}
	return out, nil
}

func toCells(cells []wanperf.MatrixCell) []MatrixCellV1 {
	out := make([]MatrixCellV1, 0, len(cells))
	for _, c := range cells {
		out = append(out, MatrixCellV1{Client: c.Client, Region: c.Region, Mean: c.Mean, Samples: c.Samples})
	}
	return out
}

// Outage builds the /v1/outage payload; region "" skips the headline.
func Outage(ctx context.Context, s *cloudscope.Study, region string) (*OutageV1, error) {
	reg, err := s.RegionsContext(ctx)
	if err != nil {
		return nil, err
	}
	z, err := s.ZonesContext(ctx)
	if err != nil {
		return nil, err
	}
	ds, err := s.DatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	out := &OutageV1{}
	for _, imp := range reg.RegionOutages() {
		out.Regions = append(out.Regions, RegionOutageV1{
			Region:             imp.Region,
			SubdomainsDown:     imp.SubdomainsDown,
			SubdomainsDegraded: imp.SubdomainsDegraded,
			DomainsHit:         imp.DomainsHit,
		})
	}
	for _, imp := range z.ZoneOutages() {
		out.Zones = append(out.Zones, ZoneOutageV1{
			Zone:               zoneLabel(imp.Zone),
			SubdomainsDown:     imp.SubdomainsDown,
			SubdomainsDegraded: imp.SubdomainsDegraded,
			DomainsDown:        imp.DomainsDown,
		})
	}
	if region != "" {
		listShare, cloudShare := reg.HeadlineImpact(region, s.Cfg.Domains, len(ds.CloudDomains()))
		out.Headline = &HeadlineV1{
			Region:     region,
			ListShare:  listShare,
			CloudShare: cloudShare,
			SkewRatio:  z.SkewRatio(region),
		}
	}
	return out, nil
}

// CompletenessReport builds the /v1/completeness payload: every
// stage's fractions, unfiltered.
func CompletenessReport(s *cloudscope.Study) *CompletenessV1 {
	return &CompletenessV1{
		Degraded: s.Completeness().Degraded(),
		Stages:   CompletenessStages(s, nil),
	}
}

// Study builds every section at once — cmd/experiments -json emits
// this, so batch and served output share one schema.
func Study(ctx context.Context, s *cloudscope.Study) (*StudyV1, error) {
	pat, err := Patterns(ctx, s)
	if err != nil {
		return nil, err
	}
	reg, err := Regions(ctx, s)
	if err != nil {
		return nil, err
	}
	z, err := Zones(ctx, s)
	if err != nil {
		return nil, err
	}
	wp, err := WANPerf(ctx, s)
	if err != nil {
		return nil, err
	}
	og, err := Outage(ctx, s, "ec2.us-east-1")
	if err != nil {
		return nil, err
	}
	return &StudyV1{
		Patterns:     pat,
		Regions:      reg,
		Zones:        z,
		WANPerf:      wp,
		Outage:       og,
		Completeness: CompletenessReport(s),
	}, nil
}
