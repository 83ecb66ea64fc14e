// Package zones implements §4.3: estimating which EC2 availability
// zones the dataset's physical instances occupy, using the cartography
// package's latency and address-proximity methods, and aggregating zone
// usage per subdomain and domain (Tables 12–15, Figures 7 and 8).
package zones

import (
	"sort"

	"cloudscope/internal/cartography"
	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/core/dataset"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/stats"
)

// Proximity sampling: measurement accounts (the reference included)
// and instances launched per zone per account (the paper had 5,096
// samples across several accounts).
const (
	accounts       = 6
	samplesPerZone = 8
)

// ZoneKey identifies one availability zone (reference label space).
type ZoneKey struct {
	Region string
	Zone   int
}

// Study is the full §4.3 result.
type Study struct {
	Cloud    *cloud.Cloud
	Ref      *cloud.Account
	PM       *cartography.ProximityMap
	Lat      map[string]*cartography.LatencyRegionResult
	Combined *cartography.CombinedResult
	Samples  []cartography.Sample
	// Targets are the dataset's physical EC2 instances.
	Targets []*cloud.Instance
	// SubZones maps each EC2-using subdomain to its identified zones.
	SubZones map[string][]ZoneKey
	// subDomain maps subdomain FQDN → domain.
	subDomain map[string]string
}

// Run executes the study over a dataset's detection results. opt is
// the cartography run context: Par controls the probing fan-out
// (results are identical at every worker count), Chaos injects account
// outages and regional probe faults, and Completeness records the
// resulting coverage. Run errors only when a cartography worker panics
// or opt.Par.Ctx is cancelled.
func Run(ds *dataset.Dataset, det *patterns.Result, ec2 *cloud.Cloud, opt core.Options) (*Study, error) {
	s := &Study{
		Cloud:     ec2,
		SubZones:  map[string][]ZoneKey{},
		subDomain: map[string]string{},
	}
	// Collect target instances: every front-end IP inside EC2's ranges
	// (VMs, physical ELBs, PaaS nodes). CloudFront edges carry no zone.
	subIPs := map[string][]netaddr.IP{}
	seen := map[netaddr.IP]bool{}
	for fqdn, c := range det.Classes {
		if c.Provider != ipranges.EC2 || c.Primary == patterns.FeatureCloudFront {
			continue
		}
		o := ds.Subdomains[fqdn]
		if o == nil {
			continue
		}
		s.subDomain[fqdn] = o.Domain
		for _, ip := range c.FrontIPs {
			if e, ok := ds.Ranges.Lookup(ip); !ok || e.Provider != ipranges.EC2 {
				continue
			}
			subIPs[fqdn] = append(subIPs[fqdn], ip)
			if !seen[ip] {
				seen[ip] = true
				if inst, ok := ec2.InstanceAt(ip); ok {
					s.Targets = append(s.Targets, inst)
				}
			}
		}
	}
	sort.Slice(s.Targets, func(i, j int) bool { return s.Targets[i].PublicIP < s.Targets[j].PublicIP })

	// Cartography.
	s.Ref = ec2.NewAccount("zones-reference")
	var err error
	if s.Samples, err = cartography.SampleAccounts(ec2, s.Ref, accounts-1, samplesPerZone, opt); err != nil {
		return nil, err
	}
	if s.PM, err = cartography.MergeAccounts(s.Samples, s.Ref.Name, opt); err != nil {
		return nil, err
	}
	if s.Lat, err = cartography.IdentifyByLatency(ec2, s.Ref, s.Targets, cartography.ThresholdMs, opt); err != nil {
		return nil, err
	}
	s.Combined = cartography.IdentifyCombined(s.Targets, s.PM, s.Lat)

	// Subdomain zone sets from combined identifications.
	for fqdn, ips := range subIPs {
		zset := map[ZoneKey]bool{}
		for _, ip := range ips {
			id, ok := s.Combined.ByIP[ip]
			if !ok || id.Zone < 0 {
				continue
			}
			zset[ZoneKey{Region: id.Target.Region, Zone: id.Zone}] = true
		}
		if len(zset) == 0 {
			continue
		}
		keys := make([]ZoneKey, 0, len(zset))
		for k := range zset {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Region != keys[j].Region {
				return keys[i].Region < keys[j].Region
			}
			return keys[i].Zone < keys[j].Zone
		})
		s.SubZones[fqdn] = keys
	}
	return s, nil
}

// Table12Row summarizes latency identification for one region.
type Table12Row struct {
	Region     string
	Targets    int
	Responding int
	ZoneCounts map[int]int
	UnknownPct float64
}

// Table12 builds the latency-method summary rows.
func (s *Study) Table12() []Table12Row {
	var rows []Table12Row
	regions := make([]string, 0, len(s.Lat))
	for r := range s.Lat {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	for _, region := range regions {
		rr := s.Lat[region]
		rows = append(rows, Table12Row{
			Region:     region,
			Targets:    rr.Targets,
			Responding: rr.Responding,
			ZoneCounts: rr.ZoneCounts,
			UnknownPct: 100 * rr.UnknownRate(),
		})
	}
	return rows
}

// Table13 returns the veracity rows.
func (s *Study) Table13() []cartography.VeracityRow {
	return cartography.Veracity(s.Targets, s.PM, s.Lat)
}

// ZoneUsage counts domains and subdomains using each zone (Table 14).
func (s *Study) ZoneUsage() (subCounts map[ZoneKey]int, domCounts map[ZoneKey]int) {
	subCounts = map[ZoneKey]int{}
	domCounts = map[ZoneKey]int{}
	domZones := map[string]map[ZoneKey]bool{}
	for fqdn, zones := range s.SubZones {
		domain := s.subDomain[fqdn]
		for _, z := range zones {
			subCounts[z]++
			if domZones[domain] == nil {
				domZones[domain] = map[ZoneKey]bool{}
			}
			domZones[domain][z] = true
		}
	}
	for _, zones := range domZones {
		for z := range zones {
			domCounts[z]++
		}
	}
	return subCounts, domCounts
}

// ZonesPerSubdomain returns Figure 8a's input.
func (s *Study) ZonesPerSubdomain() []float64 {
	var out []float64
	for _, zones := range s.SubZones {
		out = append(out, float64(len(zones)))
	}
	return out
}

// AvgZonesPerDomain returns Figure 8b's input.
func (s *Study) AvgZonesPerDomain() []float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for fqdn, zones := range s.SubZones {
		d := s.subDomain[fqdn]
		sums[d] += float64(len(zones))
		counts[d]++
	}
	var out []float64
	for d := range sums {
		out = append(out, sums[d]/float64(counts[d]))
	}
	return out
}

// MultiRegionZoneShare returns, among subdomains using 2+ zones, the
// fraction whose zones span more than one region (3.1% in the paper).
func (s *Study) MultiRegionZoneShare() float64 {
	multi, multiRegion := 0, 0
	for _, zones := range s.SubZones {
		if len(zones) < 2 {
			continue
		}
		multi++
		regions := map[string]bool{}
		for _, z := range zones {
			regions[z.Region] = true
		}
		if len(regions) > 1 {
			multiRegion++
		}
	}
	return stats.Frac(float64(multiRegion), float64(multi))
}

// TopDomainRow is a Table 15 row.
type TopDomainRow struct {
	Rank       int
	Domain     string
	Subs       int
	TotalZones int
	K          [4]int // K[1..3]: subdomains using 1, 2, 3+ zones
}

// TopDomains builds Table 15.
func (s *Study) TopDomains(ranker interface{ RankOf(string) int }, n int) []TopDomainRow {
	rows := map[string]*TopDomainRow{}
	domZones := map[string]map[ZoneKey]bool{}
	for fqdn, zones := range s.SubZones {
		d := s.subDomain[fqdn]
		row := rows[d]
		if row == nil {
			row = &TopDomainRow{Domain: d, Rank: ranker.RankOf(d)}
			rows[d] = row
			domZones[d] = map[ZoneKey]bool{}
		}
		row.Subs++
		k := len(zones)
		if k > 3 {
			k = 3
		}
		row.K[k]++
		for _, z := range zones {
			domZones[d][z] = true
		}
	}
	var out []TopDomainRow
	for d, row := range rows {
		if row.Rank == 0 {
			continue
		}
		row.TotalZones = len(domZones[d])
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Figure7Points returns the sampling scatter: internal address (x),
// low bits (y), zone (series) — the visual proof that /16s segregate
// zones.
func (s *Study) Figure7Points() map[int][]stats.Point {
	series := map[int][]stats.Point{}
	ref := s.Ref
	for _, sample := range s.Samples {
		if sample.Region != "ec2.us-east-1" {
			continue
		}
		// Zone in reference space for consistency across accounts.
		var zone int
		if sample.Account == s.PM.Reference {
			zone = int(sample.Label[0] - 'a')
		} else if perms := s.PM.Permutations[sample.Account]; perms != nil {
			perm := perms[sample.Region]
			li := int(sample.Label[0] - 'a')
			if li < len(perm) {
				zone = perm[li]
			} else {
				continue
			}
		} else {
			continue
		}
		series[zone] = append(series[zone], stats.Point{
			X: float64(sample.InternalIP),
			Y: float64(sample.InternalIP % 64),
		})
	}
	_ = ref
	return series
}
