// Package regions implements §4.2: mapping cloud-using subdomains to
// provider regions via the published per-region address ranges, the
// single-region-dominance analysis (Figure 6, Tables 9 and 10), and the
// customer-country mismatch study.
//
// Only addresses belonging to VM, PaaS, ELB and TM front ends carry
// region information; CloudFront edges do not (the paper excluded
// them), so the analysis runs over the pattern-detection output.
package regions

import (
	"sort"

	"cloudscope/internal/core/dataset"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/geo"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
	"cloudscope/internal/stats"
)

// SubdomainRegions is one subdomain's observed region set.
type SubdomainRegions struct {
	FQDN    string
	Domain  string
	Cloud   ipranges.Provider
	Regions []string // sorted
}

// Analysis is the region-usage result.
type Analysis struct {
	Subdomains []SubdomainRegions
	// PerRegion counts (Table 9): subdomains and domains touching each
	// region.
	RegionSubs map[string]int
	RegionDoms map[string]int
}

// AnalyzePar maps every classified subdomain to its regions, fanned
// out over a worker pool. The per-subdomain region lookup is pure, so
// it shards over sorted FQDNs; the per-region and per-domain tallies
// run sequentially over the ordered results, so the output is
// independent of worker count. It errors only when a worker panics or
// opt.Ctx is cancelled.
func AnalyzePar(ds *dataset.Dataset, det *patterns.Result, opt parallel.Options) (*Analysis, error) {
	fqdns := make([]string, 0, len(det.Classes))
	for fqdn := range det.Classes {
		fqdns = append(fqdns, fqdn)
	}
	sort.Strings(fqdns)
	mapped, err := parallel.Map(opt, fqdns, func(_ int, fqdn string) (*SubdomainRegions, error) {
		c := det.Classes[fqdn]
		if c.Primary == patterns.FeatureCloudFront {
			return nil, nil // no region signal
		}
		o := ds.Subdomains[fqdn]
		if o == nil {
			return nil, nil
		}
		regionSet := map[string]bool{}
		for _, ip := range o.IPs {
			e, ok := ds.Ranges.Lookup(ip)
			if !ok || e.Provider == ipranges.CloudFront {
				continue
			}
			regionSet[e.Region] = true
		}
		if len(regionSet) == 0 {
			return nil, nil
		}
		sr := &SubdomainRegions{FQDN: fqdn, Domain: o.Domain, Cloud: c.Provider}
		for r := range regionSet {
			sr.Regions = append(sr.Regions, r)
		}
		sort.Strings(sr.Regions)
		return sr, nil
	})
	if err != nil {
		return nil, err
	}

	a := &Analysis{RegionSubs: map[string]int{}, RegionDoms: map[string]int{}}
	domRegions := map[string]map[string]bool{}
	for _, sr := range mapped {
		if sr == nil {
			continue
		}
		a.Subdomains = append(a.Subdomains, *sr)
		if domRegions[sr.Domain] == nil {
			domRegions[sr.Domain] = map[string]bool{}
		}
		for _, r := range sr.Regions {
			a.RegionSubs[r]++
			domRegions[sr.Domain][r] = true
		}
	}
	for _, regs := range domRegions {
		for r := range regs {
			a.RegionDoms[r]++
		}
	}
	return a, nil
}

// RegionCountCDF returns Figure 6a's input for one provider: the number
// of regions per subdomain.
func (a *Analysis) RegionCountCDF(cloud ipranges.Provider) []float64 {
	var out []float64
	for _, sr := range a.Subdomains {
		if sr.Cloud == cloud {
			out = append(out, float64(len(sr.Regions)))
		}
	}
	return out
}

// DomainAvgRegionCDF returns Figure 6b's input: the mean number of
// regions across each domain's subdomains.
func (a *Analysis) DomainAvgRegionCDF(cloud ipranges.Provider) []float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for _, sr := range a.Subdomains {
		if sr.Cloud != cloud {
			continue
		}
		sums[sr.Domain] += float64(len(sr.Regions))
		counts[sr.Domain]++
	}
	var out []float64
	for d, s := range sums {
		out = append(out, s/float64(counts[d]))
	}
	return out
}

// SingleRegionShare returns the fraction of one provider's subdomains
// confined to a single region.
func (a *Analysis) SingleRegionShare(cloud ipranges.Provider) float64 {
	single, total := 0, 0
	for _, sr := range a.Subdomains {
		if sr.Cloud != cloud {
			continue
		}
		total++
		if len(sr.Regions) == 1 {
			single++
		}
	}
	return stats.Frac(float64(single), float64(total))
}

// Table9 renders per-region usage.
func (a *Analysis) Table9() *stats.Table {
	t := &stats.Table{
		Title:  "Table 9: EC2 and Azure region usage",
		Header: []string{"Region", "Location", "# Dom", "# Subdom"},
	}
	order := append(append([]string(nil), ipranges.EC2Regions...), ipranges.AzureRegions...)
	for _, r := range order {
		t.AddRow(r, geo.RegionLocation(r).Name, a.RegionDoms[r], a.RegionSubs[r])
	}
	return t
}

// TopDomainRow is a Table 10 row.
type TopDomainRow struct {
	Rank         int
	Domain       string
	CloudSubs    int
	TotalRegions int
	K1, K2       int // subdomains using exactly 1 / 2 regions
}

// TopDomains builds Table 10 for the n highest-ranked cloud domains.
func TopDomains(a *Analysis, ranker interface{ RankOf(string) int }, n int) []TopDomainRow {
	perDomain := map[string]*TopDomainRow{}
	domRegions := map[string]map[string]bool{}
	for _, sr := range a.Subdomains {
		row := perDomain[sr.Domain]
		if row == nil {
			row = &TopDomainRow{Domain: sr.Domain, Rank: ranker.RankOf(sr.Domain)}
			perDomain[sr.Domain] = row
			domRegions[sr.Domain] = map[string]bool{}
		}
		row.CloudSubs++
		switch len(sr.Regions) {
		case 1:
			row.K1++
		case 2:
			row.K2++
		}
		for _, r := range sr.Regions {
			domRegions[sr.Domain][r] = true
		}
	}
	var rows []TopDomainRow
	for d, row := range perDomain {
		if row.Rank == 0 {
			continue
		}
		row.TotalRegions = len(domRegions[d])
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Rank < rows[j].Rank })
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// CustomerCountryResult is the §4.2 deployment-vs-customer analysis.
type CustomerCountryResult struct {
	Identified        int // subdomains whose customer country was known
	CountryMismatch   int // hosted outside the customer country
	ContinentMismatch int // hosted outside the customer continent
}

// CountryService answers customer-country queries (the Alexa Web
// Information Service stand-in).
type CountryService interface {
	CustomerCountry(domain string) (string, bool)
}

// CustomerCountry compares each subdomain's hosting region(s) with its
// domain's customer country.
func CustomerCountry(a *Analysis, svc CountryService) CustomerCountryResult {
	var res CustomerCountryResult
	for _, sr := range a.Subdomains {
		cc, ok := svc.CustomerCountry(sr.Domain)
		if !ok || len(sr.Regions) == 0 {
			continue
		}
		res.Identified++
		countryMatch, continentMatch := false, false
		wantCont := geo.CountryContinent[cc]
		for _, r := range sr.Regions {
			loc := geo.RegionLocation(r)
			if loc.Country == cc {
				countryMatch = true
			}
			if loc.Continent == wantCont && wantCont != "" {
				continentMatch = true
			}
		}
		if !countryMatch {
			res.CountryMismatch++
		}
		if !continentMatch {
			res.ContinentMismatch++
		}
	}
	return res
}
