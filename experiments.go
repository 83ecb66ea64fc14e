package cloudscope

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cloudscope/internal/capture"
	"cloudscope/internal/core/backend"
	"cloudscope/internal/core/classify"
	"cloudscope/internal/core/regions"
	"cloudscope/internal/core/traffic"
	"cloudscope/internal/core/wanperf"
	"cloudscope/internal/core/zones"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/stats"
	"cloudscope/internal/wan"
)

// Experiment regenerates one of the paper's numbered tables or figures.
type Experiment struct {
	// ID matches the paper's numbering: "table1" … "table16",
	// "figure3" … "figure12".
	ID    string
	Title string
	Run   func(s *Study) string
}

// instrumented wraps an experiment body in an "experiment/<id>" span on
// the study's tracer, so any pipeline stage the experiment triggers
// nests under it in the span tree. The span records simulated time as
// well as wall-clock — even when the experiment itself constructs the
// world, the tracer backfills the span's sim start at the clock's
// first non-zero reading — so parallel speedups show up as shrinking
// wall times against an unchanged sim duration.
func instrumented(id string, fn func(*Study) string) func(*Study) string {
	return func(s *Study) string {
		defer s.tel.StartSpan("experiment/" + id).End()
		return fn(s)
	}
}

// Experiments returns every registered experiment in paper order.
func Experiments() []Experiment {
	exps := []Experiment{
		{"table1", "Traffic share per cloud", runTable1},
		{"table2", "Traffic share per protocol", runTable2},
		{"table3", "Domains/subdomains by provider", runTable3},
		{"table4", "Top EC2-using domains by rank", runTable4},
		{"table5", "Top domains by HTTP(S) volume", runTable5},
		{"table6", "HTTP content types", runTable6},
		{"table7", "Cloud feature usage", runTable7},
		{"table8", "Feature usage of top EC2 domains", runTable8},
		{"table9", "Region usage", runTable9},
		{"table10", "Region usage of top domains", runTable10},
		{"table11", "Intra-cloud RTTs by zone and type", runTable11},
		{"table12", "Latency-based zone estimates", runTable12},
		{"table13", "Veracity of latency method", runTable13},
		{"table14", "Zone usage", runTable14},
		{"table15", "Zone usage of top domains", runTable15},
		{"table16", "Downstream ISPs per region/zone", runTable16},
		{"figure3", "Flow count and size CDFs", runFigure3},
		{"figure4", "Feature instances per subdomain CDFs", runFigure4},
		{"figure5", "DNS servers per subdomain CDF", runFigure5},
		{"figure6", "Regions per (sub)domain CDFs", runFigure6},
		{"figure7", "Internal-address/zone scatter", runFigure7},
		{"figure8", "Zones per (sub)domain CDFs", runFigure8},
		{"figure9", "Per-region throughput matrix", runFigure9},
		{"figure10", "Per-region latency matrix", runFigure10},
		{"figure11", "Best region over time (Boulder)", runFigure11},
		{"figure12", "Optimal k-region deployments", runFigure12},
		// Extensions beyond the paper's numbered results: its stated
		// implications (§3.3, §4.2, §4.3) and future work (§2) made
		// quantitative.
		{"ext-compression", "WAN compression savings over HTTP bodies (§3.3)", runExtCompression},
		{"ext-durations", "Flow duration distribution (§3.3)", runExtDurations},
		{"ext-outage", "Region/zone outage blast radius (§4.2/§4.3)", runExtOutage},
		{"ext-backend", "Back-end placement study (§2 future work)", runExtBackend},
	}
	for i := range exps {
		exps[i].Run = instrumented(exps[i].ID, exps[i].Run)
	}
	return exps
}

// RunExperiment executes one experiment by ID.
func (s *Study) RunExperiment(id string) (string, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(s), nil
		}
	}
	return "", fmt.Errorf("cloudscope: unknown experiment %q", id)
}

func runTable1(s *Study) string {
	_, an := s.Capture()
	return traffic.Table1(an).String()
}

func runTable2(s *Study) string {
	_, an := s.Capture()
	return traffic.Table2(an).String()
}

func runTable3(s *Study) string {
	return s.Breakdown().Table3().String()
}

func runTable4(s *Study) string {
	rows := classify.TopEC2Domains(s.Dataset(), s, 10)
	t := &stats.Table{
		Title:  "Table 4: top 10 (by rank) EC2-using domains",
		Header: []string{"Rank", "Domain", "Total # Subdom", "# EC2 Subdom"},
	}
	for _, r := range rows {
		t.AddRow(r.Rank, r.Domain, r.TotalSubs, r.CloudSubs)
	}
	return t.String()
}

func runTable5(s *Study) string {
	_, an := s.Capture()
	return traffic.Table5(an, 15).String()
}

func runTable6(s *Study) string {
	_, an := s.Capture()
	return traffic.Table6(an, 10).String()
}

func runTable7(s *Study) string {
	return s.Detection().Table7().String()
}

func runTable8(s *Study) string {
	det := s.Detection()
	rows := classify.TopEC2Domains(s.Dataset(), s, 10)
	t := &stats.Table{
		Title:  "Table 8: cloud feature usage of top EC2-using domains",
		Header: []string{"Rank", "Domain", "# Cloud Subdom", "VM", "PaaS", "ELB", "ELB IPs", "CDN"},
	}
	for _, r := range rows {
		var vm, paas, elb, elbIPs, cdn int
		for fqdn, c := range det.Classes {
			if !strings.HasSuffix(fqdn, "."+r.Domain) {
				continue
			}
			switch c.Primary {
			case "VM":
				vm++
			case "Heroku (no ELB)":
				paas++
			case "BeanStalk (w/ ELB)", "Heroku (w/ ELB)":
				paas++
				elb++
				elbIPs += len(c.FrontIPs)
			case "ELB":
				elb++
				elbIPs += len(c.FrontIPs)
			case "CloudFront", "Azure CDN":
				cdn++
			}
		}
		t.AddRow(r.Rank, r.Domain, r.CloudSubs, vm, paas, elb, elbIPs, cdn)
	}
	return t.String()
}

func runTable9(s *Study) string {
	return s.Regions().Table9().String()
}

func runTable10(s *Study) string {
	// Table 10 includes Azure-heavy domains, so rank over all clouds.
	rows := regions.TopDomains(s.Regions(), s, 14)
	t := &stats.Table{
		Title:  "Table 10: region usage of top cloud-using domains",
		Header: []string{"Rank", "Domain", "# Cloud Subdom", "Total # Regions", "k=1", "k=2"},
	}
	for _, r := range rows {
		t.AddRow(r.Rank, r.Domain, r.CloudSubs, r.TotalRegions, r.K1, r.K2)
	}
	return t.String()
}

func runTable11(s *Study) string {
	rows := must(wanperf.IntraCloudRTTs(s.World().EC2, "ec2.us-east-1", s.opts(context.Background(), "rtt")))
	t := &stats.Table{
		Title:  "Table 11: RTTs (least / median, ms) from a us-east-1a micro instance",
		Header: []string{"Instance type", "Zone", "Min (ms)", "Median (ms)"},
	}
	for _, r := range rows {
		t.AddRow(r.InstanceType, "us-east-1"+r.DestZone, fmt.Sprintf("%.2f", r.MinMs), fmt.Sprintf("%.2f", r.MedianMs))
	}
	return t.String()
}

func runTable12(s *Study) string {
	rows := s.Zones().Table12()
	t := &stats.Table{
		Title:  "Table 12: latency-based zone estimates (T = 1.1 ms)",
		Header: []string{"Region", "# tgt IPs", "# resp.", "zone a", "zone b", "zone c", "% unk"},
	}
	for _, r := range rows {
		t.AddRow(r.Region, r.Targets, r.Responding,
			r.ZoneCounts[0], r.ZoneCounts[1], r.ZoneCounts[2],
			fmt.Sprintf("%.1f", r.UnknownPct))
	}
	return t.String()
}

func runTable13(s *Study) string {
	rows := s.Zones().Table13()
	t := &stats.Table{
		Title:  "Table 13: veracity of latency-based identification",
		Header: []string{"Region", "count", "match", "unknown", "mismatch", "error rate"},
	}
	for _, r := range rows {
		t.AddRow(r.Region, r.Count, r.Match, r.Unknown, r.Mismatch, fmt.Sprintf("%.1f%%", 100*r.ErrorRate()))
	}
	return t.String()
}

func runTable14(s *Study) string {
	subCounts, domCounts := s.Zones().ZoneUsage()
	t := &stats.Table{
		Title:  "Table 14: (sub)domains using each EC2 zone (reference labels)",
		Header: []string{"Region", "Zone", "# Dom", "# Subdom"},
	}
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
		t.AddRow(k.Region, string(rune('a'+k.Zone)), domCounts[k], subCounts[k])
	}
	return t.String()
}

func runTable15(s *Study) string {
	rows := s.Zones().TopDomains(s, 10)
	t := &stats.Table{
		Title:  "Table 15: zone usage of top domains",
		Header: []string{"Rank", "Domain", "# Subdom", "# Zones", "k=1", "k=2", "k=3"},
	}
	for _, r := range rows {
		t.AddRow(r.Rank, r.Domain, r.Subs, r.TotalZones, r.K[1], r.K[2], r.K[3])
	}
	return t.String()
}

func runTable16(s *Study) string {
	zoneCounts := map[string]int{}
	for _, region := range ipranges.EC2Regions {
		zoneCounts[region] = s.World().EC2.ZoneCount(region)
	}
	// The paper's traceroute leg used 200 PlanetLab nodes (Figure 2) —
	// more than the 80 used for latency/throughput probing.
	m := wan.New(s.Cfg.Seed, 200, ipranges.EC2Regions)
	rows := must(wanperf.ISPDiversity(m, zoneCounts, s.opts(context.Background(), "isp")))
	t := &stats.Table{
		Title:  "Table 16: downstream ISPs per region and zone",
		Header: []string{"Region", "AZ1", "AZ2", "AZ3", "top-ISP route share"},
	}
	for _, r := range rows {
		cells := []any{r.Region}
		for z := 0; z < 3; z++ {
			if z < len(r.PerZone) {
				cells = append(cells, r.PerZone[z])
			} else {
				cells = append(cells, "n/a")
			}
		}
		cells = append(cells, fmt.Sprintf("%.0f%%", 100*r.TopShare))
		t.AddRow(cells...)
	}
	return t.String()
}

func runFigure3(s *Study) string {
	_, an := s.Capture()
	return renderSeries("Figure 3: HTTP(S) flow count and size CDFs", traffic.Figure3(an), 8)
}

func runFigure4(s *Study) string {
	det := s.Detection()
	series := map[string][]stats.Point{
		"(a) VM instances per subdomain":  stats.NewCDF(det.VMInstanceCounts()).Points(12),
		"(b) physical ELBs per subdomain": stats.NewCDF(det.ELBInstanceCounts()).Points(12),
	}
	return renderSeries("Figure 4: feature instances per subdomain (CDF)", series, 12)
}

func runFigure5(s *Study) string {
	ns := s.NameServers()
	out := renderSeries("Figure 5: DNS servers per subdomain (CDF)", map[string][]stats.Point{
		"name servers per subdomain": stats.NewCDF(ns.PerSubdomainNS).Points(12),
	}, 12)
	var b strings.Builder
	b.WriteString(out)
	fmt.Fprintf(&b, "\nName-server locations: route53(CloudFront)=%d ec2-vm=%d azure=%d outside=%d\n",
		ns.Counts["cloudfront-route53"], ns.Counts["ec2-vm"], ns.Counts["azure"], ns.Counts["outside"])
	return b.String()
}

func runFigure6(s *Study) string {
	reg := s.Regions()
	series := map[string][]stats.Point{
		"(a) EC2 regions per subdomain":   stats.NewCDF(reg.RegionCountCDF(ipranges.EC2)).Points(8),
		"(a) Azure regions per subdomain": stats.NewCDF(reg.RegionCountCDF(ipranges.Azure)).Points(8),
		"(b) EC2 avg regions per domain":  stats.NewCDF(reg.DomainAvgRegionCDF(ipranges.EC2)).Points(8),
	}
	out := renderSeries("Figure 6: regions per (sub)domain (CDF)", series, 8)
	return out + fmt.Sprintf("\nSingle-region shares: EC2 %.1f%%, Azure %.1f%%\n",
		100*reg.SingleRegionShare(ipranges.EC2), 100*reg.SingleRegionShare(ipranges.Azure))
}

func runFigure7(s *Study) string {
	series := s.Zones().Figure7Points()
	var b strings.Builder
	b.WriteString("Figure 7: us-east-1 sampling — internal /16s segregate by zone\n")
	zones := make([]int, 0, len(series))
	for z := range series {
		zones = append(zones, z)
	}
	sort.Ints(zones)
	for _, z := range zones {
		p16s := map[uint32]bool{}
		for _, p := range series[z] {
			p16s[uint32(p.X)&^0xffff] = true
		}
		var list []string
		for p := range p16s {
			list = append(list, fmt.Sprintf("10.%d/16", p>>16&0xff))
		}
		sort.Strings(list)
		fmt.Fprintf(&b, "  zone %c: %d samples across %s\n", 'a'+z, len(series[z]), strings.Join(list, " "))
	}
	return b.String()
}

func runFigure8(s *Study) string {
	z := s.Zones()
	series := map[string][]stats.Point{
		"(a) zones per subdomain":  stats.NewCDF(z.ZonesPerSubdomain()).Points(8),
		"(b) avg zones per domain": stats.NewCDF(z.AvgZonesPerDomain()).Points(8),
	}
	return renderSeries("Figure 8: zones per (sub)domain (CDF)", series, 8)
}

func runFigure9(s *Study) string {
	return renderMatrix(s, wan.MetricThroughput, "Figure 9: mean throughput (KB/s), clients x US regions")
}

func runFigure10(s *Study) string {
	return renderMatrix(s, wan.MetricLatency, "Figure 10: mean latency (ms), clients x US regions")
}

func renderMatrix(s *Study, metric wan.Metric, title string) string {
	cells := must(s.Campaign().Matrix(metric, wanperf.USRegions, 15))
	t := &stats.Table{Title: title, Header: append([]string{"Client"}, wanperf.USRegions...)}
	rowVals := map[string]map[string]float64{}
	var order []string
	for _, c := range cells {
		if rowVals[c.Client] == nil {
			rowVals[c.Client] = map[string]float64{}
			order = append(order, c.Client)
		}
		rowVals[c.Client][c.Region] = c.Mean
	}
	for _, client := range order {
		cellsOut := []any{client}
		for _, r := range wanperf.USRegions {
			cellsOut = append(cellsOut, fmt.Sprintf("%.0f", rowVals[client][r]))
		}
		t.AddRow(cellsOut...)
	}
	return t.String()
}

func runFigure11(s *Study) string {
	series := must(s.Campaign().TimeSeries("Boulder", wanperf.USRegions))
	var b strings.Builder
	b.WriteString("Figure 11: Boulder latency (ms) to US regions over time\n")
	b.WriteString("hour   us-east-1  us-west-1  us-west-2  best\n")
	n := len(series[wanperf.USRegions[0]])
	step := n / 24
	if step < 1 {
		step = 1
	}
	for i := 0; i < n; i += step {
		best, bestV := "", 1e18
		var vals []float64
		for _, r := range wanperf.USRegions {
			v := series[r][i].Y
			vals = append(vals, v)
			if v < bestV {
				best, bestV = r, v
			}
		}
		fmt.Fprintf(&b, "%5.1f  %9.1f  %9.1f  %9.1f  %s\n",
			series[wanperf.USRegions[0]][i].X, vals[0], vals[1], vals[2], strings.TrimPrefix(best, "ec2."))
	}
	return b.String()
}

func runFigure12(s *Study) string {
	c := s.Campaign()
	var b strings.Builder
	b.WriteString("Figure 12: optimal k-region deployment (exhaustive subset search)\n")
	lat := must(c.OptimalK(wan.MetricLatency, 5))
	thr := must(c.OptimalK(wan.MetricThroughput, 5))
	b.WriteString("k   latency(ms)  vs k=1   best set (latency)\n")
	for _, r := range lat {
		fmt.Fprintf(&b, "%d   %10.1f  %5.1f%%   %s\n", r.K, r.Value,
			100*(lat[0].Value-r.Value)/lat[0].Value, strings.Join(r.Regions, ","))
	}
	b.WriteString("k   throughput(KB/s)  vs k=1   best set (throughput)\n")
	for _, r := range thr {
		fmt.Fprintf(&b, "%d   %15.0f  %5.1f%%   %s\n", r.K, r.Value,
			100*(r.Value-thr[0].Value)/thr[0].Value, strings.Join(r.Regions, ","))
	}
	return b.String()
}

func runExtCompression(s *Study) string {
	_, an := s.Capture()
	est := traffic.EstimateCompression(an)
	var b strings.Builder
	b.WriteString("Extension: §3.3's compression implication, quantified\n")
	fmt.Fprintf(&b, "HTTP body bytes:        %.1f MB\n", float64(est.HTTPBodyBytes)/1e6)
	fmt.Fprintf(&b, "compressible-text share: %.1f%%\n", 100*est.TextShareOfBytes)
	fmt.Fprintf(&b, "after gzip-class codecs: %.1f MB (saves %.1f%%)\n",
		float64(est.CompressedBytes)/1e6, 100*est.SavedShare)
	return b.String()
}

func runExtDurations(s *Study) string {
	_, an := s.Capture()
	t := &stats.Table{
		Title:  "Extension: flow durations (the paper notes hours-long flows, omits the CDF)",
		Header: []string{"Cloud", "Kind", "n", "median (s)", "p90 (s)", "max (s)", "# >1h"},
	}
	for _, cloud := range []ipranges.Provider{ipranges.EC2, ipranges.Azure} {
		for _, kind := range []capture.Kind{capture.KindHTTP, capture.KindHTTPS} {
			d := traffic.Durations(an, cloud, kind, false)
			t.AddRow(string(cloud), kind.String(), d.Count,
				fmt.Sprintf("%.2f", d.MedianSeconds),
				fmt.Sprintf("%.1f", d.P90Seconds),
				fmt.Sprintf("%.0f", d.MaxSeconds), d.OverOneHourCount)
		}
	}
	return t.String()
}

func runExtOutage(s *Study) string {
	var b strings.Builder
	reg := s.Regions()
	listShare, cloudShare := reg.HeadlineImpact("ec2.us-east-1", s.Cfg.Domains, len(s.Dataset().CloudDomains()))
	fmt.Fprintf(&b, "Extension: outage blast radius\n")
	fmt.Fprintf(&b, "us-east-1 outage: %.1f%% of the ranked list, %.1f%% of cloud-using domains lose critical components\n",
		100*listShare, 100*cloudShare)
	t := &stats.Table{Header: []string{"Region", "subdomains down", "degraded", "domains hit"}}
	for i, imp := range reg.RegionOutages() {
		if i >= 5 {
			break
		}
		t.AddRow(imp.Region, imp.SubdomainsDown, imp.SubdomainsDegraded, imp.DomainsHit)
	}
	b.WriteString(t.String())
	z := s.Zones()
	zi := z.ZoneOutages()
	if len(zi) > 0 {
		fmt.Fprintf(&b, "worst zone (%s/%c): %d subdomains down; us-east zone-usage skew ratio %.2f\n",
			zi[0].Zone.Region, 'a'+zi[0].Zone.Zone, zi[0].SubdomainsDown, z.SkewRatio("ec2.us-east-1"))
	}
	return b.String()
}

func runExtBackend(s *Study) string {
	return backend.Analyze(s.World()).Table().String()
}

// renderSeries prints named point series compactly.
func renderSeries(title string, series map[string][]stats.Point, maxPts int) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		pts := series[name]
		if len(pts) > maxPts {
			stride := len(pts) / maxPts
			var thin []stats.Point
			for i := 0; i < len(pts); i += stride {
				thin = append(thin, pts[i])
			}
			pts = thin
		}
		fmt.Fprintf(&b, "  %s:\n    ", name)
		for _, p := range pts {
			fmt.Fprintf(&b, "(%.4g, %.2f) ", p.X, p.Y)
		}
		b.WriteString("\n")
	}
	return b.String()
}
