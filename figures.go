package cloudscope

import (
	"fmt"
	"io"
	"sort"

	"cloudscope/internal/core/traffic"
	"cloudscope/internal/core/wanperf"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/stats"
	"cloudscope/internal/wan"
)

// FigureSeries returns a figure's raw data as named point series, for
// plotting outside the library (cmd/experiments -plotdata writes them
// as TSV). Only figure IDs have series; tables return ok=false.
func (s *Study) FigureSeries(id string) (map[string][]stats.Point, bool) {
	switch id {
	case "figure3":
		_, an := s.Capture()
		return traffic.Figure3(an), true
	case "figure4":
		det := s.Detection()
		return map[string][]stats.Point{
			"vm-instances-per-subdomain":  stats.NewCDF(det.VMInstanceCounts()).Points(200),
			"physical-elbs-per-subdomain": stats.NewCDF(det.ELBInstanceCounts()).Points(200),
		}, true
	case "figure5":
		ns := s.NameServers()
		return map[string][]stats.Point{
			"nameservers-per-subdomain": stats.NewCDF(ns.PerSubdomainNS).Points(200),
		}, true
	case "figure6":
		reg := s.Regions()
		return map[string][]stats.Point{
			"ec2-regions-per-subdomain":   stats.NewCDF(reg.RegionCountCDF(ipranges.EC2)).Points(50),
			"azure-regions-per-subdomain": stats.NewCDF(reg.RegionCountCDF(ipranges.Azure)).Points(50),
			"ec2-avg-regions-per-domain":  stats.NewCDF(reg.DomainAvgRegionCDF(ipranges.EC2)).Points(50),
		}, true
	case "figure7":
		series := s.Zones().Figure7Points()
		out := map[string][]stats.Point{}
		for zone, pts := range series {
			out[fmt.Sprintf("zone-%c", 'a'+zone)] = pts
		}
		return out, true
	case "figure8":
		z := s.Zones()
		return map[string][]stats.Point{
			"zones-per-subdomain":  stats.NewCDF(z.ZonesPerSubdomain()).Points(50),
			"avg-zones-per-domain": stats.NewCDF(z.AvgZonesPerDomain()).Points(50),
		}, true
	case "figure9", "figure10":
		metric := wan.MetricLatency
		if id == "figure9" {
			metric = wan.MetricThroughput
		}
		cells := must(s.Campaign().Matrix(metric, wanperf.USRegions, 15))
		out := map[string][]stats.Point{}
		clientIdx := map[string]int{}
		for _, c := range cells {
			if _, ok := clientIdx[c.Client]; !ok {
				clientIdx[c.Client] = len(clientIdx)
			}
			out[c.Region] = append(out[c.Region], stats.Point{X: float64(clientIdx[c.Client]), Y: c.Mean})
		}
		return out, true
	case "figure11":
		return must(s.Campaign().TimeSeries("Boulder", wanperf.USRegions)), true
	case "figure12":
		lat := must(s.Campaign().OptimalK(wan.MetricLatency, 5))
		thr := must(s.Campaign().OptimalK(wan.MetricThroughput, 5))
		out := map[string][]stats.Point{}
		for _, r := range lat {
			out["latency"] = append(out["latency"], stats.Point{X: float64(r.K), Y: r.Value})
		}
		for _, r := range thr {
			out["throughput"] = append(out["throughput"], stats.Point{X: float64(r.K), Y: r.Value})
		}
		return out, true
	}
	return nil, false
}

// WriteSeriesTSV writes series as tab-separated values: one block per
// series with a comment header, sorted by name for determinism.
func WriteSeriesTSV(w io.Writer, series map[string][]stats.Point) error {
	names := make([]string, 0, len(series))
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "# %s\n", name); err != nil {
			return err
		}
		for _, p := range series[name] {
			if _, err := fmt.Fprintf(w, "%g\t%g\n", p.X, p.Y); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
