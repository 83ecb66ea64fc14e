// Package wanperf implements §5's active-measurement campaigns: the
// per-region latency/throughput matrices (Figures 9 and 10), the
// time-varying best-region series (Figure 11), the optimal-k region
// analysis (Figure 12), intra-cloud RTT micro-benchmarks (Table 11),
// and downstream-ISP diversity via traceroute (Table 16), plus the
// route-outage simulation the paper alludes to.
package wanperf

import (
	"fmt"
	"sort"
	"time"

	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/geo"
	"cloudscope/internal/parallel"
	"cloudscope/internal/stats"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/wan"
	"cloudscope/internal/xrand"
)

// Campaign bundles the §5 measurement setup: 80 PlanetLab clients, all
// EC2 regions, probing every 15 minutes for three days.
type Campaign struct {
	Model    *wan.Model
	Start    time.Time
	Interval time.Duration
	Rounds   int
	// Options is the campaign's run context. Par controls every
	// measurement fan-out: each client (and, in TimeSeries, each
	// region; in Outages, each trial) draws from its own seed-derived
	// stream, so results are identical at every worker count, and
	// every method returns an error only when a worker panics or
	// Par.Ctx is cancelled. Chaos, when set, injects faults:
	// PlanetLab clients go dark for stretches of the campaign
	// (vantage-down) and region-scoped loss/blackouts eat individual
	// probes, with the campaign's round fraction as the fault phase.
	// Completeness, when set, receives per-client probe accounting
	// under stages "wanperf" (Matrix) and "wanperf/series".
	core.Options
}

// USRegions are the paper's Figure 9–11 region restriction: the
// matrices and the best-region series measure only these.
var USRegions = []string{"ec2.us-east-1", "ec2.us-west-1", "ec2.us-west-2"}

// NewCampaign builds the paper's default campaign over regions.
func NewCampaign(seed int64, clients int, regions []string) *Campaign {
	return &Campaign{
		Model:    wan.New(seed, clients, regions),
		Start:    time.Date(2013, 4, 4, 0, 0, 0, 0, time.UTC),
		Interval: 15 * time.Minute,
		Rounds:   3 * 24 * 4, // three days at 15-minute rounds
		Options:  core.Options{Seed: seed},
	}
}

// MatrixCell is one (client, region) average.
type MatrixCell struct {
	Client  string
	Region  string
	Mean    float64
	Samples int
}

// Matrix measures the mean metric for every (client, region) pair —
// Figures 9 (throughput) and 10 (latency) restrict to the US regions.
// Clients fan out across workers, each on its own seed-derived stream.
func (c *Campaign) Matrix(metric wan.Metric, regions []string, maxClients int) ([]MatrixCell, error) {
	clients := c.Model.Clients
	if maxClients > 0 && len(clients) > maxClients {
		clients = clients[:maxClients]
	}
	perClient, err := parallel.Map(c.Par, clients, func(_ int, client geo.Vantage) ([]MatrixCell, error) {
		rng := xrand.SplitSeeded(c.Seed, "wanperf/matrix/"+client.ID)
		cells := make([]MatrixCell, 0, len(regions))
		var cc telemetry.Counts
		for _, region := range regions {
			sum, n := 0.0, 0
			for round := 0; round < c.Rounds; round++ {
				t := c.Start.Add(time.Duration(round) * c.Interval)
				phase := float64(round) / float64(c.Rounds)
				// The probe value draws first so that surviving rounds
				// see the same stream with or without faults.
				var v float64
				if metric == wan.MetricLatency {
					v = c.Model.RTT(client, region, t, rng)
				} else {
					v = c.Model.Throughput(client, region, t, rng)
				}
				cc.Attempted++
				if c.Chaos.VantageOut(client.Name, phase) ||
					c.Chaos.ProbeLost(region, fmt.Sprintf("%s/%s/%d", client.ID, region, round), phase) {
					cc.Abandoned++
					continue
				}
				cc.Succeeded++
				sum += v
				n++
			}
			mean := 0.0
			if n > 0 {
				mean = sum / float64(n)
			}
			cells = append(cells, MatrixCell{
				Client:  client.Name,
				Region:  region,
				Mean:    mean,
				Samples: n,
			})
		}
		// Completeness additions commute, so recording from the worker
		// cannot perturb worker-count invariance.
		c.Completeness.Merge("wanperf", client.Name, cc)
		return cells, nil
	})
	if err != nil {
		return nil, err
	}
	var cells []MatrixCell
	for _, cs := range perClient {
		cells = append(cells, cs...)
	}
	return cells, nil
}

// TimeSeries measures one client's latency to several regions over the
// campaign (Figure 11's Boulder plot). Regions fan out across workers,
// each series on its own seed-derived stream.
func (c *Campaign) TimeSeries(clientName string, regions []string) (map[string][]stats.Point, error) {
	var client geo.Vantage
	found := false
	for _, cl := range c.Model.Clients {
		if cl.Name == clientName {
			client, found = cl, true
			break
		}
	}
	if !found {
		return nil, nil
	}
	series, err := parallel.Map(c.Par, regions, func(ri int, region string) ([]stats.Point, error) {
		rng := xrand.SplitSeeded(c.Seed, "wanperf/series/"+client.ID+"/"+region)
		pts := make([]stats.Point, 0, c.Rounds)
		var cc telemetry.Counts
		for round := 0; round < c.Rounds; round++ {
			t := c.Start.Add(time.Duration(round) * c.Interval)
			hours := float64(round) * c.Interval.Hours()
			y := c.Model.RTT(client, region, t, rng)
			cc.Attempted++
			// Only client-level outages gate the series — the skip is
			// region-independent, so every region's series keeps the
			// same round set and Figure 11 stays aligned.
			if c.Chaos.VantageOut(client.Name, float64(round)/float64(c.Rounds)) {
				cc.Abandoned++
				continue
			}
			cc.Succeeded++
			pts = append(pts, stats.Point{X: hours, Y: y})
		}
		if ri == 0 {
			// Identical per region; record once.
			c.Completeness.Merge("wanperf/series", client.Name, cc)
		}
		return pts, nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string][]stats.Point{}
	for i, region := range regions {
		out[region] = series[i]
	}
	return out, nil
}

// OptimalK runs Figure 12's exhaustive subset search.
func (c *Campaign) OptimalK(metric wan.Metric, maxK int) ([]wan.OptimalKResult, error) {
	return c.Model.OptimalK(metric, maxK, c.Rounds/4, c.Interval*4, c.Start, c.Seed, c.Par)
}

// GreedyK is the ablation comparator for OptimalK.
func (c *Campaign) GreedyK(metric wan.Metric, maxK int) ([]wan.OptimalKResult, error) {
	return c.Model.GreedyK(metric, maxK, c.Rounds/4, c.Interval*4, c.Start, c.Seed, c.Par)
}

// --- Table 11: intra-cloud RTT micro-benchmark ------------------------

// RTTRow is one (instance type, destination zone) measurement.
type RTTRow struct {
	InstanceType string
	DestZone     string // reference-account label, e.g. "us-east-1a"
	MinMs        float64
	MedianMs     float64
}

// IntraCloudRTTs reproduces Table 11: a micro instance in one zone
// probes instances of each type in each zone, 10 pings each.
//
// Instance launches mutate the cloud's address allocators, so they all
// happen up front in the original order; only the pure probe sampling
// fans out over opt.Par, each (instance type, zone) pair on its own
// seed-derived stream, so results match at every worker count. Under
// opt.Chaos, region-scoped loss eats individual pings (a pair losing
// all ten drops out of the table), brownouts inflate every sample, and
// per-pair accounting lands in opt.Completeness under stage
// "wanperf/rtt". The fault phase is the pair's index over the
// benchmark, and probe values draw before the loss verdict, so
// surviving samples equal the fault-free run's.
func IntraCloudRTTs(c *cloud.Cloud, region string, opt core.Options) ([]RTTRow, error) {
	seed, eng, comp := opt.Seed, opt.Chaos, opt.Completeness
	acct := c.NewAccount("rtt-bench")
	labels := acct.ZoneLabels(region)
	src := acct.Launch(region, labels[0], "t1.micro")
	type pair struct {
		itype, label string
		dst          *cloud.Instance
	}
	var pairs []pair
	for _, itype := range cloud.InstanceTypes {
		for _, label := range labels {
			pairs = append(pairs, pair{itype, label, acct.Launch(region, label, itype)})
		}
	}
	type rowResult struct {
		row RTTRow
		ok  bool
	}
	rows, err := parallel.Map(opt.Par, pairs, func(pi int, p pair) (rowResult, error) {
		rng := xrand.SplitSeeded(seed, "wanperf/rtt/"+p.itype+"/"+p.label)
		phase := float64(pi) / float64(len(pairs))
		extraMs := eng.RegionExtraMs(region, phase)
		var samples []float64
		var cc telemetry.Counts
		for i := 0; i < 10; i++ {
			v := float64(c.ProbeRTT(rng, src, p.dst))/1e6 + extraMs
			cc.Attempted++
			if eng.ProbeLost(region, fmt.Sprintf("%s/%s/%d", p.itype, p.label, i), phase) {
				cc.Abandoned++
				continue
			}
			cc.Succeeded++
			samples = append(samples, v)
		}
		comp.Merge("wanperf/rtt", p.itype+"/"+p.label, cc)
		if len(samples) == 0 {
			return rowResult{}, nil // every ping lost: no row
		}
		return rowResult{
			row: RTTRow{
				InstanceType: p.itype,
				DestZone:     p.label,
				MinMs:        stats.Min(samples),
				MedianMs:     stats.Median(samples),
			},
			ok: true,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]RTTRow, 0, len(rows))
	for _, r := range rows {
		if r.ok {
			out = append(out, r.row)
		}
	}
	return out, nil
}

// --- Table 16: downstream-ISP diversity -------------------------------

// ISPRow is one region's downstream-ISP counts per zone.
type ISPRow struct {
	Region   string
	PerZone  []int   // observed distinct downstream ASes per zone
	TopShare float64 // largest single-ISP route share in zone 0
}

// ISPDiversity runs the paper's §5.2 experiment: instances in every
// zone traceroute to every client; the first non-cloud AS is the
// downstream ISP. Counts are observed lower bounds, like the paper's.
//
// The (region, zone) traceroute sweeps fan out over opt.Par; each pair
// draws from its own seed-derived stream and results fold back in
// sorted-region order, so the table is identical at every worker
// count. Under opt.Chaos, chaos-dark clients contribute no traceroutes
// (phase = the pair's index over the sweep), so observed ISP counts
// are lower bounds of the fault-free run's, and per-zone accounting
// lands in opt.Completeness under stage "wanperf/isp".
func ISPDiversity(m *wan.Model, zoneCounts map[string]int, opt core.Options) ([]ISPRow, error) {
	seed, eng, comp := opt.Seed, opt.Chaos, opt.Completeness
	regions := make([]string, 0, len(zoneCounts))
	for r := range zoneCounts {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	type zoneKey struct {
		region string
		zone   int
	}
	var pairs []zoneKey
	for _, region := range regions {
		for z := 0; z < zoneCounts[region]; z++ {
			pairs = append(pairs, zoneKey{region, z})
		}
	}
	type zoneStat struct {
		nISPs    int
		topShare float64 // meaningful for zone 0 only
	}
	zstats, err := parallel.Map(opt.Par, pairs, func(pi int, p zoneKey) (zoneStat, error) {
		rng := xrand.SplitSeeded(seed, fmt.Sprintf("wanperf/isp/%s/%d", p.region, p.zone))
		phase := float64(pi) / float64(len(pairs))
		seen := map[int]bool{}
		ispRoutes := map[int]int{}
		total := 0
		var cc telemetry.Counts
		for _, client := range m.Clients {
			// Draw the traceroute first so surviving clients' routes
			// match the fault-free run's streams.
			hops := m.Traceroute(client, p.region, p.zone, rng)
			cc.Attempted++
			if eng.VantageOut(client.Name, phase) {
				cc.Abandoned++
				continue
			}
			cc.Succeeded++
			if asn, ok := wan.FirstDownstream(hops); ok {
				seen[asn] = true
				ispRoutes[asn]++
				total++
			}
		}
		comp.Merge("wanperf/isp", fmt.Sprintf("%s/%d", p.region, p.zone), cc)
		st := zoneStat{nISPs: len(seen)}
		if p.zone == 0 && total > 0 {
			max := 0
			for _, n := range ispRoutes {
				if n > max {
					max = n
				}
			}
			st.topShare = float64(max) / float64(total)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []ISPRow
	i := 0
	for _, region := range regions {
		row := ISPRow{Region: region}
		for z := 0; z < zoneCounts[region]; z++ {
			row.PerZone = append(row.PerZone, zstats[i].nISPs)
			if z == 0 {
				row.TopShare = zstats[i].topShare
			}
			i++
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Outages wraps the wan outage simulation using the latency-optimal
// region ordering.
func (c *Campaign) Outages(maxK, trials int) (wan.OutageResult, error) {
	best, err := c.OptimalK(wan.MetricLatency, maxK)
	if err != nil {
		return wan.OutageResult{}, err
	}
	order := make([]string, 0, maxK)
	seen := map[string]bool{}
	for _, res := range best {
		for _, r := range res.Regions {
			if !seen[r] {
				seen[r] = true
				order = append(order, r)
			}
		}
	}
	return c.Model.SimulateOutages(order, maxK, trials, c.Seed, c.Par)
}
