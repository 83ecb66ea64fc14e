// Package wan models the wide-area network between clients (PlanetLab
// vantage stand-ins) and cloud regions: per-pair latency with
// time-varying congestion, throughput shaped by path RTT and bottleneck
// capacity, and AS-level routes with region-specific downstream-ISP
// diversity.
//
// Three properties of the real measurements drive §5's findings and are
// modelled explicitly:
//
//   - Latency is dominated by geography (clients far from every region
//     suffer everywhere), so adding regions helps most for clients whose
//     nearest region is far — the diminishing-returns shape of Fig. 12.
//   - For some client/region pairs the ranking of nearby regions is not
//     stable: a time-varying congestion term lets the best region change
//     over hours (Fig. 11's Boulder effect).
//   - Each region has a finite set of downstream ISPs with an uneven
//     route spread (Table 16), so single-region deployments inherit
//     localized routing-failure risk.
package wan

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"cloudscope/internal/geo"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/parallel"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/xrand"
)

// Metrics counts wide-area measurement traffic: latency samples,
// throughput downloads, and traceroutes, with the RTT distribution. A
// nil *Metrics disables accounting.
type Metrics struct {
	RTTSamples        *telemetry.Counter
	ThroughputSamples *telemetry.Counter
	Traceroutes       *telemetry.Counter
	RTTms             *telemetry.Histogram
}

// NewMetrics registers the WAN instruments on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		RTTSamples:        r.Counter("wan.rtt.samples"),
		ThroughputSamples: r.Counter("wan.throughput.samples"),
		Traceroutes:       r.Counter("wan.traceroutes"),
		RTTms:             r.Histogram("wan.rtt_ms", telemetry.LatencyBucketsMs),
	}
}

// Model is a deterministic wide-area network.
type Model struct {
	seed    int64
	Clients []geo.Vantage
	Regions []string

	// metrics is read on every sample, so it bypasses any locking.
	metrics atomic.Pointer[Metrics]

	// chaos is read on every sample, so it bypasses any locking.
	chaos atomic.Pointer[ChaosFunc]
}

// SetMetrics installs measurement instrumentation; nil disables it.
func (m *Model) SetMetrics(mm *Metrics) { m.metrics.Store(mm) }

// ChaosFunc returns extra one-way path delay, in milliseconds, for a
// (client, region) pair at time t. It must be a pure function of its
// arguments: the model calls it from many workers and relies on it for
// worker-count-invariant output.
type ChaosFunc func(clientID, region string, t time.Time) float64

// SetChaos installs a fault-injection delay hook; nil removes it.
func (m *Model) SetChaos(f ChaosFunc) {
	if f == nil {
		m.chaos.Store(nil)
		return
	}
	m.chaos.Store(&f)
}

// chaosDelayMs reports the injected extra delay for one sample.
func (m *Model) chaosDelayMs(client geo.Vantage, region string, t time.Time) float64 {
	if cf := m.chaos.Load(); cf != nil {
		return (*cf)(client.ID, region, t)
	}
	return 0
}

// New builds a model over nClients PlanetLab vantages and the given
// regions.
func New(seed int64, nClients int, regions []string) *Model {
	return &Model{seed: seed, Clients: geo.PlanetLab(nClients), Regions: append([]string(nil), regions...)}
}

// pairRand derives a stable stream for a (client, region, salt) tuple.
func (m *Model) pairRand(client, region, salt string) *xrand.Rand {
	return xrand.SplitSeeded(m.seed, "wan/"+client+"/"+region+"/"+salt)
}

// pairHash folds a tuple into [0,1).
func pairHash(parts ...string) float64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= '|'
		h *= 1099511628211
	}
	return float64(h%100000) / 100000
}

// BaseRTT returns the congestion-free RTT in milliseconds between a
// client and a region: propagation plus a stable per-pair access/peering
// penalty.
func (m *Model) BaseRTT(client geo.Vantage, region string) float64 {
	prop := geo.PropagationRTTms(client.Location, geo.RegionLocation(region))
	access := 4 + 26*pairHash(client.ID, region, "access")
	return prop + access
}

// congestion returns the time-varying RTT addition in ms. Each pair has
// a diurnal swing plus slower multi-hour waves; amplitude varies by
// pair, so some pairs' region ranking flips over time.
func (m *Model) congestion(client geo.Vantage, region string, t time.Time) float64 {
	phase := pairHash(client.ID, region, "phase") * 2 * math.Pi
	amp := 3 + 35*math.Pow(pairHash(client.ID, region, "amp"), 2)
	hours := float64(t.Unix()) / 3600
	wave := math.Sin(hours/24*2*math.Pi+phase) + 0.6*math.Sin(hours/7.3*2*math.Pi+2.1*phase)
	return amp * (wave + 1.3) / 2.3
}

// RTT returns one latency sample in milliseconds at time t, including
// measurement jitter.
func (m *Model) RTT(client geo.Vantage, region string, t time.Time, rng *xrand.Rand) float64 {
	base := m.BaseRTT(client, region) + m.congestion(client, region, t) + m.chaosDelayMs(client, region, t)
	jitter := rng.ExpFloat64() * 2.5
	if rng.Bool(0.01) {
		jitter += rng.Float64() * 80 // transient spike
	}
	rtt := base + jitter
	if mm := m.metrics.Load(); mm != nil {
		mm.RTTSamples.Inc()
		mm.RTTms.Observe(rtt)
	}
	return rtt
}

// Throughput returns one HTTP-download throughput sample in KB/s at
// time t. Throughput falls with RTT (TCP window limits) and is capped
// by a per-pair bottleneck.
func (m *Model) Throughput(client geo.Vantage, region string, t time.Time, rng *xrand.Rand) float64 {
	rtt := m.BaseRTT(client, region) + m.congestion(client, region, t) + m.chaosDelayMs(client, region, t)
	// 64 KB effective window / RTT, in KB/s.
	windowLimited := 64.0 / (rtt / 1000)
	bottleneck := 2200 + 7000*pairHash(client.ID, region, "cap")
	thr := math.Min(windowLimited, bottleneck)
	if mm := m.metrics.Load(); mm != nil {
		mm.ThroughputSamples.Inc()
	}
	// Multiplicative sampling noise.
	return thr * (0.85 + 0.3*rng.Float64())
}

// --- AS-level routing -----------------------------------------------

// Hop is one traceroute step.
type Hop struct {
	ASN int
	IP  netaddr.IP
	RTT float64 // ms
}

// downstreamISPCount reproduces Table 16's per-region/zone pool sizes.
var downstreamISPCount = map[string][]int{
	"ec2.us-east-1":      {36, 36, 34},
	"ec2.us-west-1":      {18, 19},
	"ec2.us-west-2":      {19, 19, 19},
	"ec2.eu-west-1":      {10, 11, 13},
	"ec2.ap-northeast-1": {9, 9},
	"ec2.ap-southeast-1": {11, 12},
	"ec2.ap-southeast-2": {4, 4},
	"ec2.sa-east-1":      {4, 4},
}

// cloudASN is the cloud provider's autonomous system.
const cloudASN = 16509

// DownstreamISPs returns the ASNs peering with a region's zone. Zone
// pools overlap heavily within a region (as observed: different zones
// of a region see almost the same ISPs).
func (m *Model) DownstreamISPs(region string, zone int) []int {
	counts := downstreamISPCount[region]
	if len(counts) == 0 {
		counts = []int{8}
	}
	if zone >= len(counts) {
		zone = len(counts) - 1
	}
	n := counts[zone]
	base := 7000 + int(pairHash(region, "aspool")*1000)
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, base+i)
	}
	return out
}

// routeISP picks the downstream ISP a client's route into (region,
// zone) traverses. The spread is deliberately uneven: rank-weighted so
// the top ISP carries ~30% of routes (§5.2's observation).
func (m *Model) routeISP(client geo.Vantage, region string, zone int) int {
	pool := m.DownstreamISPs(region, zone)
	u := pairHash(client.ID, region, "route")
	// Zipf-ish CDF over ranks.
	weightSum := 0.0
	for i := range pool {
		weightSum += 1 / math.Pow(float64(i+1), 1.25)
	}
	acc := 0.0
	for i := range pool {
		acc += 1 / math.Pow(float64(i+1), 1.25) / weightSum
		if u <= acc {
			return pool[i]
		}
	}
	return pool[len(pool)-1]
}

// Traceroute returns the AS-level path from an instance in (region,
// zone) out to client — the direction the paper probed. The first
// non-cloud hop's ASN identifies the downstream ISP.
func (m *Model) Traceroute(client geo.Vantage, region string, zone int, rng *xrand.Rand) []Hop {
	if mm := m.metrics.Load(); mm != nil {
		mm.Traceroutes.Inc()
	}
	total := m.BaseRTT(client, region)
	isp := m.routeISP(client, region, zone)
	clientASN := 64500 + int(pairHash(client.ID, "asn")*400)
	transit := 3300 + int(pairHash(client.ID, region, "transit")*60)

	mkIP := func(asn, hop int) netaddr.IP {
		return netaddr.IP(uint32(10+asn%200)<<24 | uint32(asn%251)<<16 | uint32(hop)<<8 | 1)
	}
	hops := []Hop{
		{ASN: cloudASN, IP: mkIP(cloudASN, zone), RTT: 0.3 + rng.Float64()*0.3},
		{ASN: cloudASN, IP: mkIP(cloudASN, zone+8), RTT: 0.8 + rng.Float64()*0.5},
		{ASN: isp, IP: mkIP(isp, 1), RTT: 2 + rng.Float64()*2},
		{ASN: isp, IP: mkIP(isp, 2), RTT: total * 0.3},
		{ASN: transit, IP: mkIP(transit, 1), RTT: total * 0.6},
		{ASN: clientASN, IP: mkIP(clientASN, 1), RTT: total*0.95 + rng.Float64()*2},
	}
	return hops
}

// FirstDownstream returns the first non-cloud AS on the path.
func FirstDownstream(hops []Hop) (int, bool) {
	for _, h := range hops {
		if h.ASN != cloudASN {
			return h.ASN, true
		}
	}
	return 0, false
}

// Whois maps an ASN to a display name.
func Whois(asn int) string {
	switch {
	case asn == cloudASN:
		return "AS16509 AMAZON-02"
	case asn >= 7000 && asn < 8100:
		return fmt.Sprintf("AS%d PEER-ISP", asn)
	case asn >= 3300 && asn < 3400:
		return fmt.Sprintf("AS%d TRANSIT", asn)
	default:
		return fmt.Sprintf("AS%d STUB", asn)
	}
}

// --- Outage simulation ------------------------------------------------

// OutageResult summarizes a downstream-ISP failure simulation.
type OutageResult struct {
	Trials int
	// MeanUnreachable[k] is the mean fraction of clients cut off from
	// every region of a k-region deployment when one random downstream
	// ISP per region fails.
	MeanUnreachable map[int]float64
}

// SimulateOutages estimates availability gains from multi-region
// deployments: for each trial, fail one random downstream ISP in every
// region; a client is cut off if, for every region in its deployment,
// its route traverses a failed ISP. Deployments of size k use the first
// k regions of bestOrder. Trials fan out over par, each on its own
// seed-derived stream, so results are identical at every worker count;
// it errors only when a worker panics or par.Ctx is cancelled.
func (m *Model) SimulateOutages(bestOrder []string, maxK, trials int, seed int64, par parallel.Options) (OutageResult, error) {
	res := OutageResult{Trials: trials, MeanUnreachable: map[int]float64{}}
	for k := 1; k <= maxK && k <= len(bestOrder); k++ {
		regions := bestOrder[:k]
		sums, err := parallel.MapShards(par, trials, func(sh parallel.Shard) ([]float64, error) {
			// Each trial draws from its own seed-derived stream, so
			// shard boundaries and worker count cannot shift outcomes.
			sum := 0.0
			for trial := sh.Lo; trial < sh.Hi; trial++ {
				rng := xrand.SplitSeeded(seed, fmt.Sprintf("wan/outage/k%d/trial%d", k, trial))
				failed := map[string]int{}
				for _, r := range regions {
					pool := m.DownstreamISPs(r, 0)
					// Fail a popular ISP with rank-weighted probability —
					// outages in big ISPs hurt more routes.
					failed[r] = pool[int(float64(len(pool))*rng.Float64()*rng.Float64())]
				}
				cut := 0
				for _, c := range m.Clients {
					lost := true
					for _, r := range regions {
						if m.routeISP(c, r, 0) != failed[r] {
							lost = false
							break
						}
					}
					if lost {
						cut++
					}
				}
				sum += float64(cut) / float64(len(m.Clients))
			}
			return []float64{sum}, nil
		})
		if err != nil {
			return OutageResult{}, err
		}
		// Fold per-shard partial sums in shard order so float addition
		// order is fixed regardless of completion order.
		sum := 0.0
		for _, s := range sums {
			sum += s
		}
		res.MeanUnreachable[k] = sum / float64(trials)
	}
	return res, nil
}

// --- Optimal-k analysis -----------------------------------------------

// Metric selects what an optimal-k search optimizes.
type Metric int

// Metrics.
const (
	MetricLatency Metric = iota
	MetricThroughput
)

// OptimalKResult holds one k's best subset and its average performance.
type OptimalKResult struct {
	K       int
	Regions []string
	// Value is mean latency in ms (lower better) or mean throughput in
	// KB/s (higher better) across clients and rounds, with each client
	// using its best region per round.
	Value float64
}

// samples holds precomputed per-round per-client per-region values.
type samples struct {
	vals [][][]float64 // round → client → region
}

// collect samples every (client, region) pair once per round. Clients
// fan out across par's workers, each drawing from its own seed-derived
// stream and writing only its column of every round, so the sample
// tensor is identical at every worker count. It errors only when a
// worker panics or par.Ctx is cancelled.
func (m *Model) collect(metric Metric, rounds int, interval time.Duration, start time.Time, seed int64, par parallel.Options) (*samples, error) {
	s := &samples{vals: make([][][]float64, rounds)}
	for round := range s.vals {
		s.vals[round] = make([][]float64, len(m.Clients))
	}
	err := parallel.Run(par, len(m.Clients), func(sh parallel.Shard) error {
		for ci := sh.Lo; ci < sh.Hi; ci++ {
			c := m.Clients[ci]
			rng := xrand.SplitSeeded(seed, "wan/collect/"+c.ID)
			for round := 0; round < rounds; round++ {
				t := start.Add(time.Duration(round) * interval)
				vals := make([]float64, len(m.Regions))
				for ri, r := range m.Regions {
					if metric == MetricLatency {
						vals[ri] = m.RTT(c, r, t, rng)
					} else {
						vals[ri] = m.Throughput(c, r, t, rng)
					}
				}
				s.vals[round][ci] = vals
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// OptimalK computes, for each k in [1, maxK], the best k-region subset
// and the average performance clients would see picking their best
// region each round — the paper's Figure 12 upper bound. The search is
// exhaustive over subsets, exactly as published. Sample collection
// fans out over par (see collect).
func (m *Model) OptimalK(metric Metric, maxK, rounds int, interval time.Duration, start time.Time, seed int64, par parallel.Options) ([]OptimalKResult, error) {
	s, err := m.collect(metric, rounds, interval, start, seed, par)
	if err != nil {
		return nil, err
	}
	var results []OptimalKResult
	n := len(m.Regions)
	for k := 1; k <= maxK && k <= n; k++ {
		best := OptimalKResult{K: k}
		first := true
		forEachSubset(n, k, func(subset []int) {
			v := s.score(metric, subset)
			better := v < best.Value
			if metric == MetricThroughput {
				better = v > best.Value
			}
			if first || better {
				first = false
				best.Value = v
				best.Regions = nil
				for _, i := range subset {
					best.Regions = append(best.Regions, m.Regions[i])
				}
			}
		})
		results = append(results, best)
	}
	return results, nil
}

// GreedyK is the ablation comparator: grow the region set greedily
// instead of exhaustively, on the same par-fanned samples.
func (m *Model) GreedyK(metric Metric, maxK, rounds int, interval time.Duration, start time.Time, seed int64, par parallel.Options) ([]OptimalKResult, error) {
	s, err := m.collect(metric, rounds, interval, start, seed, par)
	if err != nil {
		return nil, err
	}
	var chosen []int
	var results []OptimalKResult
	remaining := map[int]bool{}
	for i := range m.Regions {
		remaining[i] = true
	}
	for k := 1; k <= maxK && k <= len(m.Regions); k++ {
		bestIdx, bestVal, first := -1, 0.0, true
		var cand []int
		for i := range remaining {
			if !remaining[i] {
				continue
			}
			cand = append(cand[:0], chosen...)
			cand = append(cand, i)
			v := s.score(metric, cand)
			better := v < bestVal
			if metric == MetricThroughput {
				better = v > bestVal
			}
			if first || better {
				first, bestVal, bestIdx = false, v, i
			}
		}
		chosen = append(chosen, bestIdx)
		delete(remaining, bestIdx)
		regions := make([]string, len(chosen))
		for i, idx := range chosen {
			regions[i] = m.Regions[idx]
		}
		sort.Strings(regions)
		results = append(results, OptimalKResult{K: k, Regions: regions, Value: bestVal})
	}
	return results, nil
}

// score averages each client's per-round best value over a subset.
func (s *samples) score(metric Metric, subset []int) float64 {
	total, count := 0.0, 0
	for _, perClient := range s.vals {
		for _, vals := range perClient {
			best := vals[subset[0]]
			for _, ri := range subset[1:] {
				if metric == MetricLatency && vals[ri] < best {
					best = vals[ri]
				}
				if metric == MetricThroughput && vals[ri] > best {
					best = vals[ri]
				}
			}
			total += best
			count++
		}
	}
	return total / float64(count)
}

// forEachSubset enumerates k-subsets of [0, n).
func forEachSubset(n, k int, fn func([]int)) {
	subset := make([]int, k)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			fn(subset)
			return
		}
		for i := start; i < n; i++ {
			subset[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
}
