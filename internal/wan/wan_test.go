package wan

import (
	"math"
	"testing"
	"time"

	"cloudscope/internal/geo"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
	"cloudscope/internal/xrand"
)

var start = time.Date(2013, 4, 10, 0, 0, 0, 0, time.UTC)

func newModel(nClients int) *Model {
	return New(7, nClients, ipranges.EC2Regions)
}

func clientNamed(m *Model, name string) geo.Vantage {
	for _, c := range m.Clients {
		if c.Name == name {
			return c
		}
	}
	panic("no client " + name)
}

func TestGeographyDominatesLatency(t *testing.T) {
	m := newModel(32)
	rng := xrand.New(1)
	seattle := clientNamed(m, "Seattle")
	near := 0.0
	far := 0.0
	for i := 0; i < 50; i++ {
		near += m.RTT(seattle, "ec2.us-west-2", start, rng)
		far += m.RTT(seattle, "ec2.us-east-1", start, rng)
	}
	if near >= far {
		t.Fatalf("Seattle: us-west-2 (%.0f) should beat us-east-1 (%.0f)", near/50, far/50)
	}
	// Factor of ~3+ per the paper's Seattle observation.
	if far/near < 2 {
		t.Fatalf("latency ratio %.1f, want >2", far/near)
	}
}

func TestThroughputInverseWithLatency(t *testing.T) {
	m := newModel(32)
	rng := xrand.New(2)
	seattle := clientNamed(m, "Seattle")
	near, far := 0.0, 0.0
	for i := 0; i < 50; i++ {
		near += m.Throughput(seattle, "ec2.us-west-2", start, rng)
		far += m.Throughput(seattle, "ec2.sa-east-1", start, rng)
	}
	if near <= far {
		t.Fatalf("throughput: near %.0f <= far %.0f", near/50, far/50)
	}
}

func TestBestRegionFlipsForSomeClient(t *testing.T) {
	// Figure 11: at least one client's best US region changes over 72h.
	m := newModel(len(geo.Catalog()))
	rng := xrand.New(3)
	usRegions := []string{"ec2.us-east-1", "ec2.us-west-1", "ec2.us-west-2"}
	flips := 0
	for _, c := range m.Clients {
		prevBest := ""
		changed := false
		for h := 0; h < 72; h++ {
			tm := start.Add(time.Duration(h) * time.Hour)
			best, bestV := "", math.Inf(1)
			for _, r := range usRegions {
				// Use min of 3 samples to suppress jitter-only flips.
				v := math.Inf(1)
				for i := 0; i < 3; i++ {
					if s := m.RTT(c, r, tm, rng); s < v {
						v = s
					}
				}
				if v < bestV {
					best, bestV = r, v
				}
			}
			if prevBest != "" && best != prevBest {
				changed = true
			}
			prevBest = best
		}
		if changed {
			flips++
		}
	}
	if flips == 0 {
		t.Fatal("no client's best region ever changed")
	}
	if flips == len(m.Clients) {
		t.Fatal("every client flips constantly; ranking has no stability")
	}
}

func TestOptimalKDiminishingReturns(t *testing.T) {
	m := newModel(40)
	res := must(m.OptimalK(MetricLatency, 5, 24, time.Hour, start, 11, parallel.Options{}))
	if len(res) != 5 {
		t.Fatalf("results = %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Value > res[i-1].Value+1e-9 {
			t.Fatalf("latency increased from k=%d (%.1f) to k=%d (%.1f)", i, res[i-1].Value, i+1, res[i].Value)
		}
	}
	// Paper: k=3 gives ~33% lower latency than k=1; returns diminish.
	drop3 := (res[0].Value - res[2].Value) / res[0].Value
	if drop3 < 0.15 || drop3 > 0.55 {
		t.Fatalf("k=3 improvement %.2f, want ~0.33", drop3)
	}
	drop45 := (res[3].Value - res[4].Value) / res[0].Value
	if drop45 > drop3/3 {
		t.Fatalf("k=5 marginal gain %.3f not diminishing vs %.3f", drop45, drop3)
	}
	// us-east-1 is in every best set (most clients are NA/EU).
	for _, r := range res {
		found := false
		for _, region := range r.Regions {
			if region == "ec2.us-east-1" {
				found = true
			}
		}
		if !found {
			t.Fatalf("k=%d best set %v excludes us-east-1", r.K, r.Regions)
		}
	}
}

func TestOptimalKThroughputIncreases(t *testing.T) {
	m := newModel(24)
	res := must(m.OptimalK(MetricThroughput, 4, 12, time.Hour, start, 12, parallel.Options{}))
	for i := 1; i < len(res); i++ {
		if res[i].Value < res[i-1].Value-1e-9 {
			t.Fatalf("throughput decreased at k=%d", i+1)
		}
	}
}

func TestGreedyNearOptimal(t *testing.T) {
	m := newModel(24)
	opt := must(m.OptimalK(MetricLatency, 4, 12, time.Hour, start, 13, parallel.Options{}))
	greedy := must(m.GreedyK(MetricLatency, 4, 12, time.Hour, start, 13, parallel.Options{}))
	for i := range opt {
		if greedy[i].Value < opt[i].Value-1e-9 {
			t.Fatalf("greedy beat exhaustive at k=%d", i+1)
		}
		if greedy[i].Value > opt[i].Value*1.15 {
			t.Fatalf("greedy %.1f far from optimal %.1f at k=%d", greedy[i].Value, opt[i].Value, i+1)
		}
	}
}

func TestDownstreamISPCounts(t *testing.T) {
	m := newModel(8)
	if got := len(m.DownstreamISPs("ec2.us-east-1", 0)); got != 36 {
		t.Fatalf("us-east zone0 ISPs = %d", got)
	}
	if got := len(m.DownstreamISPs("ec2.sa-east-1", 1)); got != 4 {
		t.Fatalf("sa-east zone1 ISPs = %d", got)
	}
	// Out-of-range zone clamps.
	if got := len(m.DownstreamISPs("ec2.us-west-1", 9)); got != 19 {
		t.Fatalf("clamped zone ISPs = %d", got)
	}
}

func TestTracerouteStructure(t *testing.T) {
	m := newModel(16)
	rng := xrand.New(5)
	c := m.Clients[3]
	hops := m.Traceroute(c, "ec2.eu-west-1", 1, rng)
	if len(hops) < 4 {
		t.Fatalf("hops = %d", len(hops))
	}
	if hops[0].ASN != cloudASN {
		t.Fatalf("first hop ASN = %d", hops[0].ASN)
	}
	isp, ok := FirstDownstream(hops)
	if !ok || isp == cloudASN {
		t.Fatalf("downstream = %d ok=%v", isp, ok)
	}
	pool := m.DownstreamISPs("ec2.eu-west-1", 1)
	found := false
	for _, p := range pool {
		if p == isp {
			found = true
		}
	}
	if !found {
		t.Fatal("downstream ISP not from region pool")
	}
	for i := 2; i < len(hops); i++ {
		if hops[i].RTT < hops[1].RTT {
			t.Fatal("hop RTTs not increasing outward")
		}
	}
	// Determinism of the route (not the jitter): same ISP every time.
	isp2, _ := FirstDownstream(m.Traceroute(c, "ec2.eu-west-1", 1, xrand.New(99)))
	if isp2 != isp {
		t.Fatal("client route ISP not stable")
	}
}

func TestRouteSpreadUneven(t *testing.T) {
	m := newModel(200)
	counts := map[int]int{}
	for _, c := range m.Clients {
		counts[m.routeISP(c, "ec2.us-west-1", 0)]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	frac := float64(max) / float64(len(m.Clients))
	// Paper: up to ~31% of routes share one downstream ISP.
	if frac < 0.12 || frac > 0.5 {
		t.Fatalf("top ISP share %.2f, want ~0.3", frac)
	}
	if len(counts) < 8 {
		t.Fatalf("only %d ISPs observed from 200 clients", len(counts))
	}
}

func TestOutageSimulation(t *testing.T) {
	m := newModel(100)
	res := must(m.SimulateOutages([]string{"ec2.us-east-1", "ec2.ap-northeast-1", "ec2.us-west-1"}, 3, 40, 17, parallel.Options{}))
	u1, u2, u3 := res.MeanUnreachable[1], res.MeanUnreachable[2], res.MeanUnreachable[3]
	if u1 <= 0 {
		t.Fatal("single-region outages never cut anyone off")
	}
	if !(u1 > u2 && u2 >= u3) {
		t.Fatalf("unreachability not decreasing: %.4f %.4f %.4f", u1, u2, u3)
	}
	if u2 > u1/2 {
		t.Fatalf("second region too weak: %.4f vs %.4f", u2, u1)
	}
}

func TestWhois(t *testing.T) {
	if Whois(cloudASN) != "AS16509 AMAZON-02" {
		t.Fatal("cloud whois wrong")
	}
	if Whois(7042) == "" || Whois(64501) == "" {
		t.Fatal("whois empty")
	}
}

func TestDeterministicModel(t *testing.T) {
	a, b := newModel(16), newModel(16)
	ra, rb := xrand.New(4), xrand.New(4)
	for i := 0; i < 50; i++ {
		c := a.Clients[i%16]
		va := a.RTT(c, "ec2.us-east-1", start.Add(time.Duration(i)*time.Minute), ra)
		vb := b.RTT(c, "ec2.us-east-1", start.Add(time.Duration(i)*time.Minute), rb)
		if va != vb {
			t.Fatal("RTT not deterministic")
		}
	}
}

// must unwraps a campaign run; these runs have no cancellable context,
// so an error can only be a worker panic.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
