package wanperf

import (
	"math"
	"testing"

	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
	"cloudscope/internal/wan"
)

func newCampaign() *Campaign {
	c := NewCampaign(3, 80, ipranges.EC2Regions)
	c.Rounds = 96 // one day at 15-minute rounds keeps tests quick
	return c
}

func TestMatrixShapes(t *testing.T) {
	c := newCampaign()
	lat := must(c.Matrix(wan.MetricLatency, USRegions, 15))
	if len(lat) != 15*3 {
		t.Fatalf("cells = %d", len(lat))
	}
	byClient := map[string]map[string]float64{}
	for _, cell := range lat {
		if cell.Mean <= 0 || cell.Samples != c.Rounds {
			t.Fatalf("bad cell %+v", cell)
		}
		if byClient[cell.Client] == nil {
			byClient[cell.Client] = map[string]float64{}
		}
		byClient[cell.Client][cell.Region] = cell.Mean
	}
	// Seattle strongly prefers a west-coast region.
	if m, ok := byClient["Seattle"]; ok {
		if m["ec2.us-west-2"] >= m["ec2.us-east-1"] {
			t.Fatalf("Seattle: west %.0f >= east %.0f", m["ec2.us-west-2"], m["ec2.us-east-1"])
		}
		if m["ec2.us-east-1"]/m["ec2.us-west-2"] < 2 {
			t.Fatalf("Seattle latency ratio %.1f, want factor >2 (paper: ~6)", m["ec2.us-east-1"]/m["ec2.us-west-2"])
		}
	}
	thr := must(c.Matrix(wan.MetricThroughput, USRegions, 15))
	for _, cell := range thr {
		if cell.Mean < 10 || cell.Mean > 20000 {
			t.Fatalf("throughput cell %+v implausible", cell)
		}
	}
}

func TestBoulderSeries(t *testing.T) {
	c := newCampaign()
	series := must(c.TimeSeries("Boulder", USRegions))
	if len(series) != 3 {
		t.Fatalf("series = %d", len(series))
	}
	// The best region changes at least once over the campaign.
	bestAt := func(i int) string {
		best, bestV := "", math.Inf(1)
		for r, pts := range series {
			if pts[i].Y < bestV {
				best, bestV = r, pts[i].Y
			}
		}
		return best
	}
	changes := 0
	prev := bestAt(0)
	for i := 1; i < c.Rounds; i++ {
		if b := bestAt(i); b != prev {
			changes++
			prev = b
		}
	}
	if changes == 0 {
		t.Fatal("Boulder's best region never changed")
	}
	if series["ec2.us-east-1"][0].X != 0 {
		t.Fatal("series X should start at hour 0")
	}
	if _, ok := must(c.TimeSeries("Nowhere", USRegions))["ec2.us-east-1"]; ok {
		t.Fatal("unknown client should yield nil")
	}
}

func TestOptimalKFigure12(t *testing.T) {
	c := newCampaign()
	res := must(c.OptimalK(wan.MetricLatency, 4))
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	drop3 := (res[0].Value - res[2].Value) / res[0].Value
	if drop3 < 0.15 || drop3 > 0.55 {
		t.Fatalf("k=3 latency drop %.2f, want ~0.33", drop3)
	}
	greedy := must(c.GreedyK(wan.MetricLatency, 4))
	for i := range res {
		if greedy[i].Value < res[i].Value-1e-9 {
			t.Fatalf("greedy beat exhaustive at k=%d", i+1)
		}
	}
}

func TestIntraCloudRTTTable11(t *testing.T) {
	ec2 := cloud.NewEC2(33)
	rows := must(IntraCloudRTTs(ec2, "ec2.us-east-1", core.Options{Seed: 7, Par: parallel.Options{Workers: 1}}))
	if len(rows) != len(cloud.InstanceTypes)*3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MinMs > r.MedianMs {
			t.Fatalf("min %.2f > median %.2f", r.MinMs, r.MedianMs)
		}
		if r.DestZone == "a" {
			// Same-zone: ~0.5 ms regardless of instance type.
			if r.MinMs < 0.3 || r.MinMs > 0.8 {
				t.Fatalf("same-zone min %.2f ms for %s", r.MinMs, r.InstanceType)
			}
		} else {
			if r.MinMs < 1.0 || r.MinMs > 3.0 {
				t.Fatalf("cross-zone min %.2f ms", r.MinMs)
			}
		}
	}
}

func TestISPDiversityTable16(t *testing.T) {
	m := wan.New(5, 200, ipranges.EC2Regions)
	zoneCounts := map[string]int{
		"ec2.us-east-1": 3, "ec2.us-west-1": 2, "ec2.sa-east-1": 2,
	}
	rows := must(ISPDiversity(m, zoneCounts, core.Options{Seed: 9, Par: parallel.Options{Workers: 1}}))
	byRegion := map[string]ISPRow{}
	for _, r := range rows {
		byRegion[r.Region] = r
	}
	east := byRegion["ec2.us-east-1"]
	sa := byRegion["ec2.sa-east-1"]
	if len(east.PerZone) != 3 || len(sa.PerZone) != 2 {
		t.Fatalf("zone columns wrong: %+v %+v", east, sa)
	}
	// us-east sees far more downstream ISPs than sa-east (36 vs 4).
	if east.PerZone[0] <= sa.PerZone[0] {
		t.Fatalf("east %d <= sa %d", east.PerZone[0], sa.PerZone[0])
	}
	if east.PerZone[0] > 36 || sa.PerZone[0] > 4 {
		t.Fatalf("observed more ISPs than exist: %+v %+v", east, sa)
	}
	if sa.PerZone[0] < 3 {
		t.Fatalf("sa-east observed only %d of 4 ISPs from 200 clients", sa.PerZone[0])
	}
	// Uneven spread: top ISP share ~30%.
	if east.TopShare < 0.10 || east.TopShare > 0.55 {
		t.Fatalf("us-east top-ISP share %.2f", east.TopShare)
	}
	// Zones of a region see (almost) the same counts.
	if diff := east.PerZone[0] - east.PerZone[2]; diff < -6 || diff > 6 {
		t.Fatalf("zone counts diverge: %v", east.PerZone)
	}
}

func TestOutagesImproveWithK(t *testing.T) {
	c := newCampaign()
	res := must(c.Outages(3, 25))
	if res.MeanUnreachable[1] <= res.MeanUnreachable[3] {
		// strictly better with 3 regions (could tie at 0 in theory).
		if res.MeanUnreachable[1] != 0 {
			t.Fatalf("outage risk not reduced: %v", res.MeanUnreachable)
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
