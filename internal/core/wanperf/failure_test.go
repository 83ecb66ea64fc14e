package wanperf

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudscope/internal/chaos"
	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/parallel"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/wan"
)

// Failure injection for §5's WAN benchmarks: regional brownouts and
// vantage outages shrink what gets measured, never what a measurement
// says. Surviving rows are byte-identical to the fault-free run's, and
// Completeness reports the holes.

func renderRTTRows(rows []RTTRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s %s %.6f %.6f\n", r.InstanceType, r.DestZone, r.MinMs, r.MedianMs)
	}
	return b.String()
}

// TestRegionalBrownoutIntraCloudRTTs: loss eats pairs out of Table 11,
// and what survives must not be perturbed — an injected fault may hide
// a measurement, never skew one, unless the brownout explicitly
// inflates it.
func TestRegionalBrownoutIntraCloudRTTs(t *testing.T) {
	baseline := must(IntraCloudRTTs(cloud.NewEC2(41), "ec2.us-east-1", core.Options{Seed: 5}))

	sc, err := chaos.Parse("loss,p=0.9,region=us-east,window=0.1-0.9")
	if err != nil {
		t.Fatal(err)
	}
	comp := telemetry.NewCompleteness()
	faulted := must(IntraCloudRTTs(cloud.NewEC2(41), "ec2.us-east-1", core.Options{Seed: 5, Par: parallel.Options{Workers: 2}, Chaos: chaos.New(sc, 13), Completeness: comp}))

	if len(faulted) >= len(baseline) {
		t.Fatalf("90%% probe loss dropped no rows: %d vs %d", len(faulted), len(baseline))
	}
	if len(faulted) == 0 {
		t.Fatal("benchmark collapsed under partial loss")
	}
	// Every surviving row matches the fault-free run exactly: probe
	// values draw before the loss verdict... except rows that lost some
	// (not all) pings, whose min/median pool shrank. Check subset on
	// the (type, zone) key, and that at least the fully-surviving rows
	// are byte-equal.
	base := map[string]RTTRow{}
	for _, r := range baseline {
		base[r.InstanceType+"|"+r.DestZone] = r
	}
	exact := 0
	for _, r := range faulted {
		br, ok := base[r.InstanceType+"|"+r.DestZone]
		if !ok {
			t.Fatalf("phantom row %s/%s under loss", r.InstanceType, r.DestZone)
		}
		if r == br {
			exact++
		}
		// A lossy pool can only raise the observed minimum.
		if r.MinMs < br.MinMs {
			t.Fatalf("loss lowered min RTT for %s/%s: %.3f < %.3f", r.InstanceType, r.DestZone, r.MinMs, br.MinMs)
		}
	}
	if exact == 0 {
		t.Fatal("no surviving row is byte-equal to baseline")
	}
	st, ok := comp.Stage("wanperf/rtt")
	if !ok {
		t.Fatal("no wanperf/rtt stage recorded")
	}
	if st.Abandoned == 0 {
		t.Fatal("probe loss recorded no abandoned pings")
	}
	if st.Attempted != st.Succeeded+st.Abandoned {
		t.Fatalf("accounting does not add up: %+v", st)
	}
}

// TestVantageOutageMatrix: clients that go dark mid-campaign lose
// rounds from their (client, region) means; untouched clients keep
// byte-identical cells.
func TestVantageOutageMatrix(t *testing.T) {
	regions := []string{"ec2.us-east-1", "ec2.eu-west-1"}
	newCampaign := func() *Campaign {
		c := NewCampaign(3, 12, regions)
		c.Rounds = 48
		c.Interval = 15 * time.Minute
		return c
	}
	base := newCampaign()
	baseCells := must(base.Matrix(wan.MetricLatency, regions, 12))

	sc, err := chaos.Parse("vantage-down,frac=0.4,window=0.2-0.8")
	if err != nil {
		t.Fatal(err)
	}
	fc := newCampaign()
	fc.Chaos = chaos.New(sc, 29)
	fc.Completeness = telemetry.NewCompleteness()
	cells := must(fc.Matrix(wan.MetricLatency, regions, 12))

	if len(cells) != len(baseCells) {
		t.Fatalf("cell count changed: %d vs %d", len(cells), len(baseCells))
	}
	degraded, identical := 0, 0
	for i, c := range cells {
		bc := baseCells[i]
		if c.Client != bc.Client || c.Region != bc.Region {
			t.Fatalf("cell order changed at %d: %s/%s vs %s/%s", i, c.Client, c.Region, bc.Client, bc.Region)
		}
		switch {
		case c.Samples < bc.Samples:
			degraded++
		case c == bc:
			identical++
		default:
			t.Fatalf("cell %s/%s changed without losing samples: %+v vs %+v", c.Client, c.Region, c, bc)
		}
	}
	if degraded == 0 {
		t.Fatal("outage degraded no cells")
	}
	if identical == 0 {
		t.Fatal("no client escaped the outage untouched")
	}
	if !fc.Completeness.Degraded() {
		t.Fatal("completeness does not report degradation")
	}
}

// TestWanperfChaosWorkerInvariant: the faulted benchmarks, and the
// campaign's subset search and outage simulation on its Par, are
// byte-identical at every worker count, completeness included.
func TestWanperfChaosWorkerInvariant(t *testing.T) {
	sc, err := chaos.Parse("loss,p=0.25,region=us-east,window=0.1-0.9;vantage-down,frac=0.3,window=0.2-0.8;brownout,region=us-east,add=30ms,window=0.3-0.7")
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"ec2.us-east-1", "ec2.eu-west-1"}
	run := func(workers int) (string, string) {
		eng := chaos.New(sc, 19)
		comp := telemetry.NewCompleteness()
		camp := NewCampaign(3, 10, regions)
		camp.Rounds = 24
		camp.Par = parallel.Options{Workers: workers}
		camp.Chaos, camp.Completeness = eng, comp
		cells := must(camp.Matrix(wan.MetricLatency, regions, 10))
		rows := must(IntraCloudRTTs(cloud.NewEC2(43), "ec2.us-east-1", core.Options{Seed: 5, Par: parallel.Options{Workers: workers}, Chaos: eng, Completeness: comp}))
		isp := must(ISPDiversity(camp.Model, map[string]int{"ec2.us-east-1": 3, "ec2.eu-west-1": 2}, core.Options{Seed: 7, Par: parallel.Options{Workers: workers}, Chaos: eng, Completeness: comp}))
		best := must(camp.OptimalK(wan.MetricLatency, 2))
		outages := must(camp.Outages(2, 30))
		var b strings.Builder
		for _, c := range cells {
			fmt.Fprintf(&b, "%s %s %.6f %d\n", c.Client, c.Region, c.Mean, c.Samples)
		}
		b.WriteString(renderRTTRows(rows))
		for _, r := range isp {
			fmt.Fprintf(&b, "%v\n", r)
		}
		for _, r := range best {
			fmt.Fprintf(&b, "k=%d %v %.6f\n", r.K, r.Regions, r.Value)
		}
		fmt.Fprintf(&b, "outages %d %v\n", outages.Trials, outages.MeanUnreachable)
		return b.String(), comp.Report()
	}
	out1, rep1 := run(1)
	for _, workers := range []int{2, 4} {
		out, rep := run(workers)
		if out != out1 {
			t.Errorf("benchmark output differs at Workers=%d", workers)
		}
		if rep != rep1 {
			t.Errorf("completeness differs at Workers=%d:\n%s\nvs\n%s", workers, rep, rep1)
		}
	}
}
