package cartography

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"cloudscope/internal/chaos"
	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/parallel"
	"cloudscope/internal/telemetry"
)

// Failure injection for §4's cartography: accounts drop out
// mid-campaign and regions brown out under the probes, but whatever the
// methods still report must be a subset of what a fault-free run would
// have found, and Completeness must say exactly what was lost.

// renderLat serializes latency results for byte comparison (outcomes
// keyed by public IP, never by pointer).
func renderLat(res map[string]*LatencyRegionResult) string {
	regions := make([]string, 0, len(res))
	for r := range res {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	var b strings.Builder
	for _, region := range regions {
		rr := res[region]
		fmt.Fprintf(&b, "%s targets=%d responding=%d unknown=%d\n", region, rr.Targets, rr.Responding, rr.Unknown)
		for _, o := range rr.Outcomes {
			fmt.Fprintf(&b, "  %v zone=%d\n", o.Target.PublicIP, o.Zone)
		}
	}
	return b.String()
}

func renderSamples(samples []Sample) string {
	var b strings.Builder
	for _, s := range samples {
		fmt.Fprintf(&b, "%s %s %s %v\n", s.Account, s.Region, s.Label, s.InternalIP)
	}
	return b.String()
}

func mustScenario(t *testing.T, spec string) *chaos.Scenario {
	t.Helper()
	sc, err := chaos.Load(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestAccountOutageDuringSampling: an account going dark mid-campaign
// loses its planned launches, the survivors still merge into a usable
// proximity map, and the per-account accounting adds up.
func TestAccountOutageDuringSampling(t *testing.T) {
	sc := mustScenario(t, "account-down,frac=0.4,window=0.2-0.9")
	eng := chaos.New(sc, 9)
	c := cloud.NewEC2(31)
	ref := c.NewAccount("ref")
	comp := telemetry.NewCompleteness()
	samples := must(SampleAccounts(c, ref, 4, 3, core.Options{Seed: 5, Par: parallel.Options{Workers: 2}, Chaos: eng, Completeness: comp}))

	st, ok := comp.Stage("cartography/sample")
	if !ok {
		t.Fatal("no cartography/sample stage recorded")
	}
	if st.Abandoned == 0 {
		t.Fatal("account outage recorded no abandoned launches")
	}
	if st.Attempted != st.Succeeded+st.Abandoned {
		t.Fatalf("accounting does not add up: %+v", st)
	}
	if int64(len(samples)) != st.Succeeded {
		t.Fatalf("%d samples but %d successes recorded", len(samples), st.Succeeded)
	}
	// Every surviving sample is truthful: its label exists under its
	// account and its instance really sits in that region.
	for _, s := range samples {
		if s.Region == "" || s.Label == "" {
			t.Fatalf("corrupt sample %+v", s)
		}
	}
	// The partial sample set still yields a proximity map anchored on
	// the reference account.
	pm := must(MergeAccounts(samples, ref.Name, core.Options{}))
	if len(pm.ZoneOf16) == 0 {
		t.Fatal("partial samples produced an empty proximity map")
	}
}

// TestRegionalBrownoutLatencyProbes: a brownout plus loss scoped to
// us-east degrades that region's identification — and only that
// region's. Unfaulted regions stay byte-identical to a fault-free run.
func TestRegionalBrownoutLatencyProbes(t *testing.T) {
	build := func() (*cloud.Cloud, *cloud.Account, []*cloud.Instance) {
		c := cloud.NewEC2(33)
		acct := c.NewAccount("probe-acct")
		targets := launchTargets(c, "ec2.us-east-1", 200)
		targets = append(targets, launchTargets(c, "ec2.eu-west-1", 200)...)
		return c, acct, targets
	}

	c0, a0, t0 := build()
	baseline := must(IdentifyByLatency(c0, a0, t0, ThresholdMs, core.Options{Seed: 1}))

	sc := mustScenario(t, "brownout,region=us-east,add=50ms;loss,p=0.4,region=us-east")
	c1, a1, t1 := build()
	comp := telemetry.NewCompleteness()
	faulted := must(IdentifyByLatency(c1, a1, t1, ThresholdMs, core.Options{Seed: 1, Par: parallel.Options{Workers: 3}, Chaos: chaos.New(sc, 17), Completeness: comp}))

	// The unfaulted region is untouched, byte for byte.
	if renderLat(map[string]*LatencyRegionResult{"ec2.eu-west-1": faulted["ec2.eu-west-1"]}) !=
		renderLat(map[string]*LatencyRegionResult{"ec2.eu-west-1": baseline["ec2.eu-west-1"]}) {
		t.Fatal("brownout scoped to us-east changed eu-west results")
	}
	// The faulted region lost probes to injected loss...
	fe, be := faulted["ec2.us-east-1"], baseline["ec2.us-east-1"]
	if fe.Responding >= be.Responding {
		t.Fatalf("injected loss did not reduce responding targets: %d vs %d", fe.Responding, be.Responding)
	}
	// ...and the brownout inflates min-RTTs past T, so the survivors
	// skew to unknown rather than ever flipping to a wrong zone.
	if fe.UnknownRate() <= be.UnknownRate() {
		t.Fatalf("brownout did not raise unknown rate: %.3f vs %.3f", fe.UnknownRate(), be.UnknownRate())
	}
	st, ok := comp.Stage("cartography/latency")
	if !ok {
		t.Fatal("no cartography/latency stage recorded")
	}
	if st.Abandoned == 0 {
		t.Fatal("probe loss recorded no abandoned probes")
	}
	if st.Attempted != int64(len(t1)) {
		t.Fatalf("attempted %d, want one per target (%d)", st.Attempted, len(t1))
	}
}

// TestCartographyChaosWorkerInvariant: fault verdicts are pure hash
// draws over stable identities, so faulted cartography is byte-identical
// at every worker count.
func TestCartographyChaosWorkerInvariant(t *testing.T) {
	sc := mustScenario(t, "brownout,region=us-east,add=40ms;loss,p=0.2,region=us-east;account-down,frac=0.4,window=0.1-0.8")
	run := func(workers int) (string, string, string) {
		c := cloud.NewEC2(35)
		acct := c.NewAccount("probe-acct")
		targets := launchTargets(c, "ec2.us-east-1", 150)
		targets = append(targets, launchTargets(c, "ec2.eu-west-1", 150)...)
		eng := chaos.New(sc, 7)
		comp := telemetry.NewCompleteness()
		lat := must(IdentifyByLatency(c, acct, targets, ThresholdMs, core.Options{Seed: 1, Par: parallel.Options{Workers: workers}, Chaos: eng, Completeness: comp}))
		samples := must(SampleAccounts(c, acct, 3, 2, core.Options{Seed: 5, Par: parallel.Options{Workers: workers}, Chaos: eng, Completeness: comp}))
		return renderLat(lat), renderSamples(samples), comp.Report()
	}
	lat1, smp1, rep1 := run(1)
	for _, workers := range []int{2, 4} {
		lat, smp, rep := run(workers)
		if lat != lat1 {
			t.Errorf("latency results differ at Workers=%d", workers)
		}
		if smp != smp1 {
			t.Errorf("samples differ at Workers=%d", workers)
		}
		if rep != rep1 {
			t.Errorf("completeness differs at Workers=%d:\n%s\nvs\n%s", workers, rep, rep1)
		}
	}
}
