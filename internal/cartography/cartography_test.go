package cartography

import (
	"testing"

	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/parallel"
)

// launchTargets spreads n VMs across a region's zones.
func launchTargets(c *cloud.Cloud, region string, n int) []*cloud.Instance {
	zc := c.ZoneCount(region)
	out := make([]*cloud.Instance, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, c.Launch(region, i%zc, "m1.small", cloud.KindVM))
	}
	return out
}

// trueZoneOf translates a reference-label zone index to the provider's
// true zone (ground truth the algorithms never see).
func trueZoneOf(acct *cloud.Account, region string, labelIdx int) int {
	return acct.TrueZone(region, string(rune('a'+labelIdx)))
}

func TestLatencyMethodUSEast(t *testing.T) {
	c := cloud.NewEC2(21)
	acct := c.NewAccount("probe-acct")
	targets := launchTargets(c, "ec2.us-east-1", 300)
	res := must(IdentifyByLatency(c, acct, targets, ThresholdMs, core.Options{Seed: 1, Par: parallel.Options{Workers: 1}}))
	rr := res["ec2.us-east-1"]
	if rr == nil || rr.Targets != 300 {
		t.Fatalf("result: %+v", rr)
	}
	if rr.Responding < 280 {
		t.Fatalf("responding = %d", rr.Responding)
	}
	// us-east is the paper's best case: low unknown rate, low error.
	if rate := rr.UnknownRate(); rate > 0.25 {
		t.Fatalf("unknown rate %.2f too high", rate)
	}
	correct, wrong := 0, 0
	for _, o := range rr.Outcomes {
		if o.Zone < 0 {
			continue
		}
		if trueZoneOf(acct, "ec2.us-east-1", o.Zone) == o.Target.ZoneIndex {
			correct++
		} else {
			wrong++
		}
	}
	if errRate := float64(wrong) / float64(correct+wrong); errRate > 0.08 {
		t.Fatalf("us-east error rate %.3f, want <3%%-ish", errRate)
	}
}

func TestLatencyMethodEuWestErrs(t *testing.T) {
	c := cloud.NewEC2(22)
	acct := c.NewAccount("probe-acct")
	targets := launchTargets(c, "ec2.eu-west-1", 300)
	res := must(IdentifyByLatency(c, acct, targets, ThresholdMs, core.Options{Seed: 2, Par: parallel.Options{Workers: 1}}))
	rr := res["ec2.eu-west-1"]
	wrong, known := 0, 0
	for _, o := range rr.Outcomes {
		if o.Zone < 0 {
			continue
		}
		known++
		if trueZoneOf(acct, "ec2.eu-west-1", o.Zone) != o.Target.ZoneIndex {
			wrong++
		}
	}
	errRate := float64(wrong) / float64(known)
	// The planted fabric anomaly defeats the method for zone-1 targets.
	if errRate < 0.10 {
		t.Fatalf("eu-west error rate %.3f, want ~0.25", errRate)
	}
}

func TestLatencyMissingProbeZone(t *testing.T) {
	c := cloud.NewEC2(23)
	acct := c.NewAccount("probe-acct")
	targets := launchTargets(c, "ec2.ap-northeast-1", 200)
	res := must(IdentifyByLatency(c, acct, targets, ThresholdMs, core.Options{Seed: 3, Par: parallel.Options{Workers: 1}}))
	rr := res["ec2.ap-northeast-1"]
	// One label has no probes: targets in that true zone are unknowable.
	if rate := rr.UnknownRate(); rate < 0.35 {
		t.Fatalf("ap-northeast unknown rate %.2f, want ~0.5", rate)
	}
	if rr.ZoneCounts[1] != 0 {
		t.Fatalf("assigned %d targets to unprobed zone label", rr.ZoneCounts[1])
	}
}

func TestSampleAccounts(t *testing.T) {
	c := cloud.NewEC2(24)
	ref := c.NewAccount("ref")
	samples := must(SampleAccounts(c, ref, 2, 2, core.Options{Seed: 5, Par: parallel.Options{Workers: 1}}))
	// 3 accounts × sum of zones (3+2+3+3+2+2+2+2=19) × 2.
	if len(samples) != 3*19*2 {
		t.Fatalf("samples = %d", len(samples))
	}
	if samples[0].Account != "ref" {
		t.Fatal("reference samples must come first")
	}
	for _, s := range samples {
		if s.InternalIP == 0 {
			t.Fatal("sample without internal IP")
		}
	}
}

func TestMergeAccountsRecoversZones(t *testing.T) {
	c := cloud.NewEC2(25)
	ref := c.NewAccount("ref")
	samples := must(SampleAccounts(c, ref, 5, 4, core.Options{Seed: 6, Par: parallel.Options{Workers: 1}}))
	pm := must(MergeAccounts(samples, "", core.Options{Par: parallel.Options{Workers: 1}}))
	if pm.Reference != "ref" {
		t.Fatalf("reference = %q", pm.Reference)
	}
	for _, region := range []string{"ec2.us-east-1", "ec2.us-west-2"} {
		targets := launchTargets(c, region, 120)
		correct, wrong, unknown := 0, 0, 0
		for _, tgt := range targets {
			z, ok := pm.Identify(region, tgt.InternalIP)
			if !ok {
				unknown++
				continue
			}
			if trueZoneOf(ref, region, z) == tgt.ZoneIndex {
				correct++
			} else {
				wrong++
			}
		}
		if unknown > len(targets)/2 {
			t.Fatalf("%s: %d/%d unknown", region, unknown, len(targets))
		}
		if wrong > 0 {
			t.Fatalf("%s: %d proximity misidentifications (should be exact)", region, wrong)
		}
		if correct == 0 {
			t.Fatalf("%s: nothing identified", region)
		}
	}
}

func TestMergePermutationsAreBijections(t *testing.T) {
	c := cloud.NewEC2(26)
	ref := c.NewAccount("ref")
	samples := must(SampleAccounts(c, ref, 4, 3, core.Options{Seed: 7, Par: parallel.Options{Workers: 1}}))
	pm := must(MergeAccounts(samples, "", core.Options{Par: parallel.Options{Workers: 1}}))
	if len(pm.Permutations) == 0 {
		t.Fatal("no permutations recorded")
	}
	for acct, regions := range pm.Permutations {
		for region, perm := range regions {
			seen := map[int]bool{}
			for _, v := range perm {
				if seen[v] {
					t.Fatalf("%s/%s perm %v not a bijection", acct, region, perm)
				}
				seen[v] = true
			}
		}
	}
}

func TestMergeRecoversTruePermutations(t *testing.T) {
	// The merge must recover each account's actual label permutation
	// relative to the reference (up to zones with no shared /16s).
	c := cloud.NewEC2(30)
	ref := c.NewAccount("ref")
	samples := must(SampleAccounts(c, ref, 3, 6, core.Options{Seed: 8, Par: parallel.Options{Workers: 1}}))
	pm := must(MergeAccounts(samples, "", core.Options{Par: parallel.Options{Workers: 1}}))
	region := "ec2.us-east-1"
	for acct, regions := range pm.Permutations {
		perm := regions[region]
		other := c.NewAccount(acct) // deterministic: same permutation
		for li, refIdx := range perm {
			gotTrue := other.TrueZone(region, string(rune('a'+li)))
			wantTrue := ref.TrueZone(region, string(rune('a'+refIdx)))
			if gotTrue != wantTrue {
				t.Fatalf("%s label %c: merged to ref %c (true %d), actual true %d",
					acct, 'a'+li, 'a'+refIdx, wantTrue, gotTrue)
			}
		}
	}
}

func TestIndexGranularityTradeoff(t *testing.T) {
	c := cloud.NewEC2(27)
	ref := c.NewAccount("ref")
	samples := must(SampleAccounts(c, ref, 3, 4, core.Options{Seed: 8, Par: parallel.Options{Workers: 1}}))
	pm := must(MergeAccounts(samples, "", core.Options{Par: parallel.Options{Workers: 1}}))
	region := "ec2.us-east-1"
	targets := launchTargets(c, region, 150)

	coverage := map[int]float64{}
	for _, bits := range []int{8, 16, 24} {
		idx := pm.Index(region, bits)
		matched := 0
		for _, tgt := range targets {
			if _, ok := IdentifyAt(idx, tgt.InternalIP, bits); ok {
				matched++
			}
		}
		coverage[bits] = float64(matched) / float64(len(targets))
	}
	if coverage[8] < coverage[16] {
		t.Fatalf("coverage /8 (%.2f) < /16 (%.2f)", coverage[8], coverage[16])
	}
	if coverage[24] > coverage[16] {
		t.Fatalf("coverage /24 (%.2f) > /16 (%.2f)", coverage[24], coverage[16])
	}
	acc := func(bits int) float64 {
		idx := pm.Index(region, bits)
		correct, known := 0, 0
		for _, tgt := range targets {
			z, ok := IdentifyAt(idx, tgt.InternalIP, bits)
			if !ok {
				continue
			}
			known++
			if trueZoneOf(ref, region, z) == tgt.ZoneIndex {
				correct++
			}
		}
		if known == 0 {
			return 0
		}
		return float64(correct) / float64(known)
	}
	if acc(16) < 0.99 {
		t.Fatalf("/16 accuracy %.2f", acc(16))
	}
	if acc(8) >= acc(16) {
		t.Fatalf("/8 accuracy %.2f not worse than /16 %.2f", acc(8), acc(16))
	}
}

func TestCombinedCoverage(t *testing.T) {
	c := cloud.NewEC2(28)
	ref := c.NewAccount("ref")
	var targets []*cloud.Instance
	for _, region := range []string{"ec2.us-east-1", "ec2.us-west-2", "ec2.eu-west-1"} {
		targets = append(targets, launchTargets(c, region, 150)...)
	}
	samples := must(SampleAccounts(c, ref, 4, 4, core.Options{Seed: 9, Par: parallel.Options{Workers: 1}}))
	pm := must(MergeAccounts(samples, "", core.Options{Par: parallel.Options{Workers: 1}}))
	lat := must(IdentifyByLatency(c, ref, targets, ThresholdMs, core.Options{Seed: 10, Par: parallel.Options{Workers: 1}}))
	comb := IdentifyCombined(targets, pm, lat)
	if comb.Total != len(targets) {
		t.Fatalf("total = %d", comb.Total)
	}
	// Paper: 87% combined coverage.
	if comb.Coverage() < 0.70 {
		t.Fatalf("combined coverage %.2f", comb.Coverage())
	}
	correct, known := 0, 0
	for _, t2 := range targets {
		id := comb.ByIP[t2.PublicIP]
		if id.Zone < 0 {
			continue
		}
		known++
		if trueZoneOf(ref, t2.Region, id.Zone) == t2.ZoneIndex {
			correct++
		}
	}
	if frac := float64(correct) / float64(known); frac < 0.90 {
		t.Fatalf("combined accuracy %.2f", frac)
	}
	methods := map[string]int{}
	for _, id := range comb.ByIP {
		methods[id.Method]++
	}
	if methods["proximity"] == 0 || methods["latency"] == 0 {
		t.Fatalf("method mix: %v", methods)
	}
	// Proximity dominates (79% alone in the paper).
	if methods["proximity"] < methods["latency"] {
		t.Fatalf("latency out-contributed proximity: %v", methods)
	}
}

func TestVeracityTable(t *testing.T) {
	c := cloud.NewEC2(29)
	ref := c.NewAccount("ref")
	var targets []*cloud.Instance
	for _, region := range []string{"ec2.us-east-1", "ec2.eu-west-1", "ec2.us-west-1"} {
		targets = append(targets, launchTargets(c, region, 200)...)
	}
	samples := must(SampleAccounts(c, ref, 4, 4, core.Options{Seed: 11, Par: parallel.Options{Workers: 1}}))
	pm := must(MergeAccounts(samples, "", core.Options{Par: parallel.Options{Workers: 1}}))
	lat := must(IdentifyByLatency(c, ref, targets, ThresholdMs, core.Options{Seed: 12, Par: parallel.Options{Workers: 1}}))
	rows := Veracity(targets, pm, lat)
	if rows[0].Region != "all" {
		t.Fatalf("first row %q", rows[0].Region)
	}
	byRegion := map[string]VeracityRow{}
	for _, r := range rows {
		byRegion[r.Region] = r
	}
	east := byRegion["ec2.us-east-1"]
	west := byRegion["ec2.eu-west-1"]
	if east.Count == 0 || west.Count == 0 {
		t.Fatalf("empty rows: %+v", rows)
	}
	if east.ErrorRate() > 0.10 {
		t.Fatalf("us-east veracity error %.3f", east.ErrorRate())
	}
	if west.ErrorRate() < 0.10 {
		t.Fatalf("eu-west veracity error %.3f, want ~0.25", west.ErrorRate())
	}
	if west.ErrorRate() < east.ErrorRate() {
		t.Fatalf("eu-west (%.3f) should err more than us-east (%.3f)", west.ErrorRate(), east.ErrorRate())
	}
	// The all row is consistent with the per-region rows.
	sum := 0
	for _, r := range rows[1:] {
		sum += r.Count
	}
	if rows[0].Count != sum {
		t.Fatalf("all.Count %d != sum %d", rows[0].Count, sum)
	}
}

// must unwraps an experiment run; these runs have no cancellable
// context, so an error can only be a worker panic.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
