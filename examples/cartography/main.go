// Cartography: identify which availability zones unknown EC2 instances
// live in, using both §4.3 techniques directly — the library's
// lowest-level public workflow.
package main

import (
	"fmt"
	"log"

	"cloudscope/internal/cartography"
	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
)

func main() {
	ec2 := cloud.NewEC2(42)

	// Someone else's instances, spread across us-east-1's zones.
	var targets []*cloud.Instance
	for i := 0; i < 60; i++ {
		targets = append(targets, ec2.Launch("ec2.us-east-1", i%3, "m1.small", cloud.KindVM))
	}

	// Our measurement account: zone labels are OUR view; EC2 permutes
	// them per account, which is the whole game.
	ref := ec2.NewAccount("measurement")

	// Technique 1: address proximity. Sample instances under several
	// accounts, merge by /16 co-occurrence.
	opt := core.Options{Seed: 1}
	samples, err := cartography.SampleAccounts(ec2, ref, 4, 6, opt)
	if err != nil {
		log.Fatal(err)
	}
	pm, err := cartography.MergeAccounts(samples, ref.Name, opt)
	if err != nil {
		log.Fatal(err)
	}

	// Technique 2: latency. Probe instances in each zone ping targets.
	lat, err := cartography.IdentifyByLatency(ec2, ref, targets, cartography.ThresholdMs, opt)
	if err != nil {
		log.Fatal(err)
	}

	// Combined estimator.
	comb := cartography.IdentifyCombined(targets, pm, lat)
	fmt.Printf("Identified %d/%d instances (%.0f%% coverage)\n",
		comb.Identified, comb.Total, 100*comb.Coverage())

	correct := 0
	byMethod := map[string]int{}
	for _, t := range targets {
		id := comb.ByIP[t.PublicIP]
		if id.Zone < 0 {
			continue
		}
		byMethod[id.Method]++
		// Ground truth (never visible to the algorithms): translate our
		// account's label back to the provider's true zone.
		if ref.TrueZone(t.Region, string(rune('a'+id.Zone))) == t.ZoneIndex {
			correct++
		}
	}
	fmt.Printf("Accuracy: %d/%d; method mix: %v\n", correct, comb.Identified, byMethod)

	rows := cartography.Veracity(targets, pm, lat)
	for _, r := range rows {
		if r.Region == "all" {
			fmt.Printf("Latency-vs-proximity disagreement: %.1f%%\n", 100*r.ErrorRate())
		}
	}
}
