// Multiregion: plan a multi-region deployment for a web service using
// the §5 machinery — measure client latencies, run the optimal-k
// search, and estimate availability gains from route-outage simulation.
package main

import (
	"fmt"
	"log"
	"strings"

	"cloudscope"
	"cloudscope/internal/wan"
)

func main() {
	study := cloudscope.NewStudy(cloudscope.Config{Domains: 300, WANClients: 80})
	c := study.Campaign()

	fmt.Println("Optimal k-region deployments (latency):")
	results, err := c.OptimalK(wan.MetricLatency, 4)
	if err != nil {
		log.Fatal(err)
	}
	base := results[0].Value
	for _, r := range results {
		fmt.Printf("  k=%d: %6.1f ms (-%4.1f%%)  %s\n",
			r.K, r.Value, 100*(base-r.Value)/base, strings.Join(r.Regions, ", "))
	}

	// The greedy planner gets within a few percent at a fraction of the
	// search cost — useful when regions number in the dozens.
	greedy, err := c.GreedyK(wan.MetricLatency, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nGreedy planner for comparison:")
	for i, r := range greedy {
		gap := 100 * (r.Value - results[i].Value) / results[i].Value
		fmt.Printf("  k=%d: %6.1f ms (gap vs optimal: %.1f%%)\n", r.K, r.Value, gap)
	}

	// Availability: fail one downstream ISP per region per trial.
	out, err := c.Outages(3, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nRoute-outage simulation (fraction of clients cut off):")
	for k := 1; k <= 3; k++ {
		fmt.Printf("  k=%d regions: %.4f\n", k, out.MeanUnreachable[k])
	}
	fmt.Println("\nConclusion: three regions cut mean latency by roughly a third")
	fmt.Println("and make single-ISP outages survivable — §5's argument.")
}
