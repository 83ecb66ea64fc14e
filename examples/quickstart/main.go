// Quickstart: generate a small world, run the discovery pipeline, and
// print who is using the cloud — the library's 60-second tour.
package main

import (
	"fmt"

	"cloudscope"
)

func main() {
	// A Study bundles a generated world with every analysis stage;
	// stages run lazily and are memoized.
	study := cloudscope.NewStudy(cloudscope.Config{Domains: 2000})

	ds := study.Dataset()
	fmt.Printf("Scanned %d domains with %d DNS queries.\n",
		ds.Stats.DomainsScanned, ds.Stats.QueriesIssued)
	fmt.Printf("Found %d cloud-using subdomains under %d domains.\n\n",
		ds.Stats.CloudSubdomains, len(ds.CloudDomains()))

	// Table 3: provider breakdown.
	fmt.Println(study.Breakdown().Table3())

	// Deployment-pattern shares (Table 7's core numbers).
	det := study.Detection()
	fmt.Printf("EC2 front ends: VM %d, ELB %d, Heroku %d, unidentified %d\n",
		det.SubCounts["VM"], det.SubCounts["ELB"],
		det.SubCounts["Heroku (no ELB)"], det.SubCounts["Unidentified CNAME"])

	// Region concentration (§4.2's headline).
	reg := study.Regions()
	fmt.Printf("Single-region subdomains: EC2 %.0f%%, Azure %.0f%%\n",
		100*reg.SingleRegionShare("ec2"), 100*reg.SingleRegionShare("azure"))
}
