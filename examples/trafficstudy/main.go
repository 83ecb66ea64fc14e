// Trafficstudy: synthesize a week-long border capture, write it as a
// real pcap file, analyze it back with the Bro-style analyzer, and
// print the §3 traffic tables — the paper's packet-capture leg.
package main

import (
	"fmt"
	"os"

	"cloudscope"
	"cloudscope/internal/capture"
	"cloudscope/internal/core/traffic"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
)

func main() {
	study := cloudscope.NewStudy(cloudscope.Config{Domains: 1500, CaptureFlows: 8000})

	// Write a genuine pcap file (readable by tcpdump/wireshark).
	f, err := os.CreateTemp("", "border-*.pcap")
	if err != nil {
		panic(err)
	}
	defer os.Remove(f.Name())
	truth, err := study.WriteCapture(f)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Wrote %s: %d flows, %.1f MB of application traffic.\n\n",
		f.Name(), truth.TotalFlows, float64(truth.TotalBytes)/1e6)
	f.Close()

	// Re-open and analyze, exactly as cmd/traceanalyze would.
	in, err := os.Open(f.Name())
	if err != nil {
		panic(err)
	}
	defer in.Close()
	an, err := capture.AnalyzePar(in, ipranges.Published(), parallel.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(traffic.Table1(an))
	fmt.Println(traffic.Table2(an))
	fmt.Println(traffic.Table5(an, 10))

	top := an.TopDomains(ipranges.EC2, 1)
	if len(top) > 0 {
		share := 100 * float64(top[0].Bytes) / float64(an.HTTPTotalBytes())
		fmt.Printf("%s alone carries %.0f%% of HTTP(S) bytes — the paper's dropbox effect.\n",
			top[0].Domain, share)
	}
}
