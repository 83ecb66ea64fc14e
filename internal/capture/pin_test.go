package capture

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"cloudscope/internal/chaos"
	"cloudscope/internal/deploy"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
)

// pinWorld is the seed-3, 400-domain world the absolute pcap pins are
// measured on (the world TestStageDeterminism and the root layout test
// generate), built once on first use.
var pinWorld = sync.OnceValue(func() *deploy.World {
	return must(deploy.Generate(deploy.Config{Seed: 3, NumDomains: 400}))
})

// TestCapturePcapPinned pins the absolute sha256 and length of the
// seed-3 world's 500-flow pcap, clean and under hostile-capture, at
// Workers 1 and 4. The layout tests compare a build only against its
// own sequential run, so an emission-order change that is the same at
// every layout passes them; this test catches it. A deliberate change
// to the capture's bytes must update the pins here.
func TestCapturePcapPinned(t *testing.T) {
	cases := []struct {
		name     string
		scenario string
		sum      string
		size     int
	}{
		{"clean", "", "3affa64606f11fe5f8064295332974d3a280e81eee0f3273dca6ba4f42260cad", 372227},
		{"hostile-capture", "hostile-capture", "06a759a4a8486f4771912fec92c2940a5a1583791b89da60580dafbd7e013d09", 324503},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			cfg := Config{Seed: 3, Flows: 500, Par: parallel.Options{Workers: workers}}
			if c.scenario != "" {
				sc, err := chaos.Load(c.scenario)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Chaos = chaos.New(sc, 3)
			}
			var buf bytes.Buffer
			if _, err := NewGenerator(cfg, pinWorld()).Generate(pcapio.NewWriter(&buf, Snaplen)); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.sum || buf.Len() != c.size {
				t.Errorf("%s at Workers=%d: pcap sha256 %s (%d bytes), want %s (%d bytes)",
					c.name, workers, got, buf.Len(), c.sum, c.size)
			}
		}
	}
}
