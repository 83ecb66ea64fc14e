package backend

import (
	"strings"
	"testing"

	"cloudscope/internal/deploy"
)

var (
	world = must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 2500}))
	an    = Analyze(world)
)

func TestBackendsPlanted(t *testing.T) {
	if an.Total < 100 {
		t.Fatalf("front-end subdomains = %d", an.Total)
	}
	frac := float64(an.WithBackends) / float64(an.Total)
	if frac < 0.35 || frac > 0.65 {
		t.Fatalf("backend fraction %.2f, want ~0.5", frac)
	}
}

func TestPolicyProperties(t *testing.T) {
	byPolicy := map[string]PolicyStats{}
	for _, p := range an.Policies {
		byPolicy[p.Policy] = p
	}
	colo, okC := byPolicy["colocated"]
	spread, okS := byPolicy["spread"]
	remote, okR := byPolicy["remote"]
	if !okC || !okS || !okR {
		t.Fatalf("missing policies: %+v", an.Policies)
	}
	// Colocated dominates in count.
	if colo.Subdomains < spread.Subdomains || colo.Subdomains < remote.Subdomains {
		t.Fatalf("colocated (%d) should dominate spread (%d) and remote (%d)",
			colo.Subdomains, spread.Subdomains, remote.Subdomains)
	}
	// Latency ordering: colocated < spread << remote.
	if !(colo.MeanFrontBackRTTms < spread.MeanFrontBackRTTms) {
		t.Fatalf("colocated RTT %.2f >= spread %.2f", colo.MeanFrontBackRTTms, spread.MeanFrontBackRTTms)
	}
	if remote.MeanFrontBackRTTms < spread.MeanFrontBackRTTms*5 {
		t.Fatalf("remote RTT %.2f not wide-area scale", remote.MeanFrontBackRTTms)
	}
	// Failure-survival ordering: remote ≥ spread > colocated.
	if colo.SurvivesFrontZoneLoss >= spread.SurvivesFrontZoneLoss {
		t.Fatalf("colocated survival %.2f >= spread %.2f — the latency/robustness trade-off is missing",
			colo.SurvivesFrontZoneLoss, spread.SurvivesFrontZoneLoss)
	}
	if remote.SurvivesFrontZoneLoss < 0.95 {
		t.Fatalf("remote survival %.2f, want ~1", remote.SurvivesFrontZoneLoss)
	}
	// Same-zone share reflects the placement semantics.
	if colo.SameZoneShare < 0.5 {
		t.Fatalf("colocated same-zone share %.2f", colo.SameZoneShare)
	}
}

func TestBackendsInvisibleToDNS(t *testing.T) {
	// Backend IPs must never appear in any zone's records: they are the
	// unmeasurable part. Spot-check through the world's own resolver
	// path by scanning zone record IPs.
	backendIPs := map[string]bool{}
	for _, d := range world.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			for _, b := range s.Backends {
				backendIPs[b.PublicIP.String()] = true
			}
		}
	}
	if len(backendIPs) == 0 {
		t.Skip("no backends in world")
	}
	for _, d := range world.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			for _, vm := range s.VMs {
				if backendIPs[vm.PublicIP.String()] {
					t.Fatalf("backend IP reused as front end: %s", vm.PublicIP)
				}
			}
		}
	}
}

func TestTableRenders(t *testing.T) {
	s := an.Table().String()
	for _, want := range []string{"colocated", "spread", "remote"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
}

// must unwraps a fixture build; fixtures run without a cancellable
// context, so an error can only be a worker panic.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
