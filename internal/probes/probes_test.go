package probes

import (
	"strings"
	"testing"
	"time"

	"cloudscope/internal/cloud"
	"cloudscope/internal/deploy"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/wan"
)

var world = must(deploy.Generate(deploy.Config{Seed: 1, NumDomains: 400}))

func newProber(idx int) *Prober {
	return New(Config{
		Fabric:       world.Fabric,
		Registry:     world.Registry,
		Ranges:       world.Ranges,
		EC2:          world.EC2,
		WAN:          wan.New(1, 16, ipranges.EC2Regions),
		VantageIndex: idx,
		Seed:         1,
	})
}

func TestDig(t *testing.T) {
	p := newProber(0)
	var target *deploy.Subdomain
	for _, d := range world.CloudDomains {
		for _, s := range d.CloudSubdomains() {
			if s.Pattern == deploy.PatternVM && len(s.Regions) == 1 {
				target = s
			}
		}
	}
	if target == nil {
		t.Skip("no VM subdomain")
	}
	answers, err := p.Dig(target.FQDN)
	if err != nil {
		t.Fatal(err)
	}
	foundEC2 := false
	for _, a := range answers {
		if a.Provider == ipranges.EC2 {
			foundEC2 = true
			if a.Region != target.Regions[0] {
				t.Fatalf("region %s, want %s", a.Region, target.Regions[0])
			}
		}
	}
	if !foundEC2 {
		t.Fatalf("no EC2 answer for %s: %v", target.FQDN, answers)
	}
	out := FormatDig(target.FQDN, answers)
	if !strings.Contains(out, "ec2") {
		t.Fatalf("FormatDig missing classification:\n%s", out)
	}
}

func TestDigNXDomain(t *testing.T) {
	p := newProber(0)
	if _, err := p.Dig("definitely-not-real." + world.Domains[0].Name); err == nil {
		t.Fatal("expected error")
	}
}

func TestDigNS(t *testing.T) {
	p := newProber(1)
	locs, err := p.DigNS(world.CloudDomains[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) < 2 {
		t.Fatalf("NS = %d", len(locs))
	}
}

func TestTCPPing(t *testing.T) {
	p := newProber(0)
	src := world.EC2.Launch("ec2.us-east-1", 0, "m1.medium", cloud.KindVM)
	dst := world.EC2.Launch("ec2.us-east-1", 0, "m1.small", cloud.KindVM)
	samples, err := p.TCPPing(src, dst.PublicIP, 10)
	if err != nil || len(samples) != 10 {
		t.Fatalf("err=%v n=%d", err, len(samples))
	}
	if _, err := p.TCPPing(src, 12345, 3); err == nil {
		t.Fatal("ping to nonexistent instance succeeded")
	}
}

func TestTracerouteAndWhois(t *testing.T) {
	p := newProber(2)
	hops, err := p.Traceroute("ec2.eu-west-1", 0)
	if err != nil || len(hops) < 4 {
		t.Fatalf("err=%v hops=%d", err, len(hops))
	}
	out := FormatTraceroute(hops)
	if !strings.Contains(out, "AMAZON") {
		t.Fatalf("traceroute output:\n%s", out)
	}
	if p.Whois(16509) != "AS16509 AMAZON-02" {
		t.Fatal("whois wrong")
	}
}

func TestWANMeasurements(t *testing.T) {
	p := newProber(3)
	at := time.Date(2013, 4, 5, 12, 0, 0, 0, time.UTC)
	rtt, err := p.RTT("ec2.us-east-1", at)
	if err != nil || rtt <= 0 {
		t.Fatalf("rtt=%v err=%v", rtt, err)
	}
	thr, err := p.Get("ec2.us-east-1", at)
	if err != nil || thr <= 0 {
		t.Fatalf("thr=%v err=%v", thr, err)
	}
}

func TestGracefulWithoutComponents(t *testing.T) {
	p := New(Config{Ranges: world.Ranges})
	if _, err := p.Dig("x.com"); err == nil {
		t.Fatal("Dig without fabric should fail")
	}
	if _, err := p.Traceroute("ec2.us-east-1", 0); err == nil {
		t.Fatal("Traceroute without WAN should fail")
	}
	if _, err := p.Get("ec2.us-east-1", time.Time{}); err == nil {
		t.Fatal("Get without WAN should fail")
	}
	if _, err := p.TCPPing(nil, 1, 1); err == nil {
		t.Fatal("TCPPing without cloud should fail")
	}
}

func TestVantagesDiffer(t *testing.T) {
	a, b := newProber(0), newProber(5)
	if a.Vantage().ID == b.Vantage().ID {
		t.Fatal("vantages identical")
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
