// Package probes bundles the study's hand tools — the dig, hping3,
// traceroute, whois, and HTTP-GET equivalents — behind one Prober that
// operates on the simulated Internet. The core pipeline uses the
// underlying packages directly; Prober is the interactive/scripting
// surface (cmd/probe, examples).
package probes

import (
	"fmt"
	"strings"
	"time"

	"cloudscope/internal/cloud"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/geo"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/simnet"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/wan"
	"cloudscope/internal/xrand"
)

// Prober is a measurement host on the simulated Internet.
type Prober struct {
	resolver *dnssrv.Resolver
	ranges   *ipranges.List
	ec2      *cloud.Cloud
	wan      *wan.Model
	vantage  geo.Vantage
	rng      *xrand.Rand
}

// Config wires a Prober to a world's components. WAN and EC2 are
// optional; tools needing them fail gracefully when absent.
type Config struct {
	Fabric   *simnet.Fabric
	Registry *dnssrv.Registry
	Ranges   *ipranges.List
	EC2      *cloud.Cloud
	WAN      *wan.Model
	// VantageIndex selects the PlanetLab vantage the prober runs from.
	VantageIndex int
	Seed         int64
	// Telemetry, when set, instruments the prober's resolver and WAN
	// model against the handle's registry. Instrument names are shared
	// (get-or-create), so passing a Study's handle aggregates with the
	// pipeline's own counters.
	Telemetry *telemetry.Telemetry
}

// New builds a Prober.
func New(cfg Config) *Prober {
	vantages := geo.PlanetLab(cfg.VantageIndex + 1)
	v := vantages[cfg.VantageIndex]
	src := netaddr.MustParseIP("195.113.0.0") + netaddr.IP(cfg.VantageIndex*251+9)
	p := &Prober{
		ranges:  cfg.Ranges,
		ec2:     cfg.EC2,
		wan:     cfg.WAN,
		vantage: v,
		rng:     xrand.SplitSeeded(cfg.Seed, "probes/"+v.ID),
	}
	if cfg.Fabric != nil && cfg.Registry != nil {
		p.resolver = dnssrv.NewResolver(cfg.Fabric, cfg.Registry, src)
	}
	if cfg.Telemetry != nil {
		reg := cfg.Telemetry.Registry()
		if p.resolver != nil {
			p.resolver.Metrics = dnssrv.NewResolverMetrics(reg)
		}
		if p.wan != nil {
			p.wan.SetMetrics(wan.NewMetrics(reg))
		}
	}
	return p
}

// DigAnswer is one resolved record with its provider classification.
type DigAnswer struct {
	Record   dnswire.RR
	Provider ipranges.Provider // "" when outside the published ranges
	Region   string
}

// Dig resolves a name and classifies every record against the published
// ranges — the study's basic unit of work.
func (p *Prober) Dig(name string) ([]DigAnswer, error) {
	if p.resolver == nil {
		return nil, fmt.Errorf("probes: no DNS fabric configured")
	}
	chain, err := p.resolver.LookupA(name)
	if err != nil {
		return nil, err
	}
	out := make([]DigAnswer, 0, len(chain))
	for _, rr := range chain {
		ans := DigAnswer{Record: rr}
		if rr.Type == dnswire.TypeA {
			if e, ok := p.ranges.Lookup(rr.IP); ok {
				ans.Provider, ans.Region = e.Provider, e.Region
			}
		}
		out = append(out, ans)
	}
	return out, nil
}

// DigNS resolves and classifies a domain's name servers.
func (p *Prober) DigNS(domain string) (map[string]string, error) {
	if p.resolver == nil {
		return nil, fmt.Errorf("probes: no DNS fabric configured")
	}
	names, err := p.resolver.LookupNS(domain)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, ns := range names {
		loc := "outside"
		if chain, err := p.resolver.LookupA(ns); err == nil {
			for _, rr := range chain {
				if rr.Type != dnswire.TypeA {
					continue
				}
				if e, ok := p.ranges.Lookup(rr.IP); ok {
					loc = string(e.Provider)
				}
			}
		}
		out[ns] = loc
	}
	return out, nil
}

// TCPPing measures n RTT samples to a cloud instance's public IP, like
// hping3. It requires the EC2 model (the probe runs from inside the
// region, as the paper's cartography probes did).
func (p *Prober) TCPPing(from *cloud.Instance, target netaddr.IP, n int) ([]time.Duration, error) {
	if p.ec2 == nil {
		return nil, fmt.Errorf("probes: no cloud configured")
	}
	inst, ok := p.ec2.InstanceAt(target)
	if !ok {
		return nil, fmt.Errorf("probes: no instance at %v", target)
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, p.ec2.ProbeRTT(p.rng, from, inst))
	}
	return out, nil
}

// Traceroute runs an AS-level traceroute from an EC2 region/zone back
// to this prober's vantage.
func (p *Prober) Traceroute(region string, zone int) ([]wan.Hop, error) {
	if p.wan == nil {
		return nil, fmt.Errorf("probes: no WAN model configured")
	}
	return p.wan.Traceroute(p.vantage, region, zone, p.rng), nil
}

// Whois names an ASN.
func (p *Prober) Whois(asn int) string { return wan.Whois(asn) }

// Get measures one HTTP download from region at the given time,
// returning throughput in KB/s.
func (p *Prober) Get(region string, at time.Time) (float64, error) {
	if p.wan == nil {
		return 0, fmt.Errorf("probes: no WAN model configured")
	}
	return p.wan.Throughput(p.vantage, region, at, p.rng), nil
}

// RTT measures one wide-area latency sample to region in milliseconds.
func (p *Prober) RTT(region string, at time.Time) (float64, error) {
	if p.wan == nil {
		return 0, fmt.Errorf("probes: no WAN model configured")
	}
	return p.wan.RTT(p.vantage, region, at, p.rng), nil
}

// Vantage returns where this prober runs from.
func (p *Prober) Vantage() geo.Vantage { return p.vantage }

// FormatDig renders dig output in a familiar shape.
func FormatDig(name string, answers []DigAnswer) string {
	var b strings.Builder
	fmt.Fprintf(&b, ";; ANSWER SECTION (%s):\n", name)
	for _, a := range answers {
		fmt.Fprintf(&b, "%-50s", a.Record.String())
		if a.Provider != "" {
			fmt.Fprintf(&b, " ; %s (%s)", a.Provider, a.Region)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatTraceroute renders hops traceroute-style.
func FormatTraceroute(hops []wan.Hop) string {
	var b strings.Builder
	for i, h := range hops {
		fmt.Fprintf(&b, "%2d  %-16s %8.2f ms  %s\n", i+1, h.IP, h.RTT, wan.Whois(h.ASN))
	}
	return b.String()
}
