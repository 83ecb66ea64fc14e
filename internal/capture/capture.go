// Package capture produces and analyzes the border packet trace that
// drives §3 of the paper: a week-long capture at a university border
// filtered to traffic whose remote endpoint is in the published EC2 or
// Azure ranges.
//
// The generator synthesizes flows whose protocol, size, and per-domain
// volume mixes follow the paper's Tables 1, 2, 5 and 6 and Figure 3,
// and emits real packets — TCP handshakes, HTTP heads, TLS ClientHello/
// Certificate flights, DNS messages — through a snap-length pcap
// writer. Volumes are encoded the way real captures encode them:
// sequence numbers advance by the bytes transferred, so the analyzer
// recovers per-flow volume from SYN/FIN sequence deltas exactly as
// Bro's conn.log does.
//
// The analyzer is the Bro stand-in: it reassembles per-flow state from
// the pcap, classifies protocols, extracts HTTP hostnames and
// Content-Types, and TLS SNI and certificate CNs, and aggregates the
// statistics the paper reports.
package capture

import (
	"strings"
	"time"

	"cloudscope/internal/chaos"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/parallel"
)

// Kind classifies a generated flow.
type Kind int

// Flow kinds.
const (
	KindHTTP Kind = iota
	KindHTTPS
	KindDNS
	KindICMP
	KindOtherTCP
	KindOtherUDP
)

// String names the kind as the analysis tables label it.
func (k Kind) String() string {
	switch k {
	case KindHTTP:
		return "HTTP (TCP)"
	case KindHTTPS:
		return "HTTPS (TCP)"
	case KindDNS:
		return "DNS (UDP)"
	case KindICMP:
		return "ICMP"
	case KindOtherTCP:
		return "Other (TCP)"
	case KindOtherUDP:
		return "Other (UDP)"
	}
	return "?"
}

// Kinds lists all kinds in the paper's Table 2 row order.
var Kinds = []Kind{KindICMP, KindHTTP, KindHTTPS, KindDNS, KindOtherTCP, KindOtherUDP}

// Config parameterizes trace generation. The capture always spans the
// paper's week of June 26 – July 2, 2012.
type Config struct {
	Seed int64
	// Flows is the total number of flows in the capture (the paper's
	// week at a 7 Gbps border is scaled down; shapes are preserved).
	Flows int
	// Par bounds and instruments the generator's fan-out (the analyzer
	// takes its own options in AnalyzePar). The capture is
	// bit-identical at every worker count and every shard layout: each
	// flow draws from a sub-stream keyed by (Seed, flow index) and
	// packets sort under a strict total order, so the pcap is a pure
	// function of Seed and the world.
	Par parallel.Options
	// Chaos, when non-nil, injects capture-layer faults (truncated
	// flows, forged mid-stream RSTs, re-ordered segments, corrupted
	// frames, dropped records) into the generated pcap. Verdicts are
	// pure hash draws over flow identity, so the faulted capture keeps
	// every layout-invariance guarantee above.
	Chaos *chaos.Engine
}

// Snaplen is the pcap snap length captures are written with. The
// paper captured full packets; 1514 keeps every header parseable
// while data volume rides on OrigLen and sequence numbers.
const Snaplen = 1514

// The capture window: days days from captureStart, the paper's week.
const days = 7

var captureStart = time.Date(2012, 6, 26, 0, 0, 0, 0, time.UTC)

// Truth is the generator's ground truth, used to validate the analyzer.
type Truth struct {
	FlowsByCloud map[ipranges.Provider]int
	BytesByCloud map[ipranges.Provider]int64
	// BytesByKind/FlowsByKind are keyed by cloud then kind.
	BytesByKind map[ipranges.Provider]map[Kind]int64
	FlowsByKind map[ipranges.Provider]map[Kind]int
	// HTTPSVolumeByDomain aggregates HTTP+HTTPS bytes per domain.
	HTTPVolumeByDomain map[string]int64
	// ContentTypeBytes aggregates HTTP object bytes by content type.
	ContentTypeBytes map[string]int64
	// Faults counts injected capture faults by chaos kind name
	// ("cap-truncate", ...); empty without a chaos engine.
	Faults     map[string]int64
	TotalFlows int
	TotalBytes int64
}

// newTruth returns a Truth with every map allocated.
func newTruth() *Truth {
	return &Truth{
		FlowsByCloud:       map[ipranges.Provider]int{},
		BytesByCloud:       map[ipranges.Provider]int64{},
		BytesByKind:        map[ipranges.Provider]map[Kind]int64{ipranges.EC2: {}, ipranges.Azure: {}},
		FlowsByKind:        map[ipranges.Provider]map[Kind]int{ipranges.EC2: {}, ipranges.Azure: {}},
		HTTPVolumeByDomain: map[string]int64{},
		ContentTypeBytes:   map[string]int64{},
		Faults:             map[string]int64{},
	}
}

// merge folds o into t. Every field is a sum, so the result does not
// depend on merge order — but callers still fold shards in shard order
// to keep the invariant obvious.
func (t *Truth) merge(o *Truth) {
	t.TotalFlows += o.TotalFlows
	t.TotalBytes += o.TotalBytes
	for c, v := range o.FlowsByCloud {
		t.FlowsByCloud[c] += v
	}
	for c, v := range o.BytesByCloud {
		t.BytesByCloud[c] += v
	}
	for c, m := range o.FlowsByKind {
		if t.FlowsByKind[c] == nil {
			t.FlowsByKind[c] = map[Kind]int{}
		}
		for k, v := range m {
			t.FlowsByKind[c][k] += v
		}
	}
	for c, m := range o.BytesByKind {
		if t.BytesByKind[c] == nil {
			t.BytesByKind[c] = map[Kind]int64{}
		}
		for k, v := range m {
			t.BytesByKind[c][k] += v
		}
	}
	for d, v := range o.HTTPVolumeByDomain {
		t.HTTPVolumeByDomain[d] += v
	}
	for ct, v := range o.ContentTypeBytes {
		t.ContentTypeBytes[ct] += v
	}
	for k, v := range o.Faults {
		t.Faults[k] += v
	}
}

// campusNet is the university prefix clients come from (anonymized in
// the paper; one /16 here).
var campusNet = netaddr.MustParseCIDR("128.105.0.0/16")

// InCampus reports whether ip is a university client address.
func InCampus(ip netaddr.IP) bool { return campusNet.Contains(ip) }

// DomainOf reduces a host name to its registered domain, handling the
// two-level public suffixes the synthetic population uses.
func DomainOf(host string) string {
	host = strings.TrimSuffix(strings.ToLower(host), ".")
	labels := strings.Split(host, ".")
	if len(labels) <= 2 {
		return host
	}
	// Two-label public suffixes in use: co.uk, com.br.
	last2 := strings.Join(labels[len(labels)-2:], ".")
	if last2 == "co.uk" || last2 == "com.br" {
		if len(labels) >= 3 {
			return strings.Join(labels[len(labels)-3:], ".")
		}
	}
	return last2
}
