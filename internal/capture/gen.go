package capture

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cloudscope/internal/chaos"
	"cloudscope/internal/deploy"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/httpwire"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/packet"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
	"cloudscope/internal/tlswire"
	"cloudscope/internal/xrand"
)

// host is one server endpoint flows can target.
type host struct {
	name   string
	domain string
	cloud  ipranges.Provider
	ip     netaddr.IP
	// hello and flight are every HTTPS flow's payloads to this host:
	// the ClientHello naming it and the server's ServerHello plus
	// Certificate for its domain. They depend on the host alone, so
	// buildCatalog builds them once and shards only read them.
	hello, flight []byte
}

// Generator synthesizes a border capture for a world.
type Generator struct {
	cfg   Config
	world *deploy.World
	rng   *xrand.Rand

	anchorHosts map[string][]host // anchor domain → hosts
	background  map[ipranges.Provider][]host
	bgZipf      map[ipranges.Provider]*xrand.Zipf
	ctPick      *xrand.Weighted // shared content-type CDF (NextR draws)
	diurnal     *xrand.Weighted // shared hour-of-day CDF (NextR draws)

	// synthetic server-IP allocation cursors per cloud
	ipCursor map[ipranges.Provider]uint64
	// each cloud's published address space, flattened once
	space map[ipranges.Provider]addrSpace

	truth Truth
}

// NewGenerator builds a generator over world. The world supplies real
// front-end IPs for Alexa domains; capture-only domains (the half of
// captured domains outside the top list) get synthetic cloud addresses.
func NewGenerator(cfg Config, world *deploy.World) *Generator {
	g := &Generator{
		cfg:         cfg,
		world:       world,
		rng:         xrand.SplitSeeded(cfg.Seed, "capture"),
		anchorHosts: map[string][]host{},
		background:  map[ipranges.Provider][]host{},
		bgZipf:      map[ipranges.Provider]*xrand.Zipf{},
		ipCursor:    map[ipranges.Provider]uint64{ipranges.EC2: 977, ipranges.Azure: 1409},
		space:       map[ipranges.Provider]addrSpace{},
	}
	for _, p := range []ipranges.Provider{ipranges.EC2, ipranges.Azure} {
		g.space[p] = newAddrSpace(world.Ranges, p)
	}
	g.truth = *newTruth()
	g.buildCatalog()
	g.ctPick = xrand.NewWeighted(g.rng, contentCountWeights())
	// Campus traffic peaks mid-afternoon.
	hours := make([]float64, 24)
	for h := 0; h < 24; h++ {
		hours[h] = 1 + 0.8*math.Sin(float64(h-8)/24*2*math.Pi)
	}
	g.diurnal = xrand.NewWeighted(g.rng, hours)
	return g
}

// flowgen is one shard's flow factory: a reusable random stream that is
// reseeded per flow, a private Truth, and a pooled packet block the
// shard's frames are serialized into in place. Every draw a flow makes
// comes from a stream derived from (capture seed, flow index) alone —
// never from the shard that runs it or the worker that schedules it —
// so the capture is a pure function of seed + world, bit-identical at
// every worker count AND every shard layout. The same holds with a
// chaos engine attached: every capture-fault verdict is a pure hash of
// (flow index, packet sequence), so a faulted pcap is just as layout-
// invariant as a clean one.
type flowgen struct {
	g      *Generator
	rng    *xrand.Rand
	truth  *Truth
	blk    *pcapio.Block
	events []event
	head   []byte // scratch an HTTP flow's two heads are appended into

	flowIdx int
	pktSeq  uint16

	// Capture-fault state for the flow in progress: its per-flow
	// verdict, where its events start (so truncation and reordering can
	// edit just this flow's tail), and frame corruptions deferred until
	// the frames are actually serialized.
	verdict  chaos.CaptureFlowVerdict
	evStart  int
	corrupts []pendingCorrupt
}

// pendingCorrupt is one frame-damage verdict waiting for finishFlow —
// put reserves the record before the caller serializes the frame into
// it, so the damage must land after the flow finishes writing.
type pendingCorrupt struct {
	rec  int32
	draw float64
}

// A shard's event list and block are reserved up front from its flow
// count, so they never regrow. A background flow averages about 8.4
// records (TCP's 8–10 packets, mixed with two-packet DNS, ICMP and UDP
// exchanges); an anchor flow is TCP, with up to 10 packets and an 11th
// when chaos forges a reset. Frames average about 72 captured bytes,
// and anchors' longer heads reach about 80.
const (
	bgRecordsPerFlow     = 9
	anchorRecordsPerFlow = 11
	bytesPerRecord       = 80
)

// newFlowgen builds the flow factory of a shard of flows flows, with
// its event list and block reserved for perFlow records a flow. The
// stream is a NewFast source, reseeded once per flow: the capture pcap
// goldens pin its splitmix64 streams, so it cannot move to New's
// math/rand stream.
func (g *Generator) newFlowgen(flows, perFlow int) *flowgen {
	fg := &flowgen{g: g, rng: xrand.NewFast(0), truth: newTruth(), blk: pcapio.GetBlock(), head: make([]byte, 0, 512)}
	fg.events = make([]event, 0, flows*perFlow)
	fg.blk.Grow(flows*perFlow, flows*perFlow*bytesPerRecord)
	return fg
}

// beginFlow rewinds the stream onto flow idx's private sub-stream,
// settling the previous flow's capture faults first.
func (fg *flowgen) beginFlow(idx int) {
	fg.finishFlow()
	fg.rng.Reseed(xrand.SubSeed(fg.g.cfg.Seed, "capture/flow", idx))
	fg.flowIdx = idx
	fg.pktSeq = 0
	fg.verdict = fg.g.cfg.Chaos.CaptureFlow(idx)
}

// finishFlow applies the in-progress flow's capture faults: deferred
// frame corruption, flow truncation, and segment reordering. beginFlow
// calls it between flows and the shard loop once more at its end.
func (fg *flowgen) finishFlow() {
	for _, c := range fg.corrupts {
		fg.corruptRecord(c.rec, c.draw)
	}
	fg.corrupts = fg.corrupts[:0]
	n := len(fg.events) - fg.evStart
	// Truncation: the capture lost the flow's tail. A reset flow is
	// already cut at the RST, so the reset supersedes.
	if v := fg.verdict; v.KeepFrac > 0 && v.RSTFrac == 0 && n > 1 {
		keep := int(float64(n)*v.KeepFrac + 0.5)
		if keep < 1 {
			keep = 1
		}
		if keep < n {
			fg.events = fg.events[:fg.evStart+keep]
			fg.truth.Faults[string(chaos.CapTruncate)]++
			n = keep
		}
	}
	// Reordering: swap the capture timestamps of one adjacent packet
	// pair, so the two records genuinely trade places in the pcap's
	// global time order.
	if v := fg.verdict; v.Reorder > 0 && n >= 2 {
		i := fg.evStart + int(v.Reorder*float64(n-1))
		if i > fg.evStart+n-2 {
			i = fg.evStart + n - 2
		}
		a, b := &fg.events[i], &fg.events[i+1]
		if a.nano != b.nano {
			a.nano, b.nano = b.nano, a.nano
			fg.truth.Faults[string(chaos.CapReorder)]++
		}
	}
	fg.verdict = chaos.CaptureFlowVerdict{}
	fg.evStart = len(fg.events)
}

// corruptRecord damages one reserved frame the way real taps do: half
// the draws shorten the captured length (a cut-off frame with its wire
// length intact), the rest flip one byte in place.
func (fg *flowgen) corruptRecord(rec int32, draw float64) {
	data := fg.blk.Data(int(rec))
	if len(data) == 0 {
		return
	}
	if draw < 0.5 {
		keep := 1 + int(draw*2*float64(len(data)-1))
		if keep >= len(data) {
			keep = len(data) - 1
		}
		if keep < 1 {
			return
		}
		fg.blk.TruncateRecord(int(rec), keep)
	} else {
		off := int((draw - 0.5) * 2 * float64(len(data)))
		if off >= len(data) {
			off = len(data) - 1
		}
		data[off] ^= 0xff
	}
	fg.truth.Faults[string(chaos.CapCorrupt)]++
}

// put reserves one packet record in the shard's block and logs the
// event that schedules it. The returned slice is the zeroed
// frame buffer to serialize into. A cap-drop verdict reserves the
// record but never schedules it — the pcap simply lacks the packet —
// and a cap-corrupt verdict is deferred until the flow finishes
// serializing.
func (fg *flowgen) put(t time.Time, orig, n int) []byte {
	data := fg.blk.AppendRecord(t, orig, n)
	rec := int32(fg.blk.Len() - 1)
	seq := fg.pktSeq
	fg.pktSeq++
	if pv := fg.g.cfg.Chaos.CapturePacket(fg.flowIdx, int(seq)); pv.Drop || pv.Corrupt > 0 {
		if pv.Drop {
			fg.truth.Faults[string(chaos.CapDrop)]++
			return data
		}
		fg.corrupts = append(fg.corrupts, pendingCorrupt{rec: rec, draw: pv.Corrupt})
	}
	fg.events = append(fg.events, event{
		nano: t.UnixNano(),
		rec:  rec, // blk is set when synthesize collects the shards
	})
	return data
}

// addrSpace is one provider's published ranges in region order, with
// their total size, so an offset maps to an address in one walk.
type addrSpace struct {
	cidrs []netaddr.CIDR
	total uint64
}

func newAddrSpace(ranges *ipranges.List, p ipranges.Provider) addrSpace {
	var s addrSpace
	for _, region := range ranges.Regions(p) {
		s.cidrs = append(s.cidrs, ranges.RegionCIDRs(region)...)
	}
	for _, c := range s.cidrs {
		s.total += c.Size()
	}
	return s
}

// nth returns the address off (mod the space's size) positions in.
func (s addrSpace) nth(off uint64) netaddr.IP {
	off %= s.total
	for _, c := range s.cidrs {
		if off < c.Size() {
			return c.Nth(off)
		}
		off -= c.Size()
	}
	panic("unreachable")
}

// syntheticIP draws a stable address inside a provider's published
// ranges from the flow's stream. (The catalog builder keeps the
// sequential cursor allocator; flows cannot share a cursor without
// contending across shards.)
func (fg *flowgen) syntheticIP(p ipranges.Provider) netaddr.IP {
	return fg.g.space[p].nth(uint64(fg.rng.Int63()))
}

// syntheticIP allocates a stable address inside a provider's ranges.
func (g *Generator) syntheticIP(p ipranges.Provider) netaddr.IP {
	g.ipCursor[p] += 2654435761 % 10007
	return g.space[p].nth(g.ipCursor[p])
}

// buildCatalog assembles anchor and background host lists.
func (g *Generator) buildCatalog() {
	for _, a := range trafficAnchors {
		for _, label := range a.hosts {
			fqdn := label + "." + a.domain
			h := host{name: fqdn, domain: a.domain, cloud: a.cloud}
			if sub, ok := g.world.Subdomain(fqdn); ok && len(sub.VMs) > 0 {
				h.ip = sub.VMs[0].PublicIP
			} else {
				h.ip = g.syntheticIP(a.cloud)
			}
			g.anchorHosts[a.domain] = append(g.anchorHosts[a.domain], h)
		}
	}
	// Background: every cloud-using subdomain in the world with a
	// resolvable front end, plus capture-only synthetic domains (the
	// paper found ~half the captured domains outside the Alexa list).
	anchorDomains := map[string]bool{}
	for _, a := range trafficAnchors {
		anchorDomains[a.domain] = true
	}
	for _, d := range g.world.CloudDomains {
		if anchorDomains[d.Name] {
			continue
		}
		for _, s := range d.CloudSubdomains() {
			h := host{name: s.FQDN, domain: d.Name, cloud: s.Provider}
			switch {
			case len(s.VMs) > 0:
				h.ip = s.VMs[0].PublicIP
			case s.ELB != nil && len(s.ELB.Proxies) > 0:
				h.ip = s.ELB.Proxies[0].PublicIP
			case s.CS != nil:
				h.ip = s.CS.Node.PublicIP
			default:
				continue
			}
			g.background[s.Provider] = append(g.background[s.Provider], h)
		}
	}
	// Capture-only domains.
	nExtra := len(g.background[ipranges.EC2]) / 2
	if nExtra < 20 {
		nExtra = 20
	}
	for i := 0; i < nExtra; i++ {
		p := ipranges.EC2
		if g.rng.Bool(0.065) {
			p = ipranges.Azure
		}
		domain := fmt.Sprintf("captureonly%04d.com", i)
		h := host{name: "api." + domain, domain: domain, cloud: p, ip: g.syntheticIP(p)}
		g.background[p] = append(g.background[p], h)
	}
	for _, p := range []ipranges.Provider{ipranges.EC2, ipranges.Azure} {
		if len(g.background[p]) == 0 {
			// Degenerate tiny worlds: invent one host.
			g.background[p] = []host{{name: "api.filler.com", domain: "filler.com", cloud: p, ip: g.syntheticIP(p)}}
		}
		// Zipf with s≈1.3 concentrates ~80% of flows in the top 100
		// domains, as §3.3 observed.
		g.bgZipf[p] = xrand.NewZipf(g.rng.Split("zipf/"+string(p)), len(g.background[p]), 1.3)
	}
	g.buildTLSPayloads()
}

// buildTLSPayloads fills in every catalog host's HTTPS payloads,
// packed into shared slabs so the whole catalog costs a few
// allocations instead of a dozen per HTTPS flow.
func (g *Generator) buildTLSPayloads() {
	var slab []byte
	fill := func(hosts []host) {
		for i := range hosts {
			h := &hosts[i]
			if cap(slab)-len(slab) < 1<<10 { // room for any host's pair
				slab = make([]byte, 0, 64<<10)
			}
			n := len(slab)
			slab = tlswire.AppendClientHello(slab, h.name)
			h.hello = slab[n:len(slab):len(slab)]
			n = len(slab)
			slab = tlswire.AppendCertificate(tlswire.AppendServerHello(slab), "*."+h.domain)
			h.flight = slab[n:len(slab):len(slab)]
		}
	}
	for _, a := range trafficAnchors {
		fill(g.anchorHosts[a.domain])
	}
	for _, p := range []ipranges.Provider{ipranges.EC2, ipranges.Azure} {
		fill(g.background[p])
	}
}

// event is one packet scheduled for the pcap: its timestamp and the
// block record holding its frame — an index into synthesize's block
// list, so events hold no pointers for the GC to scan. Blocks follow
// the shards in pass and shard order, each shard covers a consecutive
// flow range, and a shard logs its flows' packets in sequence, so the
// position (blk, rec) orders events exactly as (flow index, packet
// sequence) does: a key unique per packet whose order does not depend
// on how the flows were sharded.
type event struct {
	nano int64
	blk  int32
	rec  int32
}

// radixBits is sortEvents' digit width. Its 2,048 counters stay in
// cache, and a capture's nanosecond span (a week plus the longest
// flow, under 2^50) sorts in at most five passes.
const radixBits = 11

// sortEvents returns events in emission order, (timestamp, flow,
// packet). synthesize collects events in ascending position, which is
// (flow, packet) order, and capture faults move timestamps but never
// positions, so a stable LSD radix sort on the timestamp alone —
// offset from the earliest, so the span sets the pass count — yields
// the total order with no comparisons. The result is events itself or
// one scratch slice of the same length, whichever the last pass filled.
func sortEvents(events []event) []event {
	if len(events) < 2 {
		return events
	}
	lo, hi := events[0].nano, events[0].nano
	for _, ev := range events {
		lo, hi = min(lo, ev.nano), max(hi, ev.nano)
	}
	const mask = 1<<radixBits - 1
	var count [1 << radixBits]int
	src, dst := events, make([]event, len(events))
	for shift := 0; uint64(hi-lo)>>shift != 0; shift += radixBits {
		clear(count[:])
		for _, ev := range src {
			count[uint64(ev.nano-lo)>>shift&mask]++
		}
		sum := 0
		for d, c := range count {
			count[d], sum = sum, sum+c
		}
		for _, ev := range src {
			d := uint64(ev.nano-lo) >> shift & mask
			dst[count[d]] = ev
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// anchorShareTotal is the fraction of HTTP(S) bytes Table 5's anchor
// domains carry.
func anchorShareTotal() float64 {
	s := 0.0
	for _, a := range trafficAnchors {
		s += a.share
	}
	return s
}

// Generate writes the capture to w and returns the ground truth.
//
// Calibration works in two passes. Background flows are generated first
// to fill the per-cloud protocol mix; their actual HTTP(S) byte mass is
// tallied. Anchor flows are then sized so each anchor domain's share of
// the resulting total matches Table 5 exactly in expectation: with the
// anchors jointly holding fraction S of all HTTP(S) bytes, the anchor
// byte pool is B_bg * S / (1 - S).
//
// Both passes shard their flow ranges over cfg.Par, but every flow
// draws from its own sub-stream keyed by (seed, flow index) and frames
// are serialized into per-shard pooled blocks, so the pcap bytes are a
// pure function of seed + world: identical at every worker count and
// every shard layout. The final emission order is (timestamp, flow,
// packet) — a strict total order, so the sort result cannot depend on
// how the shards arranged events. The pass-B barrier (anchor sizing
// needs the full background HTTP mass) is inherent to the calibration,
// not an artifact of the fan-out.
func (g *Generator) Generate(w *pcapio.Writer) (*Truth, error) {
	events, blocks, err := g.synthesize()
	if err != nil {
		return nil, err
	}
	for _, ev := range sortEvents(events) {
		if err := w.WriteBlockRecord(blocks[ev.blk], int(ev.rec)); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	for _, b := range blocks {
		b.Release()
	}
	t := g.truth
	return &t, nil
}

// synthesize runs both calibration passes, folding each shard's truth
// into g.truth, and returns every scheduled packet's event, in
// ascending (flow, packet) order, with the blocks the events index.
// Shards run over consecutive flow ranges and a flow's packets are
// logged in sequence, so concatenating the shards in pass and shard
// order — one pre-sized copy — yields that order, which is also
// ascending position (see event).
func (g *Generator) synthesize() ([]event, []*pcapio.Block, error) {
	shareS := anchorShareTotal()

	// Anchors get a fixed ~6% of the flow budget, split ∝ √share so
	// heavy domains get more flows without dominating counts; their
	// per-flow sizes (set in pass B) carry the byte shares. meanObject
	// acts only as a shape hint for the √share split.
	sqrtSum := 0.0
	for _, a := range trafficAnchors {
		sqrtSum += math.Sqrt(a.share)
	}
	anchorBudget := float64(g.cfg.Flows) * 0.06
	anchorN := make([]int, len(trafficAnchors))
	estAnchorFlows := map[ipranges.Provider]int{}
	for i, a := range trafficAnchors {
		n := int(math.Round(anchorBudget * math.Sqrt(a.share) / sqrtSum))
		if n < 1 {
			n = 1
		}
		anchorN[i] = n
		estAnchorFlows[a.cloud] += n
	}
	clouds := []ipranges.Provider{ipranges.EC2, ipranges.Azure}
	bgBudget := map[ipranges.Provider]int{}
	for _, c := range clouds {
		bgBudget[c] = int(float64(g.cfg.Flows)*cloudFlowSplit[c]) - estAnchorFlows[c]
		if bgBudget[c] < 0 {
			bgBudget[c] = 0
		}
	}

	// collect folds one pass's shard truths (a sum, so the order is
	// cosmetic) and keeps its shards, in order, for the final copy.
	var shards []*flowgen
	collect := func(fgs []*flowgen) {
		for _, fg := range fgs {
			g.truth.merge(fg.truth)
		}
		shards = append(shards, fgs...)
	}

	// Pass A: background flows fill the protocol mix. The per-cloud
	// kind CDF is precomputed once and shared read-only across shards
	// (NextR draws from the flow's stream, like the Zipf samplers).
	base := 0
	for _, cloud := range clouds {
		cloud := cloud
		kindPick := xrand.NewWeighted(g.rng, flowKindWeights[cloud])
		cloudBase := base
		fgs, err := parallel.MapShards(g.cfg.Par, bgBudget[cloud], func(sh parallel.Shard) ([]*flowgen, error) {
			fg := g.newFlowgen(sh.Hi-sh.Lo, bgRecordsPerFlow)
			for i := sh.Lo; i < sh.Hi; i++ {
				idx := cloudBase + i + 1
				fg.beginFlow(idx)
				kind := Kinds[kindPick.NextR(fg.rng)]
				switch kind {
				case KindHTTP, KindHTTPS:
					h := g.background[cloud][g.bgZipf[cloud].NextR(fg.rng)]
					var size int64
					var ctype string
					if kind == KindHTTP {
						ct := contentTypes[g.ctPick.NextR(fg.rng)]
						size = fg.lognormalMean(ct.meanBytes, 1.2, ct.maxBytes)
						ctype = ct.name
					} else {
						median := 10 << 10
						if cloud == ipranges.Azure {
							median = 8 << 10
						}
						size = fg.lognormalMedian(float64(median), 1.4, 500_000_000)
					}
					fg.tcpFlowTyped(idx, kind, h, size, ctype)
				case KindDNS:
					h := g.background[cloud][g.bgZipf[cloud].NextR(fg.rng)]
					fg.dnsFlow(idx, cloud, h)
				case KindICMP:
					fg.icmpFlow(idx, cloud)
				case KindOtherTCP:
					h := g.background[cloud][g.bgZipf[cloud].NextR(fg.rng)]
					size := fg.lognormalMedian(30_000, 1.5, 100_000_000)
					fg.otherTCPFlow(idx, cloud, h, size)
				case KindOtherUDP:
					fg.otherUDPFlow(idx, cloud)
				}
			}
			fg.finishFlow()
			return []*flowgen{fg}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		collect(fgs)
		base += bgBudget[cloud]
	}

	// Pass B: anchors sized from the actual background HTTP(S) mass.
	var bgHTTPBytes float64
	for _, c := range clouds {
		bgHTTPBytes += float64(g.truth.BytesByKind[c][KindHTTP] + g.truth.BytesByKind[c][KindHTTPS])
	}
	anchorPool := bgHTTPBytes * shareS / (1 - shareS)
	// Flatten the anchors into one flow list so flow indexes are a pure
	// function of the total anchor flow count.
	var anchorOf []int
	per := make([]float64, len(trafficAnchors))
	for ai, a := range trafficAnchors {
		per[ai] = a.share / shareS * anchorPool / float64(anchorN[ai])
		for i := 0; i < anchorN[ai]; i++ {
			anchorOf = append(anchorOf, ai)
		}
	}
	fgs, err := parallel.MapShards(g.cfg.Par, len(anchorOf), func(sh parallel.Shard) ([]*flowgen, error) {
		fg := g.newFlowgen(sh.Hi-sh.Lo, anchorRecordsPerFlow)
		for j := sh.Lo; j < sh.Hi; j++ {
			idx := base + j + 1
			fg.beginFlow(idx)
			a := trafficAnchors[anchorOf[j]]
			kind := KindHTTP
			if fg.rng.Bool(a.httpsBias) {
				kind = KindHTTPS
			}
			h := xrand.PickUniform(fg.rng, g.anchorHosts[a.domain])
			size := fg.lognormalMean(per[anchorOf[j]], 1.1, 2_000_000_000)
			fg.tcpFlow(idx, kind, h, size)
		}
		fg.finishFlow()
		return []*flowgen{fg}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	collect(fgs)

	n := 0
	for _, fg := range shards {
		n += len(fg.events)
	}
	events := make([]event, 0, n)
	blocks := make([]*pcapio.Block, len(shards))
	for bi, fg := range shards {
		blocks[bi] = fg.blk
		lo := len(events)
		events = append(events, fg.events...)
		for i := lo; i < len(events); i++ {
			events[i].blk = int32(bi)
		}
	}
	return events, blocks, nil
}

// lognormalMean draws a heavy-tailed size with the given mean.
func (fg *flowgen) lognormalMean(mean, sigma float64, max int64) int64 {
	mu := math.Log(mean) - sigma*sigma/2
	v := int64(fg.rng.LogNormal(mu, sigma))
	if v < 64 {
		v = 64
	}
	if v > max {
		v = max
	}
	return v
}

// lognormalMedian draws a heavy-tailed size with the given median.
func (fg *flowgen) lognormalMedian(median, sigma float64, max int64) int64 {
	v := int64(fg.rng.LogNormal(math.Log(median), sigma))
	if v < 64 {
		v = 64
	}
	if v > max {
		v = max
	}
	return v
}

// flowTiming picks a diurnal start time and a transfer duration.
func (fg *flowgen) flowTiming(bytes int64) (start time.Time, dur time.Duration) {
	day := fg.rng.Intn(days)
	hour := fg.g.diurnal.NextR(fg.rng)
	offset := time.Duration(day)*24*time.Hour +
		time.Duration(hour)*time.Hour +
		time.Duration(fg.rng.Intn(3600*1000))*time.Millisecond
	start = captureStart.Add(offset)
	rate := fg.rng.LogNormal(math.Log(400_000), 1.0) // bytes/sec
	dur = time.Duration(float64(bytes) / rate * float64(time.Second))
	if dur < 10*time.Millisecond {
		dur = 10 * time.Millisecond
	}
	// A thin tail of long-lived sessions (notification long-polls, sync
	// channels) keeps connections open for hours — the paper observed
	// flows "that last for a few hours".
	if fg.rng.Bool(0.004) {
		dur = 30*time.Minute + time.Duration(fg.rng.Float64()*float64(3*time.Hour))
	}
	if dur > 4*time.Hour {
		dur = 4 * time.Hour
	}
	return start, dur
}

// clientEndpoint derives a unique campus client address/port per flow.
func clientEndpoint(idx int) (netaddr.IP, uint16) {
	ip := campusNet.Nth(uint64(1 + idx%65000))
	port := uint16(1024 + (idx/65000*7919+idx)%60000)
	return ip, port
}

func (fg *flowgen) account(cloud ipranges.Provider, kind Kind, domain string, bytes int64) {
	fg.truth.TotalFlows++
	fg.truth.TotalBytes += bytes
	fg.truth.FlowsByCloud[cloud]++
	fg.truth.BytesByCloud[cloud] += bytes
	fg.truth.FlowsByKind[cloud][kind]++
	fg.truth.BytesByKind[cloud][kind] += bytes
	if domain != "" && (kind == KindHTTP || kind == KindHTTPS) {
		fg.truth.HTTPVolumeByDomain[domain] += bytes
	}
}

// tcpFlow emits an HTTP or HTTPS flow, drawing a size-appropriate
// content type (anchor flows carry calibrated sizes, so their type must
// follow the size or Table 6's type/size correlations break).
func (fg *flowgen) tcpFlow(idx int, kind Kind, h host, size int64) {
	fg.tcpFlowTyped(idx, kind, h, size, fg.contentTypeForSize(size))
}

// contentTypeForSize picks a Content-Type for a transfer of the given
// size by Table 6's byte shares, restricted to types whose observed
// maximum accommodates the size (a 20 MB object can be text/plain — the
// paper saw 24 MB ones — but not text/xml).
func (fg *flowgen) contentTypeForSize(size int64) string {
	var nameBuf [len(contentTypes)]string
	var weightBuf [len(contentTypes)]float64
	names, weights := nameBuf[:0], weightBuf[:0]
	for _, ct := range contentTypes {
		if ct.maxBytes >= size {
			names = append(names, ct.name)
			weights = append(weights, ct.byteShare)
		}
	}
	if len(names) == 0 {
		return "application/octet-stream"
	}
	return xrand.Pick(fg.rng, names, weights)
}

// browserHeaders are every generated HTTP request's extra headers
// (shared read-only across shards).
var browserHeaders = map[string]string{"User-Agent": "Mozilla/5.0 (cloudscope)"}

// tcpFlowTyped emits a full TCP exchange: handshake, application heads,
// representative data packets, and FINs whose sequence numbers encode
// the transferred volume.
func (fg *flowgen) tcpFlowTyped(idx int, kind Kind, h host, size int64, ctype string) {
	clientIP, clientPort := clientEndpoint(idx)
	serverPort := uint16(80)
	if kind == KindHTTPS {
		serverPort = 443
	}
	reqPayload, respPayload := h.hello, h.flight
	if kind == KindHTTP {
		// Both heads go into the flowgen's scratch: the frames copy
		// their payloads, so it is free again once the flow is emitted.
		req := httpwire.Request{Host: h.name, Path: contentPath(ctype), Headers: browserHeaders}
		fg.head = req.AppendRequest(fg.head[:0])
		n := len(fg.head)
		resp := httpwire.Response{StatusCode: 200, ContentType: ctype, ContentLength: size}
		fg.head = resp.AppendResponse(fg.head)
		reqPayload, respPayload = fg.head[:n:n], fg.head[n:]
		if ctype != "" {
			fg.truth.ContentTypeBytes[ctype] += size
		}
	}
	reqBytes := int64(len(reqPayload)) + 300 // request head + client app data
	respBytes := int64(len(respPayload)) + size
	fg.account(h.cloud, kind, h.domain, reqBytes+respBytes)
	fg.emitTCP(idx, clientIP, clientPort, h.ip, serverPort, reqPayload, respPayload, reqBytes, respBytes)
}

// contentPath is an HTTP flow's request path: "/" and the subtype of
// its content type.
func contentPath(ctype string) string {
	if i := strings.IndexByte(ctype, '/'); i >= 0 {
		return ctype[i:]
	}
	return "/" + ctype
}

// otherTCPFlow emits a non-HTTP TCP exchange (SMTP/SSH/FTP-ish).
func (fg *flowgen) otherTCPFlow(idx int, cloud ipranges.Provider, h host, size int64) {
	clientIP, clientPort := clientEndpoint(idx)
	ports := []uint16{25, 22, 21, 6667, 8080}
	serverPort := ports[fg.rng.Intn(len(ports))]
	banner := []byte("220 service ready\r\n")
	fg.account(cloud, KindOtherTCP, "", 200+size) // client request + server bytes
	fg.emitTCP(idx, clientIP, clientPort, h.ip, serverPort, []byte("EHLO campus\r\n"), banner, 200, size)
}

// emitTCP serializes the packet series for one connection straight into
// the shard's block: each frame is built in place in the reserved
// record slice, so a connection costs zero per-packet allocations.
//
// A cap-rst verdict plans the same packet series, then stops capturing
// at a deterministic cut and appends a forged server-side RST: the
// analyzer sees a half-closed flow ending in a reset, exactly what a
// border tap records when a middlebox kills a connection.
func (fg *flowgen) emitTCP(idx int, cIP netaddr.IP, cPort uint16, sIP netaddr.IP, sPort uint16, reqPayload, respPayload []byte, reqBytes, respBytes int64) {
	start, dur := fg.flowTiming(respBytes)
	isnC := uint32(fg.rng.Intn(1 << 30))
	isnS := uint32(fg.rng.Intn(1 << 30))
	rtt := time.Duration(20+fg.rng.Intn(60)) * time.Millisecond

	planned := 8 // handshake + app heads + teardown
	for rem, i := respBytes-int64(len(respPayload)), 0; i < 2 && rem > 1460; i++ {
		planned++
		rem -= 1460
	}
	cut := planned
	if fg.verdict.RSTFrac > 0 {
		cut = int(float64(planned)*fg.verdict.RSTFrac + 0.5)
		if cut < 3 {
			cut = 3 // the handshake was on the wire before the reset
		}
		if cut >= planned {
			cut = planned - 1
		}
	}
	emitted := 0
	var lastD time.Duration
	rstSeq, rstAck := isnS+1, isnC+1

	mac := packet.MAC{0x00, 0x16, 0x3e, byte(idx >> 16), byte(idx >> 8), byte(idx)}
	rmac := packet.MAC{0x00, 0x0c, 0x29, 1, 2, 3}
	emit := func(d time.Duration, src, dst netaddr.IP, tcp *packet.TCP, payload []byte, origTotal int) {
		n := packet.TCPFrameLen(len(payload))
		orig := n
		if origTotal > 0 && origTotal+14 > n {
			orig = origTotal + 14
		}
		buf := fg.put(start.Add(d), orig, n)
		ip := packet.IPv4{Src: src, Dst: dst, ID: uint16(idx)}
		if origTotal > 0 {
			ip.TotalLength = uint16(min64(int64(origTotal), 65535))
		}
		eth := packet.Ethernet{Src: mac, Dst: rmac, EtherType: packet.EtherTypeIPv4}
		packet.PutTCPFrame(buf, &eth, &ip, tcp, payload)
	}
	frame := func(d time.Duration, src, dst netaddr.IP, tcp *packet.TCP, payload []byte, origTotal int) {
		if emitted >= cut {
			emitted++
			return
		}
		emitted++
		lastD = d
		if src == sIP {
			rstSeq, rstAck = tcp.Seq+uint32(len(payload)), tcp.Ack
		}
		emit(d, src, dst, tcp, payload, origTotal)
	}

	// Handshake.
	frame(0, cIP, sIP, &packet.TCP{SrcPort: cPort, DstPort: sPort, Seq: isnC, Flags: packet.FlagSYN}, nil, 0)
	frame(rtt/2, sIP, cIP, &packet.TCP{SrcPort: sPort, DstPort: cPort, Seq: isnS, Ack: isnC + 1, Flags: packet.FlagSYN | packet.FlagACK}, nil, 0)
	frame(rtt, cIP, sIP, &packet.TCP{SrcPort: cPort, DstPort: sPort, Seq: isnC + 1, Ack: isnS + 1, Flags: packet.FlagACK}, nil, 0)
	// Application heads.
	frame(rtt+time.Millisecond, cIP, sIP, &packet.TCP{SrcPort: cPort, DstPort: sPort, Seq: isnC + 1, Ack: isnS + 1, Flags: packet.FlagACK | packet.FlagPSH}, reqPayload, 0)
	frame(rtt*3/2+time.Millisecond, sIP, cIP, &packet.TCP{SrcPort: sPort, DstPort: cPort, Seq: isnS + 1, Ack: isnC + 1 + uint32(len(reqPayload)), Flags: packet.FlagACK | packet.FlagPSH}, respPayload, 0)
	// Representative data packets (full-size on the wire; snap applies).
	remaining := respBytes - int64(len(respPayload))
	dataSeq := isnS + 1 + uint32(len(respPayload))
	for i := 0; i < 2 && remaining > 1460; i++ {
		frame(rtt*2+dur*time.Duration(i+1)/4,
			sIP, cIP, &packet.TCP{SrcPort: sPort, DstPort: cPort, Seq: dataSeq, Ack: isnC + 1 + uint32(reqBytes), Flags: packet.FlagACK}, nil, 1500)
		dataSeq += 1460
		remaining -= 1460
	}
	// Teardown carrying final sequence numbers. The schedule is causal:
	// the close follows every frame already on the wire even when the
	// transfer duration is shorter than the handshake RTT, so a clean
	// capture never time-sorts a FIN ahead of the data it acknowledges
	// (the analyzer would read that as a re-ordered segment).
	finS := isnS + 1 + uint32(respBytes)
	finC := isnC + 1 + uint32(reqBytes)
	tear := rtt + dur
	if tear <= lastD {
		tear = lastD + time.Millisecond
	}
	frame(tear, sIP, cIP, &packet.TCP{SrcPort: sPort, DstPort: cPort, Seq: finS, Ack: finC, Flags: packet.FlagFIN | packet.FlagACK}, nil, 0)
	frame(tear+time.Millisecond, cIP, sIP, &packet.TCP{SrcPort: cPort, DstPort: sPort, Seq: finC, Ack: finS + 1, Flags: packet.FlagFIN | packet.FlagACK}, nil, 0)
	frame(tear+2*time.Millisecond, sIP, cIP, &packet.TCP{SrcPort: sPort, DstPort: cPort, Seq: finS + 1, Ack: finC + 1, Flags: packet.FlagACK}, nil, 0)

	if fg.verdict.RSTFrac > 0 {
		// The forged reset carries the server's conversation state at
		// the cut; nothing after it was captured.
		emit(lastD+time.Millisecond, sIP, cIP,
			&packet.TCP{SrcPort: sPort, DstPort: cPort, Seq: rstSeq, Ack: rstAck, Flags: packet.FlagRST | packet.FlagACK}, nil, 0)
		fg.truth.Faults[string(chaos.CapRST)]++
	}
}

// dnsFlow emits a UDP query/response pair to a cloud-hosted resolver.
func (fg *flowgen) dnsFlow(idx int, cloud ipranges.Provider, h host) {
	clientIP, clientPort := clientEndpoint(idx)
	serverIP := fg.syntheticIP(cloud)
	q := dnswire.NewQuery(uint16(idx), h.name, dnswire.TypeA)
	qbuf, _ := q.Pack()
	r := q.Reply()
	r.Answers = []dnswire.RR{{Name: h.name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, IP: h.ip}}
	rbuf, _ := r.Pack()
	start, _ := fg.flowTiming(int64(len(rbuf)))

	build := func(d time.Duration, src, dst netaddr.IP, sp, dp uint16, payload []byte) int {
		n := packet.UDPFrameLen(len(payload))
		buf := fg.put(start.Add(d), n, n)
		ip := packet.IPv4{Src: src, Dst: dst}
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		udp := packet.UDP{SrcPort: sp, DstPort: dp}
		packet.PutUDPFrame(buf, &eth, &ip, &udp, payload)
		return n
	}
	qn := build(0, clientIP, serverIP, clientPort, 53, qbuf)
	rn := build(15*time.Millisecond, serverIP, clientIP, 53, clientPort, rbuf)
	fg.account(cloud, KindDNS, "", int64(qn+rn))
}

// zeroPad backs all-zero payloads (ICMP echo padding, unclassified UDP
// datagrams) so emitting one costs no allocation.
var zeroPad [512]byte

// icmpFlow emits an echo request/reply pair.
func (fg *flowgen) icmpFlow(idx int, cloud ipranges.Provider) {
	clientIP, _ := clientEndpoint(idx)
	serverIP := fg.syntheticIP(cloud)
	start, _ := fg.flowTiming(100)
	build := func(d time.Duration, src, dst netaddr.IP, typ uint8) int {
		n := packet.ICMPFrameLen(56)
		buf := fg.put(start.Add(d), n, n)
		ip := packet.IPv4{Src: src, Dst: dst}
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		ic := packet.ICMP{Type: typ}
		packet.PutICMPFrame(buf, &eth, &ip, &ic, zeroPad[:56])
		return n
	}
	reqN := build(0, clientIP, serverIP, 8)
	repN := build(30*time.Millisecond, serverIP, clientIP, 0)
	fg.account(cloud, KindICMP, "", int64(reqN+repN))
}

// otherUDPFlow emits a small unclassified UDP exchange.
func (fg *flowgen) otherUDPFlow(idx int, cloud ipranges.Provider) {
	clientIP, clientPort := clientEndpoint(idx)
	serverIP := fg.syntheticIP(cloud)
	start, _ := fg.flowTiming(500)
	payLen := 48 + fg.rng.Intn(400)
	build := func(d time.Duration, src, dst netaddr.IP, sp, dp uint16, payload []byte) int {
		n := packet.UDPFrameLen(len(payload))
		buf := fg.put(start.Add(d), n, n)
		ip := packet.IPv4{Src: src, Dst: dst}
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		udp := packet.UDP{SrcPort: sp, DstPort: dp}
		packet.PutUDPFrame(buf, &eth, &ip, &udp, payload)
		return n
	}
	f1 := build(0, clientIP, serverIP, clientPort, 3544, zeroPad[:payLen])
	f2 := build(40*time.Millisecond, serverIP, clientIP, 3544, clientPort, zeroPad[:32])
	fg.account(cloud, KindOtherUDP, "", int64(f1+f2))
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
