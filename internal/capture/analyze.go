package capture

import (
	"errors"
	"io"
	"slices"
	"sort"
	"time"

	"cloudscope/internal/httpwire"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/packet"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/tlswire"
)

// FlowRecord is the analyzer's per-connection summary — the conn.log
// row of the Bro stand-in.
type FlowRecord struct {
	Client, Server netaddr.IP
	ServerPort     uint16
	Proto          uint8
	Cloud          ipranges.Provider
	Kind           Kind
	First, Last    time.Time
	Packets        int

	// RST reports a reset seen on the connection — the capture-fault
	// engine forges these mid-stream, and real captures are full of
	// them.
	RST bool
	// OutOfOrder reports an observable segment re-ordering: a payload
	// segment arrived behind the furthest sequence point already seen
	// in its direction.
	OutOfOrder bool

	// Sequence-number bookkeeping for TCP volume recovery.
	isnC, isnS uint32
	haveSynC   bool
	haveSynS   bool
	finC, finS uint32
	haveFinC   bool
	haveFinS   bool
	// Furthest sequence end observed per direction (seq + payload),
	// the volume basis when the teardown was never captured.
	endC, endS uint32
	haveEndC   bool
	haveEndS   bool

	udpBytes int64 // orig-len accounting for non-TCP

	// Application-layer extractions.
	Host          string // HTTP Host or TLS SNI
	CertCN        string // TLS certificate common name
	ContentType   string
	ContentLength int64

	sawClientPayload bool
	sawServerPayload bool
}

// Bytes returns the connection's application byte volume: for TCP the
// SYN/FIN sequence delta per direction (Bro's method), otherwise the
// wire bytes observed. A partial TCP flow — teardown truncated, reset
// mid-stream, or tail records dropped — falls back to the furthest
// sequence point seen past each SYN, the best lower bound a chopped
// capture supports.
func (f *FlowRecord) Bytes() int64 {
	if f.Proto != packet.ProtoTCP {
		return f.udpBytes
	}
	if f.haveSynC && f.haveFinC && f.haveSynS && f.haveFinS {
		up := int64(f.finC - f.isnC - 1) // uint32 arithmetic handles wrap
		down := int64(f.finS - f.isnS - 1)
		if up >= 0 && down >= 0 {
			return up + down
		}
	}
	var total int64
	if f.haveSynC && f.haveEndC {
		if rel := int64(int32(f.endC - f.isnC - 1)); rel > 0 {
			total += rel
		}
	}
	if f.haveSynS && f.haveEndS {
		if rel := int64(int32(f.endS - f.isnS - 1)); rel > 0 {
			total += rel
		}
	}
	return total
}

// Complete reports whether the flow's volume is exactly recoverable:
// for TCP, that both SYNs and both FINs were captured (Bro's "SF"
// connection state); other transports are byte-accounted per record
// and always complete.
func (f *FlowRecord) Complete() bool {
	if f.Proto != packet.ProtoTCP {
		return true
	}
	return f.haveSynC && f.haveFinC && f.haveSynS && f.haveFinS
}

// Symptom classifies how the capture observed the flow, in fault
// priority order: a reset outranks re-ordering outranks a missing
// endpoint. Healthy flows (and non-TCP, always exactly accounted)
// report "complete".
func (f *FlowRecord) Symptom() string {
	if f.Proto != packet.ProtoTCP {
		return "complete"
	}
	switch {
	case f.RST:
		return "rst"
	case f.OutOfOrder:
		return "reordered"
	case !f.Complete():
		return "partial"
	}
	return "complete"
}

// Duration returns the observed flow duration.
func (f *FlowRecord) Duration() time.Duration { return f.Last.Sub(f.First) }

// Domain returns the registered domain the flow is attributed to: the
// HTTP hostname or TLS SNI when present, the certificate CN otherwise.
func (f *FlowRecord) Domain() string {
	name := f.Host
	if name == "" {
		name = f.CertCN
	}
	if name == "" {
		return ""
	}
	if name[0] == '*' && len(name) > 2 {
		name = name[2:]
	}
	return DomainOf(name)
}

// Analysis aggregates a full capture.
type Analysis struct {
	Flows      []*FlowRecord
	NonIPv4    int
	UnknownIP  int // unknown transports (Bro's "other")
	DecodeErrs int
	Records    int // pcap records read (decode failures included)

	// Fault-symptom flow counts, priority-exclusive per flow in the
	// same order as FlowRecord.Symptom: a reset flow counts only as
	// RSTFlows even though its teardown is also missing.
	RSTFlows   int
	Reordered  int
	PartialTCP int
}

// flowKey identifies a connection with the client side first.
type flowKey struct {
	client, server netaddr.IP
	cport, sport   uint16
	proto          uint8
}

// predecode is the parallel phase's per-packet result: everything the
// sequential assembly step needs that is computable from one packet
// alone, distilled from a stack-local header decode (no *Packet
// allocation; payload is a view into the block's buffer). The full
// Packet is not retained — assembly only ever reads the flow key, the
// TCP sequence bookkeeping, and the payload, and dropping the rest
// keeps the flat pre-decode slab small enough that peak heap tracks
// the pcap, not the packet count. Decode stops at the transport layer;
// app-layer parsing is deferred to assembly, which knows whether a
// packet is the first payload in its direction and parses exactly
// those. The extraction functions are pure on the payload, so
// deferring them changes no output: the old speculative per-packet
// parses were only ever read for first-payload packets anyway.
type predecode struct {
	payload        []byte // view into the block buffer; not retained past assembly
	key            flowKey
	kind           Kind
	cloud          ipranges.Provider
	seq            uint32 // TCP sequence number (undefined otherwise)
	tcpFlags       uint8
	bad            bool // decode failure, counted and skipped
	unknown        bool // packet.ErrUnknownTransport
	clientToServer bool
	inRange        bool
}

// predecodeRecord overwrites d with data's pre-decode (slots are
// reused from batch to batch).
func predecodeRecord(d *predecode, ranges *ipranges.List, data []byte) {
	*d = predecode{}
	var p packet.Packet
	derr := packet.DecodeHeaders(&p, data)
	d.unknown = errors.Is(derr, packet.ErrUnknownTransport)
	if derr != nil && !d.unknown {
		d.bad = true
		return
	}
	d.clientToServer = InCampus(p.IPv4.Src)
	fl := p.Flow()
	var client, server netaddr.IP
	var cport, sport uint16
	if d.clientToServer {
		client, server, cport, sport = fl.Src, fl.Dst, fl.SrcPort, fl.DstPort
	} else {
		client, server, cport, sport = fl.Dst, fl.Src, fl.DstPort, fl.SrcPort
	}
	entry, okRange := ranges.Lookup(server)
	if !okRange {
		return // not cloud traffic; the tap would not have kept it
	}
	d.inRange = true
	d.cloud = entry.Provider
	if d.cloud == ipranges.CloudFront {
		d.cloud = ipranges.EC2
	}
	d.key = flowKey{client: client, server: server, cport: cport, sport: sport, proto: p.IPv4.Protocol}
	d.kind = classify(p.IPv4.Protocol, sport)
	d.seq = p.TCP.Seq
	d.tcpFlags = p.TCP.Flags
	d.payload = p.Payload
}

// AnalyzePar reads a pcap stream and builds per-flow records. Only
// flows whose non-campus endpoint is inside the published cloud ranges
// are kept — the same filter the border tap applied.
//
// The stream is read one batch of pooled blocks at a time (no
// per-record allocation): header decode and range lookup shard over the
// batch's blocks — one shard per worker, opt.ShardSize blocks each
// (default one) — and flow assembly, the only stateful step, then folds
// the batch in capture order and releases its blocks before the next
// batch is read. Pre-decode is a pure per-record function, so the
// result is byte-identical to the sequential analyzer at every worker
// count and shard layout. Memory holds one batch, not the whole pcap.
func AnalyzePar(r io.Reader, ranges *ipranges.List, opt parallel.Options) (*Analysis, error) {
	rd, err := pcapio.NewReader(r)
	if err != nil {
		return nil, err
	}
	if opt.ShardSize <= 0 {
		opt.ShardSize = 1
	}
	batch := make([]*pcapio.Block, 0, opt.WorkerCount()*opt.ShardSize)
	release := func() {
		for _, b := range batch {
			b.Release()
		}
		batch = batch[:0]
	}
	// offs[i] is the batch index of batch[i]'s first record, so the
	// parallel phase writes results straight into one flat slice that
	// every batch reuses.
	offs := make([]int, 0, cap(batch)+1)
	var pre []predecode

	a := &Analysis{}
	table := map[flowKey]*FlowRecord{}
	total := 0
	for eof := false; !eof; {
		for len(batch) < cap(batch) && !eof {
			b := pcapio.GetBlock()
			n, rerr := rd.ReadBlock(b, 0)
			if n > 0 {
				batch = append(batch, b)
			} else {
				b.Release()
			}
			if rerr == io.EOF {
				eof = true
			} else if rerr != nil {
				release()
				return nil, rerr
			}
		}
		if len(batch) == 0 {
			break
		}
		offs = append(offs[:0], 0)
		for _, b := range batch {
			offs = append(offs, offs[len(offs)-1]+b.Len())
		}
		pre = slices.Grow(pre[:0], offs[len(batch)])[:offs[len(batch)]]
		if err := parallel.Run(opt, len(batch), func(sh parallel.Shard) error {
			for bi := sh.Lo; bi < sh.Hi; bi++ {
				b, base := batch[bi], offs[bi]
				for ri := 0; ri < b.Len(); ri++ {
					predecodeRecord(&pre[base+ri], ranges, b.Data(ri))
				}
			}
			return nil
		}); err != nil {
			release()
			return nil, err // only worker panics land here
		}
		for bi, b := range batch {
			a.fold(table, b, pre[offs[bi]:offs[bi+1]])
		}
		total += offs[len(batch)]
		// The batch's payload views have been parsed into owned
		// strings; nothing downstream aliases its buffers.
		release()
	}
	a.Records = total
	for _, fr := range a.Flows {
		switch fr.Symptom() {
		case "rst":
			a.RSTFlows++
		case "reordered":
			a.Reordered++
		case "partial":
			a.PartialTCP++
		}
	}
	return a, nil
}

// Book records the analysis's capture accounting in tel (a nil tel is a
// no-op). Stage "capture/flows" counts one attempt per flow under its
// symptom vantage (complete/partial/rst/reordered): partial flows whose
// volume was recovered from sequence bookkeeping count as
// succeeded-with-retry, volume-less ones as abandoned. Stage
// "capture/frames" counts records against decode failures.
func (a *Analysis) Book(tel *telemetry.Completeness) {
	if tel == nil {
		return
	}
	for _, fr := range a.Flows {
		c := telemetry.Counts{Attempted: 1}
		if fr.Complete() {
			c.Succeeded = 1
		} else if fr.Bytes() > 0 {
			c.Succeeded, c.Retried = 1, 1 // recovered from seq bookkeeping
		} else {
			c.Abandoned = 1 // no volume basis survived the faults
		}
		tel.Merge("capture/flows", fr.Symptom(), c)
	}
	tel.Merge("capture/frames", "decode", telemetry.Counts{
		Attempted: int64(a.Records),
		Succeeded: int64(a.Records - a.DecodeErrs),
		Abandoned: int64(a.DecodeErrs),
	})
}

// fold assembles one block's pre-decoded records into their flows, in
// capture order.
func (a *Analysis) fold(table map[flowKey]*FlowRecord, b *pcapio.Block, pre []predecode) {
	for ri := range pre {
		d := &pre[ri]
		if d.bad {
			a.DecodeErrs++
			continue
		}
		if !d.inRange {
			continue
		}
		t := b.Time(ri)
		fr := table[d.key]
		if fr == nil {
			fr = &FlowRecord{
				Client: d.key.client, Server: d.key.server, ServerPort: d.key.sport,
				Proto: d.key.proto, Cloud: d.cloud,
				First: t, Last: t,
				ContentLength: -1,
			}
			fr.Kind = d.kind
			table[d.key] = fr
			a.Flows = append(a.Flows, fr)
		}
		if t.Before(fr.First) {
			fr.First = t
		}
		if t.After(fr.Last) {
			fr.Last = t
		}
		fr.Packets++
		if d.unknown {
			a.UnknownIP++
			fr.udpBytes += int64(b.OrigLen(ri))
			continue
		}
		switch d.key.proto {
		case packet.ProtoTCP:
			analyzeTCP(fr, d)
		default:
			fr.udpBytes += int64(b.OrigLen(ri))
		}
	}
}

func classify(proto uint8, serverPort uint16) Kind {
	switch proto {
	case packet.ProtoICMP:
		return KindICMP
	case packet.ProtoUDP:
		if serverPort == 53 {
			return KindDNS
		}
		return KindOtherUDP
	case packet.ProtoTCP:
		switch serverPort {
		case 80:
			return KindHTTP
		case 443:
			return KindHTTPS
		default:
			return KindOtherTCP
		}
	}
	return KindOtherUDP
}

// analyzeTCP folds one pre-decoded TCP packet into its flow record.
// App-layer parsing happens here, lazily: only the first payload packet
// in each direction is parsed — at most two parses per flow instead of
// one per payload packet. The parsers are pure functions of the payload
// and every extraction they return is an owned copy, so nothing here
// retains a view into the packet's (pooled) block buffer.
func analyzeTCP(fr *FlowRecord, d *predecode) {
	if d.tcpFlags&packet.FlagSYN != 0 {
		if d.clientToServer {
			fr.isnC, fr.haveSynC = d.seq, true
		} else {
			fr.isnS, fr.haveSynS = d.seq, true
		}
	}
	if d.tcpFlags&packet.FlagFIN != 0 {
		if d.clientToServer {
			fr.finC, fr.haveFinC = d.seq, true
		} else {
			fr.finS, fr.haveFinS = d.seq, true
		}
	}
	if d.tcpFlags&packet.FlagRST != 0 {
		fr.RST = true
	}
	// Track the furthest sequence point per direction (sequence-space
	// comparison, wrap-safe). A payload segment landing at or behind
	// the high-water mark is an observable re-ordering.
	end := d.seq + uint32(len(d.payload))
	if d.clientToServer {
		if fr.haveEndC && len(d.payload) > 0 && int32(end-fr.endC) <= 0 {
			fr.OutOfOrder = true
		}
		if !fr.haveEndC || int32(end-fr.endC) > 0 {
			fr.endC, fr.haveEndC = end, true
		}
	} else {
		if fr.haveEndS && len(d.payload) > 0 && int32(end-fr.endS) <= 0 {
			fr.OutOfOrder = true
		}
		if !fr.haveEndS || int32(end-fr.endS) > 0 {
			fr.endS, fr.haveEndS = end, true
		}
	}
	payload := d.payload
	if len(payload) == 0 {
		return
	}
	if d.clientToServer && !fr.sawClientPayload {
		fr.sawClientPayload = true
		if fr.Kind == KindHTTPS {
			if sni, ok := tlswire.SNI(payload); ok {
				fr.Host = sni
			}
		} else if req, ok := httpwire.ParseRequest(payload); ok {
			fr.Host = req.Host
			if fr.Kind == KindOtherTCP {
				fr.Kind = KindHTTP // HTTP on a nonstandard port
			}
		}
	}
	if !d.clientToServer && !fr.sawServerPayload {
		fr.sawServerPayload = true
		switch fr.Kind {
		case KindHTTPS:
			// Walk the server's handshake flight looking for the
			// certificate.
			rest := payload
			for len(rest) > 5 {
				if cn, ok := tlswire.CertificateCN(rest); ok {
					fr.CertCN = cn
					break
				}
				_, _, next, err := tlswire.ParseRecord(rest)
				if err != nil || next == nil {
					break
				}
				rest = next
			}
		default:
			if resp, ok := httpwire.ParseResponse(payload); ok {
				fr.ContentType = resp.ContentType
				fr.ContentLength = resp.ContentLength
			}
		}
	}
}

// ---- Aggregations the paper's tables report ----

// CloudShare is Table 1: per-cloud byte and flow percentages.
func (a *Analysis) CloudShare() (bytesPct, flowsPct map[ipranges.Provider]float64) {
	bytesPct = map[ipranges.Provider]float64{}
	flowsPct = map[ipranges.Provider]float64{}
	var totalBytes float64
	for _, f := range a.Flows {
		bytesPct[f.Cloud] += float64(f.Bytes())
		flowsPct[f.Cloud]++
		totalBytes += float64(f.Bytes())
	}
	for c := range bytesPct {
		bytesPct[c] = 100 * bytesPct[c] / totalBytes
		flowsPct[c] = 100 * flowsPct[c] / float64(len(a.Flows))
	}
	return bytesPct, flowsPct
}

// ProtocolShare is Table 2: per-protocol byte/flow percentages for one
// cloud ("" for the whole capture).
func (a *Analysis) ProtocolShare(cloud ipranges.Provider) (bytesPct, flowsPct map[Kind]float64) {
	bytesPct = map[Kind]float64{}
	flowsPct = map[Kind]float64{}
	var totalBytes, totalFlows float64
	for _, f := range a.Flows {
		if cloud != "" && f.Cloud != cloud {
			continue
		}
		bytesPct[f.Kind] += float64(f.Bytes())
		flowsPct[f.Kind]++
		totalBytes += float64(f.Bytes())
		totalFlows++
	}
	for k := range bytesPct {
		bytesPct[k] = 100 * bytesPct[k] / totalBytes
	}
	for k := range flowsPct {
		flowsPct[k] = 100 * flowsPct[k] / totalFlows
	}
	return bytesPct, flowsPct
}

// DomainVolume is one row of Table 5.
type DomainVolume struct {
	Domain string
	Cloud  ipranges.Provider
	Bytes  int64
	Flows  int
}

// TopDomains returns HTTP(S) domains by volume for one cloud.
func (a *Analysis) TopDomains(cloud ipranges.Provider, n int) []DomainVolume {
	agg := map[string]*DomainVolume{}
	for _, f := range a.Flows {
		if f.Cloud != cloud || (f.Kind != KindHTTP && f.Kind != KindHTTPS) {
			continue
		}
		d := f.Domain()
		if d == "" {
			continue
		}
		dv := agg[d]
		if dv == nil {
			dv = &DomainVolume{Domain: d, Cloud: cloud}
			agg[d] = dv
		}
		dv.Bytes += f.Bytes()
		dv.Flows++
	}
	out := make([]DomainVolume, 0, len(agg))
	for _, dv := range agg {
		out = append(out, *dv)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Domain < out[j].Domain
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// HTTPTotalBytes returns total HTTP(S) volume across both clouds.
func (a *Analysis) HTTPTotalBytes() int64 {
	var total int64
	for _, f := range a.Flows {
		if f.Kind == KindHTTP || f.Kind == KindHTTPS {
			total += f.Bytes()
		}
	}
	return total
}

// ContentTypeRow is one row of Table 6.
type ContentTypeRow struct {
	Type  string
	Bytes int64
	Count int
	Mean  float64
	Max   int64
}

// ContentTypes aggregates HTTP response bodies by Content-Type.
func (a *Analysis) ContentTypes() []ContentTypeRow {
	agg := map[string]*ContentTypeRow{}
	for _, f := range a.Flows {
		if f.Kind != KindHTTP || f.ContentType == "" || f.ContentLength < 0 {
			continue
		}
		row := agg[f.ContentType]
		if row == nil {
			row = &ContentTypeRow{Type: f.ContentType}
			agg[f.ContentType] = row
		}
		row.Bytes += f.ContentLength
		row.Count++
		if f.ContentLength > row.Max {
			row.Max = f.ContentLength
		}
	}
	out := make([]ContentTypeRow, 0, len(agg))
	for _, row := range agg {
		row.Mean = float64(row.Bytes) / float64(row.Count)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bytes > out[j].Bytes })
	return out
}

// FlowStats returns per-domain flow counts and individual flow sizes
// for one (cloud, kind) pair — the inputs to Figure 3's CDFs.
func (a *Analysis) FlowStats(cloud ipranges.Provider, kind Kind) (flowsPerDomain []float64, flowSizes []float64) {
	perDomain := map[string]int{}
	for _, f := range a.Flows {
		if f.Cloud != cloud || f.Kind != kind {
			continue
		}
		if d := f.Domain(); d != "" {
			perDomain[d]++
		}
		flowSizes = append(flowSizes, float64(f.Bytes()))
	}
	for _, n := range perDomain {
		flowsPerDomain = append(flowsPerDomain, float64(n))
	}
	return flowsPerDomain, flowSizes
}
