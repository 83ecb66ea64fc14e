// Package chaos is the study's deterministic fault engine. A Scenario
// describes a set of faults — packet loss and latency brownouts on the
// fabric, SERVFAIL/REFUSED bursts and zone-transfer lockdowns at the
// authoritative DNS layer, vantage-point and measurement-account
// outages, and host blackouts — and an Engine injects them into a run.
//
// Determinism is the design center. Real measurement campaigns meet
// real failures at unpredictable moments; a simulation that reproduces
// a paper must meet the *same* failures at the *same* moments on every
// run, at every worker count. Every fault verdict is therefore a pure
// hash of (scenario seed, fault index, the thing being decided): which
// datagram drops, which vantage is dark at 40% campaign progress, which
// domain refuses AXFR. Nothing reads a clock, counts arrivals, or keeps
// generator state, so a fixed fault plan is byte-identical whether the
// campaign runs on one worker or sixteen.
//
// Faults see time as *campaign progress*, a fraction in [0,1):
// campaign-level faults (vantage/account outages, regional brownouts)
// are handed the campaign's own progress (domain index over total,
// round over rounds), while wire-level faults (loss, SERVFAIL bursts)
// derive a pseudo-phase from the datagram's flow identity — a
// deterministic stand-in for "when in the campaign this packet flew".
//
// Beyond independent faults, a scenario can declare correlated
// failures: Trigger clauses ("brownout:us-east => servfail+0.2") raise
// the decision probability of one fault kind while a cause fault is
// active, so a regional brownout drags SERVFAIL rates up with it, the
// way real incidents cascade.
//
// Every verdict the engine emits can be captured by a trace.Recorder
// (SetRecorder) and later re-injected verbatim by a replay engine
// (NewReplay) that bypasses the hash draws entirely. Every decision
// point goes through one function, decide, that either looks the
// verdict up or draws and records it — the record/replay/bisect loop
// itself lives in internal/chaos/trace.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"cloudscope/internal/chaos/trace"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/simnet"
	"cloudscope/internal/xrand"
)

// Kind names one fault class.
type Kind string

// The fault taxonomy. See the README's fault-model table for the
// layer each kind acts at and the error clients observe.
const (
	// Loss drops datagrams with probability Prob. With a Region it is
	// consulted by model-level probes (ProbeLost) instead of the fabric.
	Loss Kind = "loss"
	// Brownout adds ExtraRTT to round trips. With a Region it applies
	// to that region's model-level probes (RegionExtraMs).
	Brownout Kind = "brownout"
	// VantageDown marks measurement vantage points dark during the
	// window; campaigns skip and account for them.
	VantageDown Kind = "vantage-down"
	// AccountDown marks cloud measurement accounts unusable during the
	// window (the paper's probe accounts hit API limits and closures).
	AccountDown Kind = "account-down"
	// ServFail forges SERVFAIL responses from authoritative DNS.
	ServFail Kind = "servfail"
	// Refused forges REFUSED responses from authoritative DNS.
	Refused Kind = "refused"
	// AXFRRefuse locks down zone transfers for a stable subset of
	// domains — the paper's crawl found most zones refuse AXFR.
	AXFRRefuse Kind = "axfr-refuse"
	// Blackout silently drops every datagram to a hash-chosen fraction
	// of destination hosts, for the whole run (a dead prefix).
	Blackout Kind = "blackout"

	// Capture-layer faults, injected inside capture.Generator. Verdicts
	// are pure hash draws over flow identity (global flow index, packet
	// sequence), so a faulted pcap is still byte-identical at every
	// worker count and shard layout.

	// CapTruncate cuts a hash-chosen fraction (frac) of flows short:
	// only the leading packets of the flow reach the capture, as when a
	// tap starts late or a flow outlives the capture window.
	CapTruncate Kind = "cap-truncate"
	// CapRST ends a hash-chosen fraction (frac) of TCP flows with a
	// forged mid-stream RST; nothing after the reset is captured.
	CapRST Kind = "cap-rst"
	// CapReorder swaps one adjacent packet pair of a hash-chosen
	// fraction (frac) of flows in capture-time order.
	CapReorder Kind = "cap-reorder"
	// CapCorrupt damages captured frames with probability p: half the
	// draws shorten the captured length (a cut-off frame), the rest
	// flip a byte in place.
	CapCorrupt Kind = "cap-corrupt"
	// CapDrop silently drops pcap records with probability p — the
	// classic overloaded-capture symptom.
	CapDrop Kind = "cap-drop"
)

// validKind reports whether k names a declared fault kind.
func validKind(k Kind) bool {
	switch k {
	case Loss, Brownout, VantageDown, AccountDown, ServFail, Refused, AXFRRefuse, Blackout,
		CapTruncate, CapRST, CapReorder, CapCorrupt, CapDrop:
		return true
	}
	return false
}

// Fault is one fault clause of a scenario.
type Fault struct {
	Kind Kind
	// From/To bound the fault's activity window in campaign progress
	// [0,1). From==To means always active.
	From, To float64
	// Prob is the per-decision probability for loss/servfail/refused
	// (0 means 1: always, within scope and window).
	Prob float64
	// Src/Dst scope wire-level faults to address ranges.
	Src, Dst       netaddr.CIDR
	HasSrc, HasDst bool
	// Region scopes loss/brownout to one region's model-level probes
	// (substring match), and is ignored by other kinds.
	Region string
	// DomainSuffix scopes DNS-layer faults to names under one suffix.
	DomainSuffix string
	// DomainFrac selects a stable hash-chosen fraction of base domains
	// for DNS-layer faults (0 means all in scope).
	DomainFrac float64
	// Frac selects a stable fraction of vantages/accounts/hosts for
	// vantage-down/account-down/blackout (0 means all in scope).
	Frac float64
	// ExtraRTT is the brownout's added round-trip latency.
	ExtraRTT time.Duration
}

// active reports whether the fault's window covers campaign phase p.
func (f *Fault) active(p float64) bool {
	if f.From == f.To {
		return true
	}
	return p >= f.From && p < f.To
}

// prob returns the effective decision probability.
func (f *Fault) prob() float64 {
	if f.Prob == 0 {
		return 1
	}
	return f.Prob
}

// frac returns the effective selection fraction.
func (f *Fault) frac() float64 {
	if f.Frac == 0 {
		return 1
	}
	return f.Frac
}

// Hop is one link of a trigger chain: the fault kind whose draws are
// boosted and the additive probability raise, in (0, 1].
type Hop struct {
	Target Kind
	Boost  float64
}

// Trigger is a correlated-failure clause: while any cause fault is
// active, the chained target kinds' decision draws run against raised
// thresholds. Spec form: "cause[:region]=>t1+b1=>t2+b2=>…".
type Trigger struct {
	// CauseKind selects the cause fault clauses by kind; CauseRegion,
	// when non-empty, restricts them to clauses whose Region scope
	// contains it.
	CauseKind   Kind
	CauseRegion string
	// Hops is the boost chain. Hop 0's target draws — the decision
	// probability (loss, servfail, refused, cap-*) or the selection
	// fraction (vantage-down, account-down) of every target-kind clause
	// — are raised by its Boost while a cause fault is window-active.
	// Hop k>0's draws are raised only while, additionally, some
	// declared clause of hop k-1's target kind is window-active: a
	// cascade conducts hop by hop through live fault kinds and is
	// severed at the first dormant one. A trigger amplifies existing
	// clauses; it cannot conjure a fault kind the scenario does not
	// declare.
	Hops []Hop
}

// String renders the trigger in spec form.
func (tr *Trigger) String() string {
	return tr.prefix(len(tr.Hops) - 1)
}

// prefix renders the causal path through hop hi — the cause and every
// hop up to and including hi, in spec syntax. This is the Cause label
// recorded with verdicts the chain induces, so a deep cascade's
// culprits name the whole path that fired them.
func (tr *Trigger) prefix(hi int) string {
	var b strings.Builder
	b.WriteString(string(tr.CauseKind))
	if tr.CauseRegion != "" {
		b.WriteString(":")
		b.WriteString(tr.CauseRegion)
	}
	for i := 0; i <= hi && i < len(tr.Hops); i++ {
		fmt.Fprintf(&b, "=>%s+%g", tr.Hops[i].Target, tr.Hops[i].Boost)
	}
	return b.String()
}

// triggerTargets lists the kinds whose draws a trigger may boost.
func triggerTarget(k Kind) bool {
	switch k {
	case Loss, ServFail, Refused, VantageDown, AccountDown,
		CapTruncate, CapRST, CapReorder, CapCorrupt, CapDrop:
		return true
	}
	return false
}

// Scenario is a named fault plan.
type Scenario struct {
	Name     string
	Faults   []Fault
	Triggers []Trigger
}

// Validate checks the scenario's clauses for well-formedness.
func (s *Scenario) Validate() error {
	if s == nil {
		return nil
	}
	for i := range s.Faults {
		f := &s.Faults[i]
		if !validKind(f.Kind) {
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
		if f.Prob < 0 || f.Prob > 1 {
			return fmt.Errorf("chaos: fault %d (%s): p=%g out of [0,1]", i, f.Kind, f.Prob)
		}
		if f.Frac < 0 || f.Frac > 1 || f.DomainFrac < 0 || f.DomainFrac > 1 {
			return fmt.Errorf("chaos: fault %d (%s): fraction out of [0,1]", i, f.Kind)
		}
		if f.From < 0 || f.To > 1 || f.From > f.To {
			return fmt.Errorf("chaos: fault %d (%s): window %g-%g out of order or range", i, f.Kind, f.From, f.To)
		}
		if f.Kind == Brownout && f.ExtraRTT <= 0 {
			return fmt.Errorf("chaos: fault %d: brownout needs add=<duration>", i)
		}
		if f.ExtraRTT < 0 {
			return fmt.Errorf("chaos: fault %d (%s): negative add", i, f.Kind)
		}
	}
	for i := range s.Triggers {
		tr := &s.Triggers[i]
		if !validKind(tr.CauseKind) {
			return fmt.Errorf("chaos: trigger %d: unknown cause kind %q", i, tr.CauseKind)
		}
		if len(tr.Hops) == 0 {
			return fmt.Errorf("chaos: trigger %d: no hops", i)
		}
		for hi := range tr.Hops {
			hop := &tr.Hops[hi]
			if !triggerTarget(hop.Target) {
				return fmt.Errorf("chaos: trigger %d hop %d: kind %q cannot be a trigger target", i, hi, hop.Target)
			}
			if hop.Boost <= 0 || hop.Boost > 1 {
				return fmt.Errorf("chaos: trigger %d hop %d: boost %g out of (0,1]", i, hi, hop.Boost)
			}
		}
	}
	return nil
}

// Engine evaluates a scenario's faults. It is stateless after
// construction (an optional trace recorder accumulates on the side)
// and safe for concurrent use; all methods are nil-safe, so un-chaosed
// runs pay only a nil check. Engine implements simnet.Interceptor for
// the wire-level faults.
//
// An engine runs in one of two modes. A live engine (New) decides every
// verdict by pure hash draw and can record the faulting verdicts it
// emits. A replay engine (NewReplay) answers every decision from a
// recorded trace instead — the hash draws are bypassed entirely, so a
// past faulted run reproduces byte-identically even after the draw
// logic or scenario probabilities change.
type Engine struct {
	sc *Scenario
	h0 uint64   // scenario hash root
	fh []uint64 // per-fault sub-stream roots

	// hasCapFlow/hasCapPkt note whether any capture-layer clause is
	// declared, so the capture hot path pays one bool check per flow or
	// packet under scenarios without capture faults.
	hasCapFlow bool
	hasCapPkt  bool

	rec *trace.Recorder // armed via SetRecorder (live mode only)
	rp  *trace.Lookup   // replay mode: verdicts come from here
}

// New builds an engine for sc with all fault draws derived from seed.
// A nil or empty scenario yields a nil engine (no faults).
func New(sc *Scenario, seed int64) *Engine {
	if sc == nil || len(sc.Faults) == 0 {
		return nil
	}
	h0 := xrand.HashString(uint64(seed), "chaos/"+sc.Name)
	e := &Engine{sc: sc, h0: h0, fh: make([]uint64, len(sc.Faults))}
	for i := range sc.Faults {
		e.fh[i] = xrand.Hash64(h0, uint64(i)+1)
		switch sc.Faults[i].Kind {
		case CapTruncate, CapRST, CapReorder:
			e.hasCapFlow = true
		case CapCorrupt, CapDrop:
			e.hasCapPkt = true
		}
	}
	return e
}

// NewReplay builds an engine that re-injects a recorded fault trace
// verbatim: every decision point looks its verdict up by stable
// identity, decisions absent from the trace are no-faults, and no hash
// draw is ever consulted, so the engine carries no scenario. A nil
// trace yields a nil engine.
func NewReplay(tr *trace.Trace) *Engine {
	if tr == nil {
		return nil
	}
	return &Engine{rp: trace.NewLookup(tr)}
}

// SetRecorder arms fault-trace recording: every faulting verdict the
// engine emits is logged to r (see internal/chaos/trace). Arm before
// the run starts; a nil recorder disarms. Replay engines never record
// — the trace they would produce is their input.
func (e *Engine) SetRecorder(r *trace.Recorder) {
	if e != nil && e.rp == nil {
		e.rec = r
	}
}

// decide is the one record/replay path every decision point takes. A
// replay engine returns the verdict recorded under (pt, id), if any,
// and never draws; a live engine draws the verdict and, when it
// faults, records it under (pt, id). The bool reports a fault.
func (e *Engine) decide(pt trace.Point, id uint64, draw func() (trace.Event, bool)) (trace.Event, bool) {
	if e.rp != nil {
		return e.rp.Get(pt, id)
	}
	ev, faulted := draw()
	if faulted {
		ev.Point, ev.ID = pt, id
		e.rec.Record(ev)
	}
	return ev, faulted
}

// salts keep the independent draw families uncorrelated.
const (
	saltPhase    = 0x7068   // pseudo-phase of a wire datagram
	saltSelect   = 0x73656c // stable subset selection
	saltDraw     = 0x6472   // per-decision probability draw
	saltCapPhase = 0x636170 // pseudo-phase of a capture flow
)

// scopeMatch reports whether the fault's CIDR scopes cover (src, dst).
func (f *Fault) scopeMatch(src, dst netaddr.IP) bool {
	if f.HasSrc && !f.Src.Contains(src) {
		return false
	}
	if f.HasDst && !f.Dst.Contains(dst) {
		return false
	}
	return true
}

// baseDomain returns the last two labels of a canonical name — the
// unit AXFR policies and DNS bursts select domains by.
func baseDomain(name string) string {
	name = dnswire.CanonicalName(name)
	i := strings.LastIndexByte(name, '.')
	if i < 0 {
		return name
	}
	j := strings.LastIndexByte(name[:i], '.')
	if j < 0 {
		return name
	}
	return name[j+1:]
}

// domainMatch reports whether fault i's domain scope covers name.
func (e *Engine) domainMatch(i int, name string) bool {
	f := &e.sc.Faults[i]
	if f.DomainSuffix != "" {
		suf := dnswire.CanonicalName(f.DomainSuffix)
		if name != suf && !strings.HasSuffix(name, "."+suf) {
			return false
		}
	}
	if f.DomainFrac > 0 {
		h := xrand.HashString(xrand.Hash64(e.fh[i], saltSelect), baseDomain(name))
		if xrand.Frac(h) >= f.DomainFrac {
			return false
		}
	}
	return true
}

// boost is the total probability boost active for one target kind's
// draws, plus the first contributing trigger hop: the causal edge
// recorded with the verdicts it induces.
type boost struct {
	p   float64
	tg  *Trigger
	hop int
}

// label renders the first contributing hop's causal path. Callers
// format it only once a boosted draw fires, so a draw the boost leaves
// unfaulted costs no allocation.
func (b boost) label() string {
	if b.tg == nil {
		return ""
	}
	return b.tg.prefix(b.hop)
}

// boostFor returns the boost active for target-kind draws at phase. A
// trigger's hop 0 contributes while at least one cause fault of its
// cause kind (and region scope) is window-active; hop k>0 contributes
// only while every earlier hop's target kind also has a window-active
// declared clause — the cascade conducts through live kinds and is
// severed at the first dormant one.
func (e *Engine) boostFor(target Kind, phase float64) boost {
	var b boost
	for ti := range e.sc.Triggers {
		tg := &e.sc.Triggers[ti]
		if !e.causeActive(tg.CauseKind, tg.CauseRegion, phase) {
			continue
		}
		for hi := range tg.Hops {
			if hi > 0 && !e.kindActive(tg.Hops[hi-1].Target, phase) {
				break // chain severed: the intermediate kind is dormant
			}
			if tg.Hops[hi].Target != target {
				continue
			}
			b.p += tg.Hops[hi].Boost
			if b.tg == nil {
				b.tg, b.hop = tg, hi
			}
		}
	}
	return b
}

// causeActive reports whether any declared fault clause of the cause
// kind (restricted by region scope when non-empty) is window-active at
// phase.
func (e *Engine) causeActive(kind Kind, region string, phase float64) bool {
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		if f.Kind != kind || !f.active(phase) {
			continue
		}
		if region != "" && !strings.Contains(f.Region, region) {
			continue
		}
		return true
	}
	return false
}

// kindActive reports whether any declared clause of kind is
// window-active at phase — the condition for a cascade to conduct
// through an intermediate hop.
func (e *Engine) kindActive(kind Kind, phase float64) bool {
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		if f.Kind == kind && f.active(phase) {
			return true
		}
	}
	return false
}

// forge builds a response to q with the given rcode, or nil if the
// query cannot be answered in kind.
func forge(q *dnswire.Message, rcode dnswire.RCode) []byte {
	r := q.Reply()
	r.Header.RCode = rcode
	raw, err := r.Pack()
	if err != nil {
		return nil
	}
	return raw
}

// Intercept implements simnet.Interceptor: blackouts, unscoped loss
// and brownouts, and the DNS-layer faults. The datagram's pseudo-phase
// — its stand-in position in the campaign — is a hash of its identity,
// so the same packet meets the same window on every run. In replay
// mode the verdict is looked up instead of drawn.
func (e *Engine) Intercept(src, dst netaddr.IP, flow uint64, payload []byte) simnet.Verdict {
	if e == nil {
		return simnet.Verdict{}
	}
	var live simnet.Verdict
	ev, faulted := e.decide(trace.PointWire, trace.WireID(uint64(src), uint64(dst), flow, payload), func() (trace.Event, bool) {
		v, kind, rcode, cause, phase := e.interceptLive(src, dst, flow, payload)
		live = v
		ev := trace.Event{Kind: string(kind), Phase: phase, Drop: v.Drop, Cause: cause}
		if !v.Drop {
			ev.ExtraNs = int64(v.ExtraRTT)
		}
		if v.Respond != nil {
			ev.Forged = true
			ev.RCode = int(rcode)
		}
		return ev, v.Drop || v.Respond != nil || v.ExtraRTT != 0
	})
	// A live verdict already carries its forged response; a replayed one
	// re-forges it against the query in flight.
	if e.rp == nil || !faulted {
		return live
	}
	return replayVerdict(ev, payload)
}

// replayVerdict reconstructs a recorded wire verdict against the
// datagram actually in flight: drops replay as drops, forged responses
// re-pack against the live query (byte-identical, since the query is),
// and brownout delay replays as recorded.
func replayVerdict(ev trace.Event, payload []byte) simnet.Verdict {
	if ev.Drop {
		return simnet.Verdict{Drop: true}
	}
	v := simnet.Verdict{ExtraRTT: time.Duration(ev.ExtraNs)}
	if ev.Forged {
		if m, err := dnswire.Unpack(payload); err == nil && !m.Header.Response && len(m.Questions) == 1 {
			if raw := forge(m, dnswire.RCode(ev.RCode)); raw != nil {
				v.Respond = raw
			}
		}
	}
	return v
}

// interceptLive draws the wire verdict, reporting the deciding fault
// kind, forged rcode, causal trigger label, and pseudo-phase for the
// recorder.
func (e *Engine) interceptLive(src, dst netaddr.IP, flow uint64, payload []byte) (v simnet.Verdict, kind Kind, rcode dnswire.RCode, cause string, phase float64) {
	phase = xrand.Frac(xrand.HashBytes(xrand.Hash64(e.h0, saltPhase, uint64(src), uint64(dst), flow), payload))
	var q *dnswire.Message
	unpacked := false
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		switch f.Kind {
		case Blackout:
			if !f.scopeMatch(src, dst) || f.Region != "" {
				continue
			}
			if xrand.Frac(xrand.Hash64(e.fh[i], saltSelect, uint64(dst))) < f.frac() {
				return simnet.Verdict{Drop: true}, Blackout, 0, "", phase
			}
		case Loss:
			if f.Region != "" || !f.active(phase) || !f.scopeMatch(src, dst) {
				continue
			}
			draw := xrand.Frac(xrand.HashBytes(xrand.Hash64(e.fh[i], saltDraw, flow), payload))
			if draw < f.prob() {
				return simnet.Verdict{Drop: true}, Loss, 0, "", phase
			}
			if b := e.boostFor(Loss, phase); b.p > 0 && draw < f.prob()+b.p {
				return simnet.Verdict{Drop: true}, Loss, 0, b.label(), phase
			}
		case Brownout:
			if f.Region != "" || !f.active(phase) || !f.scopeMatch(src, dst) {
				continue
			}
			v.ExtraRTT += f.ExtraRTT
			kind = Brownout
		case ServFail, Refused, AXFRRefuse:
			if !f.scopeMatch(src, dst) {
				continue
			}
			if !unpacked {
				unpacked = true
				if m, err := dnswire.Unpack(payload); err == nil && !m.Header.Response && len(m.Questions) == 1 {
					q = m
				}
			}
			if q == nil || !e.domainMatch(i, q.Questions[0].Name) {
				continue
			}
			if f.Kind == AXFRRefuse {
				// A zone-transfer policy, not a transient: no window, no
				// draw — the selected domains always refuse.
				if q.Questions[0].Type != dnswire.TypeAXFR {
					continue
				}
				if raw := forge(q, dnswire.RCodeRefused); raw != nil {
					v.Respond = raw
					return v, AXFRRefuse, dnswire.RCodeRefused, "", phase
				}
				continue
			}
			if !f.active(phase) {
				continue
			}
			draw := xrand.Frac(xrand.HashBytes(xrand.Hash64(e.fh[i], saltDraw, flow), payload))
			var cz string
			if draw >= f.prob() {
				b := e.boostFor(f.Kind, phase)
				if b.p <= 0 || draw >= f.prob()+b.p {
					continue
				}
				cz = b.label()
			}
			rc := dnswire.RCodeServFail
			if f.Kind == Refused {
				rc = dnswire.RCodeRefused
			}
			if raw := forge(q, rc); raw != nil {
				v.Respond = raw
				return v, f.Kind, rc, cz, phase
			}
		}
	}
	return v, kind, 0, "", phase
}

// outAt reports whether the named unit (vantage or account) is dark at
// campaign phase for any fault of the given kind, and the causal
// trigger label when only a boost darkened it.
func (e *Engine) outAt(kind Kind, name string, phase float64) (bool, string) {
	boosted := false
	var b boost
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		if f.Kind != kind || !f.active(phase) {
			continue
		}
		if f.Frac == 0 {
			return true, ""
		}
		draw := xrand.Frac(xrand.HashString(xrand.Hash64(e.fh[i], saltSelect), name))
		if draw < f.Frac {
			return true, ""
		}
		if !boosted {
			boosted = true
			b = e.boostFor(kind, phase)
		}
		if b.p > 0 && draw < f.Frac+b.p {
			return true, b.label()
		}
	}
	return false, ""
}

// VantageOut reports whether a measurement vantage point is dark at
// campaign phase in [0,1). Campaigns pass their own progress fraction.
func (e *Engine) VantageOut(vantage string, phase float64) bool {
	if e == nil {
		return false
	}
	return e.unitOut(trace.PointVantage, trace.VantageID(vantage, phase), VantageDown, vantage, phase)
}

// AccountOut reports whether a cloud measurement account is unusable at
// campaign phase.
func (e *Engine) AccountOut(account string, phase float64) bool {
	if e == nil {
		return false
	}
	return e.unitOut(trace.PointAccount, trace.AccountID(account, phase), AccountDown, account, phase)
}

// unitOut is the body VantageOut and AccountOut share: whether the
// named unit is dark at phase under faults of kind, decided at (pt, id).
func (e *Engine) unitOut(pt trace.Point, id uint64, kind Kind, name string, phase float64) bool {
	ev, _ := e.decide(pt, id, func() (trace.Event, bool) {
		out, cause := e.outAt(kind, name, phase)
		return trace.Event{Kind: string(kind), Phase: phase, Name: name, Out: out, Cause: cause}, out
	})
	return ev.Out
}

// RegionExtraMs returns the extra round-trip milliseconds region-scoped
// brownouts add to probes in region at campaign phase.
func (e *Engine) RegionExtraMs(region string, phase float64) float64 {
	if e == nil {
		return 0
	}
	ev, _ := e.decide(trace.PointRegion, trace.RegionID(region, phase), func() (trace.Event, bool) {
		var ms float64
		for i := range e.sc.Faults {
			f := &e.sc.Faults[i]
			if f.Kind != Brownout || f.Region == "" || !f.active(phase) {
				continue
			}
			if strings.Contains(region, f.Region) {
				ms += float64(f.ExtraRTT) / float64(time.Millisecond)
			}
		}
		return trace.Event{Kind: string(Brownout), Phase: phase, Name: region, ExtraMs: ms}, ms != 0
	})
	return ev.ExtraMs
}

// ProbeLost reports whether a model-level probe in region, identified
// by a stable key, is lost at campaign phase — region-scoped loss draws
// per key, region-scoped blackouts drop everything.
func (e *Engine) ProbeLost(region, key string, phase float64) bool {
	if e == nil {
		return false
	}
	ev, _ := e.decide(trace.PointProbe, trace.ProbeID(region, key, phase), func() (trace.Event, bool) {
		lost, kind, cause := e.probeLostLive(region, key, phase)
		if !lost {
			return trace.Event{}, false
		}
		return trace.Event{Kind: string(kind), Phase: phase, Name: region + "/" + key, Drop: true, Cause: cause}, true
	})
	return ev.Drop
}

// probeLostLive draws the model-level loss verdict.
func (e *Engine) probeLostLive(region, key string, phase float64) (bool, Kind, string) {
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		if f.Region == "" || !strings.Contains(region, f.Region) {
			continue
		}
		switch f.Kind {
		case Blackout:
			return true, Blackout, ""
		case Loss:
			if !f.active(phase) {
				continue
			}
			draw := xrand.Frac(xrand.HashString(xrand.Hash64(e.fh[i], saltDraw), key))
			if draw < f.prob() {
				return true, Loss, ""
			}
			if b := e.boostFor(Loss, phase); b.p > 0 && draw < f.prob()+b.p {
				return true, Loss, b.label()
			}
		}
	}
	return false, "", ""
}
