package chaos

import (
	"fmt"

	"cloudscope/internal/chaos/trace"
	"cloudscope/internal/xrand"
)

// This file is the capture-layer decision surface: per-flow and
// per-packet verdicts capture.Generator consults while synthesizing
// the border pcap. Like every other decision point, verdicts are pure
// hashes of stable identities — the global flow index and the packet
// sequence within the flow — so a faulted pcap is byte-identical at
// every worker count and shard layout, and the verdicts record and
// replay through the same trace machinery as the wire faults.

// CaptureFlowVerdict is the per-flow capture fault decision. The zero
// value means "capture this flow faithfully".
type CaptureFlowVerdict struct {
	// KeepFrac, when >0, truncates the flow: only the leading KeepFrac
	// fraction of its packets (at least one) reach the pcap.
	KeepFrac float64
	// RSTFrac, when >0, ends a TCP flow with a forged mid-stream reset
	// after the leading RSTFrac fraction of its planned packets; the
	// rest were never captured. Supersedes KeepFrac.
	RSTFrac float64
	// Reorder, when >0, swaps one adjacent pair of the flow's captured
	// packets in time; the draw's value picks the pair.
	Reorder float64
}

// Faulted reports whether any per-flow capture fault fired.
func (v CaptureFlowVerdict) Faulted() bool {
	return v.KeepFrac > 0 || v.RSTFrac > 0 || v.Reorder > 0
}

// CapturePacketVerdict is the per-packet capture fault decision. The
// zero value means "record this packet faithfully".
type CapturePacketVerdict struct {
	// Drop elides the pcap record entirely.
	Drop bool
	// Corrupt, when >0, damages the recorded frame; the draw's value
	// picks the damage shape (short frame vs flipped byte) and site.
	Corrupt float64
}

// capFlowPhase derives a capture flow's pseudo-phase — its stand-in
// position in the campaign — from its global flow index.
func (e *Engine) capFlowPhase(flow int) float64 {
	return xrand.Frac(xrand.Hash64(e.h0, saltCapPhase, uint64(flow)))
}

// CaptureFlow returns the per-flow capture verdict for the flow with
// the given global index. In replay mode the verdict is looked up from
// the recorded trace instead of drawn.
func (e *Engine) CaptureFlow(flow int) CaptureFlowVerdict {
	if e == nil || (e.rp == nil && !e.hasCapFlow) {
		return CaptureFlowVerdict{}
	}
	ev, _ := e.decide(trace.PointCapFlow, trace.CapFlowID(uint64(flow)), func() (trace.Event, bool) {
		return e.captureFlowLive(flow)
	})
	return CaptureFlowVerdict{KeepFrac: ev.KeepFrac, RSTFrac: ev.RSTFrac, Reorder: ev.Reorder}
}

// captureFlowLive draws the per-flow capture verdict as a trace event.
func (e *Engine) captureFlowLive(flow int) (trace.Event, bool) {
	var v CaptureFlowVerdict
	phase := e.capFlowPhase(flow)
	var kind Kind
	var cause string
	for i := range e.sc.Faults {
		f := &e.sc.Faults[i]
		switch f.Kind {
		case CapTruncate:
			if v.KeepFrac > 0 {
				continue
			}
		case CapRST:
			if v.RSTFrac > 0 {
				continue
			}
		case CapReorder:
			if v.Reorder > 0 {
				continue
			}
		default:
			continue
		}
		if !f.active(phase) {
			continue
		}
		draw := xrand.Frac(xrand.Hash64(e.fh[i], saltSelect, uint64(flow)))
		cz := ""
		if draw >= f.frac() {
			b := e.boostFor(f.Kind, phase)
			if b.p <= 0 || draw >= f.frac()+b.p {
				continue
			}
			cz = b.label()
		}
		// The verdict's shape comes from an independent sub-draw, so
		// the selection threshold does not skew it.
		sub := xrand.Frac(xrand.Hash64(e.fh[i], saltDraw, uint64(flow)))
		switch f.Kind {
		case CapTruncate:
			v.KeepFrac = 0.15 + 0.7*sub
		case CapRST:
			v.RSTFrac = 0.25 + 0.65*sub
		case CapReorder:
			if sub == 0 {
				sub = 0.5
			}
			v.Reorder = sub
		}
		if kind == "" {
			kind, cause = f.Kind, cz
		} else if cause == "" {
			cause = cz
		}
	}
	if !v.Faulted() {
		return trace.Event{}, false
	}
	ev := trace.Event{Kind: string(kind), Phase: phase, KeepFrac: v.KeepFrac, RSTFrac: v.RSTFrac, Reorder: v.Reorder, Cause: cause}
	if e.rec != nil { // the label is for trace readers; skip the Sprintf when nothing records
		ev.Name = fmt.Sprintf("flow-%d", flow)
	}
	return ev, true
}

// CapturePacket returns the per-packet capture verdict for packet pkt
// of the flow with the given global index. A dropped record is never
// also corrupted.
func (e *Engine) CapturePacket(flow, pkt int) CapturePacketVerdict {
	if e == nil || (e.rp == nil && !e.hasCapPkt) {
		return CapturePacketVerdict{}
	}
	ev, _ := e.decide(trace.PointCapPacket, trace.CapPacketID(uint64(flow), uint64(pkt)), func() (trace.Event, bool) {
		return e.capturePacketLive(flow, pkt)
	})
	return CapturePacketVerdict{Drop: ev.Drop, Corrupt: ev.Corrupt}
}

// capturePacketLive draws the per-packet capture verdict as a trace
// event.
func (e *Engine) capturePacketLive(flow, pkt int) (trace.Event, bool) {
	var v CapturePacketVerdict
	phase := e.capFlowPhase(flow)
	var kind Kind
	var cause string
	fire := func(want Kind) (bool, string) {
		for i := range e.sc.Faults {
			f := &e.sc.Faults[i]
			if f.Kind != want || !f.active(phase) {
				continue
			}
			draw := xrand.Frac(xrand.Hash64(e.fh[i], saltDraw, uint64(flow), uint64(pkt)))
			if draw < f.prob() {
				return true, ""
			}
			if b := e.boostFor(want, phase); b.p > 0 && draw < f.prob()+b.p {
				return true, b.label()
			}
		}
		return false, ""
	}
	if hit, cz := fire(CapDrop); hit {
		v.Drop = true
		kind, cause = CapDrop, cz
	} else if hit, cz := fire(CapCorrupt); hit {
		sub := xrand.Frac(xrand.Hash64(e.h0, saltSelect, uint64(flow), uint64(pkt)))
		if sub == 0 {
			sub = 0.5
		}
		v.Corrupt = sub
		kind, cause = CapCorrupt, cz
	}
	if !v.Drop && v.Corrupt <= 0 {
		return trace.Event{}, false
	}
	ev := trace.Event{Kind: string(kind), Phase: phase, Drop: v.Drop, Corrupt: v.Corrupt, Cause: cause}
	if e.rec != nil { // as in captureFlowLive
		ev.Name = fmt.Sprintf("flow-%d/pkt-%d", flow, pkt)
	}
	return ev, true
}
