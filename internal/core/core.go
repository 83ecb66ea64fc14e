// Package core's subpackages implement the paper's contribution — the
// measurement and analysis pipeline of He et al., IMC 2013 — against
// the simulated substrates:
//
//	dataset   §2.1  the Alexa-subdomains discovery pipeline
//	classify  §3.2  provider breakdowns and rank analyses
//	traffic   §3.1, §3.3  border-capture tables and figures
//	patterns  §4.1  front-end deployment-pattern heuristics
//	regions   §4.2  region mapping and customer-country analysis
//	zones     §4.3  availability-zone cartography
//	wanperf   §5    wide-area performance and fault tolerance
//	backend   §2 (future work)  the back-end placement extension
//
// Every analysis consumes only measurement-visible data (DNS messages,
// published IP ranges, packets, probes); ground truth appears solely in
// tests and the explicitly ground-truth-side backend extension.
//
// Package core itself declares Options, the run context every
// measurement stage (cartography, zones, wanperf) takes.
package core

import (
	"cloudscope/internal/chaos"
	"cloudscope/internal/parallel"
	"cloudscope/internal/telemetry"
)

// Options bundles the cross-cutting run parameters every measurement
// experiment takes: the seed its probe streams split from, the worker
// fan-out, and the optional fault-injection handles. The zero value is
// a bare fault-free run (Par's zero value fans out to GOMAXPROCS; set
// Par.Workers to 1 to force the sequential path).
type Options struct {
	// Seed roots the experiment's deterministic probe streams.
	Seed int64
	// Par bounds and instruments the worker fan-out; results are
	// bit-identical at every worker count. An experiment returns an
	// error only when a worker panics or Par.Ctx is cancelled.
	Par parallel.Options
	// Chaos, when set, injects faults into the experiment's probes and
	// launches.
	Chaos *chaos.Engine
	// Completeness, when set, receives the experiment's per-unit probe
	// accounting.
	Completeness *telemetry.Completeness
}
