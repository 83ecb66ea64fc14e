// Package cloudscope reproduces the measurement study "Next Stop, the
// Cloud: Understanding Modern Web Service Deployment in EC2 and Azure"
// (He et al., IMC 2013) as a runnable system: a synthetic Internet
// (DNS, two IaaS clouds, a wide-area network, a campus border tap)
// whose ground truth follows the paper's published distributions, and
// the paper's full measurement methodology executed against it.
//
// The entry point is a Study:
//
//	study := cloudscope.NewStudy(cloudscope.Config{Domains: 5000})
//	ds := study.Dataset()            // §2.1 discovery pipeline
//	fmt.Print(study.Breakdown().Table3())
//
// Every numbered table and figure of the paper has a registered
// experiment; see Experiments and cmd/experiments. Long-running
// consumers (the cloudscoped daemon) use the *Context accessor
// variants, which abort stage compute when the request is cancelled.
package cloudscope

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudscope/internal/capture"
	"cloudscope/internal/chaos"
	"cloudscope/internal/chaos/trace"
	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/core/classify"
	"cloudscope/internal/core/dataset"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/core/regions"
	"cloudscope/internal/core/wanperf"
	"cloudscope/internal/core/zones"
	"cloudscope/internal/deploy"
	"cloudscope/internal/dnssrv"
	"cloudscope/internal/ipranges"
	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
	"cloudscope/internal/simnet"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/wan"
)

// Config parameterizes a Study. Zero values are filled from
// DefaultConfig, so a literal sets only the fields it changes:
// Config{Domains: 5000} is DefaultConfig at a 5,000-domain list.
type Config struct {
	// Seed drives every generator; identical configs are bit-for-bit
	// reproducible.
	Seed int64
	// Domains is the ranked-list size ("top 1M" scaled; default 20000).
	Domains int
	// Vantages is the distributed-resolution vantage count (paper: 200).
	Vantages int
	// CaptureFlows sizes the synthetic border capture (default 30000).
	CaptureFlows int
	// WANClients is the PlanetLab client count for §5 (paper: 80).
	WANClients int
	// Workers bounds the analysis stages' fan-out: 0 uses GOMAXPROCS,
	// 1 forces the exact sequential path. Results are bit-identical at
	// every setting; see internal/parallel.
	Workers int
	// NoTelemetry disables the study's metrics registry and span tracer.
	// The default (telemetry on) costs a few atomic increments per probe;
	// see BenchmarkTelemetryOverhead.
	NoTelemetry bool
	// Chaos, when non-nil, runs the whole study under that fault
	// scenario: the fabric drops and forges datagrams, vantages and
	// accounts go dark mid-campaign, regions brown out, and the border
	// capture suffers truncated flows, forged mid-stream resets,
	// re-ordered segments, corrupted frames, and dropped records
	// (cap-* fault kinds). Outputs stay
	// bit-identical at every worker count; Completeness reports what the
	// faults cost. See internal/chaos.
	Chaos *chaos.Scenario
	// ChaosRecord arms fault-trace recording: every faulting verdict the
	// chaos engine emits is captured, and FaultTrace returns the
	// canonical trace after the run. Ignored without Chaos.
	ChaosRecord bool
	// ChaosReplay, when non-nil, replaces the hash-drawn chaos engine
	// with one that re-injects this recorded trace verbatim (Chaos and
	// ChaosRecord are then ignored). Replaying the trace of a recorded
	// run — same Seed and sizing — reproduces that run's outputs
	// byte-identically, even across engine or scenario changes. See
	// internal/chaos/trace.
	ChaosReplay *trace.Trace
}

// DefaultConfig returns a library-scale configuration: large enough for
// every distribution to be visible, small enough to run in seconds.
func DefaultConfig() Config {
	return Config{Seed: 1, Domains: 20000, Vantages: 200, CaptureFlows: 30000, WANClients: 80}
}

// FieldError reports one invalid Config field: which field, the value
// it held, and what is wrong with it.
type FieldError struct {
	Field  string
	Value  any
	Reason string
}

func (e *FieldError) Error() string {
	return fmt.Sprintf("config.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// ValidationError aggregates every invalid Config field, so a caller
// sees all problems at once instead of fixing them one run at a time.
type ValidationError struct {
	Fields []*FieldError
}

func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Fields))
	for i, f := range e.Fields {
		msgs[i] = f.Error()
	}
	return "cloudscope: invalid config: " + strings.Join(msgs, "; ")
}

// Unwrap exposes the individual field errors to errors.Is/As.
func (e *ValidationError) Unwrap() []error {
	errs := make([]error, len(e.Fields))
	for i, f := range e.Fields {
		errs[i] = f
	}
	return errs
}

// Validate checks the config for impossible sizings and conflicting
// option combinations, returning a *ValidationError naming every bad
// field. Zero sizing values are valid — NewStudy fills them from
// DefaultConfig — but negative ones never are. NewStudy panics on an
// invalid config (a programmer error); commands validate first and
// print the typed error instead.
func (c Config) Validate() error {
	var fields []*FieldError
	add := func(field string, value any, reason string) {
		fields = append(fields, &FieldError{Field: field, Value: value, Reason: reason})
	}
	if c.Domains < 0 {
		add("Domains", c.Domains, "ranked-list size cannot be negative (0 selects the default)")
	}
	if c.Vantages < 0 {
		add("Vantages", c.Vantages, "vantage count cannot be negative (0 selects the default)")
	}
	if c.CaptureFlows < 0 {
		add("CaptureFlows", c.CaptureFlows, "capture flow count cannot be negative (0 selects the default)")
	}
	if c.WANClients < 0 {
		add("WANClients", c.WANClients, "WAN client count cannot be negative (0 selects the default)")
	}
	if c.Workers < 0 {
		add("Workers", c.Workers, "worker bound cannot be negative (0 means GOMAXPROCS)")
	}
	if c.Chaos != nil && c.ChaosReplay != nil {
		add("ChaosReplay", "<trace>", "a replayed trace conflicts with a live Chaos scenario; set only one")
	}
	if c.ChaosRecord && c.Chaos == nil {
		add("ChaosRecord", true, "recording needs a Chaos scenario to draw faults from")
	}
	if len(fields) == 0 {
		return nil
	}
	return &ValidationError{Fields: fields}
}

// withDefaults fills zero sizing fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = def.Seed
	}
	if c.Domains == 0 {
		c.Domains = def.Domains
	}
	if c.Vantages == 0 {
		c.Vantages = def.Vantages
	}
	if c.CaptureFlows == 0 {
		c.CaptureFlows = def.CaptureFlows
	}
	if c.WANClients == 0 {
		c.WANClients = def.WANClients
	}
	return c
}

// stageCell memoizes one pipeline stage's result. Unlike sync.Once it
// memoizes only success: a build aborted by context cancellation
// leaves the cell empty, so the next caller retries under its own
// context. The mutex doubles as single-flight — concurrent callers of
// the same stage wait for the in-progress build instead of duplicating
// it.
type stageCell[T any] struct {
	mu   sync.Mutex
	done bool
	val  T
}

// get returns the memoized value, building it under ctx if needed.
func (c *stageCell[T]) get(ctx context.Context, build func() (T, error)) (T, error) {
	var zero T
	if err := ctxErr(ctx); err != nil {
		return zero, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return c.val, nil
	}
	// Re-check after the wait: the caller may have been cancelled while
	// another request's build held the lock.
	if err := ctxErr(ctx); err != nil {
		return zero, err
	}
	v, err := build()
	if err != nil {
		return zero, err
	}
	c.val, c.done = v, true
	return v, nil
}

// reset empties the cell, so the next get rebuilds it.
func (c *stageCell[T]) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	var zero T
	c.val, c.done = zero, false
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// must unwraps a stage result whose build ran without a cancellable
// context, where the only possible error is a worker's *PanicError:
// re-raising it on the caller is the right response.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// captureResult pairs the capture stage's two outputs in one cell.
type captureResult struct {
	truth *capture.Truth
	an    *capture.Analysis
}

// Study runs the paper's pipeline over one generated world. All stages
// are computed lazily and memoized; a Study is safe for concurrent use.
// World, Dataset, Detection, Breakdown, Regions, Zones, NameServers and
// Campaign each have a *Context variant that returns ctx's error once
// ctx is cancelled (stage compute stops between internal/parallel
// shards); an aborted stage is retried by the next caller. The
// no-argument forms panic only if a stage worker panics.
type Study struct {
	Cfg Config

	// tel is the study's observability handle (nil with NoTelemetry);
	// dnsMetrics is shared by every resolver the pipeline creates, and
	// simClock is published once the world's fabric exists so spans can
	// charge simulated time.
	tel        *telemetry.Telemetry
	dnsMetrics *dnssrv.ResolverMetrics
	simClock   atomic.Pointer[simnet.Clock]

	// eng is the fault engine built from Cfg.Chaos or Cfg.ChaosReplay
	// (nil without either); rec captures its verdicts under ChaosRecord.
	eng *chaos.Engine
	rec *trace.Recorder

	world    stageCell[*deploy.World]
	ds       stageCell[*dataset.Dataset]
	det      stageCell[*patterns.Result]
	reg      stageCell[*regions.Analysis]
	zone     stageCell[*zones.Study]
	capt     stageCell[captureResult]
	ns       stageCell[*patterns.NSAnalysis]
	campaign stageCell[*wanperf.Campaign]
}

// NewStudy creates a Study; the world is generated on first use. It
// panics when cfg fails Validate — call Validate first to handle the
// typed error.
func NewStudy(cfg Config) *Study {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	s := &Study{Cfg: cfg}
	if !cfg.NoTelemetry {
		s.tel = telemetry.New()
		s.tel.Tracer().SetSimClock(func() time.Time {
			if c := s.simClock.Load(); c != nil {
				return c.Now()
			}
			return time.Time{}
		})
		s.dnsMetrics = dnssrv.NewResolverMetrics(s.tel.Registry())
	}
	if cfg.ChaosReplay != nil {
		s.eng = chaos.NewReplay(cfg.ChaosReplay)
	} else {
		s.eng = chaos.New(cfg.Chaos, cfg.Seed)
		if cfg.ChaosRecord && s.eng != nil {
			s.rec = trace.NewRecorder(trace.Header{
				Scenario: cfg.Chaos.Name,
				Spec:     cfg.Chaos.String(),
				Seed:     cfg.Seed,
			})
			s.eng.SetRecorder(s.rec)
		}
	}
	return s
}

// Chaos returns the study's fault engine (nil when no scenario is set).
func (s *Study) Chaos() *chaos.Engine { return s.eng }

// FaultTrace returns the canonical fault trace recorded so far (run the
// experiments first, then snapshot). Nil unless the study was built
// with ChaosRecord and a scenario. Replaying the returned trace with
// the same Config reproduces this run's outputs byte-identically.
func (s *Study) FaultTrace() *trace.Trace { return s.rec.Snapshot() }

// WriteFaultTrace writes the recorded fault trace to path in the JSONL
// trace format (see internal/chaos/trace). It errors when the study is
// not recording.
func (s *Study) WriteFaultTrace(path string) error {
	tr := s.FaultTrace()
	if tr == nil {
		return errNotRecording
	}
	return tr.WriteFile(path)
}

var errNotRecording = errors.New("cloudscope: study is not recording a fault trace (set Config.ChaosRecord with a Chaos scenario)")

// BisectFaultTrace delta-debugs a recorded fault trace: it returns a
// locally-minimal sub-trace whose replay under cfg still makes pred
// true, plus the number of study runs spent. pred is handed a fresh
// Study replaying each candidate; typical predicates re-run an
// experiment and compare against a fault-free golden, or check
// Completeness().Degraded(). cfg's own Chaos/ChaosRecord/ChaosReplay
// are overridden per candidate.
func BisectFaultTrace(cfg Config, tr *trace.Trace, pred func(*Study) bool) (*trace.Trace, int) {
	return trace.Minimize(tr, func(cand *trace.Trace) bool {
		c := cfg
		c.Chaos, c.ChaosRecord, c.ChaosReplay = nil, false, cand
		return pred(NewStudy(c))
	})
}

// Completeness returns the study's measurement-coverage accounting: how
// much of each stage's planned probing was attempted, retried, and
// abandoned. Nil with NoTelemetry; empty until stages run.
func (s *Study) Completeness() *telemetry.Completeness { return s.tel.Completeness() }

// opts builds the run context a pipeline stage runs with: the study's
// seed, fault engine and completeness sink, and a fan-out of the
// study's worker bound with that stage's parallel.<stage>.* instruments
// (inert when telemetry is off), bound to ctx so the fan-out aborts
// between shards once ctx is cancelled. Every stage build reads its
// options here; results are bit-identical at every worker count.
func (s *Study) opts(ctx context.Context, stage string) core.Options {
	return core.Options{
		Seed: s.Cfg.Seed,
		Par: parallel.Options{
			Workers: s.Cfg.Workers,
			Metrics: parallel.NewMetrics(s.tel.Registry(), stage).WithSpans(s.tel.Tracer()),
			Ctx:     ctx,
		},
		Chaos:        s.eng,
		Completeness: s.tel.Completeness(),
	}
}

// Telemetry returns the study's observability handle: the metric
// registry every instrumented layer (fabric, resolvers, cloud and WAN
// probing) reports into, and the tracer holding the per-stage span
// tree. It is nil when the study was built with NoTelemetry.
func (s *Study) Telemetry() *telemetry.Telemetry { return s.tel }

// World returns the generated ground-truth world.
func (s *Study) World() *deploy.World { return must(s.WorldContext(context.Background())) }

// WorldContext is World under a cancellable context: generation aborts
// between shards when ctx is cancelled, and the next caller retries.
func (s *Study) WorldContext(ctx context.Context) (*deploy.World, error) {
	return s.world.get(ctx, func() (*deploy.World, error) {
		defer s.tel.StartSpan("study/world").End()
		w, err := deploy.Generate(deploy.Config{Seed: s.Cfg.Seed, NumDomains: s.Cfg.Domains, Par: s.opts(ctx, "world").Par})
		if err != nil {
			return nil, err
		}
		s.simClock.Store(w.Fabric.Clock())
		if s.eng != nil {
			w.Fabric.SetInterceptor(s.eng)
		}
		if s.tel != nil {
			reg := s.tel.Registry()
			w.Fabric.SetMetrics(simnet.NewFabricMetrics(reg))
			w.EC2.SetMetrics(cloud.NewProbeMetrics(reg, "ec2"))
			w.Azure.SetMetrics(cloud.NewProbeMetrics(reg, "azure"))
		}
		return w, nil
	})
}

// Dataset runs the §2.1 discovery pipeline (memoized).
func (s *Study) Dataset() *dataset.Dataset { return must(s.DatasetContext(context.Background())) }

// DatasetContext is Dataset under a cancellable context.
func (s *Study) DatasetContext(ctx context.Context) (*dataset.Dataset, error) {
	return s.ds.get(ctx, func() (*dataset.Dataset, error) {
		w, err := s.WorldContext(ctx) // before the span, so the simulated clock is wired
		if err != nil {
			return nil, err
		}
		defer s.tel.StartSpan("study/dataset").End()
		names := make([]string, 0, len(w.Domains))
		for _, d := range w.Domains {
			names = append(names, d.Name)
		}
		opt := s.opts(ctx, "dataset")
		ds, err := dataset.Build(dataset.Config{
			Fabric:       w.Fabric,
			Registry:     w.Registry,
			Ranges:       w.Ranges,
			Domains:      names,
			Vantages:     s.Cfg.Vantages,
			Par:          opt.Par,
			Metrics:      s.dnsMetrics,
			Chaos:        opt.Chaos,
			Completeness: opt.Completeness,
		})
		if err != nil {
			// The aborted crawl advanced the world's query state (the
			// simulated clock, ELB round-robin rotations), so a retry on
			// it would see different answers. Drop the world: the retry
			// regenerates an identical, unqueried one.
			s.world.reset()
			return nil, err
		}
		return ds, nil
	})
}

// Detection runs §4.1's pattern heuristics (memoized).
func (s *Study) Detection() *patterns.Result { return must(s.DetectionContext(context.Background())) }

// DetectionContext is Detection under a cancellable context.
func (s *Study) DetectionContext(ctx context.Context) (*patterns.Result, error) {
	return s.det.get(ctx, func() (*patterns.Result, error) {
		ds, err := s.DatasetContext(ctx) // resolve dependencies outside the span
		if err != nil {
			return nil, err
		}
		defer s.tel.StartSpan("study/detect").End()
		return patterns.DetectAllPar(ds, s.opts(ctx, "detect").Par)
	})
}

// Breakdown computes Table 3.
func (s *Study) Breakdown() *classify.Breakdown {
	return must(s.BreakdownContext(context.Background()))
}

// BreakdownContext is Breakdown under a cancellable context.
func (s *Study) BreakdownContext(ctx context.Context) (*classify.Breakdown, error) {
	ds, err := s.DatasetContext(ctx)
	if err != nil {
		return nil, err
	}
	defer s.tel.StartSpan("study/classify").End()
	return classify.Classify(ds), nil
}

// Regions runs §4.2's region mapping (memoized).
func (s *Study) Regions() *regions.Analysis { return must(s.RegionsContext(context.Background())) }

// RegionsContext is Regions under a cancellable context.
func (s *Study) RegionsContext(ctx context.Context) (*regions.Analysis, error) {
	return s.reg.get(ctx, func() (*regions.Analysis, error) {
		ds, err := s.DatasetContext(ctx)
		if err != nil {
			return nil, err
		}
		det, err := s.DetectionContext(ctx)
		if err != nil {
			return nil, err
		}
		defer s.tel.StartSpan("study/regions").End()
		return regions.AnalyzePar(ds, det, s.opts(ctx, "regions").Par)
	})
}

// Zones runs §4.3's cartography study (memoized).
func (s *Study) Zones() *zones.Study { return must(s.ZonesContext(context.Background())) }

// ZonesContext is Zones under a cancellable context.
func (s *Study) ZonesContext(ctx context.Context) (*zones.Study, error) {
	return s.zone.get(ctx, func() (*zones.Study, error) {
		ds, err := s.DatasetContext(ctx)
		if err != nil {
			return nil, err
		}
		det, err := s.DetectionContext(ctx)
		if err != nil {
			return nil, err
		}
		w, err := s.WorldContext(ctx)
		if err != nil {
			return nil, err
		}
		defer s.tel.StartSpan("study/zones").End()
		return zones.Run(ds, det, w.EC2, s.opts(ctx, "zones"))
	})
}

// NameServers runs §4.1's DNS-hosting analysis (memoized).
func (s *Study) NameServers() *patterns.NSAnalysis {
	return must(s.NameServersContext(context.Background()))
}

// NameServersContext is NameServers under a cancellable context.
func (s *Study) NameServersContext(ctx context.Context) (*patterns.NSAnalysis, error) {
	return s.ns.get(ctx, func() (*patterns.NSAnalysis, error) {
		w, err := s.WorldContext(ctx)
		if err != nil {
			return nil, err
		}
		ds, err := s.DatasetContext(ctx)
		if err != nil {
			return nil, err
		}
		defer s.tel.StartSpan("study/nameservers").End()
		return patterns.AnalyzeNSPar(ds, w.Fabric, w.Registry, 50, s.dnsMetrics, s.opts(ctx, "nameservers").Par)
	})
}

// Capture generates and analyzes the border trace (memoized). The pcap
// bytes are ephemeral; use WriteCapture to keep them.
func (s *Study) Capture() (*capture.Truth, *capture.Analysis) {
	r := must(s.capt.get(context.Background(), s.buildCapture))
	return r.truth, r.an
}

// buildCapture generates the border trace into memory and analyzes it.
func (s *Study) buildCapture() (captureResult, error) {
	w, err := s.WorldContext(context.Background()) // before the span, so the simulated clock is wired
	if err != nil {
		return captureResult{}, err
	}
	defer s.tel.StartSpan("study/capture").End()
	var buf bytes.Buffer
	truth, err := s.WriteCapture(&buf)
	if err != nil {
		return captureResult{}, err
	}
	opt := s.opts(context.Background(), "capture_analyze")
	an, err := capture.AnalyzePar(&buf, w.Ranges, opt.Par)
	if err != nil {
		return captureResult{}, err
	}
	an.Book(opt.Completeness)
	return captureResult{truth: truth, an: an}, nil
}

// captureConfig is the capture generator's config under the study's
// seed, sizing, worker budget and fault engine.
func (s *Study) captureConfig() capture.Config {
	opt := s.opts(context.Background(), "capture")
	return capture.Config{Seed: opt.Seed, Flows: s.Cfg.CaptureFlows, Par: opt.Par, Chaos: opt.Chaos}
}

// WriteCapture writes the synthetic border capture in pcap format.
func (s *Study) WriteCapture(w io.Writer) (*capture.Truth, error) {
	world, err := s.WorldContext(context.Background())
	if err != nil {
		return nil, err
	}
	g := capture.NewGenerator(s.captureConfig(), world)
	return g.Generate(pcapio.NewWriter(w, capture.Snaplen))
}

// Campaign returns the §5 wide-area measurement campaign (memoized).
func (s *Study) Campaign() *wanperf.Campaign {
	return must(s.campaignBase(context.Background()))
}

// CampaignContext is Campaign under a cancellable context: the
// returned value shares the memoized campaign's model and seeding but
// carries its own fan-out options bound to ctx, so every campaign
// method stops between shards and returns ctx's error once the request
// is cancelled. The memoized campaign itself stays context-free.
func (s *Study) CampaignContext(ctx context.Context) (*wanperf.Campaign, error) {
	c, err := s.campaignBase(ctx)
	if err != nil {
		return nil, err
	}
	cc := *c
	cc.Par.Ctx = ctx
	return &cc, nil
}

func (s *Study) campaignBase(ctx context.Context) (*wanperf.Campaign, error) {
	return s.campaign.get(ctx, func() (*wanperf.Campaign, error) {
		defer s.tel.StartSpan("study/wanperf").End()
		c := wanperf.NewCampaign(s.Cfg.Seed, s.Cfg.WANClients, ipranges.EC2Regions)
		c.Options = s.opts(context.Background(), "wanperf")
		if s.tel != nil {
			c.Model.SetMetrics(wan.NewMetrics(s.tel.Registry()))
		}
		if s.eng == nil {
			// A fault-free campaign books no probe accounting.
			c.Completeness = nil
		} else {
			// Regional brownouts reach the WAN model as extra path
			// delay; the fault phase is the campaign-time fraction, a
			// pure function of t.
			eng, start := s.eng, c.Start
			span := c.Interval * time.Duration(c.Rounds)
			c.Model.SetChaos(func(_, region string, t time.Time) float64 {
				phase := float64(t.Sub(start)) / float64(span)
				if phase < 0 {
					phase = 0
				} else if phase > 1 {
					phase = 1
				}
				return eng.RegionExtraMs(region, phase)
			})
		}
		return c, nil
	})
}

// RankOf implements the classify and regions Ranker interfaces against
// the study's ranked list.
func (s *Study) RankOf(domain string) int {
	if d, ok := s.World().List.Lookup(domain); ok {
		return d.Rank
	}
	return 0
}
