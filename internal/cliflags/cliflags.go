// Package cliflags registers the measurement flags every cloudscope
// command shares, so -workers, -chaos, -telemetry[-json], the
// fault-trace flags, and the profiling flags (-cpuprofile,
// -memprofile, -trace-out, -runtime-sample) have one name, one help
// string, and one meaning across all five binaries instead of five
// drifting copies.
//
// Usage from a main:
//
//	shared := cliflags.Register(flag.CommandLine)
//	flag.Parse()
//	cfg := cloudscope.Config{Seed: *seed, Domains: *domains}
//	if err := shared.Apply(&cfg); err != nil { ... }
//	study := cloudscope.NewStudy(cfg)
//	if err := shared.Start(study.Telemetry()); err != nil { ... }
//	... run ...
//	if err := shared.Finish(os.Stdout, study); err != nil { ... }
//
// Apply validates flag combinations and fills the Config fields the
// shared flags control; Start arms the run-scoped observability (the
// pprof CPU profile and the runtime sampler); Finish handles the
// post-run obligations (writing the recorded fault trace, printing the
// telemetry report, dumping telemetry JSON, writing the Chrome trace
// and the pprof profiles). Commands that run no study (traceanalyze)
// call Start(nil) and FinishProfiles instead of Finish.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cloudscope"
	"cloudscope/internal/chaos"
	"cloudscope/internal/chaos/trace"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/telemetry/runtimeprof"
)

// Set holds the parsed values of the shared measurement flags.
type Set struct {
	Workers       int
	Chaos         string
	Telemetry     bool
	TelemetryJSON string
	ChaosRecord   string
	ChaosReplay   string
	CPUProfile    string
	MemProfile    string
	TraceOut      string
	RuntimeSample time.Duration

	// Run-scoped observability state armed by Start and released by
	// Finish/FinishProfiles.
	cpuFile *os.File
	sampler *runtimeprof.Sampler
}

// Register installs the shared flags on fs (flag.CommandLine from a
// main) and returns the Set their values parse into.
func Register(fs *flag.FlagSet) *Set {
	s := &Set{}
	fs.IntVar(&s.Workers, "workers", 0,
		"worker bound for every parallel stage (0 = GOMAXPROCS, 1 = sequential; results identical)")
	fs.StringVar(&s.Chaos, "chaos", "",
		"fault scenario: a library name ("+strings.Join(chaos.Library(), ", ")+
			") or an inline spec like 'loss,p=0.05;servfail,p=0.3,window=0.3-0.7'")
	fs.BoolVar(&s.Telemetry, "telemetry", false,
		"print the study's metric and span report after the run")
	fs.StringVar(&s.TelemetryJSON, "telemetry-json", "",
		"write the telemetry dump as JSON to this file (- for stdout)")
	fs.StringVar(&s.ChaosRecord, "chaos-record", "",
		"write this run's fault trace to this file for later -chaos-replay (requires -chaos)")
	fs.StringVar(&s.ChaosReplay, "chaos-replay", "",
		"re-inject the fault trace recorded in this file instead of drawing faults (excludes -chaos)")
	fs.StringVar(&s.CPUProfile, "cpuprofile", "",
		"write a pprof CPU profile of the whole run to this file")
	fs.StringVar(&s.MemProfile, "memprofile", "",
		"write a pprof heap profile (after a final GC) to this file at exit")
	fs.StringVar(&s.TraceOut, "trace-out", "",
		"write the study's span tree as Chrome trace_event JSON to this file (load in chrome://tracing or Perfetto)")
	fs.DurationVar(&s.RuntimeSample, "runtime-sample", 0,
		"sample Go runtime heap/GC/goroutine gauges into telemetry at this interval (e.g. 50ms; 0 = off)")
	return s
}

// StreamSet holds the parsed streaming data-path flags. Only the
// commands with a bounded-memory mode (worldgen, experiments) register
// these; the other binaries always hold their world in memory.
type StreamSet struct {
	Stream    bool
	ChunkSize int
	SpillDir  string
}

// RegisterStreaming installs the streaming data-path flags on fs.
func RegisterStreaming(fs *flag.FlagSet) *StreamSet {
	s := &StreamSet{}
	fs.BoolVar(&s.Stream, "stream", false,
		"run the bounded-memory streaming data path: generate (and scan) the world chunk-by-chunk, releasing each chunk when done — output is byte-identical to the in-memory path")
	fs.IntVar(&s.ChunkSize, "chunk-size", 4096,
		"domains per streaming chunk (with -stream; smaller = less memory, more merge files)")
	fs.StringVar(&s.SpillDir, "spill-dir", "",
		"directory per-chunk partial datasets spill under (with -stream; default: the system temp dir)")
	return s
}

// Validate rejects contradictory streaming flag combinations.
func (s *StreamSet) Validate() error {
	if s.ChunkSize <= 0 {
		return fmt.Errorf("-chunk-size must be positive, got %d", s.ChunkSize)
	}
	if !s.Stream && s.SpillDir != "" {
		return fmt.Errorf("-spill-dir only applies with -stream")
	}
	return nil
}

// validate rejects contradictory flag combinations with errors that
// say what to change.
func (s *Set) validate() error {
	if s.ChaosReplay != "" && s.Chaos != "" {
		return fmt.Errorf("-chaos-replay re-injects a recorded trace and cannot be combined with -chaos; drop one")
	}
	if s.ChaosReplay != "" && s.ChaosRecord != "" {
		return fmt.Errorf("-chaos-record would re-record the trace being replayed; drop one of the two flags")
	}
	if s.ChaosRecord != "" && s.Chaos == "" {
		return fmt.Errorf("-chaos-record needs a fault scenario to record; add -chaos")
	}
	if s.RuntimeSample < 0 {
		return fmt.Errorf("-runtime-sample must be a positive interval (or 0 for off), got %v", s.RuntimeSample)
	}
	return nil
}

// Apply validates the shared flags and fills the Config fields they
// control: Workers, Chaos, ChaosRecord, and ChaosReplay. The other
// Config fields are the caller's. The filled config then runs
// cloudscope.Config.Validate, so every command reports the same typed
// field errors instead of each main (or a NewStudy panic) inventing
// its own.
func (s *Set) Apply(cfg *cloudscope.Config) error {
	if err := s.validate(); err != nil {
		return err
	}
	cfg.Workers = s.Workers
	sc, err := chaos.Load(s.Chaos)
	if err != nil {
		return err
	}
	cfg.Chaos = sc
	cfg.ChaosRecord = s.ChaosRecord != ""
	if s.ChaosReplay != "" {
		tr, err := trace.ReadFile(s.ChaosReplay)
		if err != nil {
			return err
		}
		cfg.ChaosReplay = tr
	}
	return cfg.Validate()
}

// Faulting reports whether the study runs under injected faults —
// from a live scenario or a replayed trace — i.e. whether a
// completeness report is worth printing.
func (s *Set) Faulting() bool {
	return s.Chaos != "" || s.ChaosReplay != ""
}

// Start arms the run-scoped observability: the pprof CPU profile and
// the runtime sampler (which records into tel's registry — a nil tel,
// e.g. a NoTelemetry study, leaves the sampler off). Call it after
// constructing the study and pair it with Finish, or with
// FinishProfiles for commands that run no study.
func (s *Set) Start(tel *telemetry.Telemetry) error {
	if s.CPUProfile != "" {
		f, err := os.Create(s.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		s.cpuFile = f
	}
	if s.RuntimeSample > 0 {
		s.sampler = runtimeprof.Start(tel.Registry(), s.RuntimeSample)
	}
	return nil
}

// FinishProfiles closes out the pprof flags armed by Start: stops the
// CPU profile and writes the heap profile. Finish calls it; commands
// without a study call it directly.
func (s *Set) FinishProfiles() error {
	if s.cpuFile != nil {
		pprof.StopCPUProfile()
		err := s.cpuFile.Close()
		s.cpuFile = nil
		if err != nil {
			return err
		}
	}
	if s.MemProfile != "" {
		f, err := os.Create(s.MemProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// Finish performs the post-run obligations of the shared flags: stops
// the runtime sampler (final reading included), writes the recorded
// fault trace, prints the telemetry report, dumps telemetry JSON,
// writes the Chrome span trace, and closes out the pprof profiles.
// Progress lines go to w (a main's os.Stdout).
func (s *Set) Finish(w io.Writer, study *cloudscope.Study) error {
	if s.sampler != nil {
		s.sampler.Stop() // before the report, so final runtime gauges are in it
		s.sampler = nil
	}
	if s.ChaosRecord != "" {
		if err := study.WriteFaultTrace(s.ChaosRecord); err != nil {
			return err
		}
		fmt.Fprintf(w, "fault trace: %d events written to %s\n", study.FaultTrace().Len(), s.ChaosRecord)
	}
	if s.Telemetry {
		fmt.Fprint(w, study.Telemetry().Report())
	}
	if s.TelemetryJSON != "" {
		out := os.Stdout
		if s.TelemetryJSON != "-" {
			f, err := os.Create(s.TelemetryJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := study.Telemetry().WriteJSON(out); err != nil {
			return err
		}
	}
	if s.TraceOut != "" {
		f, err := os.Create(s.TraceOut)
		if err != nil {
			return err
		}
		if err := study.Telemetry().WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "span trace: %s (open in chrome://tracing or https://ui.perfetto.dev)\n", s.TraceOut)
	}
	return s.FinishProfiles()
}

// DiffTraces resolves the -chaos-diff operands, reads both fault
// traces, writes their human-readable verdict delta to w, and reports
// whether the traces agree. The flag value names both files as
// "A.jsonl,B.jsonl", or names the first with the second given as the
// command's positional argument (extra).
func DiffTraces(spec, extra string, w io.Writer) (identical bool, err error) {
	pathA, pathB := spec, extra
	if i := strings.IndexByte(spec, ','); i >= 0 {
		if extra != "" {
			return false, fmt.Errorf("-chaos-diff %q already names both traces; drop the extra argument %q", spec, extra)
		}
		pathA, pathB = spec[:i], spec[i+1:]
	}
	if pathA == "" || pathB == "" {
		return false, fmt.Errorf("-chaos-diff compares two fault traces: -chaos-diff A.jsonl B.jsonl (or -chaos-diff A.jsonl,B.jsonl)")
	}
	a, err := trace.ReadFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := trace.ReadFile(pathB)
	if err != nil {
		return false, err
	}
	d := trace.Diff(a, b)
	fmt.Fprintf(w, "%s: %d events (scenario %q, seed %d)\n%s: %d events (scenario %q, seed %d)\n",
		pathA, a.Len(), a.Header.Scenario, a.Header.Seed,
		pathB, b.Len(), b.Header.Scenario, b.Header.Seed)
	fmt.Fprint(w, d.String())
	return d.Empty(), nil
}

// RejectStudyFlags errors when a flag that needs a full measurement
// study is set. Commands that never build one (traceanalyze works on
// an existing capture file) call it right after parsing so the user
// learns the flag is inert instead of silently losing it.
func (s *Set) RejectStudyFlags(cmd string) error {
	var set []string
	if s.Chaos != "" {
		set = append(set, "-chaos")
	}
	if s.ChaosRecord != "" {
		set = append(set, "-chaos-record")
	}
	if s.ChaosReplay != "" {
		set = append(set, "-chaos-replay")
	}
	if s.Telemetry {
		set = append(set, "-telemetry")
	}
	if s.TelemetryJSON != "" {
		set = append(set, "-telemetry-json")
	}
	if s.TraceOut != "" {
		set = append(set, "-trace-out")
	}
	if s.RuntimeSample != 0 {
		set = append(set, "-runtime-sample")
	}
	if len(set) > 0 {
		return fmt.Errorf("%s runs no measurement study, so %s cannot apply here", cmd, strings.Join(set, ", "))
	}
	return nil
}
