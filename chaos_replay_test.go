package cloudscope

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"cloudscope/internal/chaos"
	"cloudscope/internal/chaos/trace"
)

// replayConfig is the record/replay golden study — smaller than
// chaosConfig because the matrix below runs many full studies.
func replayConfig(seed int64, workers int, sc *chaos.Scenario) Config {
	return Config{
		Seed:         seed,
		Domains:      300,
		Vantages:     8,
		CaptureFlows: 300,
		WANClients:   6,
		Workers:      workers,
		Chaos:        sc,
	}
}

func traceBytes(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// traceSHA is the hex sha256 of a trace's serialized bytes.
func traceSHA(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256([]byte(traceBytes(t, tr))))
}

// recordRun executes every experiment with the recorder armed and
// returns the golden outputs plus the fault trace.
func recordRun(t *testing.T, cfg Config) (map[string]string, string, *trace.Trace) {
	t.Helper()
	cfg.ChaosRecord = true
	s := NewStudy(cfg)
	golden, sum := chaosGolden(s)
	tr := s.FaultTrace()
	if tr.Len() == 0 {
		t.Fatal("recorded trace is empty")
	}
	return golden, sum, tr
}

// TestChaosRecordReplayByteIdentity: replaying a recorded fault trace
// reproduces the original faulted run — every experiment output and
// the Completeness report, byte for byte — at Workers=1, Workers=4,
// and Workers=GOMAXPROCS, for two seeds of two scenarios (cascade
// carries correlated-failure triggers). The recorded trace itself is
// also canonical: recording at any worker count yields the same bytes,
// so a trace file never encodes the machine that produced it, and its
// seed-3 bytes are pinned: a change to how verdicts are drawn or
// recorded must not move a single byte of a recorded trace.
func TestChaosRecordReplayByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full studies")
	}
	workerCounts := []int{1, 4}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 4 {
		workerCounts = append(workerCounts, p)
	}

	cases := []struct {
		scenario string
		seeds    []int64
		sha3     string // sha256 of the seed-3 trace at Workers=1
	}{
		{"hostile", []int64{3, 11}, "54d2a408de61e6fb152a1b258c0d9326a40d6fcc0adab0ba3726abba54c295d0"},
		{"cascade", []int64{3, 11}, "65b77dd91fa4dba61cf83e9c84a1b60a426408f74a9b4aa8e87c378f321317c0"},
	}
	for _, tc := range cases {
		sc, err := chaos.Load(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		if tc.scenario == "cascade" && len(sc.Triggers) == 0 {
			t.Fatal("cascade lost its correlated-failure triggers")
		}
		for _, seed := range tc.seeds {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", tc.scenario, seed), func(t *testing.T) {
				golden, goldenSum, tr := recordRun(t, replayConfig(seed, 1, sc))

				// Trace canonicality across worker counts (one seed per
				// scenario keeps the matrix affordable).
				if seed == 3 {
					if got := traceSHA(t, tr); got != tc.sha3 {
						t.Errorf("%s seed-3 trace sha256 = %s, want %s", tc.scenario, got, tc.sha3)
					}
					want := traceBytes(t, tr)
					for _, workers := range workerCounts[1:] {
						_, _, tr2 := recordRun(t, replayConfig(seed, workers, sc))
						if traceBytes(t, tr2) != want {
							t.Errorf("trace bytes differ between Workers=1 and Workers=%d", workers)
						}
					}
				}

				// Replay identity at every worker count. The replay
				// config carries no scenario at all: every verdict must
				// come from the trace, not from hash draws.
				for _, workers := range workerCounts {
					cfg := replayConfig(seed, workers, nil)
					cfg.ChaosReplay = tr
					got, gotSum := chaosGolden(NewStudy(cfg))
					if gotSum == goldenSum {
						continue
					}
					for id, want := range golden {
						if got[id] != want {
							t.Errorf("%s differs between recorded run and replay at Workers=%d under %q (seed %d):\n--- recorded ---\n%s\n--- replay ---\n%s",
								id, workers, tc.scenario, seed, want, got[id])
						}
					}
				}
			})
		}
	}
}

// TestChaosBisectMinimizesToCulprits is the bisection demo: a seeded
// hostile run's discovery output diverges from the fault-free golden;
// BisectFaultTrace shrinks the recorded trace to a minimal culprit
// set, and replaying only that sub-trace still reproduces the
// divergence while dropping any single culprit loses it (1-minimality).
func TestChaosBisectMinimizesToCulprits(t *testing.T) {
	if testing.Short() {
		t.Skip("delta debugging replays the study repeatedly")
	}
	sc, err := chaos.Load("hostile")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 7, Domains: 120, Vantages: 6, Workers: 1}
	probe := func(s *Study) string {
		out, err := s.RunExperiment("table3")
		if err != nil {
			t.Fatal(err)
		}
		return out + s.Completeness().Report()
	}
	golden := probe(NewStudy(cfg))

	rcfg := cfg
	rcfg.Chaos, rcfg.ChaosRecord = sc, true
	rec := NewStudy(rcfg)
	if probe(rec) == golden {
		t.Fatal("hostile run does not diverge from the fault-free golden; nothing to bisect")
	}
	tr := rec.FaultTrace()

	min, replays := BisectFaultTrace(cfg, tr, func(c *Study) bool { return probe(c) != golden })
	t.Logf("bisected %d events to %d culprit(s) in %d replays", tr.Len(), min.Len(), replays)
	if min.Len() == 0 || min.Len() >= tr.Len() {
		t.Fatalf("bisect did not shrink the trace: %d -> %d events", tr.Len(), min.Len())
	}

	ccfg := cfg
	ccfg.ChaosReplay = min
	if probe(NewStudy(ccfg)) == golden {
		t.Fatal("replaying the minimal culprit set no longer reproduces the divergence")
	}

	if min.Len() <= 4 {
		for i := range min.Events {
			sub := &trace.Trace{Header: min.Header}
			sub.Events = append(append([]trace.Event{}, min.Events[:i]...), min.Events[i+1:]...)
			sub.Header.Events = len(sub.Events)
			scfg := cfg
			scfg.ChaosReplay = sub
			if probe(NewStudy(scfg)) != golden {
				t.Errorf("culprit event %d is not needed: the divergence survives without it", i)
			}
		}
	}
}
