package cloudscope

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"testing"

	"cloudscope/internal/chaos"
)

// chaosConfig is the fault-injection golden study: telemetry stays ON
// (unlike detConfig) because the Completeness accounting is part of the
// golden — a worker-count-dependent retry or abandonment is exactly the
// kind of bug these goldens exist to catch.
func chaosConfig(seed int64, workers int, sc *chaos.Scenario) Config {
	return Config{
		Seed:         seed,
		Domains:      500,
		Vantages:     10,
		CaptureFlows: 400,
		WANClients:   8,
		Workers:      workers,
		Chaos:        sc,
	}
}

// chaosGolden runs every experiment plus the completeness report and
// returns the per-artifact outputs and a combined sha256.
func chaosGolden(s *Study) (map[string]string, string) {
	out := map[string]string{}
	for _, e := range Experiments() {
		out[e.ID] = e.Run(s)
	}
	out["completeness"] = s.Completeness().Report()
	ids := make([]string, 0, len(out))
	for id := range out {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s\n%s\n", id, out[id])
	}
	return out, fmt.Sprintf("%x", h.Sum(nil))
}

// TestChaosDeterminism: a faulted study is as reproducible as a clean
// one. For each (scenario, seed), every experiment output and the full
// Completeness report are byte-identical at Workers=1, Workers=4, and
// Workers=GOMAXPROCS — fault verdicts are pure hash draws over stable
// identities, so scheduling can never change which probes fail.
func TestChaosDeterminism(t *testing.T) {
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
	}{
		{"hostile", []int64{3, 11}},
		{"planetlab-flux", []int64{3}},
	}
	for _, tc := range cases {
		sc, err := chaos.Load(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range tc.seeds {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed%d", tc.scenario, seed), func(t *testing.T) {
				golden, goldenSum := chaosGolden(NewStudy(chaosConfig(seed, 1, sc)))

				// A fault plan that degrades nothing golden-tests
				// nothing: the scenario must visibly cost coverage.
				comp := golden["completeness"]
				if comp == "" {
					t.Fatal("no completeness report under chaos")
				}
				s := NewStudy(chaosConfig(seed, 1, sc))
				s.Dataset()
				if !s.Completeness().Degraded() {
					t.Fatalf("scenario %q abandoned nothing in discovery:\n%s", tc.scenario, s.Completeness().Report())
				}

				for _, workers := range workerCounts[1:] {
					got, gotSum := chaosGolden(NewStudy(chaosConfig(seed, workers, sc)))
					if gotSum == goldenSum {
						continue
					}
					for id, want := range golden {
						if got[id] != want {
							t.Errorf("%s differs between Workers=1 and Workers=%d under %q (seed %d):\n--- sequential ---\n%s\n--- parallel ---\n%s",
								id, workers, tc.scenario, seed, want, got[id])
						}
					}
				}
			})
		}
	}
}

// TestChaosChangesOutcomes pins that the fault engine actually reaches
// the pipeline: the same study config with and without a scenario must
// produce different discovery results, and different seeds must fault
// different probes.
func TestChaosChangesOutcomes(t *testing.T) {
	sc, err := chaos.Load("hostile")
	if err != nil {
		t.Fatal(err)
	}
	clean, cleanSum := chaosGolden(NewStudy(chaosConfig(3, 1, nil)))
	_, faultedSum := chaosGolden(NewStudy(chaosConfig(3, 1, sc)))
	if cleanSum == faultedSum {
		t.Fatal("hostile scenario changed nothing")
	}
	if clean["completeness"] != "" && NewStudy(chaosConfig(3, 1, nil)).Completeness().Degraded() {
		t.Fatal("clean study reports degradation")
	}
	_, otherSeed := chaosGolden(NewStudy(chaosConfig(11, 1, sc)))
	if otherSeed == faultedSum {
		t.Fatal("chaos outcomes do not vary with the seed")
	}
}

// TestChaosCaptureCompleteness: a Study under a capture-layer scenario
// books the analyzer's accounting. Capture() leaves both capture stages
// in Completeness(), with one flow attempt per analyzed flow and one
// frame attempt per pcap record.
func TestChaosCaptureCompleteness(t *testing.T) {
	sc, err := chaos.Load("lossy-capture")
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudy(chaosConfig(3, 1, sc))
	_, an := s.Capture()
	flows, ok := s.Completeness().Stage("capture/flows")
	if !ok || flows.Attempted != int64(len(an.Flows)) {
		t.Fatalf("capture/flows = %+v (booked %v), want %d flows attempted", flows, ok, len(an.Flows))
	}
	frames, ok := s.Completeness().Stage("capture/frames")
	if !ok || frames.Attempted != int64(an.Records) {
		t.Fatalf("capture/frames = %+v (booked %v), want %d records attempted", frames, ok, an.Records)
	}
	if frames.Abandoned != int64(an.DecodeErrs) || frames.Abandoned == 0 {
		t.Fatalf("capture/frames abandoned %d, want the %d decode errors (non-zero under cap-corrupt)", frames.Abandoned, an.DecodeErrs)
	}
}
