// Command experiments regenerates every table and figure of the paper
// in one run.
//
// Usage:
//
//	experiments [-domains N] [-seed S] [-flows N] [-only table9,figure12]
//	experiments -only discovery -save dataset.txt   # §2.1 scan + Tables 3/4/7/9
//	experiments -only zones,table3                  # groups and IDs mix
//	experiments -only wan -domains 500 -clients 80  # the §5 campaign
//	experiments -json study.json        # the daemon's V1 document, offline
//	experiments -chaos hostile -chaos-record trace.jsonl
//	experiments -chaos-replay trace.jsonl
//	experiments -chaos-bisect trace.jsonl -only table9
//	experiments -chaos-diff A.jsonl B.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"cloudscope"
	"cloudscope/api"
	"cloudscope/internal/chaos/trace"
	"cloudscope/internal/cliflags"
	"cloudscope/internal/stats"
)

// groups are the named experiment-ID lists -only accepts alongside
// bare IDs, one per part of the paper's pipeline.
var groups = map[string][]string{
	"discovery": {"table3", "table4", "table7", "table9"},
	"zones":     {"table12", "table13", "table14", "table15", "figure7", "figure8"},
	"wan":       {"figure9", "figure10", "figure11", "figure12", "table11", "table16"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	domains := fs.Int("domains", 20000, "ranked-list size (the paper's top 1M, scaled)")
	seed := fs.Int64("seed", 1, "world seed")
	flows := fs.Int("flows", 30000, "border-capture flows")
	vantages := fs.Int("vantages", 200, "distributed DNS vantage points")
	clients := fs.Int("clients", 80, "PlanetLab clients in the §5 WAN campaign")
	only := fs.String("only", "", "comma-separated experiment IDs or groups ("+groupNames()+"); default: all")
	save := fs.String("save", "", "write the measured dataset to this file")
	plotdata := fs.String("plotdata", "", "directory to write per-figure TSV series into")
	bisect := fs.String("chaos-bisect", "",
		"delta-debug the fault trace in this file to a minimal sub-trace that still changes the selected experiments' output from the fault-free run; prints the culprits and writes <file>.min")
	chaosDiff := fs.String("chaos-diff", "",
		"compare the fault trace in this file against a second trace (the positional argument, or 'A.jsonl,B.jsonl') and print the verdict delta; exits 1 when they differ")
	streamOut := fs.String("stream-out", "dataset.txt",
		"dataset output path for -stream (- for stdout)")
	jsonOut := fs.String("json", "",
		"also write the study's answers as the versioned V1 JSON document cloudscoped serves (- for stdout)")
	shared := cliflags.Register(fs)
	streaming := cliflags.RegisterStreaming(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	if err := streaming.Validate(); err != nil {
		return fail(err)
	}
	if *save != "" && (streaming.Stream || *bisect != "" || *chaosDiff != "") {
		return fail(fmt.Errorf("-save writes the study's measured dataset; it does not combine with -stream (use -stream-out), -chaos-bisect or -chaos-diff"))
	}

	if *chaosDiff != "" {
		// Diffing two recorded traces runs no study; the shared study
		// flags would be inert, so reject them loudly.
		if err := shared.RejectStudyFlags("experiments -chaos-diff"); err != nil {
			return fail(err)
		}
		identical, err := cliflags.DiffTraces(*chaosDiff, fs.Arg(0), stdout)
		if err != nil {
			return fail(err)
		}
		if !identical {
			return 1
		}
		return 0
	}

	cfg := cloudscope.Config{Seed: *seed, Domains: *domains, CaptureFlows: *flows, Vantages: *vantages, WANClients: *clients}
	if err := shared.Apply(&cfg); err != nil {
		return fail(err)
	}

	if streaming.Stream {
		// The streaming data path produces the released-dataset artifact
		// in bounded memory — the Alexa-1M-scale run the in-memory study
		// cannot hold. The tables and figures need the memoized study, so
		// they run without -stream at a size that fits.
		if *only != "" {
			return fail(fmt.Errorf("-stream writes the dataset artifact and runs no experiments; drop -only or -stream"))
		}
		if *jsonOut != "" {
			return fail(fmt.Errorf("-json needs the memoized study; drop -stream"))
		}
		if err := shared.RejectStudyFlags("experiments -stream"); err != nil {
			return fail(err)
		}
		if err := shared.Start(nil); err != nil {
			return fail(err)
		}
		out := stdout
		if *streamOut != "-" {
			f, err := os.Create(*streamOut)
			if err != nil {
				return fail(err)
			}
			defer f.Close()
			out = f
		}
		start := time.Now()
		st, err := cloudscope.StreamDataset(cfg, streaming.ChunkSize, streaming.SpillDir, out)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "streamed dataset: %d domains scanned, %d cloud subdomains, %d queries -> %s (%.1fs wall, chunks of %d)\n",
			st.DomainsScanned, st.CloudSubdomains, st.QueriesIssued, *streamOut, time.Since(start).Seconds(), streaming.ChunkSize)
		if err := shared.FinishProfiles(); err != nil {
			return fail(err)
		}
		return 0
	}

	want, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v; known IDs:\n", err)
		for _, e := range cloudscope.Experiments() {
			fmt.Fprintln(stderr, "  "+e.ID)
		}
		fmt.Fprintln(stderr, "groups:")
		for _, g := range strings.Split(groupNames(), ", ") {
			fmt.Fprintf(stderr, "  %s = %s\n", g, strings.Join(groups[g], ","))
		}
		return 1
	}

	if *bisect != "" {
		if cfg.Chaos != nil || cfg.ChaosReplay != nil {
			return fail(fmt.Errorf("-chaos-bisect replays sub-traces of the recorded run; drop -chaos/-chaos-replay"))
		}
		if err := runBisect(stdout, cfg, *bisect, want); err != nil {
			return fail(err)
		}
		return 0
	}

	study := cloudscope.NewStudy(cfg)
	if err := shared.Start(study.Telemetry()); err != nil {
		return fail(err)
	}
	if *save != "" {
		if err := saveDataset(stdout, study, *save); err != nil {
			return fail(err)
		}
	}
	for _, e := range cloudscope.Experiments() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		out := e.Run(study)
		fmt.Fprintf(stdout, "==== %s: %s (%.1fs) ====\n%s\n", e.ID, e.Title, time.Since(start).Seconds(), out)
		if *plotdata != "" {
			if series, ok := study.FigureSeries(e.ID); ok {
				if err := writeTSV(*plotdata, e.ID, series); err != nil {
					return fail(err)
				}
			}
		}
	}
	if shared.Faulting() {
		fmt.Fprintf(stdout, "==== completeness ====\n%s\n", study.Completeness().Report())
	}
	if *jsonOut != "" {
		if err := writeStudyJSON(stdout, *jsonOut, study); err != nil {
			return fail(err)
		}
	}
	if err := shared.Finish(stdout, study); err != nil {
		return fail(err)
	}
	return 0
}

// selectExperiments expands a -only list of experiment IDs and group
// names into the set of IDs to run; an empty set selects everything.
// An unknown name is an error.
func selectExperiments(only string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, e := range cloudscope.Experiments() {
		known[e.ID] = true
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		ids, isGroup := groups[name]
		switch {
		case name == "":
		case isGroup:
			for _, id := range ids {
				want[id] = true
			}
		case known[name]:
			want[name] = true
		default:
			return nil, fmt.Errorf("-only: unknown experiment or group %q", name)
		}
	}
	return want, nil
}

// groupNames lists the -only group names, sorted.
func groupNames() string {
	names := make([]string, 0, len(groups))
	for g := range groups {
		names = append(names, g)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// saveDataset runs the §2.1 discovery crawl, prints its scan
// statistics, and writes the measured dataset to path.
func saveDataset(stdout io.Writer, study *cloudscope.Study, path string) error {
	ds := study.Dataset()
	fmt.Fprintf(stdout, "scanned %d domains, %d queries, %d AXFR successes (%.1f simulated probe-days serial)\n",
		ds.Stats.DomainsScanned, ds.Stats.QueriesIssued, ds.Stats.AXFRSuccesses,
		ds.Stats.SerialProbeTime.Hours()/24)
	fmt.Fprintf(stdout, "subdomains seen: %d; cloud-using: %d under %d domains\n",
		ds.Stats.SubdomainsSeen, ds.Stats.CloudSubdomains, len(ds.CloudDomains()))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ds.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "dataset written to %s\n\n", path)
	return nil
}

// runBisect shrinks a recorded fault trace to a locally-minimal
// sub-trace whose replay still changes the selected experiments'
// output from the fault-free run.
func runBisect(stdout io.Writer, cfg cloudscope.Config, path string, want map[string]bool) error {
	tr, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	golden := outputs(cloudscope.NewStudy(cfg), want)
	diverges := func(s *cloudscope.Study) bool { return outputs(s, want) != golden }

	full := cfg
	full.ChaosReplay = tr
	if !diverges(cloudscope.NewStudy(full)) {
		return fmt.Errorf("replaying %s does not change the selected experiments' output; nothing to bisect", path)
	}
	fmt.Fprintf(stdout, "trace %s: %d events under scenario %q (seed %d); bisecting...\n",
		path, tr.Len(), tr.Header.Scenario, tr.Header.Seed)

	min, replays := cloudscope.BisectFaultTrace(cfg, tr, diverges)
	fmt.Fprintf(stdout, "minimal culprit set: %d of %d events (%d replays)\n", min.Len(), tr.Len(), replays)
	for _, ev := range min.Events {
		line := fmt.Sprintf("  %-8s %-12s phase=%.3f id=%016x", ev.Point, ev.Kind, ev.Phase, ev.ID)
		if ev.Name != "" {
			line += " " + ev.Name
		}
		if ev.Cause != "" {
			line += " cause=" + ev.Cause
		}
		fmt.Fprintln(stdout, line)
	}
	out := path + ".min"
	if err := min.WriteFile(out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "minimal trace written to %s (replay with -chaos-replay %s)\n", out, out)
	return nil
}

// outputs concatenates the selected experiments' text plus the
// completeness report — the byte string record/replay/bisect compare.
func outputs(s *cloudscope.Study, want map[string]bool) string {
	var b strings.Builder
	for _, e := range cloudscope.Experiments() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		b.WriteString(e.Run(s))
	}
	b.WriteString(s.Completeness().Report())
	return b.String()
}

// writeStudyJSON emits the same versioned document a cloudscoped
// daemon would serve for this world: the V1 study DTO inside an
// api.Envelope (epoch 0 — there is no serving epoch here), so offline
// runs and the daemon are byte-compatible consumers of one schema.
func writeStudyJSON(stdout io.Writer, path string, study *cloudscope.Study) error {
	doc, err := api.Study(context.Background(), study)
	if err != nil {
		return err
	}
	env := api.NewEnvelope("study", 0, study, doc)
	b, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func writeTSV(dir, id string, series map[string][]stats.Point) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(dir + "/" + id + ".tsv")
	if err != nil {
		return err
	}
	defer f.Close()
	return cloudscope.WriteSeriesTSV(f, series)
}
