package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cloudscope"
)

func TestGroupsExpandToKnownIDs(t *testing.T) {
	known := map[string]bool{}
	for _, e := range cloudscope.Experiments() {
		known[e.ID] = true
	}
	for name, ids := range groups {
		if len(ids) == 0 {
			t.Errorf("group %q is empty", name)
		}
		if known[name] {
			t.Errorf("group %q shadows an experiment ID", name)
		}
		for _, id := range ids {
			if !known[id] {
				t.Errorf("group %q names unknown experiment %q", name, id)
			}
		}
	}
}

func TestOnlyMixesGroupsAndIDs(t *testing.T) {
	want, err := selectExperiments("zones, table3")
	if err != nil {
		t.Fatal(err)
	}
	expect := append([]string{"table3"}, groups["zones"]...)
	if len(want) != len(expect) {
		t.Fatalf("selected %d experiments, want %d: %v", len(want), len(expect), want)
	}
	for _, id := range expect {
		if !want[id] {
			t.Errorf("%s not selected", id)
		}
	}
	if all, err := selectExperiments(""); err != nil || len(all) != 0 {
		t.Fatalf("empty -only = %v, %v; want every experiment (an empty set)", all, err)
	}
}

func TestOnlyUnknownNameExits1(t *testing.T) {
	for _, only := range []string{"bogus", "zones,bogus"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-only", only}, &stdout, &stderr); code != 1 {
			t.Fatalf("-only %s exited %d, want 1", only, code)
		}
		msg := stderr.String()
		if !strings.Contains(msg, `"bogus"`) {
			t.Errorf("-only %s: stderr does not name the unknown entry:\n%s", only, msg)
		}
		for _, e := range cloudscope.Experiments() {
			if !strings.Contains(msg, "  "+e.ID+"\n") {
				t.Errorf("-only %s: known ID %s not listed", only, e.ID)
			}
		}
		for name := range groups {
			if !strings.Contains(msg, "  "+name+" = ") {
				t.Errorf("-only %s: group %s not listed", only, name)
			}
		}
		if stdout.Len() != 0 {
			t.Errorf("-only %s: ran experiments before rejecting the list:\n%s", only, stdout.String())
		}
	}
}

// TestOnlyDiscoveryMatchesRunExperiment checks that the discovery group
// prints exactly the RunExperiment text of its tables, in order, once
// the per-experiment header lines are stripped.
func TestOnlyDiscoveryMatchesRunExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 1K-domain studies")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-domains", "1000", "-vantages", "20", "-only", "discovery"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	header := regexp.MustCompile(`(?m)^==== (\S+): .* \([0-9.]+s\) ====\n`)
	var ran []string
	for _, m := range header.FindAllStringSubmatch(stdout.String(), -1) {
		ran = append(ran, m[1])
	}
	if strings.Join(ran, ",") != strings.Join(groups["discovery"], ",") {
		t.Fatalf("ran %v, want %v", ran, groups["discovery"])
	}

	study := cloudscope.NewStudy(cloudscope.Config{Seed: 1, Domains: 1000, Vantages: 20, CaptureFlows: 30000, WANClients: 80})
	var want strings.Builder
	for _, id := range groups["discovery"] {
		out, err := study.RunExperiment(id)
		if err != nil {
			t.Fatal(err)
		}
		want.WriteString(out + "\n")
	}
	if got := header.ReplaceAllString(stdout.String(), ""); got != want.String() {
		t.Fatalf("-only discovery output differs from RunExperiment:\n--- got\n%s\n--- want\n%s", got, want.String())
	}
}

// TestStreamWritesCPUProfile checks that -cpuprofile is honoured on the
// streaming path: the run must leave a non-empty gzip-compressed pprof
// profile behind, not exit 0 with no file.
func TestStreamWritesCPUProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "exp.prof")
	var stdout, stderr bytes.Buffer
	args := []string{"-stream", "-domains", "100", "-vantages", "2",
		"-stream-out", filepath.Join(dir, "dataset.txt"), "-cpuprofile", prof}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	b, err := os.ReadFile(prof)
	if err != nil {
		t.Fatalf("no CPU profile written: %v", err)
	}
	if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
		t.Fatalf("CPU profile is %d bytes and does not start with the gzip magic", len(b))
	}
}
