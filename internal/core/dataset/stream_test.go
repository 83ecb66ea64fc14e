package dataset

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudscope/internal/parallel"
)

// firstNames returns the first n ranked names of the shared test world.
func firstNames(n int) []string {
	names := make([]string, n)
	for i, d := range world.Domains[:n] {
		names[i] = d.Name
	}
	return names
}

// newTestStreamBuilder spills under parent so the test can watch the
// spill directory appear and vanish.
func newTestStreamBuilder(t *testing.T, parent string, total int, ctx context.Context, nilRanges bool) *StreamBuilder {
	t.Helper()
	cfg := StreamConfig{
		Config: Config{
			Fabric:   world.Fabric,
			Registry: world.Registry,
			Ranges:   world.Ranges,
			Vantages: 4,
			Par:      parallel.Options{Ctx: ctx},
		},
		Total:    total,
		SpillDir: parent,
	}
	if nilRanges {
		cfg.Ranges = nil
	}
	b, err := NewStreamBuilder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// entries lists dir's entry names.
func entries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestSpillCleanup pins the streaming build's no-leak contract: the
// spill directory is gone after Finish, after a failed AddChunk
// (overrun, cancellation, worker panic), and after Close — the caller
// never has to clean up, whatever path the build took.
func TestSpillCleanup(t *testing.T) {
	t.Run("finish", func(t *testing.T) {
		parent := t.TempDir()
		b := newTestStreamBuilder(t, parent, 60, nil, false)
		if err := b.AddChunk(firstNames(60)[:30]); err != nil {
			t.Fatal(err)
		}
		if err := b.AddChunk(firstNames(60)[30:]); err != nil {
			t.Fatal(err)
		}
		spill := entries(t, parent)
		if len(spill) != 1 {
			t.Fatalf("want one spill dir under %s, got %v", parent, spill)
		}
		if files := entries(t, parent+"/"+spill[0]); len(files) != 2 {
			t.Fatalf("want 2 spill files, got %v", files)
		}
		var out bytes.Buffer
		st, err := b.Finish(&out)
		if err != nil {
			t.Fatal(err)
		}
		if st.DomainsScanned != 60 || out.Len() == 0 {
			t.Fatalf("Finish: scanned=%d, %d bytes", st.DomainsScanned, out.Len())
		}
		if got := entries(t, parent); len(got) != 0 {
			t.Fatalf("spill dir survives Finish: %v", got)
		}
	})

	t.Run("overrun-error", func(t *testing.T) {
		parent := t.TempDir()
		b := newTestStreamBuilder(t, parent, 10, nil, false)
		err := b.AddChunk(firstNames(20))
		if err == nil || !strings.Contains(err.Error(), "overruns Total") {
			t.Fatalf("overrun err = %v", err)
		}
		if got := entries(t, parent); len(got) != 0 {
			t.Fatalf("spill dir survives overrun: %v", got)
		}
		if err := b.AddChunk(firstNames(5)); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("AddChunk after failure = %v, want closed-builder error", err)
		}
	})

	t.Run("cancellation", func(t *testing.T) {
		parent := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // canceled before the chunk even starts
		b := newTestStreamBuilder(t, parent, 30, ctx, false)
		err := b.AddChunk(firstNames(30))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled AddChunk err = %v, want context.Canceled", err)
		}
		if got := entries(t, parent); len(got) != 0 {
			t.Fatalf("spill dir survives cancellation: %v", got)
		}
	})

	t.Run("worker-panic", func(t *testing.T) {
		parent := t.TempDir()
		// A nil ranges list makes the cloud filter panic inside the scan
		// workers; parallel surfaces it as *PanicError and AddChunk must
		// still clean up.
		b := newTestStreamBuilder(t, parent, 30, nil, true)
		err := b.AddChunk(firstNames(30))
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("panicking AddChunk err = %v, want *parallel.PanicError", err)
		}
		if got := entries(t, parent); len(got) != 0 {
			t.Fatalf("spill dir survives worker panic: %v", got)
		}
	})

	t.Run("corrupt-spill", func(t *testing.T) {
		// Cut a spill file just after an S line: a line boundary inside
		// a block, so only the merge's block check can see the damage.
		parent := t.TempDir()
		b := newTestStreamBuilder(t, parent, 60, nil, false)
		if err := b.AddChunk(firstNames(60)); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(parent, entries(t, parent)[0])
		path := filepath.Join(dir, entries(t, dir)[0])
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.LastIndex(data, []byte("\nS "))
		if i < 0 {
			t.Fatal("spill file holds no S block")
		}
		cut := i + 1 + bytes.IndexByte(data[i+1:], '\n') + 1
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Finish(io.Discard); err == nil {
			t.Fatal("Finish merged a spill file truncated inside an S block")
		}
		if got := entries(t, parent); len(got) != 0 {
			t.Fatalf("spill dir survives a failed Finish: %v", got)
		}
	})

	t.Run("close-idempotent", func(t *testing.T) {
		parent := t.TempDir()
		b := newTestStreamBuilder(t, parent, 30, nil, false)
		if err := b.AddChunk(firstNames(10)); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if got := entries(t, parent); len(got) != 0 {
			t.Fatalf("spill dir survives Close: %v", got)
		}
	})
}
