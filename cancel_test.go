package cloudscope

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cloudscope/internal/core/wanperf"
	"cloudscope/internal/wan"
)

// countdownCtx is a context that passes its first k Err checks and
// reports context.Canceled from then on, closing Done at that same
// moment: cancellation lands at a deterministic point mid-build, with
// no timers.
type countdownCtx struct {
	context.Context
	mu     sync.Mutex
	left   int
	checks int
	done   chan struct{}
}

func newCountdownCtx(k int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), left: k, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checks++
	if c.left > 0 {
		c.left--
		return nil
	}
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return context.Canceled
}

// cancelConfig is the mid-build cancellation study: small, so each
// cancellation point costs a fraction of a second.
func cancelConfig(workers int) Config {
	return Config{Seed: 9, Domains: 200, Vantages: 4, CaptureFlows: 400, WANClients: 8, Workers: workers}
}

// checkCancelMidBuild drives one stage accessor under countdown
// contexts that cancel it partway through, at Workers 1 and 4. Each
// cancelled build must return context.Canceled (not panic) and leave
// the stage cell empty; a retry under context.Background() must then
// produce the same digest as an uncancelled Study.
func checkCancelMidBuild(t *testing.T, build func(*Study, context.Context) error, empty func(*Study) bool, digest func(*Study) string) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		ref := NewStudy(cancelConfig(workers))
		counter := newCountdownCtx(1 << 30)
		if err := build(ref, counter); err != nil {
			t.Fatalf("workers=%d: uncancelled build: %v", workers, err)
		}
		golden := digest(ref)
		total := counter.checks
		if total < 3 {
			t.Fatalf("workers=%d: build made only %d context checks; nothing to cancel mid-build", workers, total)
		}
		for _, k := range []int{1, total / 2, total - 1} {
			s := NewStudy(cancelConfig(workers))
			err := callNoPanic(t, func() error { return build(s, newCountdownCtx(k)) })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d k=%d/%d: err = %v, want context.Canceled", workers, k, total, err)
			}
			if !empty(s) {
				t.Fatalf("workers=%d k=%d/%d: cancelled build left its stage cell filled", workers, k, total)
			}
			if err := build(s, context.Background()); err != nil {
				t.Fatalf("workers=%d k=%d/%d: retry: %v", workers, k, total, err)
			}
			if got := digest(s); got != golden {
				t.Fatalf("workers=%d k=%d/%d: retry digest %s, uncancelled %s", workers, k, total, got, golden)
			}
		}
	}
}

// callNoPanic runs fn and fails the test if it panics.
func callNoPanic(t *testing.T, fn func() error) (err error) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			t.Fatalf("cancelled build panicked: %v", v)
		}
	}()
	return fn()
}

func TestDatasetContextCancelMidBuild(t *testing.T) {
	checkCancelMidBuild(t,
		func(s *Study, ctx context.Context) error { _, err := s.DatasetContext(ctx); return err },
		func(s *Study) bool { return !s.ds.done },
		func(s *Study) string {
			h := sha256.New()
			if _, err := s.Dataset().WriteTo(h); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("%x", h.Sum(nil))
		})
}

func TestZonesContextCancelMidBuild(t *testing.T) {
	checkCancelMidBuild(t,
		func(s *Study, ctx context.Context) error { _, err := s.ZonesContext(ctx); return err },
		func(s *Study) bool { return !s.zone.done },
		func(s *Study) string {
			var b strings.Builder
			for _, run := range []func(*Study) string{runTable12, runTable13, runTable14, runTable15, runFigure7, runFigure8} {
				b.WriteString(run(s))
			}
			return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
		})
}

// TestCampaignCancelMidBuild cancels the context of a campaign handed
// out by CampaignContext, at Workers 1 and 4: every fanned-out method —
// the subset searches and the outage simulation included — must return
// context.Canceled without panicking, and a campaign retried under
// context.Background() must answer exactly as an uncancelled Study's.
func TestCampaignCancelMidBuild(t *testing.T) {
	methods := []struct {
		name string
		run  func(*wanperf.Campaign) (any, error)
	}{
		{"OptimalK", func(c *wanperf.Campaign) (any, error) { return c.OptimalK(wan.MetricLatency, 3) }},
		{"GreedyK", func(c *wanperf.Campaign) (any, error) { return c.GreedyK(wan.MetricLatency, 3) }},
		{"Outages", func(c *wanperf.Campaign) (any, error) { return c.Outages(3, 20) }},
	}
	for _, workers := range []int{1, 4} {
		ref := NewStudy(cancelConfig(workers)).Campaign()
		s := NewStudy(cancelConfig(workers))
		ctx, cancel := context.WithCancel(context.Background())
		camp, err := s.CampaignContext(ctx)
		if err != nil {
			t.Fatalf("workers=%d: CampaignContext: %v", workers, err)
		}
		cancel()
		retry, err := s.CampaignContext(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: retry CampaignContext: %v", workers, err)
		}
		for _, m := range methods {
			err := callNoPanic(t, func() error { _, err := m.run(camp); return err })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: cancelled %s: err = %v, want context.Canceled", workers, m.name, err)
			}
			want, err := m.run(ref)
			if err != nil {
				t.Fatalf("workers=%d: uncancelled %s: %v", workers, m.name, err)
			}
			got, err := m.run(retry)
			if err != nil {
				t.Fatalf("workers=%d: retried %s: %v", workers, m.name, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("workers=%d: retried %s = %v, uncancelled %v", workers, m.name, got, want)
			}
		}
	}
}
