package api

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"cloudscope"
)

// countdownCtx passes its first k Err checks and reports
// context.Canceled from then on, closing Done at that same moment:
// cancellation lands at a deterministic point mid-build, with no
// timers.
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

// TestWANPerfCancelMidBuild cancels the /v1/wanperf build partway
// through its matrices at Workers 1 and 4: the build must return
// context.Canceled without panicking, and a retry under
// context.Background() must marshal to the same bytes as an
// uncancelled Study's answer.
func TestWANPerfCancelMidBuild(t *testing.T) {
	digest := func(v *WANPerfV1) [32]byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b)
	}
	for _, workers := range []int{1, 4} {
		cfg := testConfig()
		cfg.Workers = workers
		counter := newCountdownCtx(1 << 30)
		ref, err := WANPerf(counter, cloudscope.NewStudy(cfg))
		if err != nil {
			t.Fatalf("workers=%d: uncancelled build: %v", workers, err)
		}
		golden, total := digest(ref), counter.checks
		if total < 3 {
			t.Fatalf("workers=%d: build made only %d context checks; nothing to cancel mid-build", workers, total)
		}
		for k := 1; k < total; k++ {
			s := cloudscope.NewStudy(cfg)
			err := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						t.Fatalf("workers=%d k=%d/%d: cancelled build panicked: %v", workers, k, total, v)
					}
				}()
				_, err = WANPerf(newCountdownCtx(k), s)
				return err
			}()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d k=%d/%d: err = %v, want context.Canceled", workers, k, total, err)
			}
			got, err := WANPerf(context.Background(), s)
			if err != nil {
				t.Fatalf("workers=%d k=%d/%d: retry: %v", workers, k, total, err)
			}
			if digest(got) != golden {
				t.Fatalf("workers=%d k=%d/%d: retry differs from the uncancelled answer", workers, k, total)
			}
		}
	}
}
