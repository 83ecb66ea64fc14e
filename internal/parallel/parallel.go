// Package parallel is cloudscope's deterministic fan-out layer: a
// bounded worker pool that shards an input range, runs the shards on
// GOMAXPROCS workers (or any explicit count), and merges results in
// input order.
//
// The central contract is that parallelism never changes results. The
// shard layout is a pure function of the input size — never of the
// worker count or the machine — so a stage that derives one xrand
// sub-stream per shard produces bit-identical output whether it runs
// on one goroutine or sixteen. Workers=1 runs the same shards inline
// on the calling goroutine: the exact legacy sequential path, with no
// channels or goroutines involved.
//
// Run propagates the first error by shard order, converts worker
// panics into *PanicError (with the worker's stack), and honors
// context cancellation between shards. MapShards and Map layer
// ordered result collection on top.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cloudscope/internal/telemetry"
)

// Options configures a parallel stage. The zero value runs with
// GOMAXPROCS workers, the default shard layout, no metrics, and no
// cancellation — the right call for library code that is handed no
// policy.
type Options struct {
	// Workers is the number of concurrent workers: 0 means
	// GOMAXPROCS, 1 runs every shard inline on the caller's
	// goroutine (the exact sequential path), n > 1 uses a pool.
	Workers int
	// ShardSize overrides the shard granularity. 0 picks a default
	// that depends only on the input size, keeping shard layouts —
	// and therefore per-shard random streams — machine-independent.
	ShardSize int
	// Metrics, when non-nil, receives per-stage worker/shard gauges
	// and queue-wait observations.
	Metrics *Metrics
	// Ctx, when non-nil, cancels the stage between shards.
	Ctx context.Context
}

// WorkerCount resolves the effective worker count.
func (o Options) WorkerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Shard is a half-open slice [Lo, Hi) of the input, with its position
// in the deterministic layout. Stages derive per-shard random streams
// from Index, which depends only on the input size.
type Shard struct {
	Index int
	Lo    int
	Hi    int
}

// Len returns the number of items in the shard.
func (s Shard) Len() int { return s.Hi - s.Lo }

// DefaultShardSize returns the shard granularity used when Options
// leaves ShardSize zero: input split into at most 64 shards, but
// never shards smaller than 16 items. It is a pure function of n so
// the layout (and any per-shard random stream) is identical on every
// machine and at every worker count.
func DefaultShardSize(n int) int {
	size := (n + 63) / 64
	if size < 16 {
		size = 16
	}
	return size
}

// Shards computes the deterministic layout for n items. shardSize <= 0
// selects DefaultShardSize(n).
func Shards(n, shardSize int) []Shard {
	return ShardsAt(0, n, shardSize)
}

// ShardsAt computes the layout for the n items [base, base+n): shard
// Lo/Hi are global indices, while Index and the shard boundaries are
// the same pure function of n as Shards. Chunked stages use it so a
// chunk's items keep their global positions (rank-indexed resolver
// assignment, phase computation) regardless of how the stream was cut
// into chunks.
func ShardsAt(base, n, shardSize int) []Shard {
	if n <= 0 {
		return nil
	}
	if shardSize <= 0 {
		shardSize = DefaultShardSize(n)
	}
	shards := make([]Shard, 0, (n+shardSize-1)/shardSize)
	for lo := 0; lo < n; lo += shardSize {
		hi := lo + shardSize
		if hi > n {
			hi = n
		}
		shards = append(shards, Shard{Index: len(shards), Lo: base + lo, Hi: base + hi})
	}
	return shards
}

// PanicError wraps a panic recovered from a worker, carrying the shard
// it died in and the worker's stack trace.
type PanicError struct {
	Shard Shard
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: panic in shard %d [%d,%d): %v", e.Shard.Index, e.Shard.Lo, e.Shard.Hi, e.Value)
}

// Unwrap exposes an error panic value to errors.Is/As, so a nested
// stage's re-raised cancellation still matches context.Canceled.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Run shards [0, n) and executes fn once per shard. With one worker
// the shards run inline in order; otherwise they are queued in order
// to a bounded pool. Run returns the error (or captured panic) from
// the lowest-indexed failing shard, so the reported failure does not
// depend on scheduling. Remaining shards are abandoned after the
// first failure or when opt.Ctx is cancelled.
func Run(opt Options, n int, fn func(Shard) error) error {
	return RunAt(opt, 0, n, fn)
}

// RunAt is Run over the global index range [base, base+n): the shard
// layout is the same pure function of n as Run's, but each shard's
// Lo/Hi carry the global offset. It is the chunk-granular entry point
// for streaming stages that process a window of a larger logical input.
func RunAt(opt Options, base, n int, fn func(Shard) error) error {
	shards := ShardsAt(base, n, opt.ShardSize)
	workers := opt.WorkerCount()
	if workers > len(shards) {
		workers = len(shards)
	}
	opt.Metrics.observeStart(workers, len(shards))
	if len(shards) == 0 {
		return ctxErr(opt.Ctx)
	}

	if workers <= 1 {
		for _, sh := range shards {
			if err := ctxErr(opt.Ctx); err != nil {
				return err
			}
			if err := runShard(sh, fn); err != nil {
				return err
			}
		}
		return nil
	}

	type job struct {
		shard    Shard
		enqueued time.Time
	}
	var (
		jobs = make(chan job)
		stop = make(chan struct{}) // closed on first failure or cancel
		once sync.Once
		wg   sync.WaitGroup

		mu       sync.Mutex
		firstErr error
		errShard = len(shards) // shard index of firstErr
	)
	fail := func(sh Shard, err error) {
		mu.Lock()
		if sh.Index < errShard {
			firstErr, errShard = err, sh.Index
		}
		mu.Unlock()
		once.Do(func() { close(stop) })
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				opt.Metrics.observeQueueWait(time.Since(j.enqueued))
				if err := runShard(j.shard, fn); err != nil {
					fail(j.shard, err)
				}
			}
		}()
	}

	var done <-chan struct{}
	if opt.Ctx != nil {
		done = opt.Ctx.Done()
	}
feed:
	for _, sh := range shards {
		select {
		case jobs <- job{shard: sh, enqueued: time.Now()}:
		case <-stop:
			break feed
		case <-done:
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctxErr(opt.Ctx)
}

// runShard executes fn on one shard, converting a panic into a
// *PanicError that carries the worker's stack.
func runShard(sh Shard, fn func(Shard) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Shard: sh, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(sh)
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// MapShards runs fn once per shard of [0, n) and concatenates the
// per-shard slices in shard order. Each shard's result lands in its
// layout position, so output order is independent of scheduling.
func MapShards[R any](opt Options, n int, fn func(Shard) ([]R, error)) ([]R, error) {
	shards := Shards(n, opt.ShardSize)
	outs := make([][]R, len(shards))
	err := Run(opt, n, func(sh Shard) error {
		rs, err := fn(sh)
		if err != nil {
			return err
		}
		outs[sh.Index] = rs
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, rs := range outs {
		total += len(rs)
	}
	merged := make([]R, 0, total)
	for _, rs := range outs {
		merged = append(merged, rs...)
	}
	return merged, nil
}

// Map applies fn to every item of in, preserving input order. Workers
// write disjoint index ranges of the output, so no merge is needed.
func Map[T, R any](opt Options, in []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	err := Run(opt, len(in), func(sh Shard) error {
		for i := sh.Lo; i < sh.Hi; i++ {
			r, err := fn(i, in[i])
			if err != nil {
				return err
			}
			out[i] = r
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// QueueWaitBucketsMs suits shard queue waits: sub-microsecond handoffs
// on an idle pool up to tens of milliseconds behind a long stage.
var QueueWaitBucketsMs = []float64{0.001, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50}

// Metrics reports a stage's fan-out shape into a telemetry registry
// and, when a tracer is attached, into whatever stage span covers the
// run. A nil *Metrics (and nil instruments inside) is a no-op,
// matching the registry's conventions.
type Metrics struct {
	Workers     *telemetry.Gauge     // workers used by the last run
	Shards      *telemetry.Gauge     // shards in the last run's layout
	QueueWaitMs *telemetry.Histogram // per-shard wait from enqueue to pickup
	// Tracer, when non-nil, charges the pool's fan-out shape to the
	// innermost open span as span stats: par.workers (max across runs),
	// par.runs and par.shards (accumulated), and par.queue_wait_ms
	// (total shard queue delay). The stats ride into the flame summary
	// and the Chrome trace export.
	Tracer *telemetry.Tracer
}

// NewMetrics registers the stage's instruments as
// parallel.<stage>.{workers,shards,queue_wait_ms}. A nil registry
// yields nil Metrics.
func NewMetrics(r *telemetry.Registry, stage string) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Workers:     r.Gauge("parallel." + stage + ".workers"),
		Shards:      r.Gauge("parallel." + stage + ".shards"),
		QueueWaitMs: r.Histogram("parallel."+stage+".queue_wait_ms", QueueWaitBucketsMs),
	}
}

// WithSpans attaches a tracer so the pool's runs feed span stats; it
// returns m for call chaining and is nil-safe on both sides.
func (m *Metrics) WithSpans(tr *telemetry.Tracer) *Metrics {
	if m == nil {
		return nil
	}
	m.Tracer = tr
	return m
}

func (m *Metrics) observeStart(workers, shards int) {
	if m == nil {
		return
	}
	m.Workers.Set(int64(workers))
	m.Shards.Set(int64(shards))
	if sp := m.Tracer.Current(); sp != nil {
		sp.MaxStat("par.workers", float64(workers))
		sp.AddStat("par.runs", 1)
		sp.AddStat("par.shards", float64(shards))
	}
}

func (m *Metrics) observeQueueWait(d time.Duration) {
	if m == nil {
		return
	}
	m.QueueWaitMs.Observe(float64(d) / float64(time.Millisecond))
	m.Tracer.Current().AddStat("par.queue_wait_ms", float64(d)/float64(time.Millisecond))
}
