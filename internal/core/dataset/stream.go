package dataset

import (
	"bufio"
	"container/heap"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cloudscope/internal/core/dataset/diskfmt"
	"cloudscope/internal/dnssrv"
)

// StreamConfig parameterizes a spill-to-disk streaming build.
type StreamConfig struct {
	Config
	// Total is the full campaign's domain count across all chunks. The
	// pipeline's rank-indexed knobs (brute-force resolver assignment,
	// chaos phase) are functions of a domain's global index out of
	// Total, which is how chunked and whole-list scans stay identical.
	Total int
	// SpillDir is the directory per-chunk spill files are created
	// under (inside a fresh temp subdirectory); "" uses os.TempDir().
	SpillDir string
}

// StreamBuilder runs the discovery pipeline incrementally: each
// AddChunk scans one rank-contiguous window of the list and spills the
// rendered partial dataset to disk in diskfmt, and Finish k-way merges
// the sorted spill files into the text format. Peak memory is one
// chunk's scan plus the merge readers — never the whole dataset — and
// the output is byte-identical to Build + WriteTo at every worker
// count and chunk size (the per-stage sha256 goldens hold it there).
type StreamBuilder struct {
	cfg      StreamConfig
	brute    []*dnssrv.Resolver
	vantages []*dnssrv.Resolver
	start    time.Time
	dir      string   // temp spill dir; "" once cleaned up
	files    []string // one sorted spill file per chunk
	next     int      // global index of the next chunk's first domain
	stats    Stats
}

// NewStreamBuilder prepares a streaming build. The caller must Close
// (or Finish) it, or spill files leak until the OS clears TempDir.
func NewStreamBuilder(cfg StreamConfig) (*StreamBuilder, error) {
	cfg.Config.normalize()
	if cfg.Total <= 0 {
		return nil, fmt.Errorf("dataset: StreamConfig.Total must be positive")
	}
	if cfg.SpillDir != "" {
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("dataset: creating spill dir: %w", err)
		}
	}
	dir, err := os.MkdirTemp(cfg.SpillDir, "cloudscope-spill-*")
	if err != nil {
		return nil, fmt.Errorf("dataset: creating spill dir: %w", err)
	}
	return &StreamBuilder{
		cfg:      cfg,
		brute:    resolverPool(cfg.Config, bruteNodes),
		vantages: resolverPool(cfg.Config, cfg.Vantages),
		start:    cfg.Fabric.Clock().Now(),
		dir:      dir,
	}, nil
}

// Stats returns the campaign totals accumulated so far; final after
// Finish.
func (b *StreamBuilder) Stats() Stats { return b.stats }

// AddChunk scans the next len(names) domains of the ranked list (names
// must continue exactly where the previous chunk stopped) and spills
// their rendered partial dataset. Scans run in parallel under the
// Config's Par; the spill file is written sorted, so Finish can
// stream-merge. On error (including cancellation via Par.Ctx and
// worker panics, which surface as *parallel.PanicError) the builder is
// closed and its spill files are already removed.
func (b *StreamBuilder) AddChunk(names []string) error {
	if b.dir == "" {
		return fmt.Errorf("dataset: AddChunk on a closed builder")
	}
	if len(names) == 0 {
		return nil
	}
	if b.next+len(names) > b.cfg.Total {
		b.Close()
		return fmt.Errorf("dataset: chunk overruns Total (%d + %d > %d)", b.next, len(names), b.cfg.Total)
	}
	results, err := scan(b.cfg.Config, b.brute, b.vantages, names, b.next, b.cfg.Total)
	if err != nil {
		b.Close()
		return err
	}
	b.next += len(names)

	recs := make([]diskfmt.Record, 0, 2*len(results))
	for _, r := range results {
		b.stats.add(r)
		recs = append(recs, diskfmt.Record{Tag: diskfmt.TagDomain, Key: r.summary.Domain, Payload: []byte(renderDomainLine(r.summary))})
		for _, o := range r.obs {
			recs = append(recs, diskfmt.Record{Tag: diskfmt.TagSub, Key: o.FQDN, Payload: []byte(renderObservation(o))})
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Less(recs[j]) })

	path := filepath.Join(b.dir, fmt.Sprintf("chunk-%06d.csd", len(b.files)))
	if err := writeSpill(path, recs); err != nil {
		b.Close()
		return err
	}
	b.files = append(b.files, path)
	return nil
}

func writeSpill(path string, recs []diskfmt.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: creating spill file: %w", err)
	}
	w, err := diskfmt.NewWriter(f)
	if err == nil {
		for _, r := range recs {
			if err = w.Write(r); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("dataset: writing spill file: %w", err)
	}
	return nil
}

// Finish merges the spill files into w as the text format — header,
// sorted D lines, sorted S blocks — byte-identical to Build+WriteTo,
// then removes the spill directory. The builder is spent afterwards.
func (b *StreamBuilder) Finish(w io.Writer) (Stats, error) {
	defer b.Close()
	b.stats.SerialProbeTime = b.cfg.Fabric.Clock().Now().Sub(b.start)

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(renderHeader(b.stats)); err != nil {
		return b.stats, err
	}
	var mh mergeHeap
	for _, path := range b.files {
		f, err := os.Open(path)
		if err != nil {
			closeSources(mh)
			return b.stats, fmt.Errorf("dataset: reopening spill file: %w", err)
		}
		rd, err := diskfmt.NewReader(f)
		if err != nil {
			f.Close()
			closeSources(mh)
			return b.stats, err
		}
		src := &mergeSource{f: f, rd: rd}
		ok, err := src.advance()
		if err != nil {
			f.Close()
			closeSources(mh)
			return b.stats, err
		}
		if ok {
			mh = append(mh, src)
		} else {
			f.Close()
		}
	}
	heap.Init(&mh)
	// Every key is globally unique (domains are unique; FQDNs embed
	// their domain), so the heap order is total and the merge is a
	// single pass of byte concatenation.
	for mh.Len() > 0 {
		src := mh[0]
		if _, err := bw.Write(src.cur.Payload); err != nil {
			closeSources(mh)
			return b.stats, err
		}
		ok, err := src.advance()
		switch {
		case err != nil:
			closeSources(mh)
			return b.stats, err
		case ok:
			heap.Fix(&mh, 0)
		default:
			src.f.Close()
			heap.Pop(&mh)
		}
	}
	return b.stats, bw.Flush()
}

// Close removes the spill directory and every file in it. Idempotent;
// safe to defer alongside Finish for cancellation and panic paths.
func (b *StreamBuilder) Close() error {
	if b.dir == "" {
		return nil
	}
	err := os.RemoveAll(b.dir)
	b.dir = ""
	b.files = nil
	return err
}

// mergeSource is one spill file being merged.
type mergeSource struct {
	f   *os.File
	rd  *diskfmt.Reader
	cur diskfmt.Record
}

// advance loads the source's next record; ok=false on clean EOF.
func (s *mergeSource) advance() (ok bool, err error) {
	rec, err := s.rd.Next()
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	s.cur = rec
	return true, nil
}

func closeSources(srcs []*mergeSource) {
	for _, s := range srcs {
		s.f.Close()
	}
}

// mergeHeap is a min-heap of spill sources by current record order.
type mergeHeap []*mergeSource

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return h[i].cur.Less(h[j].cur) }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(*mergeSource)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
