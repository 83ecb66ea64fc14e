package dataset

import (
	"bufio"
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

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
// AddChunk scans one rank-contiguous window of the list and spills it
// to disk as a partial dataset in the text format (WriteTo's own
// output), and Finish k-way merges the sorted spill files record by
// record. Peak memory is one chunk's scan plus the merge readers —
// never the whole dataset — and the output is byte-identical to Build
// + WriteTo at every worker count and chunk size (the per-stage sha256
// goldens hold it there).
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
	for _, r := range results {
		b.stats.add(r)
	}
	part := newDataset(b.cfg.Ranges)
	part.fold(results)

	path := filepath.Join(b.dir, fmt.Sprintf("chunk-%06d.txt", len(b.files)))
	f, err := os.Create(path)
	if err == nil {
		_, err = part.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		b.Close()
		return fmt.Errorf("dataset: writing spill file: %w", err)
	}
	b.files = append(b.files, path)
	return nil
}

// Finish merges the spill files into w as the text format — header,
// sorted D lines, sorted S blocks — byte-identical to Build+WriteTo,
// then removes the spill directory. The builder is spent afterwards.
func (b *StreamBuilder) Finish(w io.Writer) (Stats, error) {
	defer b.Close()
	b.stats.SerialProbeTime = b.cfg.Fabric.Clock().Now().Sub(b.start)

	var mh mergeHeap
	defer func() {
		for _, src := range mh {
			src.f.Close()
		}
	}()
	for _, path := range b.files {
		f, err := os.Open(path)
		if err != nil {
			return b.stats, fmt.Errorf("dataset: reopening spill file: %w", err)
		}
		src := &spillReader{f: f, br: bufio.NewReader(f)}
		ok, err := src.advance()
		if ok {
			mh = append(mh, src)
		} else {
			f.Close()
		}
		if err != nil {
			return b.stats, err
		}
	}
	heap.Init(&mh)

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(renderHeader(b.stats)); err != nil {
		return b.stats, err
	}
	// Every key is globally unique (domains are unique; FQDNs embed
	// their domain), so the heap order is total and the merge is a
	// single pass of byte concatenation.
	for mh.Len() > 0 {
		src := mh[0]
		if _, err := bw.Write(src.cur); err != nil {
			return b.stats, err
		}
		ok, err := src.advance()
		switch {
		case err != nil:
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

// spillReader yields one spill file's records in file order: a D line,
// or an S line through its block's E line, with their newlines.
// Compared whole with bytes.Compare, records sort in the text format's
// (tag, key) order: 'D' < 'S', and the space after a key sorts below
// every byte of a DNS name, so a key sorts before its extensions.
type spillReader struct {
	f   *os.File
	br  *bufio.Reader
	cur []byte
}

// advance loads the next record into cur, skipping '#' lines. It
// returns ok=false at a clean end of file, and an error for a file
// that ends inside a line or an S block or holds a line WriteTo never
// writes.
func (s *spillReader) advance() (ok bool, err error) {
	s.cur = s.cur[:0]
	for {
		inBlock := len(s.cur) > 0
		line, err := s.readLine()
		switch {
		case err == io.EOF && !inBlock:
			return false, nil
		case err == io.EOF:
			return false, errors.New("dataset: spill file ends inside an S block")
		case err != nil:
			return false, fmt.Errorf("dataset: reading spill file: %w", err)
		case inBlock && string(line) == "E\n":
			return true, nil
		case inBlock && line[0] == 'R':
		case inBlock:
			return false, fmt.Errorf("dataset: spill file: %q inside an S block", line)
		case line[0] == '#':
			s.cur = s.cur[:0]
		case line[0] == 'D':
			return true, nil
		case line[0] != 'S':
			return false, fmt.Errorf("dataset: spill file: unexpected line %q", line)
		}
	}
}

// readLine appends the next whole line, newline included, to cur and
// returns it. It returns io.EOF only at a line boundary; a file that
// ends mid-line is an io.ErrUnexpectedEOF.
func (s *spillReader) readLine() ([]byte, error) {
	start := len(s.cur)
	for {
		frag, err := s.br.ReadSlice('\n')
		s.cur = append(s.cur, frag...)
		switch {
		case err == bufio.ErrBufferFull:
			continue
		case err == io.EOF && len(s.cur) > start:
			return nil, io.ErrUnexpectedEOF
		case err != nil:
			return nil, err
		}
		return s.cur[start:], nil
	}
}

// mergeHeap is a min-heap of spill sources by current record order.
type mergeHeap []*spillReader

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return bytes.Compare(h[i].cur, h[j].cur) < 0 }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(*spillReader)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
