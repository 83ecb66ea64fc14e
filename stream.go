package cloudscope

import (
	"io"

	"cloudscope/internal/core/dataset"
	"cloudscope/internal/deploy"
	"cloudscope/internal/parallel"
)

// StreamDataset runs the full bounded-memory data path: the world is
// generated chunk-by-chunk (deploy.GenerateStream), each chunk is
// scanned by the §2.1 discovery pipeline and then released back to the
// allocators, and the per-chunk partial datasets spill to disk and
// k-way merge into out as the text dataset format. The bytes written
// are identical to NewStudy(cfg).Dataset().WriteTo(out) at every
// worker count and chunk size — only the peak memory differs: one
// chunk's worth of world plus the merge readers instead of the whole
// 1M-domain world.
//
// chunkSize <= 0 generates the world in a single chunk (bounded only
// by the world itself); spillDir "" spills under os.TempDir(). The
// streaming path runs without telemetry or chaos — those need the
// memoized Study; callers wanting a hardened or instrumented crawl use
// NewStudy at a size that fits in memory.
func StreamDataset(cfg Config, chunkSize int, spillDir string, out io.Writer) (dataset.Stats, error) {
	if err := cfg.Validate(); err != nil {
		return dataset.Stats{}, err
	}
	if cfg.Chaos != nil || cfg.ChaosReplay != nil {
		return dataset.Stats{}, &ValidationError{Fields: []*FieldError{{
			Field:  "Chaos",
			Value:  "<scenario>",
			Reason: "the streaming data path does not run under chaos; use NewStudy",
		}}}
	}
	cfg = cfg.withDefaults()

	ws := deploy.GenerateStream(deploy.Config{Seed: cfg.Seed, NumDomains: cfg.Domains, Par: parallel.Options{Workers: cfg.Workers}}, chunkSize)
	w := ws.World()

	sb, err := dataset.NewStreamBuilder(dataset.StreamConfig{
		Config: dataset.Config{
			Fabric:   w.Fabric,
			Registry: w.Registry,
			Ranges:   w.Ranges,
			Vantages: cfg.Vantages,
			Par:      parallel.Options{Workers: cfg.Workers},
		},
		Total:    cfg.Domains,
		SpillDir: spillDir,
	})
	if err != nil {
		return dataset.Stats{}, err
	}
	defer sb.Close()

	names := make([]string, 0, chunkSize)
	for {
		chunk, err := ws.Next()
		if err != nil {
			return sb.Stats(), err
		}
		if chunk == nil {
			break
		}
		names = names[:0]
		for _, d := range chunk.Domains {
			names = append(names, d.Name)
		}
		// Scan before Release: the chunk's zones must still answer.
		if err := sb.AddChunk(names); err != nil {
			return sb.Stats(), err
		}
		ws.Release(chunk)
	}
	return sb.Finish(out)
}
