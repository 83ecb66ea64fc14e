package capture

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"cloudscope/internal/parallel"
	"cloudscope/internal/pcapio"
)

// TestAnalyzeRetainsNoPooledBuffers proves the analyzer's outputs own
// their memory: no FlowRecord field may alias a pooled block buffer
// after the block is released. Two independent mechanisms check it:
//
//  1. Poison-on-release: with pcapio.PoisonReleasedBlocks on, Release
//     scribbles 0xDB over every released buffer, so an extraction that
//     aliased block memory would have read garbage mid-analysis. The
//     generator runs under the same hook, pinning its release ordering
//     (blocks must outlive the write loop).
//  2. Mutate-after-put: after analysis completes, pooled blocks are
//     drained and overwritten through fresh reservations; a retained
//     alias in the finished Analysis would mutate under DeepEqual.
//
// Run under -race in `make check`, this doubles as the pool's
// concurrent get/release stress test.
func TestAnalyzeRetainsNoPooledBuffers(t *testing.T) {
	cfg := testCfg(600)
	raw, truth := genBytes(t, cfg)
	golden, err := AnalyzePar(bytes.NewReader(raw), capWorld.Ranges, parallel.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	pcapio.PoisonReleasedBlocks = true
	defer func() { pcapio.PoisonReleasedBlocks = false }()

	raw2, truth2 := genBytes(t, cfg)
	if !bytes.Equal(raw, raw2) {
		t.Error("generator output changed under poison-on-release: a block was released before its records were written")
	}
	if !reflect.DeepEqual(truth, truth2) {
		t.Error("ground truth changed under poison-on-release")
	}

	got, err := AnalyzePar(bytes.NewReader(raw), capWorld.Ranges, parallel.Options{Workers: 4, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, golden) {
		t.Fatal("analysis changed under poison-on-release: an output field aliased a released block")
	}

	// Mutate-after-put: scribble over recycled pool memory and re-check
	// the finished analysis deep-compares clean.
	for i := 0; i < 16; i++ {
		b := pcapio.GetBlock()
		for j := 0; j < 64; j++ {
			s := b.AppendRecord(time.Unix(0, 0), 0, 1024)
			for k := range s {
				s[k] = 0xEE
			}
		}
		b.Release()
	}
	if !reflect.DeepEqual(got, golden) {
		t.Fatal("analysis mutated after pool reuse: an output field aliased a pooled buffer")
	}
}
