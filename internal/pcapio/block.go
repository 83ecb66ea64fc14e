package pcapio

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// Block is a batch of packet records laid out over one contiguous,
// reusable buffer: each record is a fixed 16-byte prefix — unix
// nanoseconds, captured length, original length — followed by the
// captured bytes, with an offset index for O(1) random access. Blocks
// are the unit the capture hot path moves between pipeline shards:
// the generator fills one block per shard and the analyzer reads the
// pcap stream block-wise, so a million-packet capture costs a handful
// of buffer allocations instead of one per record.
//
// Blocks come from a sync.Pool (GetBlock/Release). Data returned by
// Data/Record aliases the block's buffer and is only valid until the
// block is released; callers that outlive the block must copy.
type Block struct {
	buf  []byte
	offs []int // offset of each record's prefix in buf
}

// blockPrefixLen is the per-record prefix: 8 bytes of unix nanoseconds,
// 4 of captured length, 4 of original (wire) length.
const blockPrefixLen = 16

// DefaultBlockRecords is the batch size ReadBlock uses when the caller
// passes no bound. Large enough that per-block overheads vanish, small
// enough that a shard of blocks is meaningful parallel work.
const DefaultBlockRecords = 2048

var blockPool = sync.Pool{New: func() any { return new(Block) }}

// PoisonReleasedBlocks is a test hook: when true, Release scribbles
// 0xDB over the block's entire buffer capacity before pooling it, so
// any consumer that wrongly retained a view into a released block reads
// garbage instead of silently working. Leak tests flip it on and assert
// analyzer outputs are unchanged; production code leaves it false.
var PoisonReleasedBlocks = false

// GetBlock returns an empty block from the pool, retaining whatever
// buffer capacity its previous life kept (see Release).
func GetBlock() *Block {
	b := blockPool.Get().(*Block)
	b.Reset()
	return b
}

// keepSlack is how far past twice its last use a released block's
// buffer may stay allocated.
const keepSlack = 64 << 10

// Release resets the block and returns it to the pool. The caller must
// not touch the block — or any Data view into it — afterwards.
//
// A buffer much larger than this use needed (more than 2×len + 64 KiB)
// is dropped rather than pooled, as fmt does for its printer pool:
// otherwise one large batch would ratchet every block in the shared
// pool up to its size, and small batches would pin that capacity.
func (b *Block) Release() {
	if PoisonReleasedBlocks {
		full := b.buf[:cap(b.buf)]
		for i := range full {
			full[i] = 0xDB
		}
	}
	if cap(b.buf) > 2*len(b.buf)+keepSlack {
		b.buf = nil
	}
	if cap(b.offs) > 2*len(b.offs)+keepSlack/8 {
		b.offs = nil
	}
	b.Reset()
	blockPool.Put(b)
}

// Reset empties the block, keeping its capacity.
func (b *Block) Reset() {
	b.buf = b.buf[:0]
	b.offs = b.offs[:0]
}

// Len returns the number of records in the block.
func (b *Block) Len() int { return len(b.offs) }

// Time returns record i's timestamp.
func (b *Block) Time(i int) time.Time {
	return time.Unix(0, b.nano(i)).UTC()
}

// nano returns record i's timestamp in unix nanoseconds.
func (b *Block) nano(i int) int64 {
	off := b.offs[i]
	return int64(binary.LittleEndian.Uint64(b.buf[off : off+8]))
}

// OrigLen returns record i's original (on-the-wire) length.
func (b *Block) OrigLen(i int) int {
	off := b.offs[i]
	return int(binary.LittleEndian.Uint32(b.buf[off+12 : off+16]))
}

// Data returns record i's captured bytes. The slice aliases the block's
// buffer: it is valid only until the block is released or reset.
func (b *Block) Data(i int) []byte {
	off := b.offs[i]
	n := int(binary.LittleEndian.Uint32(b.buf[off+8 : off+12]))
	return b.buf[off+blockPrefixLen : off+blockPrefixLen+n : off+blockPrefixLen+n]
}

// Record materializes record i as a Record whose Data aliases the
// block's buffer (valid until release).
func (b *Block) Record(i int) Record {
	return Record{Time: b.Time(i), OrigLen: b.OrigLen(i), Data: b.Data(i)}
}

// Grow reserves room for records more records carrying bytes more
// captured bytes in total, so appends within that budget do not
// reallocate. A writer that knows its volume up front sizes the block
// once instead of regrowing it record by record.
func (b *Block) Grow(records, bytes int) {
	b.buf = slices.Grow(b.buf, records*blockPrefixLen+bytes)
	b.offs = slices.Grow(b.offs, records)
}

// AppendRecord reserves a new record of n captured bytes with the given
// timestamp and wire length, returning the zeroed data slice for the
// caller to fill in place — the zero-copy write path frame builders
// serialize directly into.
func (b *Block) AppendRecord(t time.Time, origLen, n int) []byte {
	return b.appendRecord(t.UnixNano(), origLen, n)
}

func (b *Block) appendRecord(nano int64, origLen, n int) []byte {
	off := len(b.buf)
	b.buf = slices.Grow(b.buf, blockPrefixLen+n)[:off+blockPrefixLen+n]
	clear(b.buf[off:])
	binary.LittleEndian.PutUint64(b.buf[off:off+8], uint64(nano))
	binary.LittleEndian.PutUint32(b.buf[off+8:off+12], uint32(n))
	binary.LittleEndian.PutUint32(b.buf[off+12:off+16], uint32(origLen))
	b.offs = append(b.offs, off)
	return b.buf[off+blockPrefixLen : off+blockPrefixLen+n : off+blockPrefixLen+n]
}

// Append copies one record into the block.
func (b *Block) Append(r Record) {
	copy(b.AppendRecord(r.Time, r.OrigLen, len(r.Data)), r.Data)
}

// TruncateRecord shrinks record i's captured length to n bytes; its
// original (wire) length is untouched, so the record reads back as a
// short frame — a capture that cut the packet off mid-write. n must
// not exceed the record's current captured length. The bytes past the
// cut stay reserved in the buffer and are simply never part of the
// record again.
func (b *Block) TruncateRecord(i, n int) {
	off := b.offs[i]
	cur := int(binary.LittleEndian.Uint32(b.buf[off+8 : off+12]))
	if n < 0 || n > cur {
		panic(fmt.Sprintf("pcapio: TruncateRecord(%d, %d) outside captured length %d", i, n, cur))
	}
	binary.LittleEndian.PutUint32(b.buf[off+8:off+12], uint32(n))
}

// ReadBlock reads up to maxRecords records from the stream into b,
// appending to whatever the block already holds, and returns how many
// were read. It reports io.EOF at a clean end of stream (possibly
// alongside a non-zero count); any other error means a malformed or
// truncated record. Record bytes land directly in the block's buffer —
// no per-record allocation — and are subject to the same implausible-
// length check as Next.
func (r *Reader) ReadBlock(b *Block, maxRecords int) (int, error) {
	if maxRecords <= 0 {
		maxRecords = DefaultBlockRecords
	}
	n := 0
	for n < maxRecords {
		nano, incl, orig, err := r.readHeader()
		if err != nil {
			return n, err
		}
		if _, err := io.ReadFull(r.r, b.appendRecord(nano, orig, incl)); err != nil {
			return n, readErr("record body", err)
		}
		n++
	}
	return n, nil
}
