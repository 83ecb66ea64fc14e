package pcapio

import (
	"bytes"
	"io"
	"testing"
	"time"
)

// TestWriteBlockRecordMatchesWriteRecord checks the prefix-direct write
// path is byte-identical to materializing each record first, including
// snap-length truncation, the OrigLen < len(Data) default, a record the
// block truncated in place, and timestamps before the epoch.
func TestWriteBlockRecordMatchesWriteRecord(t *testing.T) {
	b := GetBlock()
	defer b.Release()
	recs := []Record{
		{Time: t0, Data: []byte("short"), OrigLen: 60},
		{Time: t0.Add(time.Microsecond), Data: bytes.Repeat([]byte{0xab}, 300), OrigLen: 1514}, // snaplen cut
		{Time: t0.Add(999999999 * time.Nanosecond), Data: bytes.Repeat([]byte{7}, 90)},         // OrigLen 0
		{Time: t0.Add(time.Second), Data: []byte("longer than its wire"), OrigLen: 4},          // OrigLen < len
		{Time: time.Unix(-3, 250_000_500), Data: []byte("pre-epoch")},
		{Time: t0, Data: nil},
		{Time: t0, Data: bytes.Repeat([]byte{1}, 40), OrigLen: 40}, // truncated in place below
	}
	for _, r := range recs {
		b.Append(r)
	}
	b.TruncateRecord(len(recs)-1, 10)

	var viaRecord, viaBlock bytes.Buffer
	wr, wb := NewWriter(&viaRecord, 128), NewWriter(&viaBlock, 128)
	for i := 0; i < b.Len(); i++ {
		if err := wr.WriteRecord(b.Record(i)); err != nil {
			t.Fatal(err)
		}
		if err := wb.WriteBlockRecord(b, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaRecord.Bytes(), viaBlock.Bytes()) {
		t.Fatalf("WriteBlockRecord differs from WriteRecord:\n%x\n%x", viaBlock.Bytes(), viaRecord.Bytes())
	}
}

// loopReader serves one pcap record forever, so read paths can be
// measured without running out of stream.
type loopReader struct {
	rec []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], l.rec[l.off:])
		n += c
		l.off = (l.off + c) % len(l.rec)
	}
	return n, nil
}

// TestRecordPathsAllocateNothing pins the per-record cost of the hot
// paths at zero allocations: the header scratch lives in the Writer and
// Reader, and block reads land in the block's buffer.
func TestRecordPathsAllocateNothing(t *testing.T) {
	data := bytes.Repeat([]byte{0x5a}, 90)
	w := NewWriter(io.Discard, 64)
	if got := testing.AllocsPerRun(1000, func() {
		if err := w.WriteRecord(Record{Time: t0, OrigLen: 1514, Data: data}); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("WriteRecord: %v allocs per record", got)
	}

	b := GetBlock()
	defer b.Release()
	b.Append(Record{Time: t0, OrigLen: 1514, Data: data})
	if got := testing.AllocsPerRun(1000, func() {
		if err := w.WriteBlockRecord(b, 0); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("WriteBlockRecord: %v allocs per record", got)
	}

	var one bytes.Buffer
	ow := NewWriter(&one, 0)
	if err := ow.WriteRecord(Record{Time: t0, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := ow.Flush(); err != nil {
		t.Fatal(err)
	}
	head, rec := one.Bytes()[:24], one.Bytes()[24:]
	rd, err := NewReader(io.MultiReader(bytes.NewReader(head), &loopReader{rec: rec}))
	if err != nil {
		t.Fatal(err)
	}
	rb := GetBlock()
	defer rb.Release()
	if _, err := rd.ReadBlock(rb, 64); err != nil { // grow the buffer once
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(1000, func() {
		rb.Reset()
		if n, err := rd.ReadBlock(rb, 64); n != 64 || err != nil {
			t.Fatalf("ReadBlock = %d, %v", n, err)
		}
	}); got != 0 {
		t.Errorf("ReadBlock: %v allocs per 64 records", got)
	}
}

// TestReleaseDropsOversizedBuffer checks the pool right-sizes: a block
// grown large and then used for a small batch is pooled without its
// big buffer, so one large batch cannot pin its capacity in every
// later small one. Poison-on-release still covers the old capacity.
func TestReleaseDropsOversizedBuffer(t *testing.T) {
	const big = 4 << 20
	b := GetBlock()
	b.AppendRecord(t0, big, big)
	b.Reset()
	b.AppendRecord(t0, 100, 100)
	old := b.buf[:cap(b.buf)]

	PoisonReleasedBlocks = true
	b.Release()
	PoisonReleasedBlocks = false
	for i, c := range old {
		if c != 0xDB {
			t.Fatalf("byte %d of the released capacity not poisoned: %#x", i, c)
		}
	}
	if cap(b.buf) != 0 {
		t.Fatalf("released block kept a %d-byte buffer after a %d-byte use", cap(old), 100+blockPrefixLen)
	}
	for i := 0; i < 8; i++ {
		if g := GetBlock(); cap(g.buf) >= big {
			t.Fatalf("pool returned a block with a %d-byte buffer", cap(g.buf))
		}
	}

	// A buffer its last use filled is kept.
	k := GetBlock()
	k.AppendRecord(t0, 1<<20, 1<<20)
	kept := cap(k.buf)
	k.Release()
	if cap(k.buf) != kept {
		t.Fatalf("well-used buffer dropped: cap %d -> %d", kept, cap(k.buf))
	}
}

// TestGrowReservesWholeBudget: after Grow, appending the reserved
// number of records and captured bytes never reallocates the block.
func TestGrowReservesWholeBudget(t *testing.T) {
	var b Block
	b.Grow(100, 100*90)
	buf, offs := cap(b.buf), cap(b.offs)
	for i := 0; i < 100; i++ {
		b.AppendRecord(t0, 1514, 90)
	}
	if cap(b.buf) != buf || cap(b.offs) != offs {
		t.Fatalf("appends within the budget regrew the block: buf cap %d → %d, offs cap %d → %d",
			buf, cap(b.buf), offs, cap(b.offs))
	}
}
