// Package pcapio reads and writes classic libpcap capture files
// (the tcpdump format the study's border capture was stored in):
// a 24-byte global header followed by per-packet record headers with
// second/microsecond timestamps, captured length, and original length.
//
// Snap-length semantics are preserved exactly: a record's OrigLen may
// exceed len(Data) (the capture truncated the packet), and analyzers
// must use OrigLen for volume accounting — as the paper's Bro pipeline
// did.
package pcapio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers for microsecond-resolution captures.
const (
	Magic        uint32 = 0xa1b2c3d4
	versionMajor uint16 = 2
	versionMinor uint16 = 4
)

// LinkTypeEthernet is the only link type cloudscope produces.
const LinkTypeEthernet uint32 = 1

// Record is one captured packet.
type Record struct {
	Time    time.Time
	OrigLen int    // length on the wire
	Data    []byte // captured bytes (≤ snaplen)
}

// Writer emits a pcap stream.
type Writer struct {
	w       *bufio.Writer
	snaplen int
	started bool
	hdr     [16]byte // record-header scratch; a local would escape through w.w
}

// NewWriter returns a Writer with the given snap length (0 means 65535).
func NewWriter(w io.Writer, snaplen int) *Writer {
	if snaplen <= 0 {
		snaplen = 65535
	}
	return &Writer{w: bufio.NewWriterSize(w, 1<<16), snaplen: snaplen}
}

// Snaplen returns the writer's snap length.
func (w *Writer) Snaplen() int { return w.snaplen }

func (w *Writer) writeHeader() error {
	var h [24]byte
	binary.LittleEndian.PutUint32(h[0:4], Magic)
	binary.LittleEndian.PutUint16(h[4:6], versionMajor)
	binary.LittleEndian.PutUint16(h[6:8], versionMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(h[16:20], uint32(w.snaplen))
	binary.LittleEndian.PutUint32(h[20:24], LinkTypeEthernet)
	_, err := w.w.Write(h[:])
	return err
}

// WriteRecord appends one packet, truncating Data to the snap length.
// OrigLen defaults to len(Data) when zero.
func (w *Writer) WriteRecord(r Record) error {
	return w.write(r.Time.Unix(), r.Time.Nanosecond(), r.OrigLen, r.Data)
}

// WriteBlockRecord appends record i of b straight from the block's
// prefix, byte-identical to WriteRecord(b.Record(i)) without the
// time.Time round trip.
func (w *Writer) WriteBlockRecord(b *Block, i int) error {
	nano := b.nano(i)
	sec := nano / 1e9
	if nano%1e9 < 0 {
		sec-- // floor, as time.Time.Unix does before the epoch
	}
	return w.write(sec, int(nano-sec*1e9), b.OrigLen(i), b.Data(i))
}

// write emits one record header (sec, nsec within the second) and its
// captured bytes.
func (w *Writer) write(sec int64, nsec, orig int, data []byte) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	if orig < len(data) {
		orig = len(data) // default: wire length is the full frame
	}
	if len(data) > w.snaplen {
		data = data[:w.snaplen]
	}
	h := w.hdr[:]
	binary.LittleEndian.PutUint32(h[0:4], uint32(sec))
	binary.LittleEndian.PutUint32(h[4:8], uint32(nsec/1000))
	binary.LittleEndian.PutUint32(h[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(h[12:16], uint32(orig))
	if _, err := w.w.Write(h); err != nil {
		return err
	}
	_, err := w.w.Write(data)
	return err
}

// Flush writes buffered data to the underlying writer. An empty capture
// still gets a valid global header.
func (w *Writer) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
		w.started = true
	}
	return w.w.Flush()
}

// Reader consumes a pcap stream.
type Reader struct {
	r        *bufio.Reader
	bigEnd   bool
	snaplen  int
	linkType uint32
	hdr      [16]byte // record-header scratch; a local would escape through r.r
}

// Errors returned by NewReader/Next/ReadBlock.
var (
	ErrBadMagic = errors.New("pcapio: bad magic")
	// ErrTruncated marks a stream that ended inside a record header or
	// body — a capture cut off mid-write. Both read paths (Next and
	// ReadBlock) wrap it identically, so errors.Is(err, ErrTruncated)
	// distinguishes a chopped capture from a malformed one.
	ErrTruncated = errors.New("pcapio: truncated capture")
)

// readErr wraps a mid-record read failure: an unexpected EOF becomes
// ErrTruncated (the stream ended inside a record), any other transport
// error passes through with context. Next and ReadBlock share it so
// both paths fail with identical error strings.
func readErr(what string, err error) error {
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s cut short: %v", ErrTruncated, what, err)
	}
	return fmt.Errorf("pcapio: %s: %w", what, err)
}

// maxSnaplen bounds the snap length NewReader accepts. tcpdump caps
// snaplen at 256 KiB; anything past 1 MiB is a forged header, and
// accepting it would let a 24-byte file demand multi-gigabyte record
// allocations (the per-record plausibility bound is snaplen-relative).
const maxSnaplen = 1 << 20

// NewReader parses the global header. Both byte orders are accepted.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var h [24]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return nil, fmt.Errorf("pcapio: global header: %w", err)
	}
	rd := &Reader{r: br}
	switch binary.LittleEndian.Uint32(h[0:4]) {
	case Magic:
	case 0xd4c3b2a1:
		rd.bigEnd = true
	default:
		return nil, ErrBadMagic
	}
	order := rd.order()
	rd.snaplen = int(order.Uint32(h[16:20]))
	rd.linkType = order.Uint32(h[20:24])
	if rd.snaplen > maxSnaplen {
		return nil, fmt.Errorf("pcapio: implausible snap length %d", rd.snaplen)
	}
	return rd, nil
}

func (r *Reader) order() binary.ByteOrder {
	if r.bigEnd {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// Snaplen returns the capture's snap length.
func (r *Reader) Snaplen() int { return r.snaplen }

// LinkType returns the capture's link type.
func (r *Reader) LinkType() uint32 { return r.linkType }

// Next returns the next record, or io.EOF at a clean end of stream.
func (r *Reader) Next() (Record, error) {
	nano, incl, orig, err := r.readHeader()
	if err != nil {
		return Record{}, err
	}
	data := make([]byte, incl)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Record{}, readErr("record body", err)
	}
	return Record{Time: time.Unix(0, nano).UTC(), OrigLen: orig, Data: data}, nil
}

// readHeader reads one record header: the timestamp in unix
// nanoseconds, the captured and the original length. It returns io.EOF
// only at a clean end of stream.
func (r *Reader) readHeader() (nano int64, incl, orig int, err error) {
	h := r.hdr[:]
	if _, err := io.ReadFull(r.r, h); err != nil {
		if err == io.EOF {
			return 0, 0, 0, io.EOF
		}
		return 0, 0, 0, readErr("record header", err)
	}
	order := r.order()
	sec := order.Uint32(h[0:4])
	usec := order.Uint32(h[4:8])
	incl = int(order.Uint32(h[8:12]))
	orig = int(order.Uint32(h[12:16]))
	if incl > r.snaplen+65535 {
		return 0, 0, 0, fmt.Errorf("pcapio: implausible captured length %d", incl)
	}
	return int64(sec)*1e9 + int64(usec)*1000, incl, orig, nil
}
