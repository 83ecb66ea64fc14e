// Package dnswire implements the RFC 1035 DNS message format: header,
// question and resource-record sections, domain-name encoding with
// message compression, and the record types the study's probing needs
// (A, NS, CNAME, SOA, TXT) plus the AXFR and ANY query types.
//
// The codec is strict on decode (malformed messages return errors, and
// compression-pointer loops are rejected) and canonical on encode
// (names are lower-cased; compression is applied to every name).
package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"cloudscope/internal/netaddr"
)

// Type is a DNS RR or query type.
type Type uint16

// Record and query types used by the study.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypeTXT   Type = 16
	TypeAXFR  Type = 252 // query-only
	TypeANY   Type = 255 // query-only
)

// String returns the conventional mnemonic.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypeTXT:
		return "TXT"
	case TypeAXFR:
		return "AXFR"
	case TypeANY:
		return "ANY"
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class; only IN is used.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// RCode is a response code.
type RCode uint8

// Response codes (RFC 1035 §4.1.1, plus REFUSED).
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the conventional mnemonic.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	}
	return fmt.Sprintf("RCODE%d", uint8(r))
}

// Header is the fixed 12-byte DNS message header, with flags unpacked.
type Header struct {
	ID                 uint16
	Response           bool // QR
	Opcode             uint8
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	RCode              RCode
}

// Question is one entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// SOAData is the RDATA of an SOA record.
type SOAData struct {
	MName, RName                            string
	Serial, Refresh, Retry, Expire, Minimum uint32
}

// RR is a resource record. Exactly one of the data fields is meaningful,
// selected by Type: A→IP, NS/CNAME→Target, TXT→Text, SOA→SOA.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32

	IP     netaddr.IP // A
	Target string     // NS, CNAME
	Text   string     // TXT
	SOA    SOAData    // SOA
}

// String renders the record in zone-file style.
func (r RR) String() string {
	switch r.Type {
	case TypeA:
		return fmt.Sprintf("%s %d IN A %s", r.Name, r.TTL, r.IP)
	case TypeNS:
		return fmt.Sprintf("%s %d IN NS %s", r.Name, r.TTL, r.Target)
	case TypeCNAME:
		return fmt.Sprintf("%s %d IN CNAME %s", r.Name, r.TTL, r.Target)
	case TypeTXT:
		return fmt.Sprintf("%s %d IN TXT %q", r.Name, r.TTL, r.Text)
	case TypeSOA:
		return fmt.Sprintf("%s %d IN SOA %s %s %d", r.Name, r.TTL, r.SOA.MName, r.SOA.RName, r.SOA.Serial)
	}
	return fmt.Sprintf("%s %d IN %s", r.Name, r.TTL, r.Type)
}

// Message is a complete DNS message.
type Message struct {
	Header     Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// NewQuery builds a standard recursive query for (name, type).
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: CanonicalName(name), Type: t, Class: ClassIN}},
	}
}

// Reply builds a response skeleton mirroring q's ID and question.
func (m *Message) Reply() *Message {
	r := &Message{Header: Header{
		ID:               m.Header.ID,
		Response:         true,
		Opcode:           m.Header.Opcode,
		RecursionDesired: m.Header.RecursionDesired,
	}}
	r.Questions = append(r.Questions, m.Questions...)
	return r
}

// CanonicalName lower-cases a domain name and strips one trailing dot.
func CanonicalName(name string) string {
	name = strings.ToLower(name)
	return strings.TrimSuffix(name, ".")
}

// maxNameLen is the RFC 1035 limit on an encoded name.
const maxNameLen = 255

var (
	errShortMessage = errors.New("dnswire: truncated message")
	errBadName      = errors.New("dnswire: malformed domain name")
	errPointerLoop  = errors.New("dnswire: compression pointer loop")
)

// encoder carries compression state while packing a message.
type encoder struct {
	buf     []byte
	offsets map[string]int
}

func (e *encoder) uint16(v uint16) {
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

func (e *encoder) uint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// name appends a possibly-compressed encoding of a domain name.
func (e *encoder) name(name string) error {
	name = CanonicalName(name)
	// A dot left after canonicalization ends the name in an empty
	// label, which the label walk below would silently drop.
	if len(name)+1 > maxNameLen || strings.HasSuffix(name, ".") {
		return errBadName
	}
	for name != "" {
		if off, ok := e.offsets[name]; ok && off < 0x3fff {
			e.uint16(uint16(off) | 0xc000)
			return nil
		}
		if len(e.buf) < 0x3fff {
			e.offsets[name] = len(e.buf)
		}
		label := name
		if dot := strings.IndexByte(name, '.'); dot >= 0 {
			label, name = name[:dot], name[dot+1:]
		} else {
			name = ""
		}
		if label == "" || len(label) > 63 {
			return errBadName
		}
		e.buf = append(e.buf, byte(len(label)))
		e.buf = append(e.buf, label...)
	}
	e.buf = append(e.buf, 0)
	return nil
}

func (e *encoder) rr(r RR) error {
	if err := e.name(r.Name); err != nil {
		return err
	}
	e.uint16(uint16(r.Type))
	e.uint16(uint16(r.Class))
	e.uint32(r.TTL)
	lenAt := len(e.buf)
	e.uint16(0) // rdlength placeholder
	start := len(e.buf)
	switch r.Type {
	case TypeA:
		e.uint32(uint32(r.IP))
	case TypeNS, TypeCNAME:
		if err := e.name(r.Target); err != nil {
			return err
		}
	case TypeTXT:
		// Single character-string; long text split into 255-byte chunks.
		text := r.Text
		for len(text) > 255 {
			e.buf = append(e.buf, 255)
			e.buf = append(e.buf, text[:255]...)
			text = text[255:]
		}
		e.buf = append(e.buf, byte(len(text)))
		e.buf = append(e.buf, text...)
	case TypeSOA:
		if err := e.name(r.SOA.MName); err != nil {
			return err
		}
		if err := e.name(r.SOA.RName); err != nil {
			return err
		}
		e.uint32(r.SOA.Serial)
		e.uint32(r.SOA.Refresh)
		e.uint32(r.SOA.Retry)
		e.uint32(r.SOA.Expire)
		e.uint32(r.SOA.Minimum)
	default:
		return fmt.Errorf("dnswire: cannot encode RR type %s", r.Type)
	}
	rdlen := len(e.buf) - start
	if rdlen > 0xffff {
		return errors.New("dnswire: rdata too long")
	}
	binary.BigEndian.PutUint16(e.buf[lenAt:], uint16(rdlen))
	return nil
}

// Pack serializes the message to wire format.
func (m *Message) Pack() ([]byte, error) {
	e := &encoder{offsets: make(map[string]int)}
	var flags uint16
	h := m.Header
	if h.Response {
		flags |= 1 << 15
	}
	flags |= uint16(h.Opcode&0xf) << 11
	if h.Authoritative {
		flags |= 1 << 10
	}
	if h.Truncated {
		flags |= 1 << 9
	}
	if h.RecursionDesired {
		flags |= 1 << 8
	}
	if h.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(h.RCode) & 0xf
	e.uint16(h.ID)
	e.uint16(flags)
	e.uint16(uint16(len(m.Questions)))
	e.uint16(uint16(len(m.Answers)))
	e.uint16(uint16(len(m.Authority)))
	e.uint16(uint16(len(m.Additional)))
	for _, q := range m.Questions {
		if err := e.name(q.Name); err != nil {
			return nil, err
		}
		e.uint16(uint16(q.Type))
		e.uint16(uint16(q.Class))
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			if err := e.rr(r); err != nil {
				return nil, err
			}
		}
	}
	return e.buf, nil
}

// decoder carries state while unpacking.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) uint16() (uint16, error) {
	if d.off+2 > len(d.buf) {
		return 0, errShortMessage
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) uint32() (uint32, error) {
	if d.off+4 > len(d.buf) {
		return 0, errShortMessage
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

// name reads a possibly-compressed domain name starting at d.off.
func (d *decoder) name() (string, error) {
	s, next, err := readName(d.buf, d.off)
	if err != nil {
		return "", err
	}
	d.off = next
	return s, nil
}

// readName decodes a name at off, returning the name and the offset just
// past its in-place encoding (compression pointers are followed but do
// not advance the caller's position beyond the pointer itself).
func readName(buf []byte, off int) (string, int, error) {
	var sb strings.Builder
	next := -1 // offset after the first pointer, set once
	hops := 0
	for {
		if off >= len(buf) {
			return "", 0, errShortMessage
		}
		b := buf[off]
		switch {
		case b == 0:
			if next < 0 {
				next = off + 1
			}
			name := sb.String()
			if len(name) > maxNameLen {
				return "", 0, errBadName
			}
			return name, next, nil
		case b&0xc0 == 0xc0:
			if off+2 > len(buf) {
				return "", 0, errShortMessage
			}
			if next < 0 {
				next = off + 2
			}
			ptr := int(binary.BigEndian.Uint16(buf[off:]) & 0x3fff)
			if ptr >= off {
				return "", 0, errPointerLoop
			}
			hops++
			if hops > 32 {
				return "", 0, errPointerLoop
			}
			off = ptr
		case b&0xc0 != 0:
			return "", 0, errBadName
		default:
			l := int(b)
			if off+1+l > len(buf) {
				return "", 0, errShortMessage
			}
			if sb.Len() > 0 {
				sb.WriteByte('.')
			}
			sb.Write(buf[off+1 : off+1+l])
			off += 1 + l
			if sb.Len() > maxNameLen {
				return "", 0, errBadName
			}
		}
	}
}

func (d *decoder) rr() (RR, error) {
	var r RR
	name, err := d.name()
	if err != nil {
		return r, err
	}
	r.Name = name
	t, err := d.uint16()
	if err != nil {
		return r, err
	}
	r.Type = Type(t)
	c, err := d.uint16()
	if err != nil {
		return r, err
	}
	r.Class = Class(c)
	ttl, err := d.uint32()
	if err != nil {
		return r, err
	}
	r.TTL = ttl
	rdlen, err := d.uint16()
	if err != nil {
		return r, err
	}
	end := d.off + int(rdlen)
	if end > len(d.buf) {
		return r, errShortMessage
	}
	switch r.Type {
	case TypeA:
		if rdlen != 4 {
			return r, fmt.Errorf("dnswire: A record rdlength %d", rdlen)
		}
		v, _ := d.uint32()
		r.IP = netaddr.IP(v)
	case TypeNS, TypeCNAME:
		tgt, err := d.name()
		if err != nil {
			return r, err
		}
		r.Target = tgt
	case TypeTXT:
		var sb strings.Builder
		for d.off < end {
			l := int(d.buf[d.off])
			d.off++
			if d.off+l > end {
				return r, errShortMessage
			}
			sb.Write(d.buf[d.off : d.off+l])
			d.off += l
		}
		r.Text = sb.String()
	case TypeSOA:
		if r.SOA.MName, err = d.name(); err != nil {
			return r, err
		}
		if r.SOA.RName, err = d.name(); err != nil {
			return r, err
		}
		for _, p := range []*uint32{&r.SOA.Serial, &r.SOA.Refresh, &r.SOA.Retry, &r.SOA.Expire, &r.SOA.Minimum} {
			if *p, err = d.uint32(); err != nil {
				return r, err
			}
		}
	default:
		// Unknown RDATA is skipped, not an error: real resolvers must
		// tolerate types they do not understand.
		d.off = end
	}
	if d.off != end {
		return r, fmt.Errorf("dnswire: rdata length mismatch for %s", r.Type)
	}
	return r, nil
}

// Unpack parses a wire-format message.
func Unpack(buf []byte) (*Message, error) {
	d := &decoder{buf: buf}
	m := &Message{}
	id, err := d.uint16()
	if err != nil {
		return nil, err
	}
	flags, err := d.uint16()
	if err != nil {
		return nil, err
	}
	m.Header = Header{
		ID:                 id,
		Response:           flags&(1<<15) != 0,
		Opcode:             uint8(flags >> 11 & 0xf),
		Authoritative:      flags&(1<<10) != 0,
		Truncated:          flags&(1<<9) != 0,
		RecursionDesired:   flags&(1<<8) != 0,
		RecursionAvailable: flags&(1<<7) != 0,
		RCode:              RCode(flags & 0xf),
	}
	counts := make([]uint16, 4)
	for i := range counts {
		if counts[i], err = d.uint16(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < int(counts[0]); i++ {
		var q Question
		if q.Name, err = d.name(); err != nil {
			return nil, err
		}
		t, err := d.uint16()
		if err != nil {
			return nil, err
		}
		c, err := d.uint16()
		if err != nil {
			return nil, err
		}
		q.Type, q.Class = Type(t), Class(c)
		m.Questions = append(m.Questions, q)
	}
	for s, n := range []uint16{counts[1], counts[2], counts[3]} {
		for i := 0; i < int(n); i++ {
			r, err := d.rr()
			if err != nil {
				return nil, err
			}
			switch s {
			case 0:
				m.Answers = append(m.Answers, r)
			case 1:
				m.Authority = append(m.Authority, r)
			default:
				m.Additional = append(m.Additional, r)
			}
		}
	}
	return m, nil
}
