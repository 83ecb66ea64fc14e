package dnswire

import (
	"reflect"
	"strings"
	"testing"

	"cloudscope/internal/netaddr"
)

// fuzzSeeds are the round-trip tests' messages in wire form: a query,
// a CNAME chain with authority and additional sections, a compressed
// multi-answer reply, SOA, long TXT, NXDOMAIN, and an AXFR-style
// many-record message.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	resp := NewQuery(7, "a.example.com", TypeA).Reply()
	resp.Header.Authoritative, resp.Header.RecursionAvailable = true, true
	resp.Answers = []RR{
		{Name: "a.example.com", Type: TypeCNAME, Class: ClassIN, TTL: 300, Target: "lb-1.elb.amazonaws.com"},
		{Name: "lb-1.elb.amazonaws.com", Type: TypeA, Class: ClassIN, TTL: 60, IP: netaddr.MustParseIP("54.230.1.9")},
	}
	resp.Authority = []RR{{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 3600, Target: "ns1.example.com"}}
	resp.Additional = []RR{{Name: "ns1.example.com", Type: TypeA, Class: ClassIN, TTL: 3600, IP: netaddr.MustParseIP("9.9.9.9")}}

	compressed := NewQuery(1, "host.example.com", TypeA).Reply()
	for i := 0; i < 10; i++ {
		compressed.Answers = append(compressed.Answers, RR{Name: "host.example.com", Type: TypeA, Class: ClassIN, TTL: 60, IP: netaddr.IP(0x0a000000 + uint32(i))})
	}

	soa := NewQuery(2, "example.com", TypeSOA).Reply()
	soa.Answers = []RR{{Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 3600, SOA: SOAData{
		MName: "ns1.example.com", RName: "hostmaster.example.com",
		Serial: 2013032701, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
	}}}

	txt := NewQuery(3, "t.example.com", TypeTXT).Reply()
	txt.Answers = []RR{{Name: "t.example.com", Type: TypeTXT, Class: ClassIN, TTL: 60, Text: strings.Repeat("x", 600)}}

	nx := NewQuery(9, "nope.example.com", TypeA).Reply()
	nx.Header.RCode = RCodeNXDomain

	axfr := NewQuery(11, "example.com", TypeAXFR).Reply()
	for i := 0; i < 50; i++ {
		axfr.Answers = append(axfr.Answers, RR{Name: "h" + strings.Repeat("x", i%5) + ".example.com", Type: TypeA, Class: ClassIN, TTL: 60, IP: netaddr.IP(i)})
	}

	var seeds [][]byte
	for _, m := range []*Message{NewQuery(0x1234, "WWW.Example.COM.", TypeA), resp, compressed, soa, txt, nx, axfr} {
		buf, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, buf)
	}
	return seeds
}

// FuzzUnpack: Unpack never panics, whatever the bytes.
func FuzzUnpack(f *testing.F) {
	f.Add([]byte{})
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Unpack(data)
	})
}

// FuzzPackUnpack: a message Unpack accepts either fails Pack or
// survives Pack→Unpack unchanged. Pack writes every name in canonical
// form (DNS names are case-insensitive), so the comparison is against
// the decoded message with its names canonicalized.
func FuzzPackUnpack(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	// A question whose one wire label is "a..": its canonical name
	// "a." ends in an empty label, which Pack must reject rather than
	// drop (dropping it decodes back as "a").
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'a', '.', '.', 0, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		buf, err := m.Pack()
		if err != nil {
			return
		}
		got, err := Unpack(buf)
		if err != nil {
			t.Fatalf("Unpack rejects Pack's own output: %v\nmessage: %+v", err, m)
		}
		want := canonicalMessage(m)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Pack→Unpack changed the message:\n got %+v\nwant %+v", got, want)
		}
	})
}

// canonicalMessage returns a copy of m with every name in the
// canonical form Pack writes.
func canonicalMessage(m *Message) *Message {
	c := *m
	c.Questions = append([]Question(nil), m.Questions...)
	for i := range c.Questions {
		c.Questions[i].Name = CanonicalName(c.Questions[i].Name)
	}
	for _, sec := range []*[]RR{&c.Answers, &c.Authority, &c.Additional} {
		rrs := append([]RR(nil), *sec...)
		for i := range rrs {
			r := &rrs[i]
			r.Name = CanonicalName(r.Name)
			r.Target = CanonicalName(r.Target)
			r.SOA.MName = CanonicalName(r.SOA.MName)
			r.SOA.RName = CanonicalName(r.SOA.RName)
		}
		*sec = rrs
	}
	return &c
}
