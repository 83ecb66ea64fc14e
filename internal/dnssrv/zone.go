// Package dnssrv implements the DNS serving and resolution layer of the
// simulated Internet: authoritative zones, a server that speaks the
// dnswire format over the simnet fabric, a resolver that asks the
// authoritative servers the way the study's dig calls did (recursion
// off, nothing cached), and zone transfers (AXFR) — the first step of
// the paper's subdomain discovery pipeline.
package dnssrv

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
)

// DynamicFunc computes answer records per query, letting a zone give
// source-dependent answers (geo load balancing, Azure Traffic Manager)
// or rotate record order (ELB round-robin DNS).
type DynamicFunc func(src netaddr.IP, qtype dnswire.Type) []dnswire.RR

// Zone holds the authoritative data for one origin.
type Zone struct {
	Origin    string
	SOA       dnswire.SOAData
	AllowAXFR bool

	mu      sync.RWMutex
	records map[string][]dnswire.RR
	dynamic map[string]DynamicFunc
}

// NewZone creates an empty zone for origin with a default SOA.
func NewZone(origin string) *Zone {
	origin = dnswire.CanonicalName(origin)
	return &Zone{
		Origin: origin,
		SOA: dnswire.SOAData{
			MName: "ns1." + origin, RName: "hostmaster." + origin,
			Serial: 2013020601, Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 300,
		},
		records: make(map[string][]dnswire.RR),
		dynamic: make(map[string]DynamicFunc),
	}
}

// contains reports whether name falls under the zone's origin.
func (z *Zone) contains(name string) bool {
	name = dnswire.CanonicalName(name)
	return name == z.Origin || strings.HasSuffix(name, "."+z.Origin)
}

// Add appends static records. Record names must be inside the zone.
func (z *Zone) Add(rrs ...dnswire.RR) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	for _, r := range rrs {
		name := dnswire.CanonicalName(r.Name)
		if !z.contains(name) {
			return fmt.Errorf("dnssrv: %q outside zone %q", name, z.Origin)
		}
		r.Name = name
		if r.Class == 0 {
			r.Class = dnswire.ClassIN
		}
		z.records[name] = append(z.records[name], r)
	}
	return nil
}

// MustAdd is Add that panics on error; for generator code.
func (z *Zone) MustAdd(rrs ...dnswire.RR) {
	if err := z.Add(rrs...); err != nil {
		panic(err)
	}
}

// SetDynamic installs fn as the answer source for name, overriding any
// static records.
func (z *Zone) SetDynamic(name string, fn DynamicFunc) {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.dynamic[dnswire.CanonicalName(name)] = fn
}

// Remove deletes every record — static and dynamic — owned by name.
// Unknown names are a no-op. Streaming world generation uses it to
// return provider-zone entries (ELB rotations, CDN edge names, PaaS
// CNAMEs) once a released domain chunk no longer needs them.
func (z *Zone) Remove(name string) {
	z.mu.Lock()
	defer z.mu.Unlock()
	name = dnswire.CanonicalName(name)
	delete(z.records, name)
	delete(z.dynamic, name)
}

// Names returns all record owner names, sorted; dynamic names included.
func (z *Zone) Names() []string {
	z.mu.RLock()
	defer z.mu.RUnlock()
	seen := make(map[string]bool, len(z.records)+len(z.dynamic))
	for n := range z.records {
		seen[n] = true
	}
	for n := range z.dynamic {
		seen[n] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// matches reports whether a record of type rt answers a query of type qt.
func matches(rt, qt dnswire.Type) bool {
	return qt == dnswire.TypeANY || rt == qt
}

// Lookup resolves (name, qtype) inside the zone, chasing CNAME chains
// that stay within the zone. found is false when the name does not exist
// at all (NXDOMAIN); an existing name with no records of the requested
// type yields found=true with empty answers (NODATA).
func (z *Zone) Lookup(src netaddr.IP, name string, qtype dnswire.Type) (answers []dnswire.RR, found bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	name = dnswire.CanonicalName(name)
	for hops := 0; hops < 8; hops++ {
		var rrs []dnswire.RR
		if fn, ok := z.dynamic[name]; ok {
			rrs = fn(src, qtype)
			found = true
		} else if static, ok := z.records[name]; ok {
			rrs = static
			found = true
		} else {
			if hops == 0 {
				return nil, false
			}
			return answers, true // chain left the zone's data
		}
		var cname *dnswire.RR
		matched := false
		for i := range rrs {
			r := rrs[i]
			if matches(r.Type, qtype) {
				answers = append(answers, r)
				matched = true
			}
			if r.Type == dnswire.TypeCNAME {
				cname = &rrs[i]
			}
		}
		if matched || cname == nil || qtype == dnswire.TypeCNAME {
			return answers, true
		}
		// Name exists only as an alias: emit the CNAME and chase it.
		answers = append(answers, *cname)
		target := dnswire.CanonicalName(cname.Target)
		if !z.contains(target) {
			return answers, true
		}
		name = target
	}
	return answers, true
}

// Transfer returns the full zone contents for AXFR: the SOA record,
// every static and dynamic record (dynamic ones evaluated for src), and
// the closing SOA, per RFC 5936 framing conventions.
func (z *Zone) Transfer(src netaddr.IP) []dnswire.RR {
	soa := dnswire.RR{Name: z.Origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 3600, SOA: z.SOA}
	out := []dnswire.RR{soa}
	for _, name := range z.Names() {
		z.mu.RLock()
		if fn, ok := z.dynamic[name]; ok {
			z.mu.RUnlock()
			out = append(out, fn(src, dnswire.TypeANY)...)
			continue
		}
		rrs := append([]dnswire.RR(nil), z.records[name]...)
		z.mu.RUnlock()
		out = append(out, rrs...)
	}
	return append(out, soa)
}
