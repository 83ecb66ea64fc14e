package dnssrv

import (
	"strings"
	"sync"

	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/simnet"
)

// Server is an authoritative DNS server hosting one or more zones. It
// implements simnet.Handler; register it on a fabric at the server's
// public IPs to make it reachable.
type Server struct {
	mu    sync.RWMutex
	zones map[string]*Zone
}

// NewServer returns a server hosting zones.
func NewServer(zones ...*Zone) *Server {
	s := &Server{zones: make(map[string]*Zone)}
	for _, z := range zones {
		s.AddZone(z)
	}
	return s
}

// AddZone adds or replaces a zone by origin.
func (s *Server) AddZone(z *Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Origin] = z
}

// RemoveZone drops the zone with the given origin; unknown origins are
// a no-op. Streaming world generation uses it to detach released
// domains' zones from shared hosting servers.
func (s *Server) RemoveZone(origin string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.zones, dnswire.CanonicalName(origin))
}

// findZone returns the zone with the longest origin suffix-matching name.
func (s *Server) findZone(name string) *Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	name = dnswire.CanonicalName(name)
	var best *Zone
	for origin, z := range s.zones {
		if name == origin || strings.HasSuffix(name, "."+origin) {
			if best == nil || len(origin) > len(best.Origin) {
				best = z
			}
		}
	}
	return best
}

// ServePacket implements simnet.Handler: it parses payload as a DNS
// query and returns the packed authoritative response. Malformed
// payloads are dropped (nil), like a real server ignoring junk.
func (s *Server) ServePacket(src, dst netaddr.IP, payload []byte) []byte {
	q, err := dnswire.Unpack(payload)
	if err != nil || q.Header.Response || len(q.Questions) != 1 {
		return nil
	}
	resp := s.respond(src, q)
	buf, err := resp.Pack()
	if err != nil {
		return nil
	}
	return buf
}

func (s *Server) respond(src netaddr.IP, q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	question := q.Questions[0]
	z := s.findZone(question.Name)
	if z == nil {
		resp.Header.RCode = dnswire.RCodeRefused
		return resp
	}
	resp.Header.Authoritative = true
	switch question.Type {
	case dnswire.TypeAXFR:
		if !z.AllowAXFR {
			resp.Header.RCode = dnswire.RCodeRefused
			return resp
		}
		resp.Answers = z.Transfer(src)
	case dnswire.TypeSOA:
		if dnswire.CanonicalName(question.Name) == z.Origin {
			resp.Answers = []dnswire.RR{{Name: z.Origin, Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: 3600, SOA: z.SOA}}
			return resp
		}
		fallthrough
	default:
		answers, found := z.Lookup(src, question.Name, question.Type)
		if !found {
			resp.Header.RCode = dnswire.RCodeNXDomain
			return resp
		}
		resp.Answers = answers
	}
	return resp
}

// Registry maps zone origins to the IPs of their authoritative servers,
// playing the role of the TLD delegation tree: the resolver asks it
// "who is authoritative for the longest suffix of this name".
type Registry struct {
	mu          sync.RWMutex
	delegations map[string][]netaddr.IP
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{delegations: make(map[string][]netaddr.IP)}
}

// Delegate records that origin is served by the given name-server IPs,
// replacing any previous delegation.
func (r *Registry) Delegate(origin string, ips ...netaddr.IP) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.delegations[dnswire.CanonicalName(origin)] = append([]netaddr.IP(nil), ips...)
}

// Undelegate removes origin's delegation; unknown origins are a no-op.
func (r *Registry) Undelegate(origin string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.delegations, dnswire.CanonicalName(origin))
}

// Authoritative returns the origin and server IPs for the longest
// delegated suffix of name.
func (r *Registry) Authoritative(name string) (origin string, ips []netaddr.IP, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	name = dnswire.CanonicalName(name)
	for {
		if ips, found := r.delegations[name]; found {
			return name, ips, true
		}
		dot := strings.IndexByte(name, '.')
		if dot < 0 {
			return "", nil, false
		}
		name = name[dot+1:]
	}
}

// Deploy registers server at each ip on the fabric and delegates each of
// its zones in the registry. It is the one-call way generators publish a
// zone into the simulated DNS.
func Deploy(f *simnet.Fabric, reg *Registry, server *Server, ips ...netaddr.IP) {
	for _, ip := range ips {
		f.Register(ip, server)
	}
	server.mu.RLock()
	defer server.mu.RUnlock()
	for origin := range server.zones {
		reg.Delegate(origin, ips...)
	}
}
