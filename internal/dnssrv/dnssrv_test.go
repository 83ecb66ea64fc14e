package dnssrv

import (
	"errors"
	"testing"
	"time"

	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/simnet"
	"cloudscope/internal/telemetry"
)

var (
	nsIP     = netaddr.MustParseIP("198.51.100.53")
	client   = netaddr.MustParseIP("203.0.113.7")
	vmIP     = netaddr.MustParseIP("54.230.0.10")
	otherIP  = netaddr.MustParseIP("66.77.88.99")
	herokuIP = netaddr.MustParseIP("54.230.0.99")
)

// testWorld wires one authoritative server for example.com into a fabric.
func testWorld(t *testing.T) (*simnet.Fabric, *Registry, *Zone, *Resolver) {
	t.Helper()
	fabric := simnet.NewFabric(nil)
	reg := NewRegistry()
	z := NewZone("example.com")
	z.AllowAXFR = true
	z.MustAdd(
		dnswire.RR{Name: "example.com", Type: dnswire.TypeNS, TTL: 3600, Target: "ns1.example.com"},
		dnswire.RR{Name: "ns1.example.com", Type: dnswire.TypeA, TTL: 3600, IP: nsIP},
		dnswire.RR{Name: "www.example.com", Type: dnswire.TypeA, TTL: 300, IP: vmIP},
		dnswire.RR{Name: "m.example.com", Type: dnswire.TypeCNAME, TTL: 300, Target: "www.example.com"},
		dnswire.RR{Name: "app.example.com", Type: dnswire.TypeCNAME, TTL: 300, Target: "proxy.heroku.com"},
	)
	srv := NewServer(z)
	Deploy(fabric, reg, srv, nsIP)
	return fabric, reg, z, NewResolver(fabric, reg, client)
}

func TestLookupADirect(t *testing.T) {
	_, _, _, rv := testWorld(t)
	chain, err := rv.LookupA("www.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 1 || chain[0].Type != dnswire.TypeA || chain[0].IP != vmIP {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestLookupAInZoneCNAME(t *testing.T) {
	_, _, _, rv := testWorld(t)
	chain, err := rv.LookupA("m.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].Type != dnswire.TypeCNAME || chain[1].IP != vmIP {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestLookupACrossZoneCNAME(t *testing.T) {
	fabric, reg, _, rv := testWorld(t)
	hz := NewZone("heroku.com")
	hz.MustAdd(dnswire.RR{Name: "proxy.heroku.com", Type: dnswire.TypeA, TTL: 60, IP: herokuIP})
	Deploy(fabric, reg, NewServer(hz), netaddr.MustParseIP("198.51.100.54"))

	chain, err := rv.LookupA("app.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain = %+v", chain)
	}
	if chain[0].Target != "proxy.heroku.com" || chain[1].IP != herokuIP {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestNXDomain(t *testing.T) {
	_, _, _, rv := testWorld(t)
	_, err := rv.LookupA("missing.example.com")
	if !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v", err)
	}
}

func TestNoDelegation(t *testing.T) {
	_, _, _, rv := testWorld(t)
	_, err := rv.LookupA("www.unknown-tld-domain.net")
	if !errors.Is(err, ErrNoDelegation) {
		t.Fatalf("err = %v", err)
	}
}

func TestAXFRAllowed(t *testing.T) {
	_, _, _, rv := testWorld(t)
	rrs, err := rv.AXFR("example.com")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range rrs {
		if r.Type == dnswire.TypeSOA {
			t.Fatalf("framing SOA leaked into records: %v", r)
		}
		names[r.Name] = true
	}
	for _, want := range []string{"www.example.com", "m.example.com", "app.example.com", "ns1.example.com"} {
		if !names[want] {
			t.Errorf("AXFR missing %s", want)
		}
	}
}

func TestAXFRRefused(t *testing.T) {
	fabric, reg, _, _ := testWorld(t)
	z2 := NewZone("private.org")
	z2.MustAdd(dnswire.RR{Name: "www.private.org", Type: dnswire.TypeA, TTL: 60, IP: otherIP})
	Deploy(fabric, reg, NewServer(z2), netaddr.MustParseIP("198.51.100.99"))
	rv := NewResolver(fabric, reg, client)
	_, err := rv.AXFR("private.org")
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestLookupNS(t *testing.T) {
	_, _, _, rv := testWorld(t)
	ns, err := rv.LookupNS("example.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 1 || ns[0] != "ns1.example.com" {
		t.Fatalf("ns = %v", ns)
	}
}

func TestDynamicGeoAnswer(t *testing.T) {
	fabric, reg, z, _ := testWorld(t)
	east := netaddr.MustParseIP("54.230.0.1")
	west := netaddr.MustParseIP("54.215.0.1")
	z.SetDynamic("geo.example.com", func(src netaddr.IP, qtype dnswire.Type) []dnswire.RR {
		ip := east
		if src == client {
			ip = west
		}
		return []dnswire.RR{{Name: "geo.example.com", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 30, IP: ip}}
	})
	rv1 := NewResolver(fabric, reg, client)
	rv2 := NewResolver(fabric, reg, netaddr.MustParseIP("192.0.2.99"))
	c1, err := rv1.LookupA("geo.example.com")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rv2.LookupA("geo.example.com")
	if err != nil {
		t.Fatal(err)
	}
	if c1[0].IP != west || c2[0].IP != east {
		t.Fatalf("geo answers wrong: %v / %v", c1[0].IP, c2[0].IP)
	}
}

// TestLookupsReachAuthorityWithoutRecursion pins the resolver's one
// mode: every lookup is a fresh wire question with RD=0, so repeated
// lookups each reach the authoritative server and see its current
// answer.
func TestLookupsReachAuthorityWithoutRecursion(t *testing.T) {
	fabric, _, z, rv := testWorld(t)
	calls := 0
	z.SetDynamic("count.example.com", func(src netaddr.IP, qtype dnswire.Type) []dnswire.RR {
		calls++
		return []dnswire.RR{{Name: "count.example.com", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300, IP: netaddr.IP(calls)}}
	})
	srv := NewServer(z)
	fabric.Register(nsIP, simnet.HandlerFunc(func(src, dst netaddr.IP, p []byte) []byte {
		if q, err := dnswire.Unpack(p); err != nil || q.Header.RecursionDesired {
			t.Errorf("query asked for recursion (err=%v)", err)
		}
		return srv.ServePacket(src, dst, p)
	}))
	for i := 1; i <= 3; i++ {
		chain, err := rv.LookupA("count.example.com")
		if err != nil {
			t.Fatal(err)
		}
		if calls != i || chain[0].IP != netaddr.IP(i) {
			t.Fatalf("lookup %d: authority hit %d times, answer %v", i, calls, chain[0].IP)
		}
	}
}

// TestResolverMetricsDeterministic pins the wire, rcode and CNAME-chain
// accounting of two names resolved twice each. Every number below is
// forced by the query sequence, independent of timing or ordering.
func TestResolverMetricsDeterministic(t *testing.T) {
	_, _, _, rv := testWorld(t)
	reg := telemetry.NewRegistry()
	rv.Metrics = NewResolverMetrics(reg)

	for i := 0; i < 2; i++ {
		if _, err := rv.LookupA("www.example.com"); err != nil {
			t.Fatal(err)
		}
		if _, err := rv.LookupA("m.example.com"); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	// The authoritative server chases in-zone CNAMEs, so each lookup
	// costs exactly one wire query.
	if got := snap.Counter("dns.queries"); got != 4 {
		t.Fatalf("wire queries = %d, want 4", got)
	}
	if got := snap.Counter("dns.rcode.noerror"); got != 4 {
		t.Fatalf("noerror responses = %d, want 4", got)
	}
	if h, ok := snap.Histogram("dns.cname_chain_len"); !ok || h.Count != 4 {
		t.Fatalf("chain-length histogram = %+v, want 4 observations", h)
	}
}

func TestRetryAcrossServers(t *testing.T) {
	fabric, reg, _, _ := testWorld(t)
	// Delegate a zone to one dead IP and one live server.
	z := NewZone("retry.net")
	z.MustAdd(dnswire.RR{Name: "www.retry.net", Type: dnswire.TypeA, TTL: 60, IP: 77})
	srv := NewServer(z)
	live := netaddr.MustParseIP("198.51.100.77")
	dead := netaddr.MustParseIP("198.51.100.78")
	fabric.Register(live, srv)
	reg.Delegate("retry.net", dead, live)
	rv := NewResolver(fabric, reg, client)
	chain, err := rv.LookupA("www.retry.net")
	if err != nil {
		t.Fatal(err)
	}
	if chain[0].IP != 77 {
		t.Fatalf("chain = %+v", chain)
	}
}

func TestCNAMELoopDetected(t *testing.T) {
	fabric, reg, _, _ := testWorld(t)
	z := NewZone("loop.net")
	z.MustAdd(
		dnswire.RR{Name: "a.loop.net", Type: dnswire.TypeCNAME, TTL: 60, Target: "b.loop.net"},
	)
	// b -> a lives in a different zone so the resolver must chase it.
	z2 := NewZone("loopb.net")
	z2.MustAdd(dnswire.RR{Name: "b.loopb.net", Type: dnswire.TypeCNAME, TTL: 60, Target: "a.loop.net"})
	// Rewire: make a -> b.loopb.net
	z = NewZone("loop.net")
	z.MustAdd(dnswire.RR{Name: "a.loop.net", Type: dnswire.TypeCNAME, TTL: 60, Target: "b.loopb.net"})
	Deploy(fabric, reg, NewServer(z), netaddr.MustParseIP("198.51.100.60"))
	Deploy(fabric, reg, NewServer(z2), netaddr.MustParseIP("198.51.100.61"))
	rv := NewResolver(fabric, reg, client)
	_, err := rv.LookupA("a.loop.net")
	if !errors.Is(err, ErrChainTooLong) {
		t.Fatalf("err = %v", err)
	}
}

func TestZoneAddOutsideOrigin(t *testing.T) {
	z := NewZone("example.com")
	err := z.Add(dnswire.RR{Name: "www.other.com", Type: dnswire.TypeA, IP: 1})
	if err == nil {
		t.Fatal("out-of-zone record accepted")
	}
}

func TestZoneNodata(t *testing.T) {
	_, _, _, rv := testWorld(t)
	resp, err := rv.Query("www.example.com", dnswire.TypeTXT)
	if err != nil {
		t.Fatalf("NODATA should not error: %v", err)
	}
	if len(resp.Answers) != 0 {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

func TestServerRefusesForeignName(t *testing.T) {
	_, _, _, rv := testWorld(t)
	// Point delegation for foreign.org at example.com's server.
	rv.Registry.Delegate("foreign.org", nsIP)
	_, err := rv.Query("www.foreign.org", dnswire.TypeA)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestSOAQuery(t *testing.T) {
	_, _, _, rv := testWorld(t)
	resp, err := rv.Query("example.com", dnswire.TypeSOA)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].SOA.MName != "ns1.example.com" {
		t.Fatalf("soa = %+v", resp.Answers)
	}
}

func TestRegistryLongestMatch(t *testing.T) {
	reg := NewRegistry()
	reg.Delegate("com", 1)
	reg.Delegate("example.com", 2)
	origin, ips, ok := reg.Authoritative("deep.sub.example.com")
	if !ok || origin != "example.com" || ips[0] != 2 {
		t.Fatalf("got %q %v %v", origin, ips, ok)
	}
	origin, ips, ok = reg.Authoritative("other.com")
	if !ok || origin != "com" || ips[0] != 1 {
		t.Fatalf("got %q %v %v", origin, ips, ok)
	}
	if _, _, ok := reg.Authoritative("nope.org"); ok {
		t.Fatal("unexpected delegation")
	}
}

func TestTransferIncludesDynamic(t *testing.T) {
	_, _, z, rv := testWorld(t)
	z.SetDynamic("dyn.example.com", func(src netaddr.IP, qtype dnswire.Type) []dnswire.RR {
		return []dnswire.RR{{Name: "dyn.example.com", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 30, IP: 123}}
	})
	rrs, err := rv.AXFR("example.com")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rrs {
		if r.Name == "dyn.example.com" && r.IP == 123 {
			found = true
		}
	}
	if !found {
		t.Fatal("dynamic record missing from transfer")
	}
}

// servfailServer forges SERVFAIL for every question — a broken
// authority that still answers the wire.
func servfailServer() simnet.HandlerFunc {
	return func(_, _ netaddr.IP, payload []byte) []byte {
		q, err := dnswire.Unpack(payload)
		if err != nil {
			return nil
		}
		r := q.Reply()
		r.Header.RCode = dnswire.RCodeServFail
		raw, err := r.Pack()
		if err != nil {
			return nil
		}
		return raw
	}
}

// TestServFailFailsOverToNextServer: SERVFAIL says "this server is
// broken", not "this name is bad" — the resolver must try the
// delegation's remaining servers instead of giving up.
func TestServFailFailsOverToNextServer(t *testing.T) {
	fabric, reg, _, rv := testWorld(t)
	m := NewResolverMetrics(telemetry.NewRegistry())
	rv.Metrics = m

	sickIP := netaddr.MustParseIP("198.51.100.66")
	fabric.Register(sickIP, servfailServer())
	// Sick server listed first: the naive resolver would return its
	// SERVFAIL as the final verdict.
	reg.Delegate("example.com", sickIP, nsIP)

	resp, err := rv.Query("www.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatalf("query did not fail over past SERVFAIL: %v", err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].IP != vmIP {
		t.Fatalf("answers = %+v", resp.Answers)
	}
	if got := m.Retries.Value(); got < 1 {
		t.Fatalf("retries = %d, want >= 1", got)
	}
	if got := m.ServFail.Value(); got < 1 {
		t.Fatalf("servfail count = %d, want >= 1", got)
	}
	if got := m.Failed.Value(); got != 0 {
		t.Fatalf("failed = %d, want 0", got)
	}
}

// TestServFailOnAllServersReported: when every server is sick, the
// caller still gets the SERVFAIL verdict and Failed accounting.
func TestServFailOnAllServersReported(t *testing.T) {
	fabric, reg, _, rv := testWorld(t)
	m := NewResolverMetrics(telemetry.NewRegistry())
	rv.Metrics = m
	sickIP := netaddr.MustParseIP("198.51.100.66")
	fabric.Register(sickIP, servfailServer())
	reg.Delegate("example.com", sickIP)

	resp, err := rv.Query("www.example.com", dnswire.TypeA)
	if !errors.Is(err, ErrServFail) {
		t.Fatalf("err = %v, want ErrServFail", err)
	}
	if resp == nil || resp.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("resp = %+v, want the SERVFAIL message", resp)
	}
	if m.Failed.Value() != 1 {
		t.Fatalf("failed = %d, want 1", m.Failed.Value())
	}
}

// TestNXDomainDoesNotFailOver: NXDOMAIN is an authoritative verdict
// about the name; asking another server would just waste probes.
func TestNXDomainDoesNotFailOver(t *testing.T) {
	_, reg, _, rv := testWorld(t)
	m := NewResolverMetrics(telemetry.NewRegistry())
	rv.Metrics = m
	reg.Delegate("example.com", nsIP, nsIP, nsIP)
	if _, err := rv.Query("missing.example.com", dnswire.TypeA); !errors.Is(err, ErrNXDomain) {
		t.Fatalf("err = %v", err)
	}
	if got := m.Retries.Value(); got != 0 {
		t.Fatalf("retries = %d after NXDOMAIN, want 0", got)
	}
}

// dropAll is a test Interceptor that drops every datagram.
type dropAll struct{}

func (dropAll) Intercept(_, _ netaddr.IP, _ uint64, _ []byte) simnet.Verdict {
	return simnet.Verdict{Drop: true}
}

// TestBackoffRetriesAndBudget: with loss on the path, a hardened
// resolver retries with sim-time backoff; a budget bounds the effort
// and the unit counts record what was abandoned.
func TestBackoffRetriesAndBudget(t *testing.T) {
	fabric, _, _, rv := testWorld(t)
	m := NewResolverMetrics(telemetry.NewRegistry())
	rv.Metrics = m
	rv.Backoff = Backoff{MaxAttempts: 4, Base: 100 * time.Millisecond, Max: time.Second}
	fabric.SetInterceptor(dropAll{}) // nothing gets through

	var unit telemetry.Counts
	budget := &Budget{MaxQueries: 100}
	urv := rv.ForUnit("test/unit", budget, &unit)

	start := fabric.Clock().Now()
	_, err := urv.Query("www.example.com", dnswire.TypeA)
	if !errors.Is(err, simnet.ErrInjectedLoss) {
		t.Fatalf("err = %v", err)
	}
	if got := m.Retries.Value(); got != 3 {
		t.Fatalf("retries = %d, want 3 (MaxAttempts=4)", got)
	}
	if q, _ := budget.Spent(); q != 4 {
		t.Fatalf("budget queries = %d, want 4", q)
	}
	if elapsed := fabric.Clock().Now().Sub(start); elapsed < 150*time.Millisecond {
		t.Fatalf("sim clock advanced %v, backoff delays must be charged", elapsed)
	}
	if unit.Attempted != 1 || unit.Abandoned != 1 || unit.Retried != 1 || unit.Succeeded != 0 {
		t.Fatalf("unit = %+v", unit)
	}

	// Budget exhaustion short-circuits the next question.
	budget.MaxQueries = 4
	if _, err := urv.Query("m.example.com", dnswire.TypeA); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if unit.Attempted != 2 || unit.Abandoned != 2 {
		t.Fatalf("unit after exhaustion = %+v", unit)
	}

	// Lifting the loss: the clone answers and counts a success.
	fabric.SetInterceptor(nil)
	budget.MaxQueries = 100
	if _, err := urv.Query("www.example.com", dnswire.TypeA); err != nil {
		t.Fatalf("recovered query: %v", err)
	}
	if unit.Succeeded != 1 {
		t.Fatalf("unit after recovery = %+v", unit)
	}
}

// TestZeroBackoffKeepsLegacySemantics: the zero value tries each
// delegated server once with no delay — the pre-hardening behavior.
func TestZeroBackoffKeepsLegacySemantics(t *testing.T) {
	fabric, reg, _, rv := testWorld(t)
	m := NewResolverMetrics(telemetry.NewRegistry())
	rv.Metrics = m
	deadIP := netaddr.MustParseIP("198.51.100.77")
	fabric.Register(deadIP, simnet.HandlerFunc(func(_, _ netaddr.IP, _ []byte) []byte { return nil }))
	reg.Delegate("example.com", deadIP, nsIP)

	start := fabric.Clock().Now()
	resp, err := rv.Query("www.example.com", dnswire.TypeA)
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if m.Retries.Value() != 1 {
		t.Fatalf("retries = %d, want 1 (second server)", m.Retries.Value())
	}
	// Two RTTs at the 0.5ms default one-way latency; no backoff delay.
	if elapsed := fabric.Clock().Now().Sub(start); elapsed != 2*time.Millisecond {
		t.Fatalf("sim time = %v, want 2ms (two queries, no backoff)", elapsed)
	}
}
