package dnssrv

import (
	"errors"
	"time"

	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/simnet"
	"cloudscope/internal/telemetry"
	"cloudscope/internal/xrand"
)

// Resolution errors.
var (
	ErrNoDelegation = errors.New("dnssrv: no authoritative server known")
	ErrNXDomain     = errors.New("dnssrv: NXDOMAIN")
	ErrRefused      = errors.New("dnssrv: query refused")
	ErrServFail     = errors.New("dnssrv: server failure")
	ErrChainTooLong = errors.New("dnssrv: CNAME chain too long")
	// ErrBudgetExhausted reports a question abandoned because its
	// measurement unit spent its probe budget or deadline.
	ErrBudgetExhausted = errors.New("dnssrv: probe budget exhausted")
)

// Backoff configures retry behavior for one resolver. The zero value
// reproduces the legacy semantics exactly — one attempt per known
// authoritative server, no delay between attempts — so un-hardened
// callers are bit-identical to before.
type Backoff struct {
	// MaxAttempts caps wire attempts per question. Zero means one
	// attempt per authoritative server; larger values cycle through the
	// servers again (with backoff delays), the way the study's crawlers
	// re-asked flaky authorities.
	MaxAttempts int
	// Base is the delay before the second attempt; each further attempt
	// doubles it, capped at Max. Delays carry deterministic jitter in
	// [0.5, 1.5)× derived from the question identity — never from shared
	// generator state — and are charged to simulated time.
	Base time.Duration
	// Max caps the per-attempt delay. Zero with a nonzero Base means no
	// cap.
	Max time.Duration
}

// delay returns the pre-attempt backoff for attempt (1-based retry
// index), jittered by a pure hash of the question identity.
func (b Backoff) delay(h uint64, attempt int) time.Duration {
	if b.Base <= 0 || attempt <= 0 {
		return 0
	}
	d := b.Base << uint(attempt-1)
	if b.Max > 0 && (d > b.Max || d <= 0) { // <=0: shift overflow
		d = b.Max
	}
	jitter := 0.5 + xrand.Frac(xrand.Hash64(h, uint64(attempt), 0x6a69)) // [0.5, 1.5)
	return time.Duration(float64(d) * jitter)
}

// Budget bounds the probing effort one measurement unit (for the
// dataset crawl: one domain scan) may spend. It is consulted by every
// Query on a resolver carrying it and is not safe for concurrent use —
// a budget belongs to exactly one unit worker, mirroring how per-scan
// state stays worker-local to keep campaigns order-invariant.
type Budget struct {
	// MaxQueries caps wire questions; zero means unlimited.
	MaxQueries int64
	// Deadline caps the simulated time spent (RTTs, timeouts, backoff
	// delays); zero means unlimited.
	Deadline time.Duration

	queries int64
	spent   time.Duration
}

// Exhausted reports whether the budget has run out. Nil budgets never
// exhaust.
func (b *Budget) Exhausted() bool {
	if b == nil {
		return false
	}
	if b.MaxQueries > 0 && b.queries >= b.MaxQueries {
		return true
	}
	if b.Deadline > 0 && b.spent >= b.Deadline {
		return true
	}
	return false
}

// Spent returns the consumed (queries, simulated time) so far.
func (b *Budget) Spent() (int64, time.Duration) {
	if b == nil {
		return 0, 0
	}
	return b.queries, b.spent
}

func (b *Budget) charge(queries int64, d time.Duration) {
	if b == nil {
		return
	}
	b.queries += queries
	b.spent += d
}

// ResolverMetrics holds a resolver's instrumentation hooks. One
// ResolverMetrics is typically shared by every resolver of a
// measurement campaign (the instruments are concurrency-safe), so the
// counters aggregate across vantage points. A nil *ResolverMetrics
// disables accounting.
type ResolverMetrics struct {
	// Queries counts questions that reached the wire.
	Queries *telemetry.Counter
	// Retries counts extra server attempts after the first failed.
	Retries *telemetry.Counter
	// Failed counts queries that exhausted every authoritative server.
	Failed *telemetry.Counter
	// ChainLen is the distribution of CNAME hops per LookupA.
	ChainLen *telemetry.Histogram
	// Per-rcode response counts.
	NoError, NXDomain, Refused, ServFail *telemetry.Counter
}

// NewResolverMetrics registers the resolver's standard instruments on r.
func NewResolverMetrics(r *telemetry.Registry) *ResolverMetrics {
	return &ResolverMetrics{
		Queries:  r.Counter("dns.queries"),
		Retries:  r.Counter("dns.retries"),
		Failed:   r.Counter("dns.failed"),
		ChainLen: r.Histogram("dns.cname_chain_len", telemetry.SmallCountBuckets),
		NoError:  r.Counter("dns.rcode.noerror"),
		NXDomain: r.Counter("dns.rcode.nxdomain"),
		Refused:  r.Counter("dns.rcode.refused"),
		ServFail: r.Counter("dns.rcode.servfail"),
	}
}

// countRCode tallies one response's rcode.
func (m *ResolverMetrics) countRCode(rcode dnswire.RCode) {
	if m == nil {
		return
	}
	switch rcode {
	case dnswire.RCodeNoError:
		m.NoError.Inc()
	case dnswire.RCodeNXDomain:
		m.NXDomain.Inc()
	case dnswire.RCodeRefused:
		m.Refused.Inc()
	default:
		m.ServFail.Inc()
	}
}

// Resolver asks the simulated DNS's authoritative servers directly from
// one vantage point, the way the study's dig calls did: recursion off
// and nothing cached, so every lookup sees the authoritative answer for
// this source at this moment — geo-dependent and rotating records
// included. A Resolver without a Budget or Unit holds no mutable state,
// so one instance serves concurrent lookups.
type Resolver struct {
	Fabric   *simnet.Fabric
	Registry *Registry
	// Metrics, when set, receives query/retry/rcode accounting. Set it
	// before the resolver is used; it may be shared across resolvers.
	Metrics *ResolverMetrics
	// Source is the IP queries originate from. Authoritative servers see
	// it and may answer geo-dependently, so two resolvers with different
	// sources can legitimately receive different records.
	Source netaddr.IP
	// Backoff configures retries; the zero value keeps legacy semantics.
	Backoff Backoff
	// FlowLabel names the measurement unit this resolver works for. It
	// feeds the DNS message ID and the fabric flow identity, so fault
	// draws depend on what is being measured, never on when — the
	// property that keeps chaos runs worker-count invariant.
	FlowLabel string
	// Budget, when set, bounds this unit's probing effort. Must not be
	// shared across goroutines; see Budget.
	Budget *Budget
	// Unit, when set, accumulates this unit's completeness accounting.
	// Like Budget it belongs to one worker; campaigns fold units into a
	// telemetry.Completeness afterwards.
	Unit *telemetry.Counts
}

// NewResolver returns a resolver on fabric using reg for delegation.
func NewResolver(fabric *simnet.Fabric, reg *Registry, source netaddr.IP) *Resolver {
	return &Resolver{Fabric: fabric, Registry: reg, Source: source}
}

// ForUnit returns a copy of rv dedicated to one measurement unit: it
// shares every setting of rv but carries its own flow label, budget and
// completeness counts. The copy (and its budget and unit counts) must
// stay on one goroutine.
func (rv *Resolver) ForUnit(flowLabel string, b *Budget, u *telemetry.Counts) *Resolver {
	c := *rv
	c.FlowLabel, c.Budget, c.Unit = flowLabel, b, u
	return &c
}

// lossTimeout is the simulated client-side wait charged to a unit's
// budget when a datagram is lost. The fabric itself charges no time for
// drops (a lost packet delivers nothing), but the measuring client
// still burned a timeout waiting for it.
const lossTimeout = time.Second

// Query sends one question, recursion not desired (RD=0), to the
// authoritative servers for name and returns the validated response
// message. Failed attempts — timeouts,
// injected loss, and SERVFAIL responses — fail over across the
// delegation's server IPs, with optional exponential backoff between
// attempts (see Backoff). NXDOMAIN and REFUSED are authoritative
// verdicts and return immediately. The DNS message ID and fabric flow
// derive from (FlowLabel, name, qtype, attempt), so retries redraw
// their loss fate deterministically.
func (rv *Resolver) Query(name string, qtype dnswire.Type) (*dnswire.Message, error) {
	name = dnswire.CanonicalName(name)
	m := rv.Metrics
	if rv.Budget.Exhausted() {
		if rv.Unit != nil {
			rv.Unit.Attempted++
			rv.Unit.Abandoned++
		}
		return nil, ErrBudgetExhausted
	}
	_, servers, ok := rv.Registry.Authoritative(name)
	if !ok {
		return nil, ErrNoDelegation
	}
	qh := xrand.Hash64(xrand.HashString(uint64(qtype), rv.FlowLabel+"|"+name))
	if m != nil {
		m.Queries.Inc()
	}
	if rv.Unit != nil {
		rv.Unit.Attempted++
	}
	attempts := rv.Backoff.MaxAttempts
	if attempts <= 0 {
		attempts = len(servers)
	}
	var lastResp *dnswire.Message
	var lastErr error = simnet.ErrTimeout
	retried := false
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if m != nil {
				m.Retries.Inc()
			}
			retried = true
			if d := rv.Backoff.delay(qh, attempt); d > 0 {
				rv.Fabric.Clock().Advance(d)
				rv.Budget.charge(0, d)
			}
			if rv.Budget.Exhausted() {
				break
			}
		}
		server := servers[attempt%len(servers)]
		// Per-attempt identity: retries are distinct datagrams on the
		// wire and draw independent fault fates.
		ah := xrand.Hash64(qh, uint64(attempt))
		id := uint16(ah)
		q := dnswire.NewQuery(id, name, qtype)
		q.Header.RecursionDesired = false
		payload, err := q.Pack()
		if err != nil {
			return nil, err
		}
		raw, rtt, err := rv.Fabric.QueryFlow(rv.Source, server, ah, payload)
		if err != nil {
			if errors.Is(err, simnet.ErrTimeout) {
				rv.Budget.charge(1, lossTimeout)
			} else {
				rv.Budget.charge(1, rtt)
			}
			lastErr = err
			continue
		}
		rv.Budget.charge(1, rtt)
		resp, err := dnswire.Unpack(raw)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Header.ID != id || !resp.Header.Response {
			lastErr = errors.New("dnssrv: mismatched response")
			continue
		}
		m.countRCode(resp.Header.RCode)
		switch resp.Header.RCode {
		case dnswire.RCodeNoError:
		case dnswire.RCodeNXDomain:
			rv.unitDone(retried, true)
			return resp, ErrNXDomain
		case dnswire.RCodeRefused:
			rv.unitDone(retried, true)
			return resp, ErrRefused
		default:
			// SERVFAIL: a broken or overloaded authority, not a verdict
			// about the name — fail over to the remaining servers.
			lastResp, lastErr = resp, ErrServFail
			continue
		}
		rv.unitDone(retried, true)
		return resp, nil
	}
	if m != nil {
		m.Failed.Inc()
	}
	rv.unitDone(retried, false)
	return lastResp, lastErr
}

// unitDone finalizes one question's completeness accounting.
func (rv *Resolver) unitDone(retried, succeeded bool) {
	if rv.Unit == nil {
		return
	}
	if retried {
		rv.Unit.Retried++
	}
	if succeeded {
		rv.Unit.Succeeded++
	} else {
		rv.Unit.Abandoned++
	}
}

// Answer is one resolved record from a full lookup: the chain of CNAMEs
// plus terminal A records.
type Answer = dnswire.RR

// LookupA resolves name to its full record chain, following CNAMEs
// across zone and delegation boundaries (at most 8 hops, like real
// resolvers). The returned slice contains every CNAME traversed followed
// by the A records of the final target. ErrNXDomain is returned only if
// the first name does not exist.
func (rv *Resolver) LookupA(name string) ([]Answer, error) {
	chain, err := rv.lookupA(name)
	if err == nil && rv.Metrics != nil {
		cnames := 0
		for _, rr := range chain {
			if rr.Type == dnswire.TypeCNAME {
				cnames++
			}
		}
		rv.Metrics.ChainLen.Observe(float64(cnames))
	}
	return chain, err
}

func (rv *Resolver) lookupA(name string) ([]Answer, error) {
	var chain []Answer
	seen := map[string]bool{}
	current := dnswire.CanonicalName(name)
	for hop := 0; hop < 8; hop++ {
		if seen[current] {
			return chain, ErrChainTooLong
		}
		seen[current] = true
		resp, err := rv.Query(current, dnswire.TypeA)
		if err != nil {
			if len(chain) > 0 && errors.Is(err, ErrNXDomain) {
				// Dangling CNAME: report what we have.
				return chain, nil
			}
			return chain, err
		}
		var next string
		gotA := false
		for _, rr := range resp.Answers {
			chain = append(chain, rr)
			switch rr.Type {
			case dnswire.TypeA:
				gotA = true
			case dnswire.TypeCNAME:
				next = dnswire.CanonicalName(rr.Target)
			}
		}
		if gotA || next == "" {
			return chain, nil
		}
		current = next
	}
	return chain, ErrChainTooLong
}

// LookupNS returns the NS target names for a domain.
func (rv *Resolver) LookupNS(name string) ([]string, error) {
	resp, err := rv.Query(name, dnswire.TypeNS)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeNS {
			out = append(out, dnswire.CanonicalName(rr.Target))
		}
	}
	return out, nil
}

// AXFR attempts a zone transfer for origin and returns the zone's
// records (without the framing SOA pair).
func (rv *Resolver) AXFR(origin string) ([]dnswire.RR, error) {
	resp, err := rv.Query(origin, dnswire.TypeAXFR)
	if err != nil {
		return nil, err
	}
	rrs := resp.Answers
	if len(rrs) >= 2 && rrs[0].Type == dnswire.TypeSOA && rrs[len(rrs)-1].Type == dnswire.TypeSOA {
		rrs = rrs[1 : len(rrs)-1]
	}
	return rrs, nil
}
