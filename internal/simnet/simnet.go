// Package simnet provides the simulated network fabric the measurement
// study runs over: a virtual clock and an in-memory datagram network
// that binds IPv4 addresses to request handlers, with a pluggable
// latency model and one fault-injection hook, the Interceptor.
//
// The fabric is deliberately simple — request/response datagrams, no
// routing tables — because the study's probes (DNS queries, TCP pings)
// are all request/response. Wide-area path properties live in
// internal/wan; intra-cloud properties in internal/cloud. Both plug in
// through the fabric's latency function.
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cloudscope/internal/netaddr"
	"cloudscope/internal/telemetry"
)

// Clock is a virtual clock. The zero value starts at a fixed epoch; use
// NewClock to choose a start time. Clock is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// Epoch is the default start of simulated time: the first day of the
// paper's packet capture (Tuesday, June 26, 2012, 00:00 UTC).
var Epoch = time.Date(2012, 6, 26, 0, 0, 0, 0, time.UTC)

// NewClock returns a clock set to start.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current simulated time.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.IsZero() {
		c.now = Epoch
	}
	return c.now
}

// Advance moves simulated time forward by d. Negative d panics: the
// simulators assume monotone time.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		panic("simnet: Advance by negative duration")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.IsZero() {
		c.now = Epoch
	}
	c.now = c.now.Add(d)
}

// Handler processes one datagram addressed to a registered IP and
// returns the response payload, or nil to drop the request.
type Handler interface {
	ServePacket(src, dst netaddr.IP, payload []byte) []byte
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(src, dst netaddr.IP, payload []byte) []byte

// ServePacket implements Handler.
func (f HandlerFunc) ServePacket(src, dst netaddr.IP, payload []byte) []byte {
	return f(src, dst, payload)
}

// LatencyFunc models one-way delay between two addresses.
type LatencyFunc func(src, dst netaddr.IP) time.Duration

// Verdict is an Interceptor's decision about one datagram.
type Verdict struct {
	// Drop discards the datagram; the caller sees ErrInjectedLoss.
	Drop bool
	// ExtraRTT is added to the round-trip time (brownouts).
	ExtraRTT time.Duration
	// Respond, when non-nil, is delivered as the response instead of
	// invoking the destination handler — how chaos scenarios forge
	// SERVFAIL bursts without touching the servers themselves.
	Respond []byte
}

// Interceptor inspects datagrams in flight and injects faults; it is
// the fabric's only fault path. flow is the caller-supplied flow
// identity from QueryFlow (0 for plain Query). Implementations must be
// pure functions of their arguments — any internal state would make fault
// patterns depend on goroutine scheduling and break worker-count
// invariance.
type Interceptor interface {
	Intercept(src, dst netaddr.IP, flow uint64, payload []byte) Verdict
}

// Errors returned by Query.
var (
	ErrHostUnreachable = errors.New("simnet: no host at destination")
	ErrTimeout         = errors.New("simnet: request timed out")
	// ErrInjectedLoss reports a datagram an Interceptor dropped. It
	// wraps ErrTimeout — to a caller an injected drop looks
	// like any other timeout — but errors.Is(err, ErrInjectedLoss) lets
	// tests and metrics split injected drops from handler-refused
	// requests.
	ErrInjectedLoss = fmt.Errorf("simnet: injected packet loss: %w", ErrTimeout)
)

// FabricMetrics holds the fabric's instrumentation hooks. All fields
// are optional; a nil *FabricMetrics (or nil fields) disables
// accounting with no other behavior change.
type FabricMetrics struct {
	// Sent counts every datagram handed to Query or QueryFlow.
	Sent *telemetry.Counter
	// Delivered counts datagrams answered by a handler.
	Delivered *telemetry.Counter
	// Dropped counts datagrams an Interceptor dropped.
	Dropped *telemetry.Counter
	// Failed counts unreachable destinations and handler-refused
	// (nil-response) requests.
	Failed *telemetry.Counter
	// RTTms is the round-trip latency distribution of delivered
	// datagrams, in milliseconds.
	RTTms *telemetry.Histogram
}

// NewFabricMetrics registers the fabric's standard instruments on r.
func NewFabricMetrics(r *telemetry.Registry) *FabricMetrics {
	return &FabricMetrics{
		Sent:      r.Counter("fabric.datagrams.sent"),
		Delivered: r.Counter("fabric.datagrams.delivered"),
		Dropped:   r.Counter("fabric.datagrams.dropped"),
		Failed:    r.Counter("fabric.datagrams.failed"),
		RTTms:     r.Histogram("fabric.rtt_ms", telemetry.LatencyBucketsMs),
	}
}

// Fabric is an in-memory datagram network. The zero value is not
// usable; construct with NewFabric.
type Fabric struct {
	mu          sync.RWMutex
	hosts       map[netaddr.IP]Handler
	latency     LatencyFunc
	interceptor Interceptor
	clock       *Clock
	metrics     *FabricMetrics
}

// NewFabric returns an empty fabric using clock for time accounting.
// A nil clock allocates a fresh one.
func NewFabric(clock *Clock) *Fabric {
	if clock == nil {
		clock = NewClock(Epoch)
	}
	return &Fabric{
		hosts: make(map[netaddr.IP]Handler),
		latency: func(src, dst netaddr.IP) time.Duration {
			return 500 * time.Microsecond
		},
		clock: clock,
	}
}

// Clock returns the fabric's clock.
func (f *Fabric) Clock() *Clock { return f.clock }

// Register binds ip to h, replacing any previous binding.
func (f *Fabric) Register(ip netaddr.IP, h Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hosts[ip] = h
}

// Unregister removes the binding for ip.
func (f *Fabric) Unregister(ip netaddr.IP) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.hosts, ip)
}

// NumHosts returns the number of registered addresses.
func (f *Fabric) NumHosts() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.hosts)
}

// SetLatency installs a one-way delay model.
func (f *Fabric) SetLatency(fn LatencyFunc) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = fn
}

// SetMetrics installs instrumentation hooks; nil disables them.
func (f *Fabric) SetMetrics(m *FabricMetrics) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.metrics = m
}

// SetInterceptor installs a fault-injection hook consulted on every
// datagram; nil removes it.
func (f *Fabric) SetInterceptor(ic Interceptor) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.interceptor = ic
}

// Query sends payload from src to dst and returns the response and the
// round-trip time. The RTT is also charged to the fabric's clock so
// measurement campaigns consume simulated time. Query is QueryFlow with
// a zero flow identity.
func (f *Fabric) Query(src, dst netaddr.IP, payload []byte) (resp []byte, rtt time.Duration, err error) {
	return f.QueryFlow(src, dst, 0, payload)
}

// QueryFlow is Query with an explicit flow identity. The flow value
// feeds the interceptor but never the handler: two identical payloads
// sent on different flows (e.g. a retry after a timeout) can meet
// independent fault verdicts, while replays on the same flow share one. Callers derive flows from stable measurement identities —
// never from arrival order.
func (f *Fabric) QueryFlow(src, dst netaddr.IP, flow uint64, payload []byte) (resp []byte, rtt time.Duration, err error) {
	f.mu.RLock()
	h, ok := f.hosts[dst]
	lat := f.latency
	ic := f.interceptor
	m := f.metrics
	f.mu.RUnlock()
	if m != nil {
		m.Sent.Inc()
	}
	if !ok {
		if m != nil {
			m.Failed.Inc()
		}
		return nil, 0, ErrHostUnreachable
	}
	var forged []byte
	var extra time.Duration
	if ic != nil {
		v := ic.Intercept(src, dst, flow, payload)
		if v.Drop {
			if m != nil {
				m.Dropped.Inc()
			}
			return nil, 0, ErrInjectedLoss
		}
		extra = v.ExtraRTT
		forged = v.Respond
	}
	rtt = lat(src, dst) + lat(dst, src) + extra
	if forged != nil {
		resp = forged
	} else {
		resp = h.ServePacket(src, dst, payload)
	}
	f.clock.Advance(rtt)
	if resp == nil {
		if m != nil {
			m.Failed.Inc()
		}
		return nil, rtt, ErrTimeout
	}
	if m != nil {
		m.Delivered.Inc()
		m.RTTms.Observe(float64(rtt) / float64(time.Millisecond))
	}
	return resp, rtt, nil
}
