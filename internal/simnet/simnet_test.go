package simnet

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"cloudscope/internal/netaddr"
	"cloudscope/internal/telemetry"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock(Epoch)
	if !c.Now().Equal(Epoch) {
		t.Fatalf("start = %v", c.Now())
	}
	c.Advance(90 * time.Second)
	if got := c.Now().Sub(Epoch); got != 90*time.Second {
		t.Fatalf("advanced %v", got)
	}
}

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if !c.Now().Equal(Epoch) {
		t.Fatalf("zero clock Now = %v", c.Now())
	}
}

func TestClockNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Advance did not panic")
		}
	}()
	NewClock(Epoch).Advance(-time.Second)
}

func TestQueryRoundTrip(t *testing.T) {
	f := NewFabric(nil)
	server := netaddr.MustParseIP("10.0.0.1")
	client := netaddr.MustParseIP("192.168.0.1")
	f.Register(server, HandlerFunc(func(src, dst netaddr.IP, p []byte) []byte {
		if src != client || dst != server {
			t.Errorf("handler saw src=%v dst=%v", src, dst)
		}
		return append([]byte("echo:"), p...)
	}))
	resp, rtt, err := f.Query(client, server, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("echo:hi")) {
		t.Fatalf("resp = %q", resp)
	}
	if rtt != time.Millisecond {
		t.Fatalf("rtt = %v, want 1ms default", rtt)
	}
}

func TestQueryUnreachable(t *testing.T) {
	f := NewFabric(nil)
	_, _, err := f.Query(1, 2, nil)
	if err != ErrHostUnreachable {
		t.Fatalf("err = %v", err)
	}
}

func TestQueryNilResponseIsTimeout(t *testing.T) {
	f := NewFabric(nil)
	f.Register(5, HandlerFunc(func(_, _ netaddr.IP, _ []byte) []byte { return nil }))
	_, _, err := f.Query(1, 5, []byte("x"))
	if err != ErrTimeout {
		t.Fatalf("err = %v", err)
	}
}

func TestLatencyModelAndClockCharge(t *testing.T) {
	f := NewFabric(nil)
	f.SetLatency(func(src, dst netaddr.IP) time.Duration { return 25 * time.Millisecond })
	f.Register(7, HandlerFunc(func(_, _ netaddr.IP, p []byte) []byte { return p }))
	start := f.Clock().Now()
	_, rtt, err := f.Query(1, 7, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 50*time.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
	if got := f.Clock().Now().Sub(start); got != 50*time.Millisecond {
		t.Fatalf("clock advanced %v", got)
	}
}

func TestAsymmetricLatency(t *testing.T) {
	f := NewFabric(nil)
	f.SetLatency(func(src, dst netaddr.IP) time.Duration {
		if src < dst {
			return 10 * time.Millisecond
		}
		return 30 * time.Millisecond
	})
	f.Register(9, HandlerFunc(func(_, _ netaddr.IP, p []byte) []byte { return p }))
	_, rtt, _ := f.Query(1, 9, []byte("x"))
	if rtt != 40*time.Millisecond {
		t.Fatalf("rtt = %v", rtt)
	}
}

func TestLossErrorDistinguishableFromRefusal(t *testing.T) {
	f := NewFabric(nil)
	f.Register(5, HandlerFunc(func(_, _ netaddr.IP, _ []byte) []byte { return nil }))
	_, _, err := f.Query(1, 5, []byte("x"))
	if !errors.Is(err, ErrTimeout) || errors.Is(err, ErrInjectedLoss) {
		t.Fatalf("handler refusal err = %v; must be a timeout but not injected loss", err)
	}
}

func TestFabricMetricsSplit(t *testing.T) {
	reg := telemetry.NewRegistry()
	f := NewFabric(nil)
	f.SetMetrics(NewFabricMetrics(reg))
	f.Register(4, HandlerFunc(func(_, _ netaddr.IP, p []byte) []byte { return p }))
	f.Register(5, HandlerFunc(func(_, _ netaddr.IP, _ []byte) []byte { return nil }))

	f.Query(1, 4, []byte("ok"))  // delivered
	f.Query(1, 5, []byte("nil")) // failed: handler refused
	f.Query(1, 99, []byte("un")) // failed: unreachable
	f.SetInterceptor(verdictFunc(func(_, _ netaddr.IP, _ uint64, _ []byte) Verdict {
		return Verdict{Drop: true}
	}))
	// dropped: injected. The drop is typed, and still reads as a timeout.
	if _, _, err := f.Query(1, 4, []byte("drop")); !errors.Is(err, ErrInjectedLoss) || !errors.Is(err, ErrTimeout) {
		t.Fatalf("injected drop err = %v, want ErrInjectedLoss wrapping ErrTimeout", err)
	}
	f.SetInterceptor(nil)
	f.Query(1, 4, []byte("ok")) // delivered

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"fabric.datagrams.sent":      5,
		"fabric.datagrams.delivered": 2,
		"fabric.datagrams.dropped":   1,
		"fabric.datagrams.failed":    2,
	} {
		if got := snap.Counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if h, ok := snap.Histogram("fabric.rtt_ms"); !ok || h.Count != 2 {
		t.Errorf("rtt histogram count = %+v, want 2 observations", h)
	}
}

func TestUnregister(t *testing.T) {
	f := NewFabric(nil)
	f.Register(8, HandlerFunc(func(_, _ netaddr.IP, p []byte) []byte { return p }))
	if f.NumHosts() != 1 {
		t.Fatal("host not registered")
	}
	f.Unregister(8)
	if f.NumHosts() != 0 {
		t.Fatal("host not unregistered")
	}
	if _, _, err := f.Query(1, 8, nil); err != ErrHostUnreachable {
		t.Fatalf("err = %v", err)
	}
}

type verdictFunc func(src, dst netaddr.IP, flow uint64, payload []byte) Verdict

func (f verdictFunc) Intercept(src, dst netaddr.IP, flow uint64, payload []byte) Verdict {
	return f(src, dst, flow, payload)
}

func TestInterceptorDrop(t *testing.T) {
	f := NewFabric(nil)
	f.Register(4, HandlerFunc(func(_, _ netaddr.IP, p []byte) []byte { return p }))
	f.SetInterceptor(verdictFunc(func(_, dst netaddr.IP, _ uint64, _ []byte) Verdict {
		return Verdict{Drop: dst == 4}
	}))
	if _, _, err := f.Query(1, 4, []byte("x")); !errors.Is(err, ErrInjectedLoss) {
		t.Fatalf("intercepted query err = %v, want injected loss", err)
	}
	f.Register(5, HandlerFunc(func(_, _ netaddr.IP, p []byte) []byte { return p }))
	if _, _, err := f.Query(1, 5, []byte("x")); err != nil {
		t.Fatalf("unintercepted query err = %v", err)
	}
	f.SetInterceptor(nil)
	if _, _, err := f.Query(1, 4, []byte("x")); err != nil {
		t.Fatalf("query after interceptor removed err = %v", err)
	}
}

func TestInterceptorExtraRTT(t *testing.T) {
	f := NewFabric(nil)
	f.Register(4, HandlerFunc(func(_, _ netaddr.IP, p []byte) []byte { return p }))
	f.SetInterceptor(verdictFunc(func(_, _ netaddr.IP, _ uint64, _ []byte) Verdict {
		return Verdict{ExtraRTT: 80 * time.Millisecond}
	}))
	start := f.Clock().Now()
	_, rtt, err := f.Query(1, 4, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if rtt != 81*time.Millisecond {
		t.Fatalf("rtt = %v, want base 1ms + 80ms brownout", rtt)
	}
	if got := f.Clock().Now().Sub(start); got != 81*time.Millisecond {
		t.Fatalf("clock advanced %v, brownout delay must be charged to sim time", got)
	}
}

func TestInterceptorForgedResponse(t *testing.T) {
	f := NewFabric(nil)
	handlerHit := false
	f.Register(4, HandlerFunc(func(_, _ netaddr.IP, p []byte) []byte {
		handlerHit = true
		return p
	}))
	f.SetInterceptor(verdictFunc(func(_, _ netaddr.IP, _ uint64, _ []byte) Verdict {
		return Verdict{Respond: []byte("forged")}
	}))
	resp, _, err := f.Query(1, 4, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("forged")) {
		t.Fatalf("resp = %q", resp)
	}
	if handlerHit {
		t.Fatal("forged response must short-circuit the handler")
	}
}

func TestConcurrentQueries(t *testing.T) {
	f := NewFabric(nil)
	for i := 1; i <= 16; i++ {
		f.Register(netaddr.IP(i), HandlerFunc(func(_, _ netaddr.IP, p []byte) []byte { return p }))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				dst := netaddr.IP(i%16 + 1)
				if _, _, err := f.Query(100, dst, []byte("x")); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
