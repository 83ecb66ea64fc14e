package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cloudscope/internal/dnssrv"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
	"cloudscope/internal/simnet"
)

func mustParse(t *testing.T, spec string) *Scenario {
	t.Helper()
	sc, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return sc
}

func TestParseRoundTrip(t *testing.T) {
	spec := "loss,p=0.1,window=0.2-0.8,dst=54.0.0.0/8;brownout,add=150ms,region=us-east;" +
		"axfr-refuse,domains=example.com,dfrac=0.9;vantage-down,frac=0.3,window=0.25-0.75"
	sc := mustParse(t, spec)
	if len(sc.Faults) != 4 {
		t.Fatalf("faults = %d", len(sc.Faults))
	}
	f := sc.Faults[0]
	if f.Kind != Loss || f.Prob != 0.1 || f.From != 0.2 || f.To != 0.8 || !f.HasDst || f.HasSrc {
		t.Fatalf("fault 0 = %+v", f)
	}
	if sc.Faults[1].ExtraRTT != 150*time.Millisecond || sc.Faults[1].Region != "us-east" {
		t.Fatalf("fault 1 = %+v", sc.Faults[1])
	}
	rt := mustParse(t, sc.String())
	if rt.String() != sc.String() {
		t.Fatalf("round trip changed spec:\n%s\nvs\n%s", rt.String(), sc.String())
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "meteor-strike", "loss,p=1.5", "loss,p=x", "loss,window=0.8-0.2",
		"loss,window=half", "loss,dst=not-a-cidr", "brownout", "loss,p=0.1,",
		"loss,bogus=1", "brownout,add=-5ms", ";",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestLibraryScenariosParse(t *testing.T) {
	names := Library()
	if len(names) < 5 {
		t.Fatalf("library = %v", names)
	}
	for _, name := range names {
		sc, err := Load(name)
		if err != nil || sc == nil || sc.Name != name {
			t.Fatalf("Load(%q) = %+v, %v", name, sc, err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("library scenario %q invalid: %v", name, err)
		}
	}
	if sc, err := Load(""); sc != nil || err != nil {
		t.Fatalf("Load(\"\") = %v, %v", sc, err)
	}
	if sc, err := Load("loss,p=0.5"); err != nil || len(sc.Faults) != 1 {
		t.Fatalf("Load(inline) = %+v, %v", sc, err)
	}
}

func TestNilEngineIsInert(t *testing.T) {
	var e *Engine
	if e := New(nil, 1); e != nil {
		t.Fatal("New(nil) != nil")
	}
	if e := New(&Scenario{Name: "empty"}, 1); e != nil {
		t.Fatal("New(empty) != nil")
	}
	if v := e.Intercept(1, 2, 3, []byte("x")); v.Drop || v.ExtraRTT != 0 || v.Respond != nil {
		t.Fatalf("nil Intercept = %+v", v)
	}
	if e.VantageOut("v", 0.5) || e.AccountOut("a", 0.5) || e.ProbeLost("r", "k", 0.5) {
		t.Fatal("nil engine injected a fault")
	}
	if e.RegionExtraMs("r", 0.5) != 0 {
		t.Fatal("nil engine added latency")
	}
}

func TestInterceptDeterministic(t *testing.T) {
	sc := mustParse(t, "loss,p=0.5;brownout,add=10ms,window=0.3-0.7")
	a, b := New(sc, 42), New(sc, 42)
	other := New(sc, 43)
	differ := 0
	for i := 0; i < 500; i++ {
		payload := []byte{byte(i), byte(i >> 8)}
		va := a.Intercept(1, 2, uint64(i), payload)
		if vb := b.Intercept(1, 2, uint64(i), payload); va.Drop != vb.Drop || va.ExtraRTT != vb.ExtraRTT {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, va, vb)
		}
		if vo := other.Intercept(1, 2, uint64(i), payload); vo.Drop != va.Drop || vo.ExtraRTT != va.ExtraRTT {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("different seeds produced identical fault plans")
	}
}

func TestLossScopedByCIDR(t *testing.T) {
	sc := mustParse(t, "loss,p=1,dst=54.0.0.0/8")
	e := New(sc, 7)
	in := netaddr.MustParseIP("54.1.2.3")
	out := netaddr.MustParseIP("13.1.2.3")
	if v := e.Intercept(1, in, 0, []byte("x")); !v.Drop {
		t.Fatal("in-scope datagram survived p=1 loss")
	}
	if v := e.Intercept(1, out, 0, []byte("x")); v.Drop {
		t.Fatal("out-of-scope datagram dropped")
	}
}

func TestBlackoutSelectsStableHosts(t *testing.T) {
	e := New(mustParse(t, "blackout,frac=0.3"), 9)
	dropped := 0
	for i := 0; i < 1000; i++ {
		dst := netaddr.IP(0x36000000 + uint32(i))
		v1 := e.Intercept(1, dst, 0, []byte("a"))
		v2 := e.Intercept(2, dst, 99, []byte("entirely different"))
		if v1.Drop != v2.Drop {
			t.Fatal("blackout fate varied with datagram; must be per-host")
		}
		if v1.Drop {
			dropped++
		}
	}
	if dropped < 200 || dropped > 400 {
		t.Fatalf("blackout hit %d/1000 hosts with frac=0.3", dropped)
	}
}

func TestVantageOutWindowAndFrac(t *testing.T) {
	e := New(mustParse(t, "vantage-down,frac=0.4,window=0.25-0.75"), 3)
	out := 0
	for i := 0; i < 1000; i++ {
		name := "v" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		mid := e.VantageOut(name, 0.5)
		if e.VantageOut(name, 0.1) || e.VantageOut(name, 0.9) {
			t.Fatal("vantage dark outside the window")
		}
		if mid != e.VantageOut(name, 0.6) {
			t.Fatal("vantage fate changed within the window")
		}
		if mid {
			out++
		}
	}
	if out < 300 || out > 500 {
		t.Fatalf("%d/1000 vantages out with frac=0.4", out)
	}
	// frac=0 means all in-window units are out.
	all := New(mustParse(t, "account-down,window=0.4-0.6"), 3)
	if !all.AccountOut("anything", 0.5) || all.AccountOut("anything", 0.7) {
		t.Fatal("account-down without frac must take out every account in-window")
	}
}

func TestRegionBrownoutAndProbeLoss(t *testing.T) {
	e := New(mustParse(t, "brownout,region=us-east,add=120ms,window=0.2-0.8;loss,p=1,region=us-east,window=0.2-0.8"), 5)
	if ms := e.RegionExtraMs("ec2.us-east-1", 0.5); ms != 120 {
		t.Fatalf("extra = %gms, want 120", ms)
	}
	if ms := e.RegionExtraMs("ec2.us-east-1", 0.9); ms != 0 {
		t.Fatalf("extra outside window = %gms", ms)
	}
	if ms := e.RegionExtraMs("ec2.eu-west-1", 0.5); ms != 0 {
		t.Fatalf("extra in other region = %gms", ms)
	}
	if !e.ProbeLost("ec2.us-east-1", "probe-1", 0.5) {
		t.Fatal("in-window region probe survived p=1 loss")
	}
	if e.ProbeLost("ec2.us-east-1", "probe-1", 0.9) || e.ProbeLost("ec2.eu-west-1", "probe-1", 0.5) {
		t.Fatal("probe lost out of scope")
	}
	// Region-scoped faults must not leak onto the fabric.
	if v := e.Intercept(1, 2, 0, []byte("x")); v.Drop || v.ExtraRTT != 0 {
		t.Fatalf("region-scoped fault leaked to Intercept: %+v", v)
	}
}

// dnsQuery packs one question for the forging tests.
func dnsQuery(t *testing.T, name string, qtype dnswire.Type) []byte {
	t.Helper()
	q := dnswire.NewQuery(77, name, qtype)
	raw, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestServFailForgesResponse(t *testing.T) {
	e := New(mustParse(t, "servfail,p=1,domains=example.com"), 11)
	v := e.Intercept(1, 2, 5, dnsQuery(t, "www.example.com", dnswire.TypeA))
	if v.Respond == nil {
		t.Fatal("no forged response")
	}
	resp, err := dnswire.Unpack(v.Respond)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Response || resp.Header.ID != 77 || resp.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("forged header = %+v", resp.Header)
	}
	// Out-of-scope domain untouched; non-DNS payload untouched.
	if v := e.Intercept(1, 2, 5, dnsQuery(t, "www.other.net", dnswire.TypeA)); v.Respond != nil {
		t.Fatal("forged for out-of-scope domain")
	}
	if v := e.Intercept(1, 2, 5, []byte("GET / HTTP/1.1")); v.Respond != nil {
		t.Fatal("forged for non-DNS payload")
	}
}

func TestAXFRRefusePolicyStable(t *testing.T) {
	e := New(mustParse(t, "axfr-refuse,dfrac=0.5"), 13)
	refused := 0
	for i := 0; i < 200; i++ {
		name := "zone" + string(rune('a'+i%26)) + string(rune('a'+i/26)) + ".com"
		axfr := e.Intercept(1, 2, 0, dnsQuery(t, name, dnswire.TypeAXFR))
		if a := e.Intercept(1, 2, 0, dnsQuery(t, name, dnswire.TypeA)); a.Respond != nil {
			t.Fatal("axfr-refuse forged for an A query")
		}
		if sub := e.Intercept(1, 2, 0, dnsQuery(t, "www."+name, dnswire.TypeAXFR)); (sub.Respond != nil) != (axfr.Respond != nil) {
			t.Fatal("AXFR policy differed between a domain and its subdomain")
		}
		if axfr.Respond == nil {
			continue
		}
		refused++
		resp, err := dnswire.Unpack(axfr.Respond)
		if err != nil || resp.Header.RCode != dnswire.RCodeRefused {
			t.Fatalf("refusal resp = %+v err = %v", resp, err)
		}
	}
	if refused < 60 || refused > 140 {
		t.Fatalf("refused %d/200 zones with dfrac=0.5", refused)
	}
}

// TestEngineAgainstResolver wires the engine into a real fabric and
// resolver: SERVFAIL bursts exhaust failover, AXFR lockdown refuses
// transfers while ordinary lookups keep working.
func TestEngineAgainstResolver(t *testing.T) {
	fabric := simnet.NewFabric(nil)
	reg := dnssrv.NewRegistry()
	z := dnssrv.NewZone("example.com")
	z.AllowAXFR = true
	nsIP := netaddr.MustParseIP("198.51.100.53")
	z.MustAdd(
		dnswire.RR{Name: "example.com", Type: dnswire.TypeNS, TTL: 3600, Target: "ns1.example.com"},
		dnswire.RR{Name: "ns1.example.com", Type: dnswire.TypeA, TTL: 3600, IP: nsIP},
		dnswire.RR{Name: "www.example.com", Type: dnswire.TypeA, TTL: 300, IP: netaddr.MustParseIP("54.230.0.10")},
	)
	dnssrv.Deploy(fabric, reg, dnssrv.NewServer(z), nsIP)
	rv := dnssrv.NewResolver(fabric, reg, netaddr.MustParseIP("203.0.113.7"))

	fabric.SetInterceptor(New(mustParse(t, "axfr-refuse"), 1))
	if _, err := rv.AXFR("example.com"); !errors.Is(err, dnssrv.ErrRefused) {
		t.Fatalf("AXFR under lockdown err = %v, want ErrRefused", err)
	}
	if chain, err := rv.LookupA("www.example.com"); err != nil || len(chain) != 1 {
		t.Fatalf("LookupA under axfr lockdown: %v %v", chain, err)
	}

	fabric.SetInterceptor(New(mustParse(t, "servfail,p=1"), 1))
	if _, err := rv.Query("www.example.com", dnswire.TypeA); !errors.Is(err, dnssrv.ErrServFail) {
		t.Fatalf("query under total SERVFAIL err = %v", err)
	}
}

func TestScenarioStringEmpty(t *testing.T) {
	var sc *Scenario
	if sc.String() != "" {
		t.Fatal("nil scenario String() non-empty")
	}
	if !strings.Contains((&Scenario{Faults: []Fault{{Kind: Loss, Prob: 0.5}}}).String(), "loss,p=0.5") {
		t.Fatal("String() missing clause")
	}
}
