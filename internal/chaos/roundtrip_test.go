package chaos

import (
	"reflect"
	"testing"

	"cloudscope/internal/chaos/trace"
	"cloudscope/internal/dnswire"
	"cloudscope/internal/netaddr"
)

// TestLibraryRoundTrip: for every library scenario (triggers included),
// Parse(sc.String()) reconstructs the scenario structurally.
func TestLibraryRoundTrip(t *testing.T) {
	for _, name := range Library() {
		sc, err := Load(name)
		if err != nil {
			t.Fatalf("Load(%q): %v", name, err)
		}
		rt, err := Parse(sc.String())
		if err != nil {
			t.Fatalf("%s: Parse(String()) failed: %v\nspec: %s", name, err, sc.String())
		}
		rt.Name = sc.Name // Parse names the scenario after the spec
		if !reflect.DeepEqual(rt, sc) {
			t.Errorf("%s: round trip changed the scenario:\n got %+v\nwant %+v", name, rt, sc)
		}
		if rt.String() != sc.String() {
			t.Errorf("%s: String() not a fixed point:\n%s\nvs\n%s", name, rt.String(), sc.String())
		}
	}
	if sc, _ := Load("cascade"); len(sc.Triggers) != 2 {
		t.Fatalf("cascade triggers = %+v, want 2", sc.Triggers)
	}
}

func TestTriggerParse(t *testing.T) {
	sc := mustParse(t, "brownout,region=us-east,add=100ms;servfail,p=0.05;brownout:us-east=>servfail+0.2")
	if len(sc.Faults) != 2 || len(sc.Triggers) != 1 {
		t.Fatalf("faults=%d triggers=%d", len(sc.Faults), len(sc.Triggers))
	}
	tr := sc.Triggers[0]
	want := Trigger{CauseKind: Brownout, CauseRegion: "us-east", Hops: []Hop{{Target: ServFail, Boost: 0.2}}}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("trigger = %+v, want %+v", tr, want)
	}
	// Unscoped cause.
	sc = mustParse(t, "loss,p=0.1;vantage-down,frac=0.2;loss=>vantage-down+0.3")
	if tr := sc.Triggers[0]; tr.CauseRegion != "" ||
		!reflect.DeepEqual(tr.Hops, []Hop{{Target: VantageDown, Boost: 0.3}}) {
		t.Fatalf("trigger = %+v", tr)
	}
	// Multi-hop chain.
	sc = mustParse(t, "brownout,region=us-east,add=50ms;servfail,p=0.05;vantage-down,frac=0.1;"+
		"brownout:us-east=>servfail+0.3=>vantage-down+0.2")
	wantDeep := Trigger{CauseKind: Brownout, CauseRegion: "us-east",
		Hops: []Hop{{Target: ServFail, Boost: 0.3}, {Target: VantageDown, Boost: 0.2}}}
	if !reflect.DeepEqual(sc.Triggers[0], wantDeep) {
		t.Fatalf("deep trigger = %+v, want %+v", sc.Triggers[0], wantDeep)
	}
	if got := sc.Triggers[0].String(); got != "brownout:us-east=>servfail+0.3=>vantage-down+0.2" {
		t.Fatalf("deep trigger String() = %q", got)
	}

	for _, bad := range []string{
		"loss,p=0.1;loss=>servfail",                                  // no boost
		"loss,p=0.1;loss=>servfail+2",                                // boost out of range
		"loss,p=0.1;loss=>servfail+0",                                // zero boost
		"loss,p=0.1;loss=>brownout+0.2",                              // brownout cannot be a target
		"loss,p=0.1;meteor=>servfail+0.2",                            // unknown cause kind
		"loss,p=0.1;loss:=>servfail+0.2",                             // empty cause region
		"loss,p=0.1;loss=>axfr-refuse+0.2",                           // policy faults cannot be boosted
		"loss,p=0.1;servfail,p=0.1;loss=>servfail+0.2=>brownout+0.1", // chain hop cannot target brownout
		"loss,p=0.1;servfail,p=0.1;loss=>servfail+0.2=>vantage-down", // chain hop without boost
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestTriggerBoostsVantageDraws: inside the cause window the trigger
// raises the vantage-down selection fraction; outside it the base rate
// rules.
func TestTriggerBoostsVantageDraws(t *testing.T) {
	spec := "vantage-down,frac=0.1;brownout,region=us-east,add=100ms,window=0.3-0.7;" +
		"brownout:us-east=>vantage-down+0.5"
	e := New(mustParse(t, spec), 21)
	// Same scenario name (hence identical hash draws) minus the trigger.
	baseSc := mustParse(t, spec)
	baseSc.Triggers = nil
	base := New(baseSc, 21)
	inWin, outWin := 0, 0
	for i := 0; i < 1000; i++ {
		name := "v" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		if e.VantageOut(name, 0.5) {
			inWin++
		}
		if e.VantageOut(name, 0.1) {
			outWin++
		}
		// The boost only widens the dark set: every vantage the base
		// scenario takes out stays out.
		if base.VantageOut(name, 0.5) && !e.VantageOut(name, 0.5) {
			t.Fatal("trigger revived a base-rate casualty")
		}
	}
	if inWin < 450 || inWin > 750 {
		t.Fatalf("boosted rate %d/1000, want ~600", inWin)
	}
	if outWin < 40 || outWin > 200 {
		t.Fatalf("unboosted rate %d/1000, want ~100", outWin)
	}
}

// TestTriggerBoostsProbeLoss: region-scoped probe loss rises while the
// cause brownout is active.
func TestTriggerBoostsProbeLoss(t *testing.T) {
	spec := "loss,p=0.05,region=us-east;brownout,region=us-east,add=50ms,window=0.2-0.6;" +
		"brownout:us-east=>loss+0.4"
	e := New(mustParse(t, spec), 33)
	inWin, outWin := 0, 0
	for i := 0; i < 1000; i++ {
		key := "probe-" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		if e.ProbeLost("ec2.us-east-1", key, 0.4) {
			inWin++
		}
		if e.ProbeLost("ec2.us-east-1", key, 0.8) {
			outWin++
		}
	}
	if inWin < 350 || inWin > 550 {
		t.Fatalf("boosted loss %d/1000, want ~450", inWin)
	}
	if outWin < 10 || outWin > 120 {
		t.Fatalf("unboosted loss %d/1000, want ~50", outWin)
	}
}

// TestTriggerRecordsCause: verdicts induced by a trigger carry the
// causal edge; base-rate verdicts do not.
func TestTriggerRecordsCause(t *testing.T) {
	spec := "vantage-down,frac=0.1;brownout,region=us-east,add=100ms,window=0.3-0.7;" +
		"brownout:us-east=>vantage-down+0.5"
	e := New(mustParse(t, spec), 21)
	rec := trace.NewRecorder(trace.Header{Scenario: "t", Spec: spec, Seed: 21})
	e.SetRecorder(rec)
	for i := 0; i < 300; i++ {
		name := "v" + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))
		e.VantageOut(name, 0.5)
	}
	snap := rec.Snapshot()
	caused, uncaused := 0, 0
	for _, ev := range snap.Events {
		switch ev.Cause {
		case "":
			uncaused++
		case "brownout:us-east=>vantage-down+0.5":
			caused++
		default:
			t.Fatalf("unexpected cause label %q", ev.Cause)
		}
	}
	if caused == 0 || uncaused == 0 {
		t.Fatalf("caused=%d uncaused=%d; want both base-rate and induced verdicts", caused, uncaused)
	}
}

// TestRecordReplayUnits: every decision point answers identically from
// a replay engine fed the live engine's own trace.
func TestRecordReplayUnits(t *testing.T) {
	sc, err := Load("cascade")
	if err != nil {
		t.Fatal(err)
	}
	live := New(sc, 17)
	rec := trace.NewRecorder(trace.Header{Scenario: sc.Name, Spec: sc.String(), Seed: 17})
	live.SetRecorder(rec)

	type wirecase struct {
		src, dst uint64
		flow     uint64
		payload  []byte
	}
	var wires []wirecase
	for i := 0; i < 400; i++ {
		wires = append(wires, wirecase{1, uint64(0x36000000 + i), uint64(i), dnsQuery(t, "www.example.com", dnswire.TypeA)})
	}
	phases := []float64{0.05, 0.3, 0.5, 0.85}

	type flatVerdict struct {
		drop    bool
		extra   int64
		respond string
	}
	query := func(e *Engine) (verdicts []flatVerdict, vout, aout, plost []bool, extra []float64) {
		for _, w := range wires {
			v := e.Intercept(netaddr.IP(w.src), netaddr.IP(w.dst), w.flow, w.payload)
			verdicts = append(verdicts, flatVerdict{drop: v.Drop, extra: int64(v.ExtraRTT), respond: string(v.Respond)})
		}
		for _, ph := range phases {
			for i := 0; i < 50; i++ {
				name := "u" + string(rune('a'+i%26)) + string(rune('0'+i/26))
				vout = append(vout, e.VantageOut(name, ph))
				aout = append(aout, e.AccountOut(name, ph))
				plost = append(plost, e.ProbeLost("ec2.us-east-1", name, ph))
			}
			extra = append(extra, e.RegionExtraMs("ec2.us-east-1", ph), e.RegionExtraMs("azure.West-Europe", ph))
		}
		return
	}

	lv, lvo, lao, lpl, lex := query(live)
	snap := rec.Snapshot()
	if snap.Len() == 0 {
		t.Fatal("cascade run recorded no fault verdicts")
	}
	rp := NewReplay(snap)
	if rp.rp == nil || rp.sc != nil {
		t.Fatal("replay engine not in replay mode, or carries a scenario to draw from")
	}
	rv, rvo, rao, rpl, rex := query(rp)
	if !reflect.DeepEqual(lv, rv) {
		t.Fatal("wire verdicts diverged under replay")
	}
	if !reflect.DeepEqual(lvo, rvo) || !reflect.DeepEqual(lao, rao) {
		t.Fatal("vantage/account outages diverged under replay")
	}
	if !reflect.DeepEqual(lpl, rpl) {
		t.Fatal("probe-loss verdicts diverged under replay")
	}
	if !reflect.DeepEqual(lex, rex) {
		t.Fatal("region brownout latencies diverged under replay")
	}

	// A replay engine never records, and NewReplay(nil) is inert.
	rp.SetRecorder(trace.NewRecorder(trace.Header{}))
	if rp.rec != nil {
		t.Fatal("replay engine accepted a recorder")
	}
	if NewReplay(nil) != nil {
		t.Fatal("NewReplay(nil) != nil")
	}
}
