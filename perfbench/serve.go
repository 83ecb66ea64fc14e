package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudscope"
	"cloudscope/api"
	"cloudscope/internal/deploy"
	"cloudscope/internal/serve"
)

// serveSize sizes the serve-hot workload.
type serveSize struct {
	domains, vantages, flows, wanClients int
	setupReps                            int     // daemons brought up to time setup_s
	conns                                int     // client connections in both loops
	rate                                 float64 // open-loop offered load, req/s (traced run only)
	window                               time.Duration
	// probeRequests is the handler probe's request count; missProbes is
	// the count of distinct /v1/domain names the cache-miss probes ask.
	probeRequests, missProbes int
	// tamper corrupts one response body in every tamper; the
	// self-check uses it to prove the body check can fail.
	tamper int64
}

var serveHotFull = serveSize{
	domains: 500, vantages: 10, flows: 20000, wanClients: 80,
	setupReps: 5, conns: 2, rate: 2000, window: 500 * time.Millisecond,
	probeRequests: 20000, missProbes: 5000,
}

func (sz serveSize) config(seed int64) cloudscope.Config {
	return cloudscope.Config{
		Seed:         seed,
		Domains:      sz.domains,
		Vantages:     sz.vantages,
		CaptureFlows: sz.flows,
		WANClients:   sz.wanClients,
		Workers:      1,
	}
}

// hotMix is serve-hot's weighted request mix over the cached study
// endpoints.
var hotMix = []struct {
	weight int
	path   string
}{
	{4, "/v1/patterns"},
	{3, "/v1/regions"},
	{2, "/v1/zones"},
	{2, "/v1/outage?region=ec2.us-east-1"},
	{1, "/v1/completeness"},
}

// requestGen draws one connection's seeded request sequence.
type requestGen struct{ rng *rand.Rand }

func newRequestGen(seed int64, phase string, conn int) *requestGen {
	h := int64(0)
	for _, c := range phase {
		h = h*31 + int64(c)
	}
	return &requestGen{rand.New(rand.NewSource(seed*1_000_003 + h*101 + int64(conn)))}
}

// next returns the next request path of the hot mix.
func (g *requestGen) next() string {
	total := 0
	for _, m := range hotMix {
		total += m.weight
	}
	x := g.rng.Intn(total)
	for _, m := range hotMix[:len(hotMix)-1] {
		if x < m.weight {
			return m.path
		}
		x -= m.weight
	}
	return hotMix[len(hotMix)-1].path
}

// domainNames draws n distinct /v1/domain names for the cache-miss
// probes: a fifth ranked domains of w, the rest unlisted names, so a
// ranked name repeats rarely and almost every ask is a miss.
func domainNames(w *deploy.World, seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed*7_777_777 + 1))
	seen := map[string]bool{}
	var out []string
	for i := 0; len(out) < n; i++ {
		name := fmt.Sprintf("u%x-%d.example", rng.Int63()&0xffff, i)
		if rng.Intn(5) == 0 {
			name = w.Domains[rng.Intn(len(w.Domains))].Name
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// daemon is one cloudscoped server on a loopback port.
type daemon struct {
	srv     *serve.Server
	http    *http.Server
	base    string
	served  chan struct{}
	clients []*http.Client
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.http.Shutdown(ctx)
	<-d.served
	for _, c := range d.clients {
		c.CloseIdleConnections()
	}
}

// get fetches path on connection conn and returns status and body.
func (d *daemon) get(conn int, path string) (int, []byte, error) {
	resp, err := d.clients[conn].Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// tamperHandler flips one byte of every n-th response body once armed
// (after warm-up, so the daemon still comes up).
type tamperHandler struct {
	h     http.Handler
	every int64
	armed atomic.Bool
	count atomic.Int64
}

func (t *tamperHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.armed.Load() || t.count.Add(1)%t.every != 0 {
		t.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	if len(body) > 0 {
		body[len(body)/2] ^= 0x20
	}
	w.WriteHeader(rec.Code)
	w.Write(body)
}

// startDaemon brings a daemon up until ready: construction, Warm (world
// and discovery), and one answer per warm-up path. It returns the wall
// time and the process CPU time that took.
func startDaemon(sz serveSize, cfg cloudscope.Config, warm []string, tr *tracer, check func(path string, status int, body []byte) bool) (d *daemon, wall, cpu time.Duration, err error) {
	setup := tr.begin("serve.setup", 0)
	defer tr.end(setup)
	c0 := processCPU()
	t0 := time.Now()
	srv, err := serve.New(serve.Config{Study: cfg})
	if err != nil {
		return nil, 0, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	var h http.Handler = srv
	var tamper *tamperHandler
	if sz.tamper > 0 {
		tamper = &tamperHandler{h: srv, every: sz.tamper}
		h = tamper
	}
	d = &daemon{srv: srv, http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), served: make(chan struct{})}
	for i := 0; i < sz.conns; i++ {
		d.clients = append(d.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}})
	}
	go func() {
		defer close(d.served)
		d.http.Serve(ln)
	}()
	id := tr.begin("serve.warm", setup)
	err = srv.Warm(context.Background())
	tr.end(id)
	if err != nil {
		d.close()
		return nil, 0, 0, err
	}
	for _, p := range warm {
		id := tr.begin("ready"+p, setup)
		status, body, err := d.get(0, p)
		tr.end(id)
		if err != nil || !check(p, status, body) {
			d.close()
			return nil, 0, 0, fmt.Errorf("warming %s: status %d, err %v", p, status, err)
		}
	}
	wall, cpu = time.Since(t0), processCPU()-c0
	if tamper != nil {
		tamper.armed.Store(true)
	}
	return d, wall, cpu, nil
}

func runServe(r *run, tr *tracer, sz serveSize) error {
	cfg := sz.config(r.seed)
	if err := cfg.Validate(); err != nil {
		return err
	}
	// The reference study is built offline, outside every timed
	// interval, with the same config as the daemon's.
	ref := cloudscope.NewStudy(cfg)
	id := tr.begin("deploy.generate", 0)
	w := ref.World()
	tr.end(id)
	var ds datasetCounts
	if tr != nil {
		id := tr.begin("dataset.build", 0)
		ds = buildDataset(ref)
		tr.end(id)
	}

	expected, err := expectedBodies(ref)
	if err != nil {
		return err
	}
	var warm []string
	for _, m := range hotMix {
		warm = append(warm, m.path)
	}
	check := func(path string, status int, body []byte) bool {
		return status == http.StatusOK && bytes.Equal(body, expected[path])
	}

	var setups, walls []float64
	var d *daemon
	for i := 0; i < sz.setupReps; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		// Each start-up begins from a collected heap, the previous
		// daemon's included, so the samples differ by the work alone.
		liveHeap()
		var wall, cpu time.Duration
		d, wall, cpu, err = startDaemon(sz, cfg, warm, tr, check)
		if err != nil {
			return err
		}
		setups = append(setups, seconds(cpu))
		walls = append(walls, seconds(wall))
		r.log("serve-hot: daemon %d ready in %.3fs, cpu %.3fs", i, seconds(wall), seconds(cpu))
	}
	defer d.close()

	if tr == nil {
		cl := closedPhase(r, nil, d, sz, check, r.seconds, "m")
		r.metrics["setup_s"] = median(setups)
		r.metrics["p50_ms"] = cl.p50
		r.metrics["cpu_ms_per_op"] = cl.cpuMs
		r.metrics["peak_heap_mb"] = cl.peakMB
		r.summary["req_per_s"] = cl.rate
		r.summary["ready_s"] = median(walls)
		return nil
	}

	// The traced run splits its time in three: the closed loop untraced,
	// the closed loop traced, and the open loop traced.
	third := r.seconds / 3
	plain := closedPhase(r, nil, d, sz, check, third, "u")
	reg := d.srv.Telemetry().Registry()
	h0, m0 := reg.Counter("serve.cache_hits").Value(), reg.Counter("serve.cache_misses").Value()
	mem := startMem()
	traced := closedPhase(r, tr, d, sz, check, third, "t")
	open := openPhase(r, tr, d, sz, check, third)
	_, _, gcs, pause := mem.since()
	hits, misses := reg.Counter("serve.cache_hits").Value()-h0, reg.Counter("serve.cache_misses").Value()-m0
	ops := float64(traced.ops + open.ops)

	m := r.metrics
	m["deploy.generate_s"] = median(tr.durations("deploy.generate"))
	m["serve.warm_s"] = median(tr.durations("serve.warm"))
	m["serve.cache_hit_frac"] = float64(hits) / float64(hits+misses)
	m["serve.rejected"] = float64(reg.Counter("serve.rejected_429").Value() + reg.Counter("serve.rejected_503").Value())
	m["load.p50_ms"] = open.p50
	m["load.p99_ms"] = open.p99
	m["load.lag_p50_ms"] = quantile(open.lagMs, 0.5)
	m["load.lag_p99_ms"] = quantile(open.lagMs, 0.99)
	m["runtime.gc_cycles"] = float64(gcs) / ops
	m["runtime.gc_pause_s"] = seconds(pause) / ops
	m["tracing.overhead_frac"] = plain.rate/traced.rate - 1

	m["dataset.build_s"] = median(tr.durations("dataset.build"))
	m["dataset.dns_queries"] = float64(ds.queries)
	m["dataset.queries_per_s"] = float64(ds.queries) / m["dataset.build_s"]
	m["dataset.useful_frac"] = float64(ds.noerror) / float64(ds.queries)
	m["dataset.alloc_mb"] = float64(ds.allocBytes) / (1 << 20)
	m["dataset.queue_wait_s"] = ds.queueWait
	dnsProbes(r, tr, w, sz.domains)
	handlerProbe(r, tr, d, sz, check)
	names := domainNames(w, r.seed, sz.missProbes)
	missProbe(r, tr, d, w, names)
	return apiDomainProbe(r, tr, ref, w, names)
}

// closedResult is one closed-loop measurement. rate, cpuMs and peakMB
// are medians over the loop's full windows, so one stalled window (a GC
// cycle, a descheduled CPU) moves one sample, not the figure.
type closedResult struct {
	rate   float64 // requests completed per second
	cpuMs  float64 // process CPU time per request, client side included
	p50    float64 // median request latency, ms
	ops    int64
	peakMB float64 // peak live heap in a window
}

// closedPhase runs the closed loop for d, checking every answer. A
// ticker marks a window every sz.window and reads there the process CPU
// time and the window's peak live heap.
func closedPhase(r *run, tr *tracer, dm *daemon, sz serveSize, check func(string, int, []byte) bool, d time.Duration, phase string) closedResult {
	liveHeap()
	heap := startHeapSampler()
	defer heap.stopSampling()
	type mark struct {
		at, cpu time.Duration
		peakMB  float64 // since the previous mark
	}
	var marks []mark
	stop, stopped := make(chan struct{}), make(chan struct{})
	start := time.Now()
	marks = append(marks, mark{0, processCPU(), heap.lap()})
	go func() {
		defer close(stopped)
		t := time.NewTicker(sz.window)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				marks = append(marks, mark{time.Since(start), processCPU(), heap.lap()})
			}
		}
	}()
	id := tr.begin("load.closed", 0)
	done, lat := closedLoop(r, tr, id, dm, sz, check, start, d, phase)
	tr.end(id)
	close(stop)
	<-stopped
	res := closedResult{ops: int64(len(done)), p50: median(lat)}

	// Per window between consecutive marks: requests completed per
	// second, CPU per request and peak live heap. A window the loop
	// ended inside is partial and dropped.
	var rates, cpuMs, peaks []float64
	i := 0
	for k := 1; k < len(marks) && marks[k].at <= d; k++ {
		n := 0
		for ; i < len(done) && done[i] < marks[k].at; i++ {
			n++
		}
		rates = append(rates, float64(n)/seconds(marks[k].at-marks[k-1].at))
		peaks = append(peaks, marks[k].peakMB)
		if n > 0 {
			cpuMs = append(cpuMs, millis(marks[k].cpu-marks[k-1].cpu)/float64(n))
		}
	}
	if len(cpuMs) > 0 {
		res.rate, res.cpuMs, res.peakMB = median(rates), median(cpuMs), median(peaks)
	} else { // the loop ended inside its first window
		last := marks[len(marks)-1]
		res.rate = float64(len(done)) / seconds(done[len(done)-1])
		res.cpuMs = millis(processCPU()-last.cpu) / float64(len(done))
		res.peakMB = heap.lap()
	}
	r.log("serve-hot: closed loop %.0f req/s, p50 %.3fms, cpu %.4fms/request (%d requests, %d windows)",
		res.rate, res.p50, res.cpuMs, len(done), len(rates))
	return res
}

// openResult is one open-loop measurement. p50 and p99 are the
// medians, over the loop's one-second windows, of each window's latency
// quantile (from due time): one stalled second (a GC cycle, a preempted
// CPU) moves one window, not the figure.
type openResult struct {
	p50, p99 float64
	ops      int64
	lagMs    []float64 // how late the generator dispatched each request
}

// openPhase runs the open loop for d, checking every answer.
func openPhase(r *run, tr *tracer, dm *daemon, sz serveSize, check func(string, int, []byte) bool, d time.Duration) openResult {
	id := tr.begin("load.open", 0)
	due, latMs, lagMs := openLoop(r, tr, id, dm, sz, check, d, "o")
	tr.end(id)
	var p50s, p99s []float64
	for lo := 0; lo < len(due); {
		hi := lo
		for hi < len(due) && due[hi]/time.Second == due[lo]/time.Second {
			hi++
		}
		win := append([]float64(nil), latMs[lo:hi]...)
		p50s = append(p50s, quantile(win, 0.5))
		p99s = append(p99s, quantile(win, 0.99))
		lo = hi
	}
	res := openResult{p50: median(p50s), p99: median(p99s), ops: int64(len(latMs)), lagMs: lagMs}
	r.log("serve-hot: open loop at %.0f req/s: p50 %.3fms p99 %.3fms, generator lag p50 %.3fms p99 %.3fms (%d requests)",
		sz.rate, res.p50, res.p99, quantile(lagMs, 0.5), quantile(lagMs, 0.99), len(latMs))
	return res
}

// closedLoop keeps sz.conns connections busy until d after start, each
// sending its next request as soon as the previous answer is in, and
// returns the completion times since start, sorted, and every request's
// latency in ms.
func closedLoop(r *run, tr *tracer, parent int, dm *daemon, sz serveSize, check func(string, int, []byte) bool, start time.Time, d time.Duration, phase string) (done []time.Duration, latMs []float64) {
	perConn := make([][]time.Duration, sz.conns)
	perConnLat := make([][]float64, sz.conns)
	var wg sync.WaitGroup
	for c := 0; c < sz.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			gen := newRequestGen(r.seed, "c"+phase, c)
			for time.Since(start) < d {
				path := gen.next()
				id := tr.begin("http", parent)
				t0 := time.Now()
				status, body, err := dm.get(c, path)
				perConnLat[c] = append(perConnLat[c], millis(time.Since(t0)))
				tr.end(id)
				perConn[c] = append(perConn[c], time.Since(start))
				r.check(err == nil && check(path, status, body), "%s: status %d err %v", path, status, err)
			}
		}(c)
	}
	wg.Wait()
	for c := range perConn {
		done = append(done, perConn[c]...)
		latMs = append(latMs, perConnLat[c]...)
	}
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	return done, latMs
}

// openLoop offers sz.rate req/s with seeded exponential gaps for d. A
// dispatcher releases each request at its due time to whichever of the
// sz.conns connections is free; latency runs from the due time, so a
// stall also charges the requests queued behind it.
func openLoop(r *run, tr *tracer, parent int, dm *daemon, sz serveSize, check func(string, int, []byte) bool, d time.Duration, phase string) (due []time.Duration, latMs, lagMs []float64) {
	rng := rand.New(rand.NewSource(r.seed*7919 + int64(len(phase))))
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / sz.rate * float64(time.Second))
		if t >= d {
			break
		}
		due = append(due, t)
	}
	type job struct {
		i    int
		path string
	}
	gen := newRequestGen(r.seed, "o"+phase, 0)
	jobs := make(chan job, len(due)) // sized to the number of sends: the dispatcher never blocks
	latMs = make([]float64, len(due))
	lagMs = make([]float64, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < sz.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range jobs {
				id := tr.begin("http", parent)
				status, body, err := dm.get(c, j.path)
				tr.end(id)
				latMs[j.i] = millis(time.Since(start) - due[j.i])
				r.check(err == nil && check(j.path, status, body), "%s: status %d err %v", j.path, status, err)
			}
		}(c)
	}
	// The dispatcher keeps its own OS thread so its sleeps stay precise.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i, at := range due {
		if wait := at - time.Since(start); wait > 0 {
			sleepPrecise(wait)
		}
		lagMs[i] = millis(time.Since(start) - at)
		jobs <- job{i, gen.next()}
	}
	close(jobs)
	wg.Wait()
	return due, latMs, lagMs
}

// expectedBodies builds every hot-mix answer offline: the api builder
// plus api.NewEnvelope at epoch 1, marshalled as the daemon does, in the
// daemon's warm-up order.
func expectedBodies(st *cloudscope.Study) (map[string][]byte, error) {
	ctx := context.Background()
	out := map[string][]byte{}
	for _, m := range hotMix {
		endpoint := strings.TrimPrefix(m.path, "/v1/")
		var data any
		var err error
		switch {
		case endpoint == "patterns":
			data, err = api.Patterns(ctx, st)
		case endpoint == "regions":
			data, err = api.Regions(ctx, st)
		case endpoint == "zones":
			data, err = api.Zones(ctx, st)
		case strings.HasPrefix(endpoint, "outage?region="):
			data, err = api.Outage(ctx, st, strings.TrimPrefix(endpoint, "outage?region="))
			endpoint = "outage"
		case endpoint == "completeness":
			data = api.CompletenessReport(st)
		default:
			return nil, fmt.Errorf("no offline builder for %s", m.path)
		}
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(api.NewEnvelope(endpoint, 1, st, data))
		if err != nil {
			return nil, err
		}
		out[m.path] = b
	}
	return out, nil
}

// domainFoundOK checks a /v1/domain answer against the ranked list.
func domainFoundOK(w *deploy.World, name string, body []byte) bool {
	var env struct {
		Data struct {
			Domain string `json:"domain"`
			Found  bool   `json:"found"`
		} `json:"data"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return false
	}
	_, listed := w.List.Lookup(name)
	return env.Data.Domain == name && env.Data.Found == listed
}

// handlerProbe times Server.ServeHTTP into an in-memory recorder, with
// no socket, over the hot mix.
func handlerProbe(r *run, tr *tracer, dm *daemon, sz serveSize, check func(string, int, []byte) bool) {
	gen := newRequestGen(r.seed, "probe", 0)
	reqs := make([]*http.Request, sz.probeRequests)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodGet, gen.next(), nil)
	}
	id := tr.begin("probe.serve.handler", 0)
	var el time.Duration
	for _, req := range reqs {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		dm.srv.ServeHTTP(rec, req)
		el += time.Since(t0)
		r.check(check(req.URL.RequestURI(), rec.Code, rec.Body.Bytes()), "handler probe %s: status %d", req.URL, rec.Code)
	}
	tr.end(id)
	r.metrics["serve.handler_us"] = perCallUs(el, len(reqs))
}

// missProbe asks the daemon, through ServeHTTP, for every name once:
// each ask misses, builds through api.Domain and adds an entry to the
// per-epoch cache, which never evicts. It reports the cache's entries
// and the live-heap growth per added entry.
func missProbe(r *run, tr *tracer, dm *daemon, w *deploy.World, names []string) {
	reg := dm.srv.Telemetry().Registry()
	m0 := reg.Counter("serve.cache_misses").Value()
	heap0 := liveHeap()
	id := tr.begin("probe.serve.miss", 0)
	for _, name := range names {
		rec := httptest.NewRecorder()
		dm.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/domain?name="+name, nil))
		r.check(rec.Code == http.StatusOK && domainFoundOK(w, name, rec.Body.Bytes()), "miss probe %s: status %d", name, rec.Code)
	}
	tr.end(id)
	heap1 := liveHeap()
	entries := reg.Counter("serve.cache_misses").Value()
	r.metrics["serve.cache_entries"] = float64(entries)
	if added := entries - m0; added > 0 {
		r.metrics["serve.heap_bytes_per_entry"] = (float64(heap1) - float64(heap0)) / float64(added)
	}
}

// apiDomainProbe times api.Domain + api.NewEnvelope + marshal on the
// reference study, one call per name.
func apiDomainProbe(r *run, tr *tracer, st *cloudscope.Study, w *deploy.World, names []string) error {
	ctx := context.Background()
	// The first call builds every stage /v1/domain reads; keep it untimed.
	if _, err := api.Domain(ctx, st, w.CloudDomains[0].Name); err != nil {
		return err
	}
	id := tr.begin("probe.api.domain", 0)
	t0 := time.Now()
	for _, name := range names {
		data, err := api.Domain(ctx, st, name)
		if err != nil {
			return err
		}
		b, err := json.Marshal(api.NewEnvelope("domain", 1, st, data))
		r.check(err == nil && domainFoundOK(w, name, b), "api.Domain(%s)", name)
	}
	r.metrics["api.domain_us"] = perCallUs(time.Since(t0), len(names))
	tr.end(id)
	return nil
}
