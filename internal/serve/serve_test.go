package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"cloudscope"
	"cloudscope/internal/chaos"
	"cloudscope/internal/load"
)

func testStudyConfig() cloudscope.Config {
	cfg := cloudscope.DefaultConfig()
	cfg.Domains = 300
	cfg.Vantages = 8
	cfg.CaptureFlows = 500
	cfg.Workers = 1
	return cfg
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

type envelope struct {
	APIVersion   string `json:"api_version"`
	Endpoint     string `json:"endpoint"`
	Epoch        int64  `json:"epoch"`
	Seed         int64  `json:"seed"`
	Degraded     bool   `json:"degraded"`
	Completeness []struct {
		Stage       string  `json:"stage"`
		SuccessRate float64 `json:"success_rate"`
	} `json:"completeness"`
	Data json.RawMessage `json:"data"`
}

var allEndpoints = []string{
	"/v1/patterns", "/v1/regions", "/v1/zones", "/v1/wanperf",
	"/v1/outage?region=ec2.us-east-1", "/v1/completeness",
}

// TestServeSmoke is the CI smoke leg (`make serve-smoke`): a real
// daemon on a random port, a small deterministic cloudload mix, zero
// errors, and a parseable metrics endpoint.
func TestServeSmoke(t *testing.T) {
	srv, ts := newTestServer(t, Config{Study: testStudyConfig()})
	mix, err := load.ParseMix("4:/v1/patterns,3:/v1/regions,2:/v1/zones,2:/v1/outage?region=ec2.us-east-1,1:/v1/completeness,1:/v1/domain?name=missing.example")
	if err != nil {
		t.Fatal(err)
	}
	res, err := load.Run(load.Config{
		BaseURL:     ts.URL,
		Mix:         mix,
		Requests:    200,
		Concurrency: 8,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Shed != 0 {
		t.Fatalf("smoke run had %d errors, %d shed:\n%s", res.Errors, res.Shed, res.Report())
	}
	if res.OK != 200 {
		t.Fatalf("OK = %d, want 200", res.OK)
	}

	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v", err)
	}
	if _, ok := m["serve"]; !ok {
		t.Fatal("/metrics missing serve section")
	}
	if _, ok := m["study"]; !ok {
		t.Fatal("/metrics missing study section")
	}
	if srv.MaxInSystem() > 256 {
		t.Fatalf("in-system high-water %d exceeded default queue bound", srv.MaxInSystem())
	}

	status, body = get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", status, body)
	}
}

// TestCacheHitRatio checks the second identical query is served from
// cache and the counters say so.
func TestCacheHitRatio(t *testing.T) {
	srv, ts := newTestServer(t, Config{Study: testStudyConfig()})
	_, first := get(t, ts.URL+"/v1/patterns")
	_, second := get(t, ts.URL+"/v1/patterns")
	if string(first) != string(second) {
		t.Fatal("cached answer differs from first answer")
	}
	reg := srv.Telemetry().Registry()
	if hits := reg.Counter("serve.cache_hits").Value(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := reg.Counter("serve.cache_misses").Value(); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
}

// TestDeterminism: two same-seed daemons answer every endpoint with
// byte-identical V1 JSON when queried in the same order (completeness
// accounting accumulates across stage builds, so order matters).
// Worker-count invariance of the payloads is pinned separately in the
// api package's golden tests.
func TestDeterminism(t *testing.T) {
	_, tsA := newTestServer(t, Config{Study: testStudyConfig()})
	_, tsB := newTestServer(t, Config{Study: testStudyConfig()})

	paths := append([]string{}, allEndpoints...)
	paths = append(paths, "/v1/domain?name=missing.example")
	for _, p := range paths {
		sa, ba := get(t, tsA.URL+p)
		sb, bb := get(t, tsB.URL+p)
		if sa != sb {
			t.Fatalf("%s: status %d vs %d", p, sa, sb)
		}
		if string(ba) != string(bb) {
			t.Fatalf("%s: bodies differ between same-seed daemons\nA: %.200s\nB: %.200s", p, ba, bb)
		}
	}
}

// TestReloadEpoch checks /admin/reload swaps the world: the epoch
// bumps, the cache is discarded, and answers reflect the new seed.
func TestReloadEpoch(t *testing.T) {
	srv, ts := newTestServer(t, Config{Study: testStudyConfig()})
	_, body1 := get(t, ts.URL+"/v1/patterns")
	var env1 envelope
	if err := json.Unmarshal(body1, &env1); err != nil {
		t.Fatal(err)
	}
	if env1.Epoch != 1 || env1.Seed != 1 {
		t.Fatalf("epoch/seed = %d/%d, want 1/1", env1.Epoch, env1.Seed)
	}

	resp, err := http.Post(ts.URL+"/admin/reload?seed=42", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if srv.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", srv.Epoch())
	}

	_, body2 := get(t, ts.URL+"/v1/patterns")
	var env2 envelope
	if err := json.Unmarshal(body2, &env2); err != nil {
		t.Fatal(err)
	}
	if env2.Epoch != 2 || env2.Seed != 42 {
		t.Fatalf("post-reload epoch/seed = %d/%d, want 2/42", env2.Epoch, env2.Seed)
	}
	if string(body1) == string(body2) {
		t.Fatal("reload did not invalidate the cached answer")
	}

	// GET must not reload.
	status, _ := get(t, ts.URL+"/admin/reload")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /admin/reload status %d", status)
	}
}

// TestConcurrentReload hammers mixed queries across an epoch swap
// under -race: every answer must be internally consistent (epoch 1
// pairs with the old seed, epoch 2+ with the new), and the admission
// high-water mark must respect the queue bound.
func TestConcurrentReload(t *testing.T) {
	cfg := Config{Study: testStudyConfig(), MaxQueue: 64, EndpointConcurrency: 8}
	srv, ts := newTestServer(t, cfg)

	const workers = 8
	const perWorker = 30
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)

	paths := []string{"/v1/patterns", "/v1/regions", "/v1/outage?region=ec2.us-east-1", "/v1/completeness"}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[(w+i)%len(paths)])
				if err != nil {
					errs <- err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var env envelope
					if err := json.Unmarshal(body, &env); err != nil {
						errs <- fmt.Errorf("bad envelope: %v", err)
						return
					}
					wantSeed := int64(1)
					if env.Epoch >= 2 {
						wantSeed = 42
					}
					if env.Seed != wantSeed {
						errs <- fmt.Errorf("stale answer: epoch %d with seed %d", env.Epoch, env.Seed)
						return
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					// Backpressure is a legal answer under load.
				default:
					errs <- fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
					return
				}
			}
		}(w)
	}

	time.Sleep(50 * time.Millisecond)
	resp, err := http.Post(ts.URL+"/admin/reload?seed=42", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	wg.Wait()
	close(stop)
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if max := srv.MaxInSystem(); max > 64 {
		t.Fatalf("admission high-water %d exceeded MaxQueue 64", max)
	}
	if srv.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", srv.Epoch())
	}
}

// TestBackpressure forces queue overflow: with MaxQueue 2 and slow
// first-build endpoints, a burst must see 429s, and the in-system
// count must never exceed the bound.
func TestBackpressure(t *testing.T) {
	cfg := Config{Study: testStudyConfig(), MaxQueue: 2, EndpointConcurrency: 1, QueueTimeout: 50 * time.Millisecond}
	srv, ts := newTestServer(t, cfg)

	const burst = 12
	var wg sync.WaitGroup
	var mu sync.Mutex
	counts := map[int]int{}
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/zones") // first build is slow
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			mu.Lock()
			counts[resp.StatusCode]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if counts[http.StatusTooManyRequests]+counts[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("burst of %d against queue of 2 produced no backpressure: %v", burst, counts)
	}
	if max := srv.MaxInSystem(); max > 2 {
		t.Fatalf("admission high-water %d exceeded MaxQueue 2", max)
	}
	reg := srv.Telemetry().Registry()
	if reg.Counter("serve.rejected_429").Value()+reg.Counter("serve.rejected_503").Value() == 0 {
		t.Fatal("rejection counters did not move")
	}
}

// TestChaosDegraded: a chaos-scenario daemon serves 200-OK answers
// whose envelopes carry Completeness fractions below 1 — degraded but
// honest.
func TestChaosDegraded(t *testing.T) {
	sc, err := chaos.Load("hostile")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testStudyConfig()
	cfg.Seed = 3
	cfg.Domains = 500
	cfg.Vantages = 10
	cfg.Chaos = sc
	_, ts := newTestServer(t, Config{Study: cfg})

	status, body := get(t, ts.URL+"/v1/patterns")
	if status != http.StatusOK {
		t.Fatalf("chaos daemon answered %d, want 200: %.200s", status, body)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Degraded {
		t.Fatal("chaos answer not flagged degraded")
	}
	below := false
	for _, st := range env.Completeness {
		if st.SuccessRate < 1.0 {
			below = true
		}
	}
	if !below {
		t.Fatalf("no completeness fraction below 1 in %s", body)
	}
}

// TestDomainParamErrors pins the parameter-error paths.
func TestDomainParamErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Study: testStudyConfig()})
	status, _ := get(t, ts.URL+"/v1/domain")
	if status != http.StatusBadRequest {
		t.Fatalf("missing name -> %d, want 400", status)
	}
	status, body := get(t, ts.URL+"/v1/domain?name=missing.example")
	if status != http.StatusOK {
		t.Fatalf("unknown domain -> %d, want 200 (found=false)", status)
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Found bool `json:"found"`
	}
	if err := json.Unmarshal(env.Data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Found {
		t.Fatal("unknown domain reported found")
	}
}

// TestReloadValidation: a bad reload request must not bump the epoch.
func TestReloadValidation(t *testing.T) {
	srv, ts := newTestServer(t, Config{Study: testStudyConfig()})
	for _, q := range []string{"seed=abc", "domains=-5", "chaos=no-such-scenario"} {
		resp, err := http.Post(ts.URL+"/admin/reload?"+q, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("reload?%s -> %d, want 400", q, resp.StatusCode)
		}
	}
	if srv.Epoch() != 1 {
		t.Fatalf("failed reloads bumped epoch to %d", srv.Epoch())
	}
}

// TestCacheKeyFollowsBuilderParams: the cache keys on exactly what the
// builder reads. A repeated name answers its first value whichever
// order the values come in, and a parameter no builder reads is a
// cache hit on the bare query rather than a new entry.
func TestCacheKeyFollowsBuilderParams(t *testing.T) {
	srv, ts := newTestServer(t, Config{Study: testStudyConfig()})
	domainOf := func(query string) string {
		t.Helper()
		status, body := get(t, ts.URL+"/v1/domain?"+query)
		if status != http.StatusOK {
			t.Fatalf("domain?%s -> %d: %s", query, status, body)
		}
		var env envelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		var d struct {
			Domain string `json:"domain"`
		}
		if err := json.Unmarshal(env.Data, &d); err != nil {
			t.Fatal(err)
		}
		return d.Domain
	}
	for _, c := range []struct{ query, want string }{
		{"name=b.example&name=a.example", "b.example"},
		{"name=a.example&name=b.example", "a.example"},
	} {
		if got := domainOf(c.query); got != c.want {
			t.Errorf("domain?%s answered %q, want %q", c.query, got, c.want)
		}
	}

	hits := srv.Telemetry().Registry().Counter("serve.cache_hits")
	get(t, ts.URL+"/v1/patterns")
	before := hits.Value()
	get(t, ts.URL+"/v1/patterns?junk=1")
	if got := hits.Value(); got != before+1 {
		t.Fatalf("patterns?junk=1 missed the cache (hits %d -> %d)", before, got)
	}
}

// TestCacheBoundedByWorld: only answers whose parameter values come
// from the epoch's world enter the cache. Concurrent asks for unknown
// names and regions are answered but leave the cache size unchanged,
// while a ranked name and a published region are stored and hit.
func TestCacheBoundedByWorld(t *testing.T) {
	srv, ts := newTestServer(t, Config{Study: testStudyConfig()})
	st := srv.state.Load()
	ranked := st.study.World().List.Rank(1).Name
	cacheSize := func() int {
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.cache)
	}
	for _, path := range []string{"/v1/domain?name=" + ranked, "/v1/outage?region=az.us-east"} {
		if status, body := get(t, ts.URL+path); status != http.StatusOK {
			t.Fatalf("%s -> %d: %s", path, status, body)
		}
	}
	size := cacheSize()

	var paths []string
	for i := 0; i < 200; i++ {
		paths = append(paths, fmt.Sprintf("/v1/domain?name=unknown-%d.example", i))
	}
	for i := 0; i < 20; i++ {
		paths = append(paths, fmt.Sprintf("/v1/outage?region=ec2.nowhere-%d", i))
	}
	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for path := range work {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s -> %d, want 200", path, resp.StatusCode)
				}
			}
		}()
	}
	for _, path := range paths {
		work <- path
	}
	close(work)
	wg.Wait()
	if got := cacheSize(); got != size {
		t.Fatalf("cache grew from %d to %d entries on unknown names and regions", size, got)
	}

	hits := srv.Telemetry().Registry().Counter("serve.cache_hits")
	for _, path := range []string{"/v1/domain?name=" + ranked, "/v1/outage?region=az.us-east"} {
		before := hits.Value()
		get(t, ts.URL+path)
		if got := hits.Value(); got != before+1 {
			t.Errorf("repeated %s missed the cache (hits %d -> %d)", path, before, got)
		}
	}
}
