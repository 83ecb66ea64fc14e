// Command cloudscoped serves the study's answers over HTTP: one shared
// immutable world per epoch, a versioned /v1/* query API, per-query
// result caching, bounded admission, and JSON metrics.
//
// Usage:
//
//	cloudscoped -addr :8080 -domains 5000
//	cloudscoped -addr :8080 -chaos hostile        # degraded-but-honest answers
//
// Endpoints:
//
//	GET  /v1/patterns                 Table 7 feature usage + Table 3 breakdown
//	GET  /v1/regions                  Table 9 region usage
//	GET  /v1/zones                    §4.3 availability-zone usage
//	GET  /v1/domain?name=example.com  one domain: rank, subdomains, zones, latency
//	GET  /v1/wanperf                  §5 latency/throughput matrices, optimal-k
//	GET  /v1/outage[?region=...]      region/zone blast radii (+headline)
//	GET  /v1/completeness             per-stage probe accounting
//	GET  /healthz                     liveness + current epoch
//	GET  /metrics                     serve.* and study telemetry, JSON
//	POST /admin/reload?seed=&domains=&chaos=   swap in a new world epoch
//
// A /v1 query reads only the parameters shown, and only the first
// value of each; anything else in the query string is ignored and
// shares the cached answer of the query without it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cloudscope"
	"cloudscope/internal/cliflags"
	"cloudscope/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	domains := flag.Int("domains", 20000, "ranked-list size (the paper's top 1M, scaled)")
	seed := flag.Int64("seed", 1, "world seed")
	vantages := flag.Int("vantages", 200, "distributed DNS vantage points")
	flows := flag.Int("flows", 30000, "border-capture flows")
	maxQueue := flag.Int("max-queue", 256, "bound on requests in the system; excess gets 429")
	queueTimeout := flag.Duration("queue-timeout", 5*time.Second, "max wait for an endpoint slot before 503")
	endpointConc := flag.Int("endpoint-concurrency", 4, "concurrently executing requests per endpoint")
	warm := flag.Bool("warm", false, "build the world and dataset before accepting traffic")
	shared := cliflags.Register(flag.CommandLine)
	flag.Parse()

	cfg := cloudscope.Config{Seed: *seed, Domains: *domains, Vantages: *vantages, CaptureFlows: *flows}
	if err := shared.Apply(&cfg); err != nil {
		fatal(err)
	}

	srv, err := serve.New(serve.Config{
		Study:               cfg,
		MaxQueue:            *maxQueue,
		QueueTimeout:        *queueTimeout,
		EndpointConcurrency: *endpointConc,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	if *warm {
		fmt.Fprintf(os.Stderr, "cloudscoped: warming world + dataset; will serve on http://%s\n", ln.Addr())
		start := time.Now()
		if err := srv.Warm(context.Background()); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "cloudscoped: world + dataset warm in %.1fs\n", time.Since(start).Seconds())
	}

	httpSrv := &http.Server{Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
	}()
	fmt.Fprintf(os.Stderr, "cloudscoped: serving on http://%s (epoch %d, seed %d, %d domains)\n",
		ln.Addr(), srv.Epoch(), cfg.Seed, cfg.Domains)
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "cloudscoped: shut down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cloudscoped:", err)
	os.Exit(1)
}
