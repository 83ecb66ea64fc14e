package cloudscope

// Go benchmarks that the perfbench harness does not cover: the
// worker-pool scaling pass, the ablation sweeps DESIGN.md §5 calls
// out, and the telemetry overhead check. Expensive pipeline stages
// (world generation, DNS discovery) run once and are shared; each
// benchmark measures its own pass over them.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"cloudscope/internal/cartography"
	"cloudscope/internal/cloud"
	"cloudscope/internal/core"
	"cloudscope/internal/core/dataset"
	"cloudscope/internal/core/patterns"
	"cloudscope/internal/core/regions"
	"cloudscope/internal/core/wanperf"
	"cloudscope/internal/parallel"
	"cloudscope/internal/telemetry/runtimeprof"
	"cloudscope/internal/wan"
	"cloudscope/internal/wordlist"
)

var (
	benchOnce  sync.Once
	benchStudy *Study
)

// study prepares the shared pipeline state once.
func study(b *testing.B) *Study {
	b.Helper()
	benchOnce.Do(func() {
		benchStudy = NewStudy(Config{Seed: 3, Domains: 1500, Vantages: 30, CaptureFlows: 4000, WANClients: 60})
		benchStudy.Dataset()
		benchStudy.Detection()
	})
	return benchStudy
}

// --- Worker-pool scaling -----------------------------------------------

var (
	benchWorkersOnce  sync.Once
	benchWorkersStudy *Study
)

// workersStudy prepares the 10K-domain study the scaling benchmark
// shards, with the expensive one-off stages (world, discovery, zone
// cartography targets) prebuilt and shared.
func workersStudy(b *testing.B) *Study {
	b.Helper()
	benchWorkersOnce.Do(func() {
		benchWorkersStudy = NewStudy(Config{
			Seed: 9, Domains: 10000, Vantages: 20, CaptureFlows: 1000, WANClients: 80,
			NoTelemetry: true,
		})
		benchWorkersStudy.Dataset()
		benchWorkersStudy.Detection()
		benchWorkersStudy.Zones()
		benchWorkersStudy.Campaign()
	})
	return benchWorkersStudy
}

// BenchmarkPipelineWorkers measures one pass of every parallelized
// analysis stage — pattern detection, region mapping, zone latency
// probing, and the WAN matrix — at fixed worker counts over the
// 10K-domain study. Outputs are bit-identical across sub-benchmarks;
// only the wall clock moves.
func BenchmarkPipelineWorkers(b *testing.B) {
	s := workersStudy(b)
	ds := s.Dataset()
	ec2 := s.World().EC2
	targets := s.Zones().Targets
	campaign := s.Campaign()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := parallel.Options{Workers: workers}
			acct := ec2.NewAccount(fmt.Sprintf("pipeworkers-%d", workers))
			campaign.Par = opt
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := must(patterns.DetectAllPar(ds, opt))
				_ = must(regions.AnalyzePar(ds, d, opt))
				_ = must(cartography.IdentifyByLatency(ec2, acct, targets, cartography.ThresholdMs, core.Options{Seed: int64(i), Par: opt}))
				_ = must(campaign.Matrix(wan.MetricLatency, wanperf.USRegions, 0))
			}
		})
	}
}

// --- Ablations (DESIGN.md §5) ------------------------------------------

// BenchmarkAblationZoneThreshold sweeps the latency method's T and
// reports unknown/error trade-offs as metrics.
func BenchmarkAblationZoneThreshold(b *testing.B) {
	s := study(b)
	ec2 := s.World().EC2
	targets := s.Zones().Targets
	for _, tMs := range []float64{0.7, 0.9, 1.1, 1.5, 2.0} {
		b.Run(fmt.Sprintf("T=%.1fms", tMs), func(b *testing.B) {
			acct := ec2.NewAccount(fmt.Sprintf("ablation-%d", int(tMs*10)))
			var unknownRate float64
			for i := 0; i < b.N; i++ {
				res := must(cartography.IdentifyByLatency(ec2, acct, targets, tMs, core.Options{Seed: int64(i), Par: parallel.Options{}}))
				var unknown, responding int
				for _, rr := range res {
					unknown += rr.Unknown
					responding += rr.Responding
				}
				if responding > 0 {
					unknownRate = float64(unknown) / float64(responding)
				}
			}
			b.ReportMetric(100*unknownRate, "%unknown")
		})
	}
}

// BenchmarkAblationWordlist measures discovery recall vs dictionary size.
func BenchmarkAblationWordlist(b *testing.B) {
	s := study(b)
	w := s.World()
	names := make([]string, 0, 400)
	for _, d := range w.Domains[:400] {
		names = append(names, d.Name)
	}
	full := wordlist.Common()
	for _, frac := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("words=%d%%", frac), func(b *testing.B) {
			words := full[:len(full)*frac/100]
			var found int
			for i := 0; i < b.N; i++ {
				ds := must(dataset.Build(dataset.Config{
					Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
					Domains: names, Wordlist: words, Vantages: 5,
				}))
				found = ds.Stats.CloudSubdomains
			}
			b.ReportMetric(float64(found), "cloud-subs")
		})
	}
}

// BenchmarkAblationVantages measures record discovery vs vantage count.
func BenchmarkAblationVantages(b *testing.B) {
	s := study(b)
	w := s.World()
	names := make([]string, 0, 400)
	for _, d := range w.Domains[:400] {
		names = append(names, d.Name)
	}
	for _, v := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("vantages=%d", v), func(b *testing.B) {
			var ips int
			for i := 0; i < b.N; i++ {
				ds := must(dataset.Build(dataset.Config{
					Fabric: w.Fabric, Registry: w.Registry, Ranges: w.Ranges,
					Domains: names, Vantages: v,
				}))
				ips = 0
				for _, o := range ds.Subdomains {
					ips += len(o.IPs)
				}
			}
			b.ReportMetric(float64(ips), "records")
		})
	}
}

// BenchmarkAblationProximityPrefix sweeps the /16 granularity.
func BenchmarkAblationProximityPrefix(b *testing.B) {
	s := study(b)
	z := s.Zones()
	for _, bits := range []int{8, 12, 16, 20} {
		b.Run(fmt.Sprintf("prefix=%d", bits), func(b *testing.B) {
			var matched int
			for i := 0; i < b.N; i++ {
				idx := z.PM.Index("ec2.us-east-1", bits)
				matched = 0
				for _, t := range z.Targets {
					if t.Region != "ec2.us-east-1" {
						continue
					}
					if _, ok := cartography.IdentifyAt(idx, t.InternalIP, bits); ok {
						matched++
					}
				}
			}
			b.ReportMetric(float64(matched), "matched")
		})
	}
}

// BenchmarkAblationGreedyK compares greedy and exhaustive planners.
func BenchmarkAblationGreedyK(b *testing.B) {
	c := study(b).Campaign()
	b.Run("exhaustive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = must(c.OptimalK(wan.MetricLatency, 5))
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = must(c.GreedyK(wan.MetricLatency, 5))
		}
	})
}

// BenchmarkAblationCartographyDensity sweeps proximity sampling density.
// Each iteration samples a fresh cloud: repeated sampling against one
// shared world would eventually drain a small region's public pool.
func BenchmarkAblationCartographyDensity(b *testing.B) {
	for _, perZone := range []int{2, 6, 12} {
		b.Run(fmt.Sprintf("perZone=%d", perZone), func(b *testing.B) {
			var covered float64
			for i := 0; i < b.N; i++ {
				ec2 := cloud.NewEC2(int64(i))
				targets := make([]*cloud.Instance, 0, 120)
				for j := 0; j < 120; j++ {
					targets = append(targets, ec2.Launch("ec2.us-east-1", j%3, "m1.small", cloud.KindVM))
				}
				ref := ec2.NewAccount(fmt.Sprintf("dens-%d-%d", perZone, i))
				samples := must(cartography.SampleAccounts(ec2, ref, 3, perZone, core.Options{Seed: int64(i), Par: parallel.Options{Workers: 1}}))
				pm := must(cartography.MergeAccounts(samples, "", core.Options{Par: parallel.Options{Workers: 1}}))
				hit := 0
				for _, t := range targets {
					if _, ok := pm.Identify(t.Region, t.InternalIP); ok {
						hit++
					}
				}
				covered = float64(hit) / float64(len(targets))
			}
			b.ReportMetric(100*covered, "%coverage")
		})
	}
}

// --- Telemetry overhead ------------------------------------------------

// BenchmarkTelemetryOverhead measures the full discovery pipeline with
// telemetry on (the default), on with the runtime sampler running, and
// off. The instrumented hot paths pay atomic increments when enabled
// and a nil check when disabled; the sampler adds one ReadMemStats per
// interval on its own goroutine. All three sub-benchmarks should stay
// within a few percent of each other.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, noTel, sample bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			s := NewStudy(Config{
				Seed: 11, Domains: 200, Vantages: 10,
				CaptureFlows: 100, WANClients: 8, NoTelemetry: noTel,
			})
			var smp *runtimeprof.Sampler
			if sample {
				smp = runtimeprof.Start(s.Telemetry().Registry(), 10*time.Millisecond)
			}
			ds := s.Dataset()
			smp.Stop()
			if ds.Stats.QueriesIssued == 0 {
				b.Fatal("pipeline produced no queries")
			}
		}
	}
	b.Run("instrumented", func(b *testing.B) { run(b, false, false) })
	b.Run("instrumented+sampler", func(b *testing.B) { run(b, false, true) })
	b.Run("noop", func(b *testing.B) { run(b, true, false) })
}
