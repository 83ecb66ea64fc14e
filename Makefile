# cloudscope — reproduction of He et al., IMC 2013.

GO ?= go

.PHONY: all build check test race bench serve-smoke experiments world chaos bisect-smoke fuzz-chaos fuzz-chaos-v3 fuzz-trace fuzz-packet fuzz-pcap fuzz-dataset fuzz-dnswire fuzz-httpwire fuzz-xrand clean

all: build check test

build:
	$(GO) build ./...

# Static analysis plus race-detector runs over the packages with the
# hottest concurrent paths (telemetry instruments, fabric, resolver,
# the chaos engine and the fault-trace recorder every worker writes,
# the worker pool, and every parallelized analysis stage), plus a
# repeated small-shard stress run that forces shard-boundary
# interleavings in the pool, and the capture's pinned-pcap and
# event-sort equivalence tests. It runs each DESIGN.md §5 ablation
# benchmark once, so a broken sweep fails here (the zone-threshold
# sweep is the only caller that passes a non-paper T). Last, it vets
# and self-tests perfbench/, a nested module that the root
# `go build ./...` never compiles, so a library API change cannot
# silently break the benchmark.
check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@if grep -rn --include='*.go' '"unsafe"' . ; then \
		echo 'the zero-copy hot path stays honest: no unsafe imports'; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./internal/telemetry ./internal/simnet ./internal/dnssrv \
		./internal/parallel ./internal/core/patterns ./internal/core/regions \
		./internal/core/zones ./internal/core/wanperf ./internal/cartography \
		./internal/wan ./internal/chaos ./internal/chaos/trace
	$(GO) test -race -count=5 -run TestStressShardBoundaries ./internal/parallel
	$(GO) test -race -count=5 -run 'WorkerCountInvariant|ArrivalOrderInvariant' \
		./internal/deploy ./internal/core/dataset ./internal/capture ./internal/cartography
	$(GO) test -race -count=2 -run 'UnderLossWorkerInvariant|ChaosWorkerInvariant' \
		./internal/core/dataset ./internal/cartography ./internal/core/wanperf
	$(GO) test -race -count=2 -run 'TestAnalyzeRetainsNoPooledBuffers' ./internal/capture
	$(GO) test -race -count=2 -run 'TestCaptureChaosRace|TestCapturePcapPinned|TestSortEvents' ./internal/capture
	$(GO) test -race -count=2 -run 'TestStreamingSmallChunkInvariance' .
	$(GO) test -race -count=2 -run 'CancelMidBuild' . ./api
	$(MAKE) serve-smoke
	$(GO) test -run '^$$' -bench Ablation -benchtime 1x .
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The query daemon end to end under the race detector: a cloudscoped
# server on a random port, a tiny seeded cloudload mix, zero request
# errors, and a parseable /metrics document; then concurrent asks for
# unknown names and regions, which must leave the result cache's size
# unchanged.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke|TestCacheBoundedByWorld' ./internal/serve

# Regenerate every table and figure of the paper.
experiments:
	$(GO) run ./cmd/experiments

# Run the fault-injection suite: the chaos engine's own tests, every
# campaign's failure/invariance tests, and the full-study chaos goldens
# (byte-identical outputs at every worker count under fault scenarios).
chaos:
	$(GO) test ./internal/chaos ./internal/chaos/trace
	$(GO) test -run 'UnderLoss|Chaos|Outage|Brownout|ServFail|Backoff' \
		./internal/core/dataset ./internal/cartography ./internal/core/wanperf ./internal/dnssrv
	$(GO) test -run 'TestChaosDeterminism|TestChaosChangesOutcomes|TestChaosCaptureCompleteness|TestChaosRecordReplay|TestChaosBisect|TestFaultTraceDiffSameSeedEmpty' .

# The fault-forensics loop in miniature, under the race detector:
# record a faulted study's trace, replay it byte-identically, and
# delta-debug it down to the culprit events.
bisect-smoke:
	$(GO) test -race -run 'TestChaosBisectMinimizesToCulprits' -v .

# Fuzz the chaos scenario parser (accepted specs must validate,
# round-trip, and drive the engine without panicking).
fuzz-chaos:
	$(GO) test -fuzz=FuzzParseScenario -fuzztime=10s ./internal/chaos

# Fuzz the chaos-v3 surfaces: the multi-hop trigger-path clause
# (accepted paths must round-trip and answer wire, vantage, and
# capture boost queries without panicking) and the fault-trace differ
# (never panics, empty exactly on self-comparison, magnitude-symmetric
# under operand swap).
fuzz-chaos-v3:
	$(GO) test -fuzz=FuzzParseTriggerPath -fuzztime=10s ./internal/chaos
	$(GO) test -fuzz=FuzzTraceDiff -fuzztime=10s ./internal/chaos/trace

# Fuzz the fault-trace decoder (malformed or truncated traces must
# error, never panic).
fuzz-trace:
	$(GO) test -fuzz=FuzzRead -fuzztime=10s ./internal/chaos/trace

# Fuzz the packet header decoder (truncated headers and lying length
# fields must error, never panic or over-read, and the allocating
# Decode must agree with the in-place DecodeHeaders).
fuzz-packet:
	$(GO) test -fuzz=FuzzDecodePacket -fuzztime=10s ./internal/packet

# Fuzz both pcap read paths (malformed or truncated streams must error,
# never panic, and the zero-copy ReadBlock path must parse
# byte-identically with the record-at-a-time Next path).
fuzz-pcap:
	$(GO) test -fuzz=FuzzPcapRead -fuzztime=10s ./internal/pcapio

# Fuzz the dataset text reader that loads saved datasets (arbitrary
# bytes must error, never panic, and whatever Read accepts must come
# back from WriteTo in a canonical form that rewrites to itself).
fuzz-dataset:
	$(GO) test -run '^$$' -fuzz=FuzzRead -fuzztime=30s ./internal/core/dataset

# Fuzz the DNS wire codec every simulated query crosses (arbitrary
# bytes must never panic Unpack, and whatever Unpack accepts must fail
# Pack or survive Pack→Unpack unchanged, names canonicalized).
fuzz-dnswire:
	$(GO) test -fuzz=FuzzUnpack -fuzztime=10s ./internal/dnswire
	$(GO) test -fuzz=FuzzPackUnpack -fuzztime=10s ./internal/dnswire

# Fuzz the HTTP head parsers the capture analyzer runs on TCP payloads
# (arbitrary bytes must never panic them, and a head AppendRequest or
# AppendResponse wrote must parse back with its Host, Content-Type and
# Content-Length intact).
fuzz-httpwire:
	$(GO) test -fuzz=FuzzParseRequest -fuzztime=10s ./internal/httpwire
	$(GO) test -fuzz=FuzzParseResponse -fuzztime=10s ./internal/httpwire

# Fuzz xrand.New's O(1)-seeded source against math/rand's default
# source (any seed and draw count must give the same stream, draw for
# draw, across a mid-stream Reseed).
fuzz-xrand:
	$(GO) test -fuzz=FuzzNewMatchesMathRand -fuzztime=10s ./internal/xrand

# Generate a world with shareable artifacts (pcap, zone files, CSVs).
world:
	$(GO) run ./cmd/worldgen -out world

clean:
	rm -rf world plots
