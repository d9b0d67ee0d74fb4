GO ?= go

.PHONY: tier1 vet lint build test test-nofma fma-check stress cover cover-cluster cover-export cover-shard cover-coord fuzz-seeds bench bench-parallel bench-cache bench-hotpath bench-hotpath-check bench-shard bench-shard-check bench-coord bench-coord-check serve-smoke bench-serve coord-smoke clean

# BENCHTIME tunes the hot-path benchmark arms; 1s x 3 counts balances
# noise robustness (benchjson keeps the fastest repetition) against CI
# wall-clock.
BENCHTIME ?= 1s
BENCHCOUNT ?= 3

# tier1 is the merge gate: vet, build, race-enabled tests, and every
# fuzz target replayed over its seed corpus (without -fuzz the seeds
# run as ordinary tests — deterministic, no open-ended fuzzing in CI).
tier1: vet build test fuzz-seeds serve-smoke

vet:
	$(GO) vet ./...

# lint runs vet, fails when any Go file is not gofmt-formatted, and
# runs staticcheck when the binary is available; the staticcheck step
# stays green on machines (and CI images) without it.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# test-nofma runs the suite as an amd64 CPU without FMA would:
# GODEBUG=cpu.fma=off turns off the standard library's FMA paths (such
# as math.Exp's on amd64), so a result that depends on the host's FMA
# unit fails here. No race detector: it is the same suite a second time
# for bits, not for interleavings.
test-nofma:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./...

# fma-check cross-compiles internal/dcmath with -S for the four
# architectures whose Go compilers fuse x*y + z into one rounding
# (arm64, ppc64le, s390x, riscv64) and fails on any fused multiply-add
# in the listing: a fused product skips a rounding, so the package
# would return other bits there than on amd64. An explicit float64()
# on a product that feeds a sum stops the fusion. It needs no emulator.
FMA_ARCHS = arm64 ppc64le s390x riscv64

fma-check:
	@fail=0; \
	for arch in $(FMA_ARCHS); do \
		asm=$$(GOARCH=$$arch $(GO) build -o /dev/null -gcflags='repro/internal/dcmath=-S' ./internal/dcmath 2>&1) || { echo "$$asm"; exit 1; }; \
		fused=$$(printf '%s\n' "$$asm" | grep -E '\bF(N)?M(ADD|SUB)[A-Z]*\b' | awk '{ print "  " $$3, $$4 }'); \
		n=$$(printf '%s' "$$fused" | grep -c . || true); \
		echo "$$arch: $$n fused multiply-adds in internal/dcmath"; \
		if [ "$$n" -ne 0 ]; then printf '%s\n' "$$fused"; fail=1; fi; \
	done; \
	exit $$fail

# stress repeats the suites of the concurrent packages under the race
# detector, so an interleaving-dependent flake (a torn lock-free
# snapshot, two shards racing on one cache directory) surfaces before
# merge rather than as an intermittent tier-1 failure.
stress:
	$(GO) test -race -count=20 ./internal/obs/... ./internal/serve/ ./internal/cache/ ./internal/shard/ ./internal/coord/

fuzz-seeds:
	$(GO) test -run Fuzz -v ./internal/trace/ ./internal/cache/ ./internal/serve/ ./internal/cluster/ ./internal/shard/ ./internal/gpu/

# cover enforces the result cache's coverage floor: the subsystem that
# silently serves stale or corrupt results when wrong earns the
# strictest gate.
cover:
	$(GO) test -coverprofile=cover.out ./internal/cache/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/cache coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit !(t + 0 >= 70) }' || { echo "FAIL: internal/cache coverage $$total% below the 70% gate"; exit 1; }

# cover-cluster gates the clustering algorithms (the exact leader
# index, k-means, agglomerative): a clustering that silently goes
# wrong corrupts every downstream result, so they carry their own
# floor.
cover-cluster:
	$(GO) test -coverprofile=cover-cluster.out ./internal/cluster/
	@total=$$($(GO) tool cover -func=cover-cluster.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/cluster coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit !(t + 0 >= 70) }' || { echo "FAIL: internal/cluster coverage $$total% below the 70% gate"; exit 1; }

# cover-export gates the telemetry exposition layer: a writer/parser
# pair that misrenders or misreads /metrics lies to every operator and
# alert downstream, so it carries the same 70% floor.
cover-export:
	$(GO) test -coverprofile=cover-export.out ./internal/obs/export/
	@total=$$($(GO) tool cover -func=cover-export.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/obs/export coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit !(t + 0 >= 70) }' || { echo "FAIL: internal/obs/export coverage $$total% below the 70% gate"; exit 1; }

# cover-shard gates the distributed sharding layer at 85% — stricter
# than the other floors because a wrong shard plan, pricing or merge
# silently produces a run manifest that is not what the sequential
# path would have computed, defeating the layer's entire contract.
cover-shard:
	$(GO) test -coverprofile=cover-shard.out ./internal/shard/
	@total=$$($(GO) tool cover -func=cover-shard.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/shard coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit !(t + 0 >= 85) }' || { echo "FAIL: internal/shard coverage $$total% below the 85% gate"; exit 1; }

# cover-coord gates the sweep coordinator at 80%: dispatch, retry,
# steal and merge logic that mis-handles a failure mode silently
# produces a manifest that is not what the sequential path computes —
# the exact defect the whole layer exists to rule out.
cover-coord:
	$(GO) test -coverprofile=cover-coord.out ./internal/coord/
	@total=$$($(GO) tool cover -func=cover-coord.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "internal/coord coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit !(t + 0 >= 80) }' || { echo "FAIL: internal/coord coverage $$total% below the 80% gate"; exit 1; }

# bench runs every benchmark (the root benches and the experiment
# registry's BenchmarkExperiments) and records the parallel speedup
# curves in BENCH_parallel.json.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' . ./cmd/experiments/ | tee bench.out
	$(GO) run ./cmd/benchjson -match '^Parallel' -o BENCH_parallel.json < bench.out

# bench-parallel runs only the worker-pool benchmarks (1/2/4/8 workers
# per hot loop) — the quick way to regenerate BENCH_parallel.json.
bench-parallel:
	$(GO) test -bench='^BenchmarkParallel' -run '^$$' . | tee bench.out
	$(GO) run ./cmd/benchjson -match '^Parallel' -o BENCH_parallel.json < bench.out

# bench-cache times the cache-bound grid `gpusim -grid-core ...
# -cache-dir` runs (shard.RunSequential, one entry per config) into an
# empty and over a filled cache directory (warm_speedup_vs_cold; the
# cache's contract is >= 2x), and one whole pipeline pass uncached,
# cold and warm (time_vs_uncached: the cold and warm passes as
# multiples of the uncached one). Each arm keeps the fastest of 5
# repetitions; both land in BENCH_cache.json.
bench-cache:
	$(GO) test -bench='^BenchmarkCache(Sweep|Pass)$$' -count 5 -run '^$$' . | tee bench-cache.out
	$(GO) run ./cmd/benchjson -match '^Cache(Sweep|Pass)/' -o BENCH_cache.json < bench-cache.out

# bench-hotpath regenerates BENCH_hotpath.json: per-draw clustering
# throughput of the exact path against the frozen pre-optimization
# reference (path=naive), recorded as a machine-independent
# speedup_vs_naive ratio. Run it on a quiet machine when updating the
# checked-in baseline.
bench-hotpath:
	$(GO) test -bench='^BenchmarkHotPath$$' -run '^$$' -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . | tee bench-hotpath.out
	$(GO) run ./cmd/benchjson -match '^HotPath' -o BENCH_hotpath.json < bench-hotpath.out

# bench-hotpath-check is the CI regression gate: re-measure the
# speedup ratio and compare against the checked-in BENCH_hotpath.json.
# The baseline tolerance is 25% — measured min-of-3 ratios swing ~12%
# run to run on shared VMs, so a 10% window flakes on noise alone —
# and the floor pins what must hold regardless of noise: the exact
# path's leader index well clear of the frozen linear scan (exact >=
# 2x naive; a regression back to the scan measures ~1x).
bench-hotpath-check:
	$(GO) test -bench='^BenchmarkHotPath$$' -run '^$$' -benchtime $(BENCHTIME) -count $(BENCHCOUNT) . | $(GO) run ./cmd/benchjson -match '^HotPath' -o bench-hotpath-new.json
	$(GO) run ./cmd/benchguard -in bench-hotpath-new.json -baseline BENCH_hotpath.json -max-regress 0.25 \
	  -min HotPath/exact=2.0

# bench-shard regenerates BENCH_shard.json: the 32-config grid sweep
# split across 2/4/8 shard workers versus the sequential path
# (path=naive). The arms report the distributed CRITICAL PATH (slowest
# worker + merge) as ns/op, so the speedup curve is core-count
# independent and the gate transfers across CI hosts. Like the coord
# recipes, both shard recipes run 7 rounds of all four arms into a
# file, so benchjson pairs the arms by round (see bench-coord-check).
bench-shard:
	for i in $$(seq 7); do $(GO) test -bench='^BenchmarkShardSweep$$' -run '^$$' -benchtime $(BENCHTIME) -count 1 . || exit 1; done > bench-shard.out
	cat bench-shard.out
	$(GO) run ./cmd/benchjson -match '^ShardSweep' -o BENCH_shard.json < bench-shard.out

# bench-shard-check is the CI scaling gate: 25% tolerance against the
# checked-in curve plus absolute floors — sharding must keep paying at
# every width (>= 1.5x at 2, >= 2x at 4, >= 3x at 8; the slowest
# shard and each shard's set-up and cache flush bound it away from
# ideal).
bench-shard-check:
	for i in $$(seq 7); do $(GO) test -bench='^BenchmarkShardSweep$$' -run '^$$' -benchtime $(BENCHTIME) -count 1 . || exit 1; done > bench-shard-new.out
	$(GO) run ./cmd/benchjson -match '^ShardSweep' -o bench-shard-new.json < bench-shard-new.out
	$(GO) run ./cmd/benchguard -in bench-shard-new.json -baseline BENCH_shard.json -max-regress 0.25 \
	  -min ShardSweep/shards2=1.5 -min ShardSweep/shards4=2.0 -min ShardSweep/shards8=3.0

# bench-coord regenerates BENCH_coord.json: the 32-config grid swept
# sequentially in process (path=naive) versus coordinated over 1/2/3
# real HTTP workers. The coordinated arms report the distributed
# critical path (slowest worker's busy time + merge) as ns/op, so the
# speedup curve is core-count independent and the gate transfers
# across CI hosts.
bench-coord:
	for i in $$(seq 7); do $(GO) test -bench='^BenchmarkCoordSweep$$' -run '^$$' -benchtime $(BENCHTIME) -count 1 . || exit 1; done > bench-coord.out
	cat bench-coord.out
	$(GO) run ./cmd/benchjson -match '^CoordSweep' -o BENCH_coord.json < bench-coord.out

# bench-coord-check is the CI scaling gate: 25% tolerance against the
# checked-in curve plus absolute floors — coordination must keep
# paying at every fleet width (>= 1.3x at 2 workers, >= 1.7x at 3; the
# per-dispatch HTTP, JSON and planning overhead bounds it away from
# ideal). `go test -count` runs each arm's repetitions back to back,
# so a slow stretch of a shared host can land on one arm and not on
# its naive reference; instead both coord recipes run 7 rounds of all
# four arms, and benchjson, seeing the arms interleave, takes each
# speedup as the median over the rounds of the round's naive/arm
# ratio; of seven rounds, three can be outliers without moving it.
# The loop's output goes to a file, not a pipe, so a failed round
# fails the recipe. benchguard prints every arm's spread beside its
# margin.
bench-coord-check:
	for i in $$(seq 7); do $(GO) test -bench='^BenchmarkCoordSweep$$' -run '^$$' -benchtime $(BENCHTIME) -count 1 . || exit 1; done > bench-coord-new.out
	$(GO) run ./cmd/benchjson -match '^CoordSweep' -o bench-coord-new.json < bench-coord-new.out
	$(GO) run ./cmd/benchguard -in bench-coord-new.json -baseline BENCH_coord.json -max-regress 0.25 \
	  -min CoordSweep/workers2=1.3 -min CoordSweep/workers3=1.7

# serve-smoke is the service's end-to-end gate: build subsetd, start
# it on a loopback port, upload a synthetic workload, require a cold
# and a warm subset query to answer byte-identically, scrape /metrics
# through subsetstat (which requires the request/admission/cache and
# runtime families to be present and parseable, and saves the raw
# exposition to serve-scratch/metrics.prom), then SIGTERM it and
# require a graceful drain (pid file gone, run manifest written).
serve-smoke:
	@set -e; \
	rm -rf serve-scratch; mkdir -p serve-scratch/cache; \
	$(GO) build -o serve-scratch/subsetd ./cmd/subsetd; \
	$(GO) build -o serve-scratch/subsetload ./cmd/subsetload; \
	$(GO) build -o serve-scratch/subsetstat ./cmd/subsetstat; \
	serve-scratch/subsetd -addr 127.0.0.1:8741 -cache-dir serve-scratch/cache \
	  -pid-file serve-scratch/subsetd.pid -manifest serve-scratch/manifest.json \
	  >serve-scratch/subsetd.log 2>&1 & \
	pid=$$!; \
	trap 'kill -TERM $$pid 2>/dev/null || true' EXIT; \
	serve-scratch/subsetload -addr http://127.0.0.1:8741 -smoke; \
	serve-scratch/subsetstat -addr http://127.0.0.1:8741 -once \
	  -require subsetd_up,subsetd_ready,subsetd_serve_requests_total,subsetd_serve_http_requests_total,subsetd_serve_http_latency_ms,subsetd_cache_hit_total,subsetd_admission_queue_depth,go_goroutines \
	  -out serve-scratch/metrics.prom; \
	kill -TERM $$pid; \
	wait $$pid || { echo "FAIL: subsetd exited non-zero after SIGTERM"; exit 1; }; \
	test ! -e serve-scratch/subsetd.pid || { echo "FAIL: pid file not removed on exit"; exit 1; }; \
	test -s serve-scratch/manifest.json || { echo "FAIL: no run manifest written on drain"; exit 1; }; \
	echo "serve-smoke ok"

# bench-serve is the overload experiment: subsetd with deliberately
# tight admission limits (2 executing + 2 queued), then subsetload's
# four arms — cold, warm (result cache), coalesced (single-flight) and
# a 16-request burst at 4x capacity. p50/p99 per arm land in
# BENCH_serve.json; -require-shed makes shed-don't-collapse a hard
# assertion, not just a recorded number.
bench-serve:
	@set -e; \
	rm -rf serve-scratch; mkdir -p serve-scratch/cache; \
	$(GO) build -o serve-scratch/subsetd ./cmd/subsetd; \
	$(GO) build -o serve-scratch/subsetload ./cmd/subsetload; \
	serve-scratch/subsetd -addr 127.0.0.1:8742 -cache-dir serve-scratch/cache \
	  -max-concurrent 2 -queue-depth 2 -queue-wait 250ms \
	  >serve-scratch/subsetd.log 2>&1 & \
	pid=$$!; \
	trap 'kill -TERM $$pid 2>/dev/null || true' EXIT; \
	serve-scratch/subsetload -addr http://127.0.0.1:8742 -out BENCH_serve.json \
	  -coalesce-c 4 -overload-n 16 -require-shed; \
	kill -TERM $$pid; \
	wait $$pid || { echo "FAIL: subsetd exited non-zero after SIGTERM"; exit 1; }; \
	echo "bench-serve ok: BENCH_serve.json written"

# coord-smoke is the multi-worker end-to-end gate, run against real
# processes: three subsetd workers, one subsetcoord sweep over a
# 12-config grid, byte-compared (cmp) against a sequential gpusim run
# of the same trace — manifest and rendered table both. Then the chaos
# arm: kill -9 one worker, relaunch it on the same port and cache dir,
# and sweep again through the relaunched worker ALONE with only the
# workload fingerprint (no trace to re-upload) — success proves the
# relaunch rebuilt its registry from the cache dir, and the output
# must still be byte-identical.
coord-smoke:
	@set -e; \
	rm -rf coord-scratch; mkdir -p coord-scratch/cache1 coord-scratch/cache2 coord-scratch/cache3; \
	$(GO) build -o coord-scratch/subsetd ./cmd/subsetd; \
	$(GO) build -o coord-scratch/subsetcoord ./cmd/subsetcoord; \
	$(GO) build -o coord-scratch/gpusim ./cmd/gpusim; \
	$(GO) build -o coord-scratch/tracegen ./cmd/tracegen; \
	coord-scratch/tracegen -out coord-scratch -game bioshock1 -seed 7; \
	coord-scratch/gpusim -trace coord-scratch/bioshock1.trace \
	  -grid-core 0.5,0.8,1.1,1.4,1.7,2.0 -grid-mem 0.8,1.2 \
	  -sweep-out coord-scratch/seq.json > coord-scratch/seq.txt; \
	coord-scratch/subsetd -addr 127.0.0.1:8761 -cache-dir coord-scratch/cache1 >coord-scratch/w1.log 2>&1 & p1=$$!; \
	coord-scratch/subsetd -addr 127.0.0.1:8762 -cache-dir coord-scratch/cache2 >coord-scratch/w2.log 2>&1 & p2=$$!; \
	coord-scratch/subsetd -addr 127.0.0.1:8763 -cache-dir coord-scratch/cache3 >coord-scratch/w3.log 2>&1 & p3=$$!; \
	trap 'kill -9 $$p1 $$p2 $$p3 2>/dev/null || true' EXIT; \
	for log in w1.log w2.log w3.log; do \
	  for i in $$(seq 1 100); do grep -q "listening on" coord-scratch/$$log && break; sleep 0.1; done; \
	  grep -q "listening on" coord-scratch/$$log || { echo "FAIL: worker $$log never came up"; exit 1; }; \
	done; \
	coord-scratch/subsetcoord \
	  -workers http://127.0.0.1:8761,http://127.0.0.1:8762,http://127.0.0.1:8763 \
	  -trace coord-scratch/bioshock1.trace \
	  -grid-core 0.5,0.8,1.1,1.4,1.7,2.0 -grid-mem 0.8,1.2 \
	  -sweep-out coord-scratch/coord.json > coord-scratch/coord.txt; \
	cmp coord-scratch/seq.json coord-scratch/coord.json || { echo "FAIL: coordinated manifest differs from sequential"; exit 1; }; \
	cmp coord-scratch/seq.txt coord-scratch/coord.txt || { echo "FAIL: coordinated sweep table differs from sequential"; exit 1; }; \
	fp=$$(sed -n 's/.*"workload_fp": "\([0-9a-f]*\)".*/\1/p' coord-scratch/coord.json | head -1); \
	test -n "$$fp" || { echo "FAIL: no workload_fp in coord.json"; exit 1; }; \
	kill -9 $$p2; wait $$p2 2>/dev/null || true; \
	coord-scratch/subsetd -addr 127.0.0.1:8762 -cache-dir coord-scratch/cache2 >coord-scratch/w2-relaunch.log 2>&1 & p2=$$!; \
	for i in $$(seq 1 100); do grep -q "listening on" coord-scratch/w2-relaunch.log && break; sleep 0.1; done; \
	grep -q "restored 1 workload" coord-scratch/w2-relaunch.log || { echo "FAIL: relaunched worker did not restore its registry from the cache dir"; exit 1; }; \
	coord-scratch/subsetcoord -workers http://127.0.0.1:8762 -workload $$fp \
	  -grid-core 0.5,0.8,1.1,1.4,1.7,2.0 -grid-mem 0.8,1.2 \
	  -sweep-out coord-scratch/chaos.json > coord-scratch/chaos.txt; \
	cmp coord-scratch/seq.json coord-scratch/chaos.json || { echo "FAIL: post-chaos manifest differs from sequential"; exit 1; }; \
	cmp coord-scratch/seq.txt coord-scratch/chaos.txt || { echo "FAIL: post-chaos sweep table differs from sequential"; exit 1; }; \
	echo "coord-smoke ok"

clean:
	$(GO) clean ./...
	rm -f bench.out bench-cache.out bench-hotpath.out bench-hotpath-new.json bench-shard.out bench-shard-new.out bench-shard-new.json bench-coord.out bench-coord-new.out bench-coord-new.json cover.out cover-cluster.out cover-export.out cover-shard.out cover-coord.out BENCH_parallel.json BENCH_cache.json
	rm -rf serve-scratch coord-scratch
