# recordroute — build/test/reproduce targets.

GO ?= go

.PHONY: all build test vet bench bench-guard bench-scaling bench-metrics bench-all rrbench rrbench-smoke race chaos study serve fuzz cover examples clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test -shuffle=on ./...

# Headline campaign benchmarks (Table 1, Figure 1 sequential and
# sharded, Figure 2), archived as machine-readable JSON. (What a plane
# and a clone may cost is asserted by tier-1 tests beside the code:
# internal/topology's *Budget tests.) The record includes gomaxprocs/numcpu per line
# so shard speedups can be judged against the hardware parallelism the
# run actually had; the second invocation re-runs the shard-sensitive
# benchmarks pinned to GOMAXPROCS=4 — but only on hosts with >= 4 CPUs.
# A GOMAXPROCS=4 run on fewer cores measures threads time-slicing, not
# parallelism, and once poisoned an entire baseline (the "negative
# scaling" confound this harness check exists to prevent).
bench:
	( $(GO) test -bench 'BenchmarkTable1ResponseRates|BenchmarkFigure1ClosestVPCDF|BenchmarkFigure1StudyShards|BenchmarkOriginPhase|BenchmarkRouteBuild|BenchmarkFigure2Epochs|BenchmarkLargeScaleCampaign|BenchmarkAblationDecode/reused|BenchmarkSimulatorForwarding' \
		-benchtime 1x -benchmem -run '^$$' . ; \
	  $(GO) test -bench 'BenchmarkScheduleTick' -benchtime 1x -benchmem -run '^$$' ./internal/server ; \
	  $(GO) test -bench 'BenchmarkWireEncode|BenchmarkJournalRecord|BenchmarkProbeBatch' -benchtime 1x -benchmem -run '^$$' ./internal/results ./internal/measure ./internal/probe ; \
	  n=$$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1); \
	  if [ "$$n" -ge 4 ]; then \
	    GOMAXPROCS=4 $(GO) test -bench 'BenchmarkFigure1StudyShards|BenchmarkOriginPhase|BenchmarkRouteBuild' \
		-benchtime 1x -benchmem -run '^$$' . ; \
	  else \
	    echo "bench: skipping GOMAXPROCS=4 re-run: host has $$n CPU(s) < 4 (results would be time-slicing noise)" >&2 ; \
	  fi ) | $(GO) run ./cmd/benchjson > BENCH_parallel.json
	cat BENCH_parallel.json

# Bench-regression smoke: re-run the pinned hot-path benchmarks and fail
# if any allocs/op grew >25% over the checked-in baseline (see
# cmd/benchguard for why allocation counts gate and timings don't).
bench-guard:
	( $(GO) test -bench 'BenchmarkAblationDecode|BenchmarkSimulatorForwarding' \
		-benchtime 1x -benchmem -run '^$$' . ; \
	  $(GO) test -bench 'BenchmarkScheduleTick' -benchtime 1x -benchmem -run '^$$' ./internal/server ; \
	  $(GO) test -bench 'BenchmarkWireEncode|BenchmarkJournalRecord|BenchmarkProbeBatch' -benchtime 1x -benchmem -run '^$$' ./internal/results ./internal/measure ./internal/probe \
	) | $(GO) run ./cmd/benchguard -baseline BENCH_parallel.json

# Parallelism scaling-efficiency gates: run the three parallel families
# at the host's real core count with pprof captures, then enforce
# per-family floors — the sharded Figure 1 study at >= 3x, the
# destination-sharded origin phase at >= 2x, the parallel route-plane
# build at >= 2.5x, each for width 4 vs width 1. Every gate is
# host-aware — benchguard skips lines whose numcpu/procs cannot run K
# ways in parallel, so this target passes (with a note) on undersized
# hosts instead of flaking. Profiles land in
# bench_scaling.{cpu,mem,mutex,block}.pprof and the raw output in
# bench_scaling.txt; CI archives both.
bench-scaling:
	$(GO) test -bench 'BenchmarkFigure1StudyShards|BenchmarkOriginPhase|BenchmarkRouteBuild' \
		-benchtime 2x -benchmem -run '^$$' \
		-cpuprofile bench_scaling.cpu.pprof -memprofile bench_scaling.mem.pprof \
		-mutexprofile bench_scaling.mutex.pprof -blockprofile bench_scaling.block.pprof \
		. | tee bench_scaling.txt
	$(GO) run ./cmd/benchguard -baseline BENCH_parallel.json -min-speedup 3 < bench_scaling.txt
	$(GO) run ./cmd/benchguard -baseline BENCH_parallel.json -min-speedup 2 \
		-scaling-pin '^BenchmarkOriginPhase/shards=(\d+)$$' < bench_scaling.txt
	$(GO) run ./cmd/benchguard -baseline BENCH_parallel.json -min-speedup 2.5 \
		-scaling-pin '^BenchmarkRouteBuild/workers=(\d+)$$' < bench_scaling.txt

# Like bench, but first captures a reference campaign's metrics
# snapshot (rrstudy -metrics) and embeds it into BENCH_metrics.json, so
# counter deltas archive next to the timings.
bench-metrics:
	$(GO) run ./cmd/rrstudy -scale 0.25 -seed 3 -experiment table1 -metrics BENCH_metrics_snapshot.json > /dev/null
	$(GO) test -bench 'BenchmarkTable1ResponseRates|BenchmarkFigure1ClosestVPCDF|BenchmarkFigure1StudyShards|BenchmarkFigure2Epochs' \
		-benchtime 1x -benchmem -run '^$$' . | $(GO) run ./cmd/benchjson -metrics BENCH_metrics_snapshot.json > BENCH_metrics.json
	rm -f BENCH_metrics_snapshot.json
	cat BENCH_metrics.json

# Every benchmark in the tree (per-figure plus ablations and hot paths).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# The repository's performance yardstick (BENCHMARK.json, benchmark/):
# every workload untraced then traced, ~4 min. benchmark/ is a module of
# its own, so `go build ./...` and `go test ./...` never compile it —
# rrbench-smoke (~12 s, also a CI job) is what notices an internal API
# it uses being renamed.
rrbench:
	bash benchmark/run.sh --workload all --seed 1

rrbench-smoke:
	$(GO) -C benchmark test ./...

# Race-check the concurrent layers: the sharded campaign executor, the
# simulator substrate it runs replicas of, and the campaign service.
race:
	$(GO) test -race ./internal/measure/... ./internal/netsim/... ./internal/study/... ./internal/probe/... ./internal/server/...

# Service-level chaos harness (DESIGN.md §13): deterministic fault
# injection — workers killed mid-phase, journal writes failing at the
# Nth byte, daemon kill + restart + resume, drain racing live streams,
# stalled /stream readers — under the race detector with shuffled test
# order, so lifecycle invariants hold regardless of scheduling.
chaos:
	$(GO) test -race -shuffle=on \
		-run 'TestChaos|TestCancel|TestJobDeadline|TestWorkerPanic|TestStreamWriteDeadline|TestDrain|TestJournal|TestParallelCancel|TestCampaignCancel' \
		./internal/server ./internal/measure

# Reproduce every table and figure at full default scale (~30 s).
study:
	$(GO) run ./cmd/rrstudy

# Run the campaign service daemon (submit jobs with curl; see
# README "Campaign service" and DESIGN.md §11/§16). WORKERS sizes the
# affinity worker pool; TENANT_QUOTA caps per-tenant in-flight jobs
# (0 = unlimited).
WORKERS ?= 2
TENANT_QUOTA ?= 0
serve:
	$(GO) run ./cmd/rrstudyd -workers $(WORKERS) -tenant-quota $(TENANT_QUOTA)

# Short fuzzing passes over the packet decoders, the forward path, the
# FIB, the stop-set codec, and the result encoder.
fuzz:
	$(GO) test ./internal/packet -fuzz FuzzParsedDecode -fuzztime 30s
	$(GO) test ./internal/packet -fuzz FuzzRecordRouteDecode -fuzztime 15s
	$(GO) test ./internal/packet -fuzz FuzzTimestampDecode -fuzztime 15s
	$(GO) test ./internal/packet -fuzz FuzzDecodeICMPQuoted -fuzztime 30s
	$(GO) test ./internal/netsim -fuzz FuzzForwardEquivalence -fuzztime 30s
	$(GO) test ./internal/netsim -fuzz FuzzFIBLookup -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzStopSetCodec -fuzztime 30s
	$(GO) test ./internal/results -fuzz FuzzWireEncodeEquivalence -fuzztime 30s

# Coverage with per-package floors for the simulator core and the
# campaign service (matches CI).
cover:
	$(GO) test -coverprofile=cover.out ./internal/netsim ./internal/probe ./internal/measure ./internal/trace ./internal/server
	$(GO) tool cover -func=cover.out | tail -1

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/cloudprovider
	$(GO) run ./examples/ttltuning
	$(GO) run ./examples/reversepath
	$(GO) run ./examples/atlas

clean:
	$(GO) clean ./...
