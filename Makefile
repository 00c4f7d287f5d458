# recordroute — build/test/reproduce targets.

GO ?= go

.PHONY: all build test vet bench-all rrbench rrbench-smoke race chaos study serve fuzz cover examples clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test -shuffle=on ./...

# Every benchmark in the tree (per-figure plus ablations and hot
# paths): developer tools, not gates. Speed claims are made with rrbench
# below; what a hot path may allocate is asserted by tier-1 Test…Allocs
# tests beside the code, and what a plane and a clone may cost by
# internal/topology's *Budget tests.
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
# simulator substrate it runs replicas of, the topology build that
# routes beside its wiring, and the campaign service.
# Race instrumentation allocates, so the allocation pins (Test…Allocs)
# are skipped here and in chaos.
race:
	$(GO) test -race -skip 'Allocs$$' ./internal/measure/... ./internal/netsim/... ./internal/study/... ./internal/probe/... ./internal/server/... ./internal/topology/...

# Service-level chaos harness (DESIGN.md §13): deterministic fault
# injection — workers killed mid-phase, journal writes failing at the
# Nth byte, daemon kill + restart + resume, drain racing live streams,
# stalled /stream readers — under the race detector with shuffled test
# order, so lifecycle invariants hold regardless of scheduling.
chaos:
	$(GO) test -race -shuffle=on -skip 'Allocs$$' \
		-run 'TestChaos|TestCancel|TestJobDeadline|TestWorkerPanic|TestStreamWriteDeadline|TestDrain|TestJournal|TestParallelCancel|TestCampaignCancel|TestDoubletreeCancelMidPhaseResumes|TestChaosDoubletreeKillResumes' \
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

# Short fuzzing passes over the packet decoders, the header editors'
# checksum, the forward path, the FIB, the event order, the stop-set
# codec, the result encoder, and the service's job lifecycle.
fuzz:
	$(GO) test ./internal/packet -fuzz FuzzParsedDecode -fuzztime 30s
	$(GO) test ./internal/packet -fuzz FuzzRecordRouteDecode -fuzztime 15s
	$(GO) test ./internal/packet -fuzz FuzzDecodeICMPQuoted -fuzztime 30s
	$(GO) test ./internal/packet -fuzz FuzzChecksumUpdate -fuzztime 30s
	$(GO) test ./internal/netsim -fuzz FuzzForwardEquivalence -fuzztime 30s
	$(GO) test ./internal/netsim -fuzz FuzzFIBLookup -fuzztime 30s
	$(GO) test ./internal/netsim -fuzz FuzzEngineOrder -fuzztime 30s
	$(GO) test ./internal/trace -fuzz FuzzStopSetCodec -fuzztime 30s
	$(GO) test ./internal/results -fuzz FuzzWireEncodeEquivalence -fuzztime 30s
	$(GO) test ./internal/server -fuzz FuzzLifecycle -fuzztime 30s

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
