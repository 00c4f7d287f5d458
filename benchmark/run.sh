#!/bin/bash
# Builds rrbench and the rrstudyd it drives from the checkout's own
# sources, then runs rrbench with the arguments given. Everything the
# build writes (Go build cache included) stays under .bench_build in
# the checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
export RRBENCH_T0_NS=$(date +%s%N)
out=$PWD/.bench_build
export GOCACHE=$out/gocache GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -C benchmark -o "$out/bin/rrbench" . >&2
go build -o "$out/bin/rrstudyd" ./cmd/rrstudyd >&2
exec "$out/bin/rrbench" -daemon "$out/bin/rrstudyd" "$@"
