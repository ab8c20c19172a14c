#!/bin/sh
# Runs the hot-path micro-benchmarks (GC trace, heap allocation,
# page-table lookup, fleetd per-job service overhead, the zram store/load
# round trip, the workload generator's Zipf draw) plus the end-to-end
# per-policy device-tick bench and the population campaign's per-device
# cost, and writes the raw `go test -json` stream to $BENCH_OUT
# (default BENCH_5.json) at the repo root.
#
# Usage: [BENCH_OUT=out.json] [BENCH_COUNT=N] scripts/bench.sh [extra go-test args]
#
# BENCH_COUNT repeats every benchmark N times (go test -count); diffing
# tools average the repetitions, so N>1 smooths scheduler noise.
# Compare two streams with: go run ./scripts old.json new.json
set -eu

cd "$(dirname "$0")/.."

out=${BENCH_OUT:-BENCH_5.json}
count=${BENCH_COUNT:-1}
go test -run '^$' -bench 'TraceHotPath|HeapAlloc|PageLookup|PageRangeWalk|ServiceJob|DeviceTick|ZramSwapOut|Zipf' \
	-benchmem -count "$count" -json \
	"$@" ./internal/gc ./internal/heap ./internal/mem ./internal/vmem ./internal/service ./internal/core ./internal/population ./internal/xrand | tee "$out" | \
	grep -o '"Output":"Benchmark[^"]*' | sed 's/"Output":"//; s/\\t/\t/g; s/\\n//' || true

echo "wrote $out"
