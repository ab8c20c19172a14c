#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it.
#
#   bash perfbench/run.sh --workload hotlaunch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root (Go build cache, temp files, the binary, sweep journals,
# traces).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# HOME points inside too, so the go command's own user files (telemetry
# counters, env config) are written there.
(cd "$root/perfbench" && HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
