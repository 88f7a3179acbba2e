#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload ingest-ndjson --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the toolchain's temporary and
# telemetry files and the benchmark's scratch data all live under
# .bench_build/ in the current directory, so a run writes nothing
# outside the checkout.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
