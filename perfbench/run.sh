#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file it writes
# (Go build cache, temporary files, go settings, the binary) under
# .bench_build in the repository root. Run from the repository root:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry counters under the user
# config directory; point it inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
