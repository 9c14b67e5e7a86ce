#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload fig1_cells --seed 1 --seconds 15 --trace 0
# Build outputs and the Go build cache stay inside .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
mkdir -p "$GOTMPDIR"
# The go command keeps telemetry and its env file under the user config
# directory; point that inside the checkout too.
(cd "$root/perfbench" && XDG_CONFIG_HOME="$out/config" go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
