#!/usr/bin/env bash
# Builds the end-to-end benchmark, and the simulator it links, from
# source and runs it from the repository root with the given arguments:
#
#   bash bench/run.sh -workload suite -seed 7 -seconds 15 -trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ at the repository root; the toolchain is the local one
# and module downloads are off, so the build never leaves the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/bench" && go build -o "$out/hswbench" .)
cd "$root"
exec "$out/hswbench" "$@"
