#!/usr/bin/env bash
# Builds the benchmark and the hddpred binary it drives from the sources of
# the checkout it runs in, then runs one workload. Run it from the
# repository root:
#
#   bash bench/run.sh --workload evaluate-paper --seed 1 --seconds 10 --trace 0
#
# Every build artefact, Go cache and generated input lands in .bench_build/.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"

# Keep the toolchain's caches, scratch files and config inside the checkout
# and never reach for the network: the benchmark builds only from local
# sources.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
export GOFLAGS= GOWORK=off

(cd bench && go build -o "$build/bench" .)
go build -o "$build/hddpred" ./cmd/hddpred

exec "$build/bench" -hddpred "$build/hddpred" -workdir "$build/work" "$@"
