#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it with the given flags, e.g. from the repository root:
#
#   bash e2ebench/run.sh --workload serve-http --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, trace
# exports) stays under .bench_build/ at the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

(cd "$here" && go build -o "$out/e2ebench" .)
cd "$root"
exec "$out/e2ebench" "$@"
