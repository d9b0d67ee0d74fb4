#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the traced run's spans all live under .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
