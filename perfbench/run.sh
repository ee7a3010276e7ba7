#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload <jacobi|serve|sweep> --seed <n> --seconds <s> --trace <0|1>
#
# Every file the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the benchmark binary, and the
# per-run result, span and CPU-profile files.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOPATH=$out/gopath GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" -out "$out/runs" "$@"
