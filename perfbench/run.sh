#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload tpcc-8r --seed 1 --seconds 25 --trace 0
#
# Every build artifact and Go cache stays under .bench_build/ in the
# checkout. The build needs the repository's Go module one directory up;
# without it the build fails and so does this script.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
# The traced run writes its CPU profiles to the temporary directory and
# reads them back with `go tool pprof`.
export TMPDIR="$out/tmp"
mkdir -p "$TMPDIR"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
