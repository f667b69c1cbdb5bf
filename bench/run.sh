#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from anywhere; paths are relative to the repository root, which is the
# working directory of the benchmark:
#
#   bash bench/run.sh --workload tree-plan --seed 42 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the go command's configuration and
# telemetry, temporary files, the file backend's backing files, and the
# binary.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
