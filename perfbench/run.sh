#!/usr/bin/env bash
# Builds msserve, msrouter and the benchmark driver from source, then
# runs the driver with the arguments given. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (Go build cache included).
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$out/bin/msserve" ./cmd/msserve
go build -o "$out/bin/msrouter" ./cmd/msrouter
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
