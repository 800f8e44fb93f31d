#!/usr/bin/env bash
# Builds perfbench from source into .bench_build at the repository root
# and runs it with the given flags, e.g.
#   bash cmd/perfbench/run.sh --workload cold-churn --seed 3 --seconds 8 --trace 0
# Go's build cache, temporary files and settings stay inside .bench_build.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
