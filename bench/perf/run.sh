#!/usr/bin/env bash
# Builds lard-perf from source and runs it from the repository root, passing
# every argument through:
#
#   bash bench/perf/run.sh --workload member-l1 --seed 1 --seconds 10 --trace 0
#
# The build cache and the binary live in .bench_build/ at the root, so the
# benchmark reads and writes nothing outside the checkout. Without the
# repository around bench/perf (no go.mod two levels up) the build fails and
# the script exits non-zero before printing anything.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

(cd "$here" && go build -o "$out/lard-perf" ./cmd/lard-perf)
cd "$root"
exec "$out/lard-perf" "$@"
