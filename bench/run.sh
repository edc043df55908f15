#!/usr/bin/env bash
# Builds and runs the benchmark for the checkout this script sits in.
# Run it from the repository root with the benchmark's flags, e.g.
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and every binary go under
# .bench_build/ in the checkout, so a run writes nothing outside it. The
# first run also builds the standard library into that cache; later runs
# reuse it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
b="$root/.bench_build"
mkdir -p "$b/gocache" "$b/tmp" "$b/home" "$b/bin"
export HOME="$b/home" XDG_CACHE_HOME="$b/home/.cache" XDG_CONFIG_HOME="$b/home/.config" \
	GOCACHE="$b/gocache" GOPATH="$b/home/go" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/bench" && go build -o "$b/bin/bench" .)
cd "$root"
exec "$b/bin/bench" "$@"
