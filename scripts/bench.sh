#!/usr/bin/env sh
# Runs the enumeration, symmetry-quotient, snapshot,
# incremental-extension, and fault-model benchmarks and records the
# results as BENCH_10.json at the repo root, so the perf trajectory has
# version-controlled data points. BENCHTIME tunes accuracy vs runtime
# (default 3x; CI uses 1x for a smoke pass):
#
#   ./scripts/bench.sh            # 3 iterations per benchmark
#   BENCHTIME=10x ./scripts/bench.sh
#
# Multi-worker rows (EnumerateParallel/workers=2,4 and
# EnumerateLarge/workers=4) only say something about scaling when more
# than one CPU is actually available — on a 1-CPU box they all collapse
# to the sequential time and the "parallel speedup" they record is
# noise. So the script detects the CPU count: with one CPU it skips the
# multi-worker rows and says so in the recorded note; CI runs the full
# matrix in its bench-smoke job where more cores exist. The symmetry,
# snapshot, and extension rows are single-threaded and always run —
# EnumerateSymmetry's full-vs-quotient arms record the orbit reduction
# (members vs full-members metrics) regardless of core count.
set -eu
cd "$(dirname "$0")/.."

CPUS=$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
case "${GOMAXPROCS:-}" in
'' | *[!0-9]*) ;;
*) CPUS=$GOMAXPROCS ;;
esac

if [ "$CPUS" -le 1 ]; then
	BENCH='EnumerateSymmetry|EnumerateFaults|Enumerate.*/workers=1$|ColdUniverse/workers=1$|Snapshot|Extend'
	CPU_NOTE="1 CPU available: multi-worker rows skipped (workers>1 on one core measures scheduler overhead, not scaling); CI's bench-smoke job records the full worker matrix."
else
	BENCH='Enumerate|ColdUniverse|Snapshot|Extend'
	CPU_NOTE="$CPUS CPUs available: full worker matrix."
fi
echo "bench.sh: $CPU_NOTE" >&2

go test -run 'XXX' -bench "$BENCH" -benchmem -benchtime "${BENCHTIME:-3x}" . |
	tee /dev/stderr |
	go run ./cmd/benchjson -out BENCH_10.json \
		-note "PR-10 adversarial channels. $CPU_NOTE Headline comparison: EnumerateFaults/reliable vs /plain is the wrapper-identity gate — the reliable wrap must be free (same universe byte-for-byte, passthrough dispatch only), while the fault arms' cost tracks their universe growth (the computations metric: crash roughly 6x the members at this bound, crash+drop+dup roughly 30x), so the fault layer prices in members, not per-event overhead. EnumerateLargeTraced/workers=1 vs EnumerateLarge/workers=1 remains the <=2% instrumentation gate, EnumerateSymmetry/quotient vs /full the 6.00x orbit reduction, SnapshotLoadLarge/load vs /enumerate the cold-start race, ExtendLargeBound/extend-6to7 vs /from-scratch-7 the incremental extension."
echo "wrote BENCH_10.json" >&2
