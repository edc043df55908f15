#!/usr/bin/env bash
# A/A check of one workload: runs it RUNS times at each of two seeds,
# alternating which seed goes first, then compares the two sets with
# -compare. It exits 0 when every end-to-end metric's median agrees
# within its bound in BENCHMARK.json.
#
#   bash bench/aa.sh serve-hot [RUNS] [SEED_A] [SEED_B]    # defaults 5 1 2
set -euo pipefail
w=$1 runs=${2:-5} a=${3:-1} b=${4:-2}
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/bench/out"
mkdir -p "$out"
: >"$out/aa-$w-$a.txt"
: >"$out/aa-$w-$b.txt"
for i in $(seq 1 "$runs"); do
	order="$a $b"
	if ((i % 2 == 0)); then order="$b $a"; fi
	for s in $order; do
		bash "$root/bench/run.sh" --workload "$w" --seed "$s" | tail -1 >>"$out/aa-$w-$s.txt"
	done
done
bash "$root/bench/run.sh" -compare "$out/aa-$w-$a.txt" "$out/aa-$w-$b.txt"
