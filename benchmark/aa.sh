#!/bin/bash
# A/A test: two sets, A and B, of full invocations of the same checkout at
# the same seed, taken alternately so that both see the same weather, then
# compared both ways round. It passes when neither set is worse than the
# other by more than a metric's bound on any workload, and the exact counts
# are identical in all runs.
#
#   benchmark/aa.sh [runs-per-set (default 5)] [output directory]
set -eu
cd "$(dirname "$0")/.."
n=${1:-5}
out=${2:-benchmark/out/aa}
rm -rf "$out"
mkdir -p "$out"
for i in $(seq 1 "$n"); do
	order="A B"
	if [ $((i % 2)) -eq 0 ]; then order="B A"; fi
	for set in $order; do
		echo "== set $set, run $i of $n"
		bash benchmark/run.sh -seed 1 -out "$out/$set/run$i" >"$out.log" 2>&1 || { cat "$out.log"; exit 1; }
	done
done
bash benchmark/run.sh -compare "$out/A" "$out/B"
bash benchmark/run.sh -compare "$out/B" "$out/A" >/dev/null
echo "A/A: the two sets agree"
