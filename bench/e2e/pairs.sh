#!/usr/bin/env bash
# Run alternating pairs of omfbench on two checkouts — the parent and
# the change — for compare.exe:
#
#   bash bench/e2e/pairs.sh PARENT_TREE CHANGE_TREE OUT_DIR [PAIRS [WORKLOAD...]]
#
# Both trees must carry the same bench/e2e and BENCHMARK.json (copy the
# change's into the parent tree if they differ): only the code under
# test may differ. Pair i runs both sides with seed 1000+i, the parent
# first on odd i and the change first on even i. Results land in
# OUT_DIR/parent/<workload>.<i>.json and OUT_DIR/change/...; then
#
#   _build/default/bench/e2e/compare.exe OUT_DIR/parent OUT_DIR/change
#
# TRACE=1 runs --trace 1 instead, for the per-layer metrics (which
# include the untraced throughput, latency and CPU per event).
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 PARENT_TREE CHANGE_TREE OUT_DIR [PAIRS [WORKLOAD...]]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3/parent" "$3/change"
out=$(cd "$3" && pwd)
pairs=${4:-10}
shift $(( $# < 4 ? $# : 4 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(paper-a-live science-16k durable-replay secure-compressed)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")

for w in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    if (( i % 2 )); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
      if [ "$side" = parent ]; then tree=$parent; else tree=$change; fi
      (cd "$tree" && bash bench/e2e/run.sh --workload "$w" --seed $((1000 + i)) \
         --seconds "$seconds" --trace "${TRACE:-0}") > "$out/$side/$w.$i.json"
      echo "$w pair $i $side: $(tail -n 1 "$out/$side/$w.$i.json" | cut -c1-60)..." >&2
    done
  done
done
