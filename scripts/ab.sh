#!/usr/bin/env bash
# The perf protocol as one command: build the frozen benchmark/ package at a
# parent commit and in this checkout, run each workload on both in
# alternating pairs, and judge each workload's pairs with `bench_compare ab`.
#
#   scripts/ab.sh PARENT_REV [--pairs N] [--seed S] [--workload W[,W...]]
#
# Defaults: 10 pairs, seed 1 (the benchmark's own default, which
# BENCHMARK.json's command, passing no `--seed`, runs), heatdis_inmem.
# `--workload` takes a comma list; the two builds are made once and serve
# every workload in it, one after another, each with its own verdict. Every run is as long as
# BENCHMARK.json's run_seconds, with tracing off. Both sides are built
# offline in sibling trees of the same depth: the parent from its committed
# files, extracted with `git archive` under target/ab/parent (no worktree
# is registered, so nothing is left in .git), and the change from this
# checkout's files (`git ls-files -co --exclude-standard`, uncommitted
# edits included) copied under target/ab/change. Pair i runs the parent
# first when i is even and the change first when it is odd. The logs land
# in target/ab/<workload>-seed<S>/.
#
# `bench_compare ab` prints each metric's medians, quartiles and pair wins,
# the same for the logs' uncalibrated raw_pass_s (information only), then
# a verdict line on host_pass_s and on every other host metric
# BENCHMARK.json bounds: improved when the change wins at least 9 pairs in
# 10 and its median beats the parent's by more than the parent's
# interquartile range (with fewer than 10 pairs, only consistent with a
# gain). When the two sides' median calibration slow-downs differ by more
# than the parent's interquartile range of them, each calibrated host
# metric's verdict is cross-checked on its raw seconds, printed beside it,
# and a gain stands only when both show it (bounds stay on the calibrated
# metric). It fails a workload on any run that failed its own checks,
# on any difference in a virtual_* metric or the virtual_fingerprint, which
# are functions of the seed, and on any end-to-end metric whose median is
# worse than the parent's by more than its BENCHMARK.json bound (read, never
# written). A verdict that shows no gain is not an error. The script exits 1
# when any workload failed, after running them all.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/ab.sh PARENT_REV [--pairs N] [--seed S] [--workload W[,W...]]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
parent_rev="$1"
shift
pairs=10
seed=1
workloads=heatdis_inmem
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --pairs) pairs="$2" ;;
    --seed) seed="$2" ;;
    --workload) workloads="$2" ;;
    *) usage ;;
  esac
  shift 2
done
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
rev=$(git rev-parse --verify "${parent_rev}^{commit}")

parent_tree=target/ab/parent
change_tree=target/ab/change
build() { # tree
  cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
echo "== ab: building the parent ${rev} in ${parent_tree} =="
rm -rf "$parent_tree" "$change_tree"
mkdir -p "$parent_tree" "$change_tree"
git archive "$rev" | tar -x -C "$parent_tree"
build "$parent_tree"
echo "== ab: building the change (this checkout's files) in ${change_tree} =="
git ls-files -z -co --exclude-standard \
  | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
  | tar --null -T - -cf - | tar -x -C "$change_tree"
build "$change_tree"

run() { # tree workload log
  (cd "$1" && benchmark/target/release/benchmark \
    --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) > "$3"
}
IFS=, read -r -a list <<< "$workloads"
failed=()
for workload in "${list[@]}"; do
  out="target/ab/${workload}-seed${seed}"
  rm -rf "$out"
  mkdir -p "$out"
  logs=()
  for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
      order=(parent change)
    else
      order=(change parent)
    fi
    for side in "${order[@]}"; do
      echo "== ab: ${workload}, pair $i, $side =="
      if [ "$side" = parent ]; then
        run "$parent_tree" "$workload" "$out/pair$i-parent.log"
      else
        run "$change_tree" "$workload" "$out/pair$i-change.log"
      fi
    done
    logs+=("$out/pair$i-parent.log" "$out/pair$i-change.log")
  done
  echo "== ab: ${workload} =="
  if ! cargo run -q -p bench --bin bench_compare -- ab --bounds BENCHMARK.json "${logs[@]}" \
    | tee "$out/verdict.txt"; then
    failed+=("$workload")
  fi
done
if [ ${#failed[@]} -gt 0 ]; then
  echo "ab: failed: ${failed[*]}" >&2
  exit 1
fi
