#!/usr/bin/env bash
# The perf protocol as one command: build the frozen benchmark/ package at a
# parent commit and in this checkout, run one workload on both in
# alternating pairs, and judge the pairs with `bench_compare ab`.
#
#   scripts/ab.sh PARENT_REV [--pairs N] [--seed S] [--workload W]
#
# Defaults: 10 pairs, seed 7, heatdis_inmem. Every run is as long as
# BENCHMARK.json's run_seconds, with tracing off. The parent is built
# offline from its committed files, extracted with `git archive` under
# target/ab/parent (no worktree is registered, so nothing is left in .git);
# the change is this checkout, uncommitted edits included. Pair i runs the
# parent first when i is even and the change first when it is odd. The
# logs land in target/ab/<workload>-seed<S>/.
#
# `bench_compare ab` prints each metric's medians, quartiles and pair wins,
# the same for the logs' uncalibrated raw_pass_s (information only), then
# one verdict line on host_pass_s: improved when the change wins at
# least 9 pairs in 10 and its median beats the parent's by more than the
# parent's interquartile range (with fewer than 10 pairs, only consistent
# with a gain). It exits 1 on any run that failed its own
# checks and on any difference in a virtual_* metric or the
# virtual_fingerprint, which are functions of the seed; a verdict that shows
# no gain is not an error.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/ab.sh PARENT_REV [--pairs N] [--seed S] [--workload W]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
parent_rev="$1"
shift
pairs=10
seed=7
workload=heatdis_inmem
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --pairs) pairs="$2" ;;
    --seed) seed="$2" ;;
    --workload) workload="$2" ;;
    *) usage ;;
  esac
  shift 2
done
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
rev=$(git rev-parse --verify "${parent_rev}^{commit}")

# Building rewrites the package's lock file; put it back on the way out.
mkdir -p target
cp benchmark/Cargo.lock target/ab-Cargo.lock
trap 'mv target/ab-Cargo.lock benchmark/Cargo.lock' EXIT

parent_tree=target/ab/parent
echo "== ab: building the parent ${rev} in ${parent_tree} =="
rm -rf "$parent_tree"
mkdir -p "$parent_tree"
git archive "$rev" | tar -x -C "$parent_tree"
build() { # tree
  cargo build --release --offline --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
build "$parent_tree"
echo "== ab: building the change (this checkout) =="
build .

out="target/ab/${workload}-seed${seed}"
rm -rf "$out"
mkdir -p "$out"
run() { # tree log
  (cd "$1" && benchmark/target/release/benchmark \
    --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) > "$2"
}
logs=()
for ((i = 0; i < pairs; i++)); do
  if ((i % 2 == 0)); then
    order=(parent change)
  else
    order=(change parent)
  fi
  for side in "${order[@]}"; do
    echo "== ab: pair $i, $side =="
    if [ "$side" = parent ]; then
      run "$parent_tree" "$out/pair$i-parent.log"
    else
      run . "$out/pair$i-change.log"
    fi
  done
  logs+=("$out/pair$i-parent.log" "$out/pair$i-change.log")
done

cargo run -q -p bench --bin bench_compare -- ab "${logs[@]}" | tee "$out/verdict.txt"
