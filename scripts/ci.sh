#!/usr/bin/env bash
# Local CI gate: formatting, doc byte budgets, lints, the tier-1 build + test
# pass over the whole workspace (ROADMAP.md; it replays every committed chaos
# reproducer, crates/chaos/reproducers.txt), the chaos campaign and scale
# smokes on the optimised build, and the benchmark gate. Run from anywhere
# inside the repo; fails fast.
#
# Every stage is wall-clock timed; the per-stage seconds and the artifact
# paths land in target/ci-summary.json (written even when a stage fails,
# covering the stages that ran).
#
# CI_QUICK=1 skips the slow benchmark gate, the benchmark/ workload runs, the
# A/B self-comparison and the 16k-rank DES scale smoke — an inner-loop mode;
# the full gate must pass before merge.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGE_JSON=""
CURRENT_STAGE=""
STAGE_START=0

now_ms() { date +%s%3N; }

begin() {
  CURRENT_STAGE="$1"
  STAGE_START=$(now_ms)
  echo "== $1 =="
}

end() {
  local dur_ms=$(( $(now_ms) - STAGE_START ))
  local entry
  entry=$(printf '{"name":"%s","seconds":%d.%03d}' \
    "$CURRENT_STAGE" $((dur_ms / 1000)) $((dur_ms % 1000)))
  STAGE_JSON="${STAGE_JSON:+$STAGE_JSON,}$entry"
  CURRENT_STAGE=""
}

write_summary() {
  local status=$?
  mkdir -p target
  {
    printf '{"ok":%s,"stages":[%s],"artifacts":{' \
      "$([ "$status" -eq 0 ] && echo true || echo false)" "$STAGE_JSON"
    printf '"scale_smoke_log":"target/scale-smoke.log",'
    printf '"bench_gate_log":"target/bench-gate.log",'
    printf '"bench_results":"target/BENCH_checkpoint.json",'
    printf '"bench_redundancy_results":"target/BENCH_redundancy.json",'
    printf '"bench_sched_results":"target/BENCH_sched.json",'
    printf '"bench_restart_results":"target/BENCH_restart.json",'
    printf '"bench_minimd_results":"target/BENCH_minimd.json",'
    printf '"bench_heatdis_results":"target/BENCH_heatdis.json"'
    printf '}}\n'
  } > target/ci-summary.json
  echo "stage summary written to target/ci-summary.json"
}
trap write_summary EXIT

begin "cargo fmt --check"
cargo fmt --all -- --check
end

begin "doc budgets"
# Each long-lived doc at its byte budget, exactly: a doc grows only by a
# reviewed raise of its line here, and a change that shrinks one lowers the
# line in the same diff (ROADMAP item 10).
budgets_ok=1
doc_budget() { # file bytes
  local size
  size=$(wc -c < "$1")
  if [ "$size" -gt "$2" ]; then
    echo "$1 is $size bytes, over its budget of $2: shrink it or raise the budget"
    budgets_ok=0
  elif [ "$size" -lt "$2" ]; then
    echo "$1 is $size bytes, under its budget of $2: lower the budget to $size"
    budgets_ok=0
  fi
}
doc_budget DESIGN.md 119575
doc_budget CHANGES.md 145954
doc_budget EXPERIMENTS.md 98662
[ "$budgets_ok" -eq 1 ]
end

begin "cargo clippy (-D warnings)"
# With clippy.toml: panic sites in the recovery crates, and host time,
# threads and blocking on every rank crate's path, are denied in library
# code; each remaining site carries an #[expect(…, reason = …)].
cargo clippy --workspace --all-targets -- -D warnings
end

begin "tier-1: cargo build --release"
# The root manifest's `default-members` is the whole workspace, so tier-1
# builds and tests every member, not the umbrella package alone.
cargo build --release
# The two API walk-throughs, end to end: each asserts its own recovery (the
# integrated one that a re-entered rank resumes from its checkpoint).
cargo run -q --release --example quickstart > /dev/null
cargo run -q --release --example integrated_api > /dev/null
end

begin "tier-1: cargo test -q"
# Every suite of every member, at its in-tree defaults, on the debug build:
# every lock runs under the parking_lot shim's lock-order witness, which the
# `--release` stages below compile out. The later stages
# only add what needs a feature, `--release` or an env knob.
cargo test -q
# The checkpoint buffer path once more on the optimised build, where the
# pool neither poisons nor fills a buffer: every writer into unwritten
# bytes, views zeroing a recycled buffer, and the page-fault test of a
# fresh buffer (release only).
cargo test -q --release -p cluster -p veloc -p redstore -p kokkos
# The resilience layers' allocation count on the optimised build, which the
# benchmark runs; debug builds add the witnesses' own allocations.
cargo test -q --release -p apps --test alloc_budget
end

begin "chaos: smoke campaign + seeded integrity mutant"
# A short seeded campaign across all three resilience layers: every
# schedule must satisfy the differential oracle (bitwise-equal digest or a
# clean typed error — never a hang, panic, or incoherent timeline). Env
# knobs for deeper sweeps, e.g.:
#   CHAOS_SCHEDULES=200 CHAOS_SEED=7 scripts/ci.sh
cargo run -q --release -p harness --bin chaos -- \
  --schedules "${CHAOS_SCHEDULES:-30}" ${CHAOS_SEED:+--seed "$CHAOS_SEED"}
# The campaign must also catch the seeded checkpoint-integrity bug
# (chaos-mutants skips the CRC checks) and shrink it to <=2 events:
cargo test -q -p chaos --features chaos-mutants
end

begin "sched: 1k/16k-rank DES smoke"
# The deterministic scheduler's other proof obligations ran in tier-1 (same
# seed => bitwise identical timeline/digest, `simmpi --test sched_props`;
# every committed chaos reproducer's verdict and resume point on DES,
# `chaos --test corpus`, and the same verdict on threads, `chaos --test
# differential`; per-rank repair work that does not
# grow with the rank count, `apps --test repair_linearity`). This stage is the
# optimised build's: a full Heatdis + Fenix/KR run at SCALE_RANKS active
# ranks (default 1,024) with one injected failure, replayed twice for
# bitwise equality — then, unless CI_QUICK=1, the same at 16,384 ranks: one
# thread, 16,392 task stacks, two mappings each, inside the default
# vm.max_map_count.
# Each smoke's `scale_smoke:` line (virtual wall, digest, hand-offs, unready
# wakes skipped, host seconds of run + replay: the EXPERIMENTS.md
# weak-scaling rows) lands in target/scale-smoke.log. At 1,024 ranks the
# test itself holds wall, digest and both counts to the pin file
# (crates/bench/pins.json), as tier-1 does. Deeper sweeps, e.g.:
#   SCALE_RANKS=4096 scripts/ci.sh
: > target/scale-smoke.log
scale_smoke() { # active ranks
  SCALE_RANKS="$1" cargo test -q --release -p apps --test scale_smoke -- --nocapture |
    tee -a target/scale-smoke.log
}
scale_smoke "${SCALE_RANKS:-1024}"
if [ "${CI_QUICK:-0}" = "1" ]; then
  echo "CI_QUICK=1: skipping the 16384-rank scale smoke"
else
  scale_smoke 16384
fi
end

begin "benchmark/: the frozen package builds, its unit tests pass, its modelled numbers equal the pins"
# The whole-run ledger is a package of its own that later changes may not
# edit, compiled against this workspace's public API: build it and run its
# unit tests, so a change that breaks an item it uses fails here and not in
# the benchmark pipeline. Then, unless CI_QUICK=1, each workload runs once at
# seed 7 (~80 s for all four on two CPUs) and `bench_compare check-pins`
# holds its virtual_ckpt_overhead_s, virtual_wall_fail_s and
# virtual_fingerprint to their entry in crates/bench/pins.json — equality,
# the modelled numbers being a function of the seed. A mismatch prints the
# replacement line.
# Building rewrites the package's lock file, which is put back.
cp benchmark/Cargo.lock target/benchmark-Cargo.lock
frozen=0
(cd benchmark && cargo test --offline -q) || frozen=1
if [ "${CI_QUICK:-0}" = "1" ]; then
  echo "CI_QUICK=1: skipping the benchmark/ workload runs"
elif [ "$frozen" -eq 0 ]; then
  for w in heatdis_ckpt heatdis_scale minimd_relaunch heatdis_inmem; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
      --workload "$w" --seed 7 --seconds 1 --trace 0 > "target/benchmark-$w.log" &&
      cargo run -q -p bench --bin bench_compare -- check-pins "target/benchmark-$w.log" ||
      frozen=1
  done
fi
mv target/benchmark-Cargo.lock benchmark/Cargo.lock
[ "$frozen" -eq 0 ]
end

begin "ab: the A/B protocol against itself"
# scripts/ab.sh, the one command a performance claim is measured with,
# run with HEAD's committed files as the parent: one pair on heatdis_scale
# must print a verdict and no difference in any modelled number
# (bench_compare ab exits 1 on one), so the tool cannot rot between the
# changes that use it. Skipped with the workload runs under CI_QUICK=1.
if [ "${CI_QUICK:-0}" = "1" ]; then
  echo "CI_QUICK=1: skipping the A/B self-comparison"
else
  scripts/ab.sh HEAD --pairs 1 --workload heatdis_scale | tee target/ab-self.log
  grep -q '^ab: virtual mismatches: 0$' target/ab-self.log
fi
end

begin "bench gate: checkpoint + redundancy + sched + restart + minimd + heatdis"
# Runs the six bench targets and holds each fresh target/BENCH_*.json to
# within-run ratio claims, every one against an oracle timed in the same
# process (the list, the bounds and the ratios measured on this container
# are scripts/bench_gate.sh): the incremental pipeline against the full
# pack in time and in bytes, the full pack and the full restore against the
# portable kernels they are made of, the 8-frame chain walk against the full
# restore, the CRC and GF(256) dispatches against their portable kernels and
# those against their definitional forms, the coded encodes and rebuilds
# against each other and a plain copy, the task switch against a bare condvar
# ping-pong, schedule and repair cost against rank count, MiniMD's
# neighbor search and force loop against their pair-at-a-time definitions,
# and Heatdis's in-place sweep against its two-buffer oracle (bit-equal
# output asserted before timing). Every claim held prints
# its ratio beside its bound into target/bench-gate.log — the record of how
# far each ratio sits from its bound — and the BENCH_*.json files record the
# kernels serial::crc32 and gf256::mul_acc dispatched to on this host.
if [ "${CI_QUICK:-0}" = "1" ]; then
  echo "CI_QUICK=1: skipping the benchmark gate"
else
  scripts/bench_gate.sh | tee target/bench-gate.log
fi
end

begin "miri: UB check on the unsafe and atomic sites (optional)"
if cargo miri --version >/dev/null 2>&1; then
  # Miri runs the pod/router tests under the interpreter's memory model;
  # slow, so scoped to the code with unsafe blocks or raw atomics.
  cargo miri test -p simmpi
  # veloc::serial compiles its carry-less-multiply kernels out under
  # cfg(miri) (the interpreter does not model the intrinsics): its unit
  # tests then hold the portable CRC path, which is what crc32 dispatches
  # to, and run FrameBuilder::new with its huge-page advice (an madvise
  # call) compiled out in the same way.
  cargo miri test -p veloc --lib serial
  # redstore::gf256 does the same with its pshufb and GFNI kernels: under
  # cfg(miri) mul_acc is the portable row-table loop, whole lanes included,
  # and rows_into the per-row loop over it.
  cargo miri test -p redstore --lib gf256
  # cluster::pool: the unwritten-capacity cursor, the one place unwritten
  # bytes become initialised, and PoolBuf's allocation, layout and frees.
  cargo miri test -p cluster --lib pool
else
  echo "cargo-miri not installed; skipping (rustup +nightly component add miri)"
fi
end

echo "CI OK"
