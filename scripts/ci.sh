#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build + test pass over the
# whole workspace (ROADMAP.md), chaos replays and scale smokes on the
# optimised build, and the benchmark gate. Run from anywhere inside the repo; fails fast.
#
# Every stage is wall-clock timed; the per-stage seconds and the artifact
# paths land in target/ci-summary.json (written even when a stage fails,
# covering the stages that ran).
#
# CI_QUICK=1 skips the slow benchmark gate, the benchmark/ workload runs and
# the 2k-rank DES scale smoke — an inner-loop mode; the full gate must pass
# before merge.
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
    printf '"lint_report":"target/lint-report.json",'
    printf '"effects_inventory":"target/effects-inventory.json",'
    printf '"scale_smoke_log":"target/scale-smoke.log",'
    printf '"bench_gate_log":"target/bench-gate.log",'
    printf '"bench_results":"target/BENCH_checkpoint.json",'
    printf '"bench_redundancy_results":"target/BENCH_redundancy.json",'
    printf '"bench_sched_results":"target/BENCH_sched.json",'
    printf '"bench_restart_results":"target/BENCH_restart.json",'
    printf '"bench_minimd_results":"target/BENCH_minimd.json"'
    printf '}}\n'
  } > target/ci-summary.json
  echo "stage summary written to target/ci-summary.json"
}
trap write_summary EXIT

begin "cargo fmt --check"
cargo fmt --all -- --check
end

begin "cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings
end

begin "resilience-invariant lints (crates/lint)"
# Workspace scan: fails on any finding. It emits the machine-readable
# artifacts: the JSON report and the effects inventory (every
# wall-clock/blocking/spawn/non-determinism site reachable from a rank
# entry point, each sanctioned in place or failing this scan under
# `rank-path-effects`). That every rule fires on its fixture, and that a
# scan with the seeded mutants reports exactly them, is tier-1
# (`crates/lint` unit tests and tests/mutant.rs). Here the seeded code
# must really compile:
cargo run -q -p lint -- \
  --report target/lint-report.json \
  --effects target/effects-inventory.json
cargo test -q -p fenix --features lint-mutants
cargo test -q -p simmpi --features lint-mutants
cargo test -q -p cluster --features lint-mutants
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
# Every suite of every member, at its in-tree defaults. The later stages
# only add what needs a feature, `--release` or an env knob. The modelcheck
# protocol suites (veloc flush, simmpi rendezvous and scheduler baton)
# honour env overrides for deeper sweeps here, e.g.:
#   MC_PREEMPTION_BOUND=3 MC_DFS_CAP=500000 MC_RANDOM_EXECUTIONS=2000 scripts/ci.sh
# (raise MC_DFS_CAP alongside the bound or the exhaustiveness assertions
# will rightly fail on truncation.)
cargo test -q
end

begin "chaos: smoke campaign + seeded integrity mutant"
# A short seeded campaign across all three resilience layers: every
# schedule must satisfy the differential oracle (bitwise-equal digest or a
# clean typed error — never a hang, panic, or incoherent timeline). Env
# knobs for deeper sweeps, e.g.:
#   CHAOS_SCHEDULES=200 CHAOS_SEED=7 scripts/ci.sh
cargo run -q --release -p harness --bin chaos -- \
  --schedules "${CHAOS_SCHEDULES:-30}" ${CHAOS_SEED:+--seed "$CHAOS_SEED"}
chaos_replay() {
  cargo run -q --release -p harness --bin chaos -- --schedule "$1"
}
# The one flush routine under an installed injector, on the threaded engine
# (the one where the flush worker runs; DES flushes inline). A worker holds
# one flush at a time: rank 1's writes a corrupted v7 to the PFS; rank 0's
# dies between its first and second flush, so rank 0 flushes inline from
# then on; rank 1's replacement must degrade past the corrupt PFS copy to
# the baseline digest.
chaos_replay "strategy=FenixVeloc spares=1 corrupt(tier=pfs,version=7,rank=1,flip=0) workerdeath(rank=0,after=1) kill(rank=1,site=iter,at=9)"
# A kill on the final commit (version 11 of 3, 7, 11): the newest agreed
# version may be the last iteration's, which leaves no region execution to
# carry the lazy restore — Context::restart_version must re-agree lower.
# Once per process layer, through both entries of the one KR body.
chaos_replay "strategy=FenixKokkosResilience spares=1 kill(rank=1,site=commit,at=11)"
chaos_replay "strategy=KokkosResilience spares=0 kill(rank=1,site=commit,at=11)"
# A kill before the final peer-memory store, on the thread engine, where a
# victim can die after one survivor's sends have landed and before
# another's: a store that stopped sending at its first failed send left the
# first survivor waiting for a frame while the rest waited for it in the
# commit agreement, one replay in five to eight (DES cannot reach it: a kill
# lands at a zero-virtual-time fault point). Replayed often enough that the
# old rate would show.
for _ in $(seq 25); do
  chaos_replay "strategy=FenixRedstore spares=2 kill(rank=3,site=ckpt,at=11)"
done
# The campaign must also catch the seeded checkpoint-integrity bug
# (chaos-mutants skips the CRC checks) and shrink it to <=2 events:
cargo test -q -p chaos --features chaos-mutants
end

begin "sched: 1k/2k-rank DES smoke"
# The deterministic scheduler's other proof obligations ran in tier-1 (same
# seed => bitwise identical timeline/digest, `simmpi --test sched_props`;
# DES-vs-threads verdict agreement on every committed chaos reproducer,
# `chaos --test differential`; per-rank repair work that does not grow with
# the rank count, `apps --test repair_linearity`). This stage is the
# optimised build's: a full Heatdis + Fenix/KR run at SCALE_RANKS active
# ranks (default 1,024) with one injected failure, replayed twice for
# bitwise equality — then, unless CI_QUICK=1, the same at twice the ranks.
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
  echo "CI_QUICK=1: skipping the $(( ${SCALE_RANKS:-1024} * 2 ))-rank scale smoke"
else
  scale_smoke $(( ${SCALE_RANKS:-1024} * 2 ))
fi
end

begin "redstore: multi-failure chaos smoke"
# (The codec property suite ran in tier-1.)
# Seeded multi-failure smoke, replayed through the differential oracle:
# a two-rank placement-group kill and a whole-node kill must complete
# bitwise-equal via the redundancy store, and the same node loss must be
# survived by buddy IMR (the store at two replicas — every pair spans two
# nodes; the exact differential, including the buddy-pair kill that stays
# a typed error, is asserted in crates/chaos/tests/scenarios.rs).
chaos_replay "strategy=FenixRedstore spares=2 kill(rank=0,site=iter,at=5) kill(rank=1,site=iter,at=5)"
chaos_replay "strategy=FenixRedstore spares=2 rpn=2 nodekill(node=0,site=iter,at=5)"
chaos_replay "strategy=FenixImr spares=2 rpn=2 nodekill(node=0,site=iter,at=5)"
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

begin "bench gate: checkpoint + redundancy + sched + restart + minimd"
# Runs the five bench targets and holds each fresh target/BENCH_*.json to
# within-run ratio claims, every one against an oracle timed in the same
# process (the list, the bounds and the ratios measured on this container
# are scripts/bench_gate.sh): the incremental pipeline against the full
# pack in time and in bytes, the full pack and the full restore against the
# portable kernels they are made of, the 8-frame chain walk against the full
# restore, the CRC and GF(256) dispatches against their portable kernels and
# those against their definitional forms, the coded encodes and rebuilds
# against each other and a plain copy, the baton against a bare condvar
# ping-pong, schedule and repair cost against rank count, and MiniMD's
# neighbor search and force loop against their pair-at-a-time definitions
# (bit-equal output asserted before timing). Every claim held prints
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
  # veloc::serial compiles its carry-less-multiply kernel out under
  # cfg(miri) (the interpreter does not model the intrinsic): the CRC unit
  # tests then hold the portable path, which is what crc32 dispatches to.
  cargo miri test -p veloc --lib crc32
  # redstore::gf256 does the same with its pshufb kernel: under cfg(miri)
  # mul_acc is the portable row-table loop, whole lanes included.
  cargo miri test -p redstore --lib gf256
else
  echo "cargo-miri not installed; skipping (rustup +nightly component add miri)"
fi
end

echo "CI OK"
