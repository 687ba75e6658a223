#!/usr/bin/env bash
# Benchmark gate. Each section runs one bench target, which times every
# config once and writes target/BENCH_*.json, then holds that fresh file to
# a list of claims of one shape: config A is at least N times faster than
# config B, both measured in the same process (`bench_compare assert-faster`,
# logic + unit tests in crates/bench/src/gate.rs; N < 1 bounds a growth ratio:
# 0.125 holds A to at most 8 x B). No claim compares against a number from
# another run or another host, so there is nothing to record and nothing to
# tune: each bound below is a constant set at about half the headroom of the
# ratio measured over >= 5 runs on the two-CPU CI container (the comment
# beside it), and a missing, non-integer or zero metric fails the claim.
# Every passing claim prints its measured ratio beside the bound;
# scripts/ci.sh keeps those lines in target/bench-gate.log, where a drift
# toward a bound is visible before it fails.
#
# Every config a section used to compare against a committed baseline is
# on one side of at least one claim below, or left its bench; the table is
# DESIGN.md section 11's.
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH=""

# Run one bench target [under a launcher]; the claims that follow read its
# fresh JSON.
bench() { # target json [launcher...]
  local target="$1"
  FRESH="target/$2"
  shift 2
  echo "== bench: ${target} =="
  rm -f "$FRESH"
  "$@" cargo bench -q -p bench --bench "$target"
  [ -f "$FRESH" ] || { echo "bench gate: $FRESH was not produced" >&2; exit 1; }
}

claim() { # fast slow min_x [metric]
  cargo run -q -p bench --bin bench_compare -- \
    assert-faster "$FRESH" "$1" "$2" --min-x "$3" --metric "${4:-median_ns}"
}

# Which kernel a dispatch chose on this host, as the fresh JSON records it.
kernel() { sed -n "s/.*\"$1\":\"\([a-z0-9_]*\)\".*/\1/p" "$FRESH"; }
# Whether serial::crc32 runs a carry-less-multiply kernel (128- or 512-bit).
clmul_crc() { case "$(kernel crc_kernel)" in pclmulqdq | vpclmulqdq) ;; *) return 1 ;; esac; }

bench checkpoint_pipeline BENCH_checkpoint.json
# The incremental pipeline at 1-of-100 regions dirty: in time (measured
# 5.3-5.7x) and in bytes, which do not vary (411,224 / 4,532 = 90.74).
claim incremental_1pct full_pack 3
claim incremental_1pct full_pack 90.7 bytes_written
# At 25% dirty (measured 2.3-2.8x).
claim incremental_25pct full_pack 1.5
# With everything dirty the delta machinery must cost nothing to speak of:
# incremental_100pct <= 1.5 x full_pack (measured 0.96-1.12).
claim incremental_100pct full_pack 0.667
# The full pack against the kernels it is made of, portable edition: one
# slice-by-16 CRC and one copy per region. Held where serial::crc32 runs the
# carry-less-multiply kernel (measured 2.8-3.4x over 5 runs on the Intel
# Xeon container; with the dispatch lost the pack reads 0.8x); on a slice16
# host the two are the same work.
if clmul_crc; then
  claim full_pack pack_kernels 2
fi
# The pack's one pass over an 8 MiB payload, each 16 KiB block checksummed
# right after it is copied, against the copy and then the CRC of the whole
# copy read back from beyond L2: copy_crc_8m >= 1.2 x faster (measured
# 1.43-1.56x over 5 runs; with the block widened to the whole payload, the
# two passes again, it reads about 1.0x).
claim copy_crc_8m copy_then_crc_8m 1.2
echo "bench gate: OK (checkpoint)"

# The redundancy tier (its recovery_* configs launch rank threads) and the
# DES scheduler (one rank runs at a time: left to the kernel, every baton
# hand-off migrates between CPUs and costs ~4x, benchmark/README.md) run
# pinned to one CPU.
PIN=()
if command -v taskset >/dev/null 2>&1; then
  PIN=(taskset -c "$(taskset -cp $$ | sed 's/.*: *//; s/[,-].*//')")
fi

# The codecs are read at their low-water mark (min_ns), the least
# scheduler-sensitive estimator for microsecond-scale operations. The
# recovery_* medians in the JSON are recorded, not gated (a collective
# across rank threads).
bench redundancy BENCH_redundancy.json ${PIN[@]+"${PIN[@]}"}
# XOR n+1 encodes cheaper than RS n+2: one parity row against two over the
# same kernel, and three shards to allocate against four (measured 6.0-8.5x
# on the pshufb kernel, 2.9x on the portable one).
claim encode_xor4 encode_rs4_2 1.5 min_ns
# A worst-case rebuild (encode, lose as many data shards as the code
# tolerates, decode) in encodes of the same code: XOR <= 16 (measured
# 6.1-8.5; 3.3 portable), RS <= 3 (measured 1.17-1.56; 1.65 portable).
claim reconstruct_xor4 encode_xor4 0.0625 min_ns
claim reconstruct_rs4_2 encode_rs4_2 0.333 min_ns
if [ "$(kernel gf256_kernel)" = ssse3 ]; then
  # Where gf256::mul_acc dispatches to the pshufb kernel: the dispatch
  # against the portable kernel it is chosen over (measured 3.0-10x: both
  # sides move with the neighbours' memory traffic; 1.0 with the dispatch
  # lost) ...
  claim gf_mul_acc_1m gf_mul_acc_portable_1m 2 min_ns
  # ... XOR 3+1 of a payload against one plain copy of it, what replication
  # ships per peer: encode_xor4 <= 10 x encode_k2 (measured 4.4-6.4; 16.5
  # with the dispatch lost) ...
  claim encode_xor4 encode_k2 0.1 min_ns
  # ... and what the store leg runs — three wire frames, each built in
  # place into a buffer the pool recycles — against the Vec adapter over
  # the same code (measured 7.2-10.6x over 6 pinned runs on the Intel Xeon
  # container, whose parity rows run the GFNI kernel, and 3.9-4.0x over 5
  # with that dispatch lost; before the pool, on an earlier container,
  # 4.2-5.3x, and 1.6x with the mul_acc dispatch lost).
  claim wire_rs4_2 encode_rs4_2 2.5 min_ns
fi
if [ "$(kernel gf256_rows_kernel)" = gfni ]; then
  # Where gf256::rows_into runs the gf2p8affineqb kernel: the store leg's
  # wire frames with both parity rows written in one pass, against the
  # same frames built one row at a time by shard_into, in the same recycled
  # buffers (measured 1.56-2.68x over 6 pinned runs; 0.88-0.93x over 5
  # with the dispatch lost, where both sides run the per-row loop).
  claim wire_rs4_2 wire_rs4_2_reference 1.25 min_ns
fi
echo "bench gate: OK (redundancy)"

bench sched BENCH_sched.json ${PIN[@]+"${PIN[@]}"}
# The scheduler's hand-off against the bare token exchange it is built from,
# the same 40,000 hand-offs over one Mutex<bool> + Condvar per thread, the
# token set and the cell unlocked before the notify on both sides: what
# either reads in nanoseconds is the container's futex latency, their ratio
# is simmpi::sched's. Low-water marks: baton_handoff <= 1.05 x
# condvar_pingpong (measured 0.82-0.90 over 7 runs, 34-36 ms against
# 38-42 ms; 0.2 us more per dispatch reads 1.07; Scheduler::grant notifying
# with the token lock held again reads 3.4-3.5, 131-134 ms against 39 —
# the oracle does not make that mistake with it).
claim baton_handoff condvar_pingpong 0.95 min_ns
# The ring_* configs time a whole Universe launch (thread spawn + scheduler):
# 4x the ranks may cost a schedule at most 8x (linear with 2x slack; 16x is
# quadratic; measured 3.7-4.8).
claim ring_64 ring_16 0.125
# repair_256/repair_1024 are the host cost of one in-place repair per rank
# (fail run - failure-free run of the scale-smoke shape), which must grow
# slower than the rank count — at 4x the total repair would be quadratic
# again (measured 1.9-2.0 over 15 samples). The exact per-rank counts are
# crates/apps/tests/repair_linearity.rs.
claim repair_1024 repair_256 0.25
echo "bench gate: OK (sched)"

# bytes_restored and the read/verify/apply stage medians ride along in the
# JSON for the EXPERIMENTS.md latency budget.
bench restart_latency BENCH_restart.json
# Walking full + 7 deltas against restoring one full frame of the same 4 MiB:
# restart_chain8 <= 2 x restart_full (measured 1.10-1.35).
claim restart_chain8 restart_full 0.5
# Slice-by-16 against the bitwise form it replaced, kept in-tree as the
# proptest oracle (measured 5.2-5.3x).
claim crc_slice16_1m crc_bitwise_1m 2.5
if clmul_crc; then
  # The hardware kernel against the portable one it is chosen over
  # (measured 12.2-12.9x on the 128-bit fold, 22x on the 512-bit one).
  claim crc_dispatch_1m crc_slice16_1m 6
  # The full restore against the kernels it is made of, portable edition:
  # one slice-by-16 CRC and one copy per region (measured 4.0-4.3x; with the
  # dispatch lost the restore reads 0.95x).
  claim restart_full restore_kernels 2
fi
if [ "$(kernel crc_kernel)" = vpclmulqdq ]; then
  # Where crc32 runs the 512-bit fold, the same claim at its own bound:
  # crc_dispatch_1m >= 16 x crc_slice16_1m (measured 30.6-38.0x over 5
  # pinned runs on the Intel Xeon container; with the 512-bit fold lost,
  # the 128-bit one reads 10.5-12.5x on the same host).
  claim crc_dispatch_1m crc_slice16_1m 16
fi
echo "bench gate: OK (restart)"

bench minimd BENCH_minimd.json ${PIN[@]+"${PIN[@]}"}
# MiniMD's cell search against the all-pairs definition it is
# property-tested against, at the minimd_relaunch rank shape (864 owned
# atoms + 504 ghosts, identical lists asserted before timing):
# neighbors_cells >= 1.5 x faster (measured 2.24-3.42 over 8 pinned runs
# with the lists ordered by bitmap, the two sides slowing differently in
# the container's noisy phases; with the stencil widened to the whole box
# it reads 0.89-1.16).
claim neighbors_cells neighbors_all_pairs 1.5
# MiniMD's three-pass force loop against the pair-at-a-time loop it is
# property-tested against, on the same atoms jittered off the lattice
# (forces and energy bit-equal, asserted before timing): force >= 1.2 x
# faster (measured 1.41-1.53 over 15 pinned runs; with the term pass's
# bitwise select written as an if/else, which compiles back to a branch
# and scalar division, it reads 0.87-1.06).
claim force force_reference 1.2
echo "bench gate: OK (minimd)"

bench heatdis BENCH_heatdis.json ${PIN[@]+"${PIN[@]}"}
# Heatdis's in-place sweep against the two-buffer sweep it is
# property-tested against, twelve sweeps of the heatdis_ckpt rank shape
# (2,048 x 512, grid and largest changes bit-equal, asserted before
# timing): sweep >= 2 x faster (measured 3.4-3.5 over 3 pinned runs; with
# the four lanes folded back into one running maximum, the serial chain
# that keeps the loop scalar, it reads about 1.1).
claim sweep sweep_reference 2
echo "bench gate: OK (heatdis)"

echo "bench gate: OK"
