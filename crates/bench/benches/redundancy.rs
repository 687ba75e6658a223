//! Redundancy-tier cost: encode/reconstruct per coded mode (XOR n+1,
//! RS n+2) beside one plain copy of the payload (what replication ships
//! per peer), plus end-to-end recovery latency through a four-rank
//! universe.
//!
//! Writes `target/BENCH_redundancy.json` — low-water-mark nanoseconds per
//! codec operation, which `scripts/bench_gate.sh` holds to each other
//! within that one run. The `recovery_*` medians ride along for the record
//! but are not gated: they time a collective across rank threads, which is
//! scheduler-noisy.
//!
//! Four configs time what the store leg itself runs rather than the `Vec`
//! adapters: `wire_rs4_2` is `store::coded_frames` (the three RS 2+2 wire
//! frames of one payload, each built in place, both parity rows in one
//! pass), `wire_rs4_2_reference` is `store::coded_frames_per_row` (the same
//! frames, one row at a time), both into buffers the cluster's pool
//! recycles, as the store's are; and `gf_mul_acc_1m` /
//! `gf_mul_acc_portable_1m` are one `gf256::mul_acc` over 1 MiB through the
//! dispatch and through the portable kernel by name. The JSON's
//! `gf256_kernel` says which kernel the `mul_acc` dispatch chose on this
//! host, and `gf256_rows_kernel` which one `gf256::rows_into` did; where
//! they are `ssse3` and `gfni` the gate asserts each dispatch is the
//! faster.
//!
//! Replication has one config, `encode_k2` (one copy of the payload):
//! `encode_k3` and `reconstruct_k2`/`_k3` timed two copies and one copy of
//! the same bytes — libc, nothing of this repository's — and are gone.

use std::hint::black_box;
use std::sync::Arc;

use bench::{bench_cluster, elapsed_ns, measure, write_results};
use bytes::Bytes;
use parking_lot::Mutex;
use redstore::codec::{self, Code};
use redstore::{gf256, store, RedStore, RedundancyGroup, RedundancyMode};
use simmpi::{FaultPlan, Universe, UniverseConfig};

/// Codec-unit payload: one VCF2 frame's worth of protected state.
const PAYLOAD_BYTES: usize = 256 * 1024;
/// Smaller payload for the in-universe recovery collectives.
const RECOVERY_BYTES: usize = 64 * 1024;
/// Kernel-unit slice: past the L2, like a shard of a real checkpoint.
const KERNEL_BYTES: usize = 1 << 20;
const SAMPLES: usize = 41;
const WARMUP: usize = 10;
const RECOVERY_SAMPLES: usize = 15;
const RECOVERY_WARMUP: usize = 3;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

/// The two coded shapes, as (name, data shards, parity shards): one parity
/// row is XOR n+1, two are RS n+2.
const CODED: [(&str, usize, usize); 2] = [("xor4", 3, 1), ("rs4_2", 2, 2)];

/// One encode pass: `n` data shards plus `m` parity shards of `data`.
fn encode_once(n: usize, m: usize, data: &[u8]) -> Vec<Vec<u8>> {
    if m == 1 {
        codec::xor_encode(data, n).expect("xor encode")
    } else {
        codec::rs_encode(data, n, m).expect("rs encode")
    }
}

/// One worst-case reconstruct: encode, erase as many data shards as the
/// code tolerates, and rebuild the payload.
fn reconstruct_once(n: usize, m: usize, data: &[u8]) -> Vec<u8> {
    let mut shards: Vec<Option<Vec<u8>>> = encode_once(n, m, data).into_iter().map(Some).collect();
    for s in shards.iter_mut().take(m) {
        *s = None;
    }
    if m == 1 {
        codec::xor_decode(&shards, n, data.len()).expect("xor decode")
    } else {
        codec::rs_decode(&shards, n, m, data.len()).expect("rs decode")
    }
}

/// Low-water mark of `op` across the sample budget. For a short
/// deterministic operation the minimum is the least scheduler-sensitive
/// estimator (medians here swing ±30% with load).
fn min_ns<T>(mut op: impl FnMut() -> T) -> u64 {
    measure(WARMUP, SAMPLES, || elapsed_ns(&mut op)).min_ns
}

/// Median latency of the full recovery collective — rank 0's store is
/// wiped (a replacement spare starts empty) and `restore` feeds it back —
/// measured on rank 0 inside one four-rank, four-node universe.
fn recovery_median_ns(mode: RedundancyMode) -> u64 {
    let cluster = bench_cluster(4);
    let median = Arc::new(Mutex::new(0u64));
    let out = Arc::clone(&median);
    let report = Universe::launch(
        &cluster,
        UniverseConfig::default(),
        Arc::new(FaultPlan::none()),
        move |ctx| {
            let comm = ctx.world().clone();
            let store = RedStore::new();
            let group = RedundancyGroup::new(Arc::clone(&store), &comm, Some(mode));
            let me = comm.rank();
            let blob = Bytes::from(payload(RECOVERY_BYTES));
            let mut version = 0;
            // Every rank runs the same loop (the store, the barriers and the
            // restore are collective); rank 0's timing is the one reported.
            let timing = measure(RECOVERY_WARMUP, RECOVERY_SAMPLES, || {
                version += 1;
                group
                    .store(0, version, blob.clone())
                    .expect("store commits");
                comm.barrier().expect("barrier");
                if me == 0 {
                    store.clear();
                }
                comm.barrier().expect("barrier");
                elapsed_ns(|| group.restore(0, &[0]).expect("restore succeeds"))
            });
            if me == 0 {
                *out.lock() = timing.median_ns;
            }
            Ok(())
        },
    );
    for o in &report.outcomes {
        assert!(o.result.is_ok(), "rank {} failed: {:?}", o.rank, o.result);
    }
    let ns = *median.lock();
    ns
}

fn main() {
    let data = payload(PAYLOAD_BYTES);
    let mut lines = Vec::new();
    let mut record = |name: &str, metric: &str, ns: u64| {
        println!("{name:<24} {metric} {ns:>10}");
        lines.push(format!("{{\"name\":\"{name}\",\"{metric}\":{ns}}}"));
    };
    // min_ns for the gated codec configs, median_ns for the threaded
    // recovery collectives (recorded, not gated).
    record("encode_k2", "min_ns", min_ns(|| data.to_vec()));
    for (name, n, m) in CODED {
        let encode_ns = min_ns(|| encode_once(n, m, &data));
        record(&format!("encode_{name}"), "min_ns", encode_ns);
        let reconstruct_ns = min_ns(|| reconstruct_once(n, m, &data));
        record(&format!("reconstruct_{name}"), "min_ns", reconstruct_ns);
    }
    for (name, mode) in [
        ("k2", RedundancyMode::Replicate { k: 2 }),
        ("k3", RedundancyMode::Replicate { k: 3 }),
        ("xor4", RedundancyMode::XorParity { width: 4 }),
        (
            "rs4_2",
            RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2,
            },
        ),
    ] {
        let recovery_ns = recovery_median_ns(mode);
        record(&format!("recovery_{name}"), "median_ns", recovery_ns);
    }
    // What the store leg calls, and the kernel under it. Each build holds
    // the previous one's frames until it is done, as a store holds the last
    // committed version, so the pool serves every build after the second.
    let rs4_2 = Code::Rs { n: 2, m: 2 };
    let cluster = bench_cluster(1);
    let pool = cluster.pool();
    let mut held = Vec::new();
    let wire_ns = min_ns(|| held = store::coded_frames(pool, rs4_2, 1, &data).expect("frames"));
    record("wire_rs4_2", "min_ns", wire_ns);
    let reference_ns =
        min_ns(|| held = store::coded_frames_per_row(pool, rs4_2, 1, &data).expect("frames"));
    record("wire_rs4_2_reference", "min_ns", reference_ns);
    drop(held);
    let src = payload(KERNEL_BYTES);
    let mut acc = vec![0u8; KERNEL_BYTES];
    let dispatch_ns = min_ns(|| gf256::mul_acc(black_box(&mut acc), &src, 0x53));
    record("gf_mul_acc_1m", "min_ns", dispatch_ns);
    let portable_ns = min_ns(|| gf256::mul_acc_portable(black_box(&mut acc), &src, 0x53));
    record("gf_mul_acc_portable_1m", "min_ns", portable_ns);
    write_results(
        "redundancy",
        &format!(
            "\"bench\":\"redundancy\",\"payload_bytes\":{PAYLOAD_BYTES},\"recovery_bytes\":{RECOVERY_BYTES},\"kernel_bytes\":{KERNEL_BYTES},\"gf256_kernel\":\"{}\",\"gf256_rows_kernel\":\"{}\"",
            gf256::kernel(),
            gf256::rows_kernel()
        ),
        &lines,
    );
}
