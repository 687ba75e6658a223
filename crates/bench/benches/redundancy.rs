//! Redundancy-tier cost: encode/reconstruct throughput per mode (k=2,3
//! replication; XOR n+1; RS n+2) plus end-to-end recovery latency through
//! a four-rank universe.
//!
//! Beyond the criterion console table, this bench writes
//! `target/BENCH_redundancy.json` — low-water-mark nanoseconds per codec
//! operation — which `scripts/bench_gate.sh` compares against the
//! committed baseline (`BENCH_redundancy.json` at the repo root) to fail
//! CI on an encode/reconstruct regression beyond RED_MAX_REGRESSION_PCT.
//! The `recovery_*` medians ride along for the record but are not gated:
//! they time a collective across rank threads, which is scheduler-noisy.
//!
//! Three configs time what the store leg itself runs rather than the `Vec`
//! adapters: `wire_rs4_2` is `store::coded_frames` (the three RS 2+2 wire
//! frames of one payload, each built in place), and `gf_mul_acc_1m` /
//! `gf_mul_acc_portable_1m` are one `gf256::mul_acc` over 1 MiB through the
//! dispatch and through the portable kernel by name. The JSON's
//! `gf256_kernel` says which kernel the dispatch chose on the recording
//! host; where it is `ssse3` the gate asserts the dispatch is the faster.

use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use cluster::{Cluster, ClusterConfig, TimeScale};
use criterion::{black_box, Criterion};
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
/// Samples for the JSON medians.
const JSON_SAMPLES: usize = 41;
const JSON_WARMUP: usize = 10;
const RECOVERY_SAMPLES: usize = 15;
const RECOVERY_WARMUP: usize = 3;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + 7) as u8).collect()
}

/// One encode pass for `mode` over `data`, returning something derived
/// from the shards so the work cannot be optimized away.
fn encode_once(mode: RedundancyMode, data: &[u8]) -> usize {
    match mode {
        // Replication "encoding" is the k-1 peer copies the store ships.
        // black_box keeps the copies from folding into `data.len()`.
        RedundancyMode::Replicate { k } => (1..k).map(|_| black_box(data.to_vec()).len()).sum(),
        RedundancyMode::XorParity { width } => codec::xor_encode(data, width - 1)
            .expect("xor encode")
            .iter()
            .map(Vec::len)
            .sum(),
        RedundancyMode::ReedSolomon { width, parity } => {
            codec::rs_encode(data, width - parity, parity)
                .expect("rs encode")
                .iter()
                .map(Vec::len)
                .sum()
        }
    }
}

/// One worst-case reconstruct for `mode`: erase `tolerance()` shards (for
/// replication, the owner's copy) and rebuild the payload.
fn reconstruct_once(mode: RedundancyMode, data: &[u8]) -> Vec<u8> {
    match mode {
        RedundancyMode::Replicate { .. } => data.to_vec(),
        RedundancyMode::XorParity { width } => {
            let n = width - 1;
            let mut shards: Vec<Option<Vec<u8>>> = codec::xor_encode(data, n)
                .expect("xor encode")
                .into_iter()
                .map(Some)
                .collect();
            shards[0] = None;
            codec::xor_decode(&shards, n, data.len()).expect("xor decode")
        }
        RedundancyMode::ReedSolomon { width, parity } => {
            let n = width - parity;
            let mut shards: Vec<Option<Vec<u8>>> = codec::rs_encode(data, n, parity)
                .expect("rs encode")
                .into_iter()
                .map(Some)
                .collect();
            for s in shards.iter_mut().take(parity) {
                *s = None;
            }
            codec::rs_decode(&shards, n, parity, data.len()).expect("rs decode")
        }
    }
}

/// Minimum wall-clock nanoseconds of `op` across the sample budget — the
/// low-water mark. For a short deterministic operation the minimum is the
/// least scheduler-sensitive estimator, which is what a CI regression
/// gate on a shared machine needs (medians here swing ±30% with load).
fn measure_min_ns<T>(mut op: impl FnMut() -> T) -> u64 {
    for _ in 0..JSON_WARMUP {
        black_box(op());
    }
    (0..JSON_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(op());
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one sample")
}

/// Median latency of the full recovery collective — rank 0's store is
/// wiped (a replacement spare starts empty) and `restore` feeds it back —
/// measured on rank 0 inside one four-rank, four-node universe.
fn measure_recovery_median_ns(mode: RedundancyMode) -> u64 {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 4,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    });
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
            let mut samples = Vec::with_capacity(RECOVERY_SAMPLES);
            for round in 0..(RECOVERY_WARMUP + RECOVERY_SAMPLES) as u64 {
                group
                    .store(0, round + 1, blob.clone())
                    .expect("store commits");
                comm.barrier()?;
                if me == 0 {
                    store.clear();
                }
                comm.barrier()?;
                let t = Instant::now();
                group.restore(0, &[0]).expect("restore succeeds");
                let ns = t.elapsed().as_nanos() as u64;
                if round >= RECOVERY_WARMUP as u64 {
                    samples.push(ns);
                }
            }
            if me == 0 {
                samples.sort_unstable();
                *out.lock() = samples[samples.len() / 2];
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

/// The recording conditions, written into the JSON beside the numbers:
/// CPUs this process may run on (1 under `taskset -c N`, which is how the
/// gate runs this bench and how the baseline is recorded) and CPUs the host
/// has online (0 where `/proc/cpuinfo` does not tell).
fn cpus_allowed_and_online() -> (usize, usize) {
    let allowed = std::thread::available_parallelism().map_or(0, |n| n.get());
    let online = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |s| {
        s.lines().filter(|l| l.starts_with("processor")).count()
    });
    (allowed, online)
}

/// (json name, criterion label, mode)
fn configs() -> Vec<(&'static str, &'static str, RedundancyMode)> {
    vec![
        ("k2", "2-replica", RedundancyMode::Replicate { k: 2 }),
        ("k3", "3-replica", RedundancyMode::Replicate { k: 3 }),
        ("xor4", "xor-n+1/w4", RedundancyMode::XorParity { width: 4 }),
        (
            "rs4_2",
            "rs-n+2/w4",
            RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2,
            },
        ),
    ]
}

fn main() {
    let data = payload(PAYLOAD_BYTES);
    let mut c = Criterion::default();
    {
        let mut group = c.benchmark_group("redundancy");
        group
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(200))
            .measurement_time(std::time::Duration::from_millis(800));
        for (_, label, mode) in configs() {
            group.bench_function(format!("encode/{label}"), |b| {
                b.iter(|| encode_once(mode, &data))
            });
            group.bench_function(format!("reconstruct/{label}"), |b| {
                b.iter(|| reconstruct_once(mode, &data))
            });
        }
        group.finish();
    }

    // Independent measurement pass for the machine-readable gate input:
    // min_ns for the gated codec configs, median_ns for the threaded
    // recovery collectives (recorded, not gated).
    let mut lines = Vec::new();
    for (name, _, mode) in configs() {
        let encode_ns = measure_min_ns(|| encode_once(mode, &data));
        let reconstruct_ns = measure_min_ns(|| reconstruct_once(mode, &data));
        let recovery_ns = measure_recovery_median_ns(mode);
        println!(
            "{name:<8} encode {encode_ns:>10} ns, reconstruct {reconstruct_ns:>10} ns, \
             recovery {recovery_ns:>10} ns"
        );
        lines.push(format!(
            "  {{\"name\":\"encode_{name}\",\"min_ns\":{encode_ns}}}"
        ));
        lines.push(format!(
            "  {{\"name\":\"reconstruct_{name}\",\"min_ns\":{reconstruct_ns}}}"
        ));
        lines.push(format!(
            "  {{\"name\":\"recovery_{name}\",\"median_ns\":{recovery_ns}}}"
        ));
    }
    // What the store leg calls, and the kernel under it.
    let rs4_2 = Code::Rs { n: 2, m: 2 };
    let wire_ns = measure_min_ns(|| store::coded_frames(rs4_2, 1, &data).expect("wire frames"));
    let src = payload(KERNEL_BYTES);
    let mut acc = vec![0u8; KERNEL_BYTES];
    let dispatch_ns = measure_min_ns(|| gf256::mul_acc(black_box(&mut acc), &src, 0x53));
    let portable_ns = measure_min_ns(|| gf256::mul_acc_portable(black_box(&mut acc), &src, 0x53));
    for (name, ns) in [
        ("wire_rs4_2", wire_ns),
        ("gf_mul_acc_1m", dispatch_ns),
        ("gf_mul_acc_portable_1m", portable_ns),
    ] {
        println!("{name:<24} {ns:>10} ns");
        lines.push(format!("  {{\"name\":\"{name}\",\"min_ns\":{ns}}}"));
    }
    let (cpus_allowed, cpus_online) = cpus_allowed_and_online();
    let json = format!(
        "{{\"bench\":\"redundancy\",\"payload_bytes\":{PAYLOAD_BYTES},\"recovery_bytes\":{RECOVERY_BYTES},\"kernel_bytes\":{KERNEL_BYTES},\"gf256_kernel\":\"{}\",\"cpus_allowed\":{cpus_allowed},\"cpus_online\":{cpus_online},\"configs\":[\n{}\n]}}\n",
        gf256::kernel(),
        lines.join(",\n")
    );
    // Benches run with CWD = the package dir; anchor at the workspace root
    // so the CI gate finds the artifact under the shared target/.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _unused = std::fs::create_dir_all(&out);
    let path = out.join("BENCH_redundancy.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("bench json written to {}", path.display());
}
