//! Restart-latency budget: full-frame restore vs an 8-frame delta-chain
//! walk, plus the CRC kernels themselves (what `serial::crc32` dispatches to on this host vs
//! the portable slice-by-16 vs the bitwise oracle).
//!
//! Beyond the criterion console table, this bench writes
//! `target/BENCH_restart.json` — median nanoseconds, bytes restored, and
//! the per-stage read/verify/apply medians from [`veloc::RestartReport`] —
//! which `scripts/bench_gate.sh` compares against the committed baseline
//! (`BENCH_restart.json` at the repo root, knob `RESTART_MAX_REGRESSION_PCT`)
//! and uses to assert the slice-by-16 CRC is measurably faster than the
//! bitwise implementation it replaced and, where the JSON's `crc_kernel`
//! says `serial::crc32` runs the carry-less-multiply kernel, that the
//! dispatch beats slice-by-16.

use std::sync::Arc;
use std::time::Instant;

use cluster::{Cluster, ClusterConfig, TimeScale};
use criterion::{black_box, Criterion};
use veloc::{serial, Client, Config, VecRegion};

/// Protected state.
const REGIONS: usize = 32;
const REGION_BYTES: usize = 128 * 1024;
/// Delta frames stacked on the full base for the chain configs (8 frames
/// walked in total).
const CHAIN_DELTAS: usize = 7;
/// Regions dirtied before each delta checkpoint.
const DIRTY_PER_STEP: usize = 2;
/// Buffer size for the CRC kernel configs.
const CRC_BYTES: usize = 1024 * 1024;
/// Samples for the JSON medians (one restart per sample).
const JSON_SAMPLES: usize = 41;
const JSON_WARMUP: usize = 10;

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 1,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    })
}

struct Scenario {
    client: Client,
    version: u64,
    name: String,
}

impl Scenario {
    /// Build the checkpoint history a restart config replays: one full
    /// frame, plus `deltas` incremental frames each covering
    /// `DIRTY_PER_STEP` regions.
    fn new(cl: &Cluster, name: &str, deltas: usize) -> Self {
        let client = Client::init(cl.clone(), 0, Config { async_flush: false });
        let regions: Vec<VecRegion<u8>> = (0..REGIONS)
            .map(|i| VecRegion::new(vec![i as u8; REGION_BYTES]))
            .collect();
        for (i, r) in regions.iter().enumerate() {
            client.protect(i as u32, Arc::new(r.clone()));
        }
        let mut version = 1;
        client.checkpoint(name, version).expect("full checkpoint");
        for step in 0..deltas {
            for r in regions.iter().skip(step % REGIONS).take(DIRTY_PER_STEP) {
                let mut g = r.lock();
                if let Some(b) = g.first_mut() {
                    *b = b.wrapping_add(1);
                }
            }
            version += 1;
            client.checkpoint(name, version).expect("delta checkpoint");
        }
        Scenario {
            client,
            version,
            name: name.to_owned(),
        }
    }

    fn restart(&self) -> veloc::RestartReport {
        self.client
            .restart_report(&self.name, self.version)
            .expect("restart")
    }
}

struct RestartStats {
    median_ns: u64,
    bytes_restored: u64,
    frames_walked: usize,
    read_ns: u64,
    verify_ns: u64,
    apply_ns: u64,
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median wall time of one restart, plus per-stage medians from the
/// report itself.
fn measure_restart(s: &Scenario) -> RestartStats {
    for _ in 0..JSON_WARMUP {
        s.restart();
    }
    let mut wall = Vec::with_capacity(JSON_SAMPLES);
    let mut read = Vec::with_capacity(JSON_SAMPLES);
    let mut verify = Vec::with_capacity(JSON_SAMPLES);
    let mut apply = Vec::with_capacity(JSON_SAMPLES);
    let mut last = veloc::RestartReport::default();
    for _ in 0..JSON_SAMPLES {
        let t = Instant::now();
        let report = s.restart();
        wall.push(black_box(t.elapsed().as_nanos() as u64));
        read.push(report.read_ns);
        verify.push(report.verify_ns);
        apply.push(report.apply_ns);
        last = report;
    }
    RestartStats {
        median_ns: median(&mut wall),
        bytes_restored: last.bytes_restored,
        frames_walked: last.frames_walked,
        read_ns: median(&mut read),
        verify_ns: median(&mut verify),
        apply_ns: median(&mut apply),
    }
}

/// Median wall time of one CRC pass over a `CRC_BYTES` buffer.
fn measure_crc(f: impl Fn(&[u8]) -> u32) -> u64 {
    let data: Vec<u8> = (0..CRC_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    for _ in 0..3 {
        black_box(f(&data));
    }
    let mut samples: Vec<u64> = (0..JSON_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            black_box(f(&data));
            t.elapsed().as_nanos() as u64
        })
        .collect();
    median(&mut samples)
}

fn main() {
    let mut c = Criterion::default();
    {
        let mut group = c.benchmark_group("restart_latency");
        group
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(200))
            .measurement_time(std::time::Duration::from_millis(800));
        let cl = cluster();
        let full = Scenario::new(&cl, "bench-full", 0);
        group.bench_function("restart/full", |b| b.iter(|| full.restart()));
        let chain = Scenario::new(&cl, "bench-chain", CHAIN_DELTAS);
        group.bench_function("restart/chain8", |b| b.iter(|| chain.restart()));
        let data: Vec<u8> = (0..CRC_BYTES).map(|i| (i * 31 + 7) as u8).collect();
        group.bench_function("crc32/dispatch-1m", |b| b.iter(|| serial::crc32(&data)));
        group.bench_function("crc32/slice16-1m", |b| {
            b.iter(|| serial::crc32_slice16(&data))
        });
        group.bench_function("crc32/bitwise-1m", |b| {
            b.iter(|| serial::crc32_bitwise(&data))
        });
        group.finish();
    }

    // Independent measurement pass for the machine-readable gate input.
    let mut lines = Vec::new();
    let cl = cluster();
    let configs = [
        ("restart_full", Scenario::new(&cl, "json-full", 0)),
        (
            "restart_chain8",
            Scenario::new(&cl, "json-chain", CHAIN_DELTAS),
        ),
    ];
    for (json_name, scenario) in &configs {
        let stats = measure_restart(scenario);
        println!(
            "{json_name:<20} median {:>10} ns ({} frames, {} bytes; read {} / verify {} / apply {} ns)",
            stats.median_ns,
            stats.frames_walked,
            stats.bytes_restored,
            stats.read_ns,
            stats.verify_ns,
            stats.apply_ns
        );
        lines.push(format!(
            "  {{\"name\":\"{json_name}\",\"median_ns\":{},\"bytes_restored\":{},\"frames_walked\":{},\"read_ns\":{},\"verify_ns\":{},\"apply_ns\":{}}}",
            stats.median_ns,
            stats.bytes_restored,
            stats.frames_walked,
            stats.read_ns,
            stats.verify_ns,
            stats.apply_ns
        ));
    }
    for (json_name, f) in [
        (
            "crc_bitwise_1m",
            &serial::crc32_bitwise as &dyn Fn(&[u8]) -> u32,
        ),
        ("crc_slice16_1m", &serial::crc32_slice16),
        ("crc_dispatch_1m", &serial::crc32),
    ] {
        let median_ns = measure_crc(f);
        println!("{json_name:<20} median {median_ns:>10} ns ({CRC_BYTES} bytes)");
        lines.push(format!(
            "  {{\"name\":\"{json_name}\",\"median_ns\":{median_ns},\"bytes_hashed\":{CRC_BYTES}}}"
        ));
    }
    let json = format!(
        "{{\"bench\":\"restart_latency\",\"regions\":{REGIONS},\"region_bytes\":{REGION_BYTES},\"chain_deltas\":{CHAIN_DELTAS},\"crc_kernel\":\"{}\",\"configs\":[\n{}\n]}}\n",
        serial::crc32_kernel(),
        lines.join(",\n")
    );
    // Benches run with CWD = the package dir; anchor at the workspace root
    // so the CI gate finds the artifact under the shared target/.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _unused = std::fs::create_dir_all(&out);
    let path = out.join("BENCH_restart.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("bench json written to {}", path.display());
}
