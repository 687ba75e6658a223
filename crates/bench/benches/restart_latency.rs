//! Restart-latency budget: full-frame restore vs an 8-frame delta-chain
//! walk, the kernels a restore is made of, and the CRC kernels themselves
//! (what `serial::crc32` dispatches to on this host vs the portable
//! slice-by-16 vs the bitwise oracle).
//!
//! Writes `target/BENCH_restart.json` — median nanoseconds, bytes restored,
//! and the per-stage read/verify/apply medians from
//! [`veloc::RestartReport`]. `scripts/bench_gate.sh` holds the configs to
//! each other within that one run: the chain walk against the full restore,
//! the full restore against `restore_kernels`, slice-by-16 against the
//! bitwise form and, where the JSON's `crc_kernel` says `serial::crc32`
//! runs the carry-less-multiply kernel, the dispatch against slice-by-16.

use std::sync::Arc;

use bench::{bench_cluster, elapsed_ns, measure, write_results, Timing};
use cluster::Cluster;
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
/// One restart (or one CRC pass) per sample.
const SAMPLES: usize = 101;
const WARMUP: usize = 10;

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

/// The work a full restore cannot avoid, region by region: one checksum of
/// the stored payload and one copy into region memory. The portable
/// slice-by-16 CRC, not the `serial::crc32` dispatch the restart itself
/// calls, so the oracle does not move with the code it judges.
fn restore_kernels(stored: &[Vec<u8>], live: &mut [Vec<u8>]) -> u32 {
    let mut crc = 0;
    for (s, l) in stored.iter().zip(live) {
        crc ^= serial::crc32_slice16(s);
        l.copy_from_slice(s);
    }
    crc
}

fn main() {
    let mut lines = Vec::new();
    let cl = bench_cluster(1);
    let configs = [
        ("restart_full", Scenario::new(&cl, "full", 0)),
        ("restart_chain8", Scenario::new(&cl, "chain", CHAIN_DELTAS)),
    ];
    for (name, scenario) in &configs {
        // The wall median of one restart, and per-stage medians from the
        // reports of the kept samples.
        let mut reports = Vec::with_capacity(WARMUP + SAMPLES);
        let median_ns = measure(WARMUP, SAMPLES, || {
            elapsed_ns(|| reports.push(scenario.restart()))
        })
        .median_ns;
        let kept = &reports[WARMUP..];
        let (frames, bytes) = (kept[0].frames_walked, kept[0].bytes_restored);
        let stage = |f: fn(&veloc::RestartReport) -> u64| {
            Timing::of(kept.iter().map(f).collect()).median_ns
        };
        let (read_ns, verify_ns, apply_ns) = (
            stage(|r| r.read_ns),
            stage(|r| r.verify_ns),
            stage(|r| r.apply_ns),
        );
        println!(
            "{name:<20} median {median_ns:>10} ns ({frames} frames, {bytes} bytes; read {read_ns} / verify {verify_ns} / apply {apply_ns} ns)"
        );
        lines.push(format!(
            "{{\"name\":\"{name}\",\"median_ns\":{median_ns},\"bytes_restored\":{bytes},\"frames_walked\":{frames},\"read_ns\":{read_ns},\"verify_ns\":{verify_ns},\"apply_ns\":{apply_ns}}}"
        ));
    }
    let stored: Vec<Vec<u8>> = (0..REGIONS).map(|i| vec![i as u8; REGION_BYTES]).collect();
    let mut live = stored.clone();
    let median_ns = measure(WARMUP, SAMPLES, || {
        elapsed_ns(|| restore_kernels(&stored, &mut live))
    })
    .median_ns;
    println!("{:<20} median {median_ns:>10} ns", "restore_kernels");
    lines.push(format!(
        "{{\"name\":\"restore_kernels\",\"median_ns\":{median_ns}}}"
    ));
    let data: Vec<u8> = (0..CRC_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    for (name, f) in [
        (
            "crc_bitwise_1m",
            &serial::crc32_bitwise as &dyn Fn(&[u8]) -> u32,
        ),
        ("crc_slice16_1m", &serial::crc32_slice16),
        ("crc_dispatch_1m", &serial::crc32),
    ] {
        let median_ns = measure(3, SAMPLES, || elapsed_ns(|| f(&data))).median_ns;
        println!("{name:<20} median {median_ns:>10} ns ({CRC_BYTES} bytes)");
        lines.push(format!(
            "{{\"name\":\"{name}\",\"median_ns\":{median_ns},\"bytes_hashed\":{CRC_BYTES}}}"
        ));
    }
    write_results(
        "restart",
        &format!(
            "\"bench\":\"restart_latency\",\"regions\":{REGIONS},\"region_bytes\":{REGION_BYTES},\"chain_deltas\":{CHAIN_DELTAS},\"crc_kernel\":\"{}\"",
            serial::crc32_kernel()
        ),
        &lines,
    );
}
