//! Synchronous checkpoint-pipeline cost: full pack vs incremental (delta
//! frames) at 1%, 25%, and 100% dirty regions, beside the kernels a full
//! pack is made of, and the pack's one pass over a payload against the two
//! it replaced.
//!
//! Writes `target/BENCH_checkpoint.json` — median nanoseconds and
//! steady-state bytes written per configuration. `scripts/bench_gate.sh`
//! holds the configs to each other within that one run: the incremental
//! pipeline's speedup and byte saving at 1-of-100 regions dirty, its
//! parity with the full pack when everything is dirty, the full pack
//! against `pack_kernels`, and `copy_crc_8m` — `serial::copy_crc`, which
//! checksums each block of the copy while it is in L1 — against
//! `copy_then_crc_8m`, the whole copy and then `serial::crc32` of it,
//! which reads the copy back from L3 or memory.

use std::sync::Arc;

use bench::{bench_cluster, elapsed_ns, measure, write_results};
use cluster::Cluster;
use veloc::{serial, Client, Config, VecRegion};

/// Protected state: `REGIONS` regions of `REGION_BYTES` each.
const REGIONS: usize = 100;
const REGION_BYTES: usize = 4 * 1024;
/// Scratch versions kept live while the loop runs (plus delta bases).
const KEEP: usize = 2;
/// One checkpoint per sample.
const SAMPLES: usize = 201;
/// Three prune cycles, so the allocator is in its steady state: the first
/// config of the process otherwise pays heap growth and a first touch of
/// every frame (4× on `full_pack`).
const WARMUP: usize = 48;

struct Pipeline {
    client: Client,
    regions: Vec<VecRegion<u8>>,
    version: u64,
    name: String,
    /// Force every frame full (the pre-incremental pipeline).
    full_only: bool,
    dirty: usize,
}

impl Pipeline {
    fn new(cluster: &Cluster, name: &str, full_only: bool, dirty: usize) -> Self {
        let client = Client::init(cluster.clone(), 0, Config { async_flush: false });
        let regions: Vec<VecRegion<u8>> = (0..REGIONS)
            .map(|i| VecRegion::new(vec![i as u8; REGION_BYTES]))
            .collect();
        for (i, r) in regions.iter().enumerate() {
            client.protect(i as u32, Arc::new(r.clone()));
        }
        Pipeline {
            client,
            regions,
            version: 0,
            name: name.to_owned(),
            full_only,
            dirty,
        }
    }

    /// One application step + synchronous checkpoint. Only the first
    /// `dirty` regions are written, so the incremental pipeline emits a
    /// delta covering exactly that fraction. Scratch garbage collection
    /// runs every 16th step — amortized maintenance, not part of the
    /// per-commit latency, and rare enough that the median is unaffected.
    fn step(&mut self) {
        for r in self.regions.iter().take(self.dirty) {
            let mut g = r.lock();
            if let Some(b) = g.first_mut() {
                *b = b.wrapping_add(1);
            }
        }
        if self.full_only {
            self.client.invalidate_deltas();
        }
        self.version += 1;
        self.client
            .checkpoint(&self.name, self.version)
            .expect("sync checkpoint");
        if self.version.is_multiple_of(16) {
            self.client.prune(&self.name, KEEP);
        }
    }

    /// Steady-state blob size on scratch for the newest version.
    fn bytes_written(&self, cluster: &Cluster) -> usize {
        let path = format!("{}/v{}/r0", self.name, self.version);
        cluster
            .scratch()
            .read(0, &path)
            .map(|(blob, _)| blob.len())
            .unwrap_or(0)
    }
}

/// The work a full pack cannot avoid, region by region: one checksum and
/// one copy into a fresh frame. The portable slice-by-16 CRC, not the
/// `serial::crc32` dispatch the pack itself calls, so the oracle does not
/// move with the code it judges.
fn pack_kernels(regions: &[Vec<u8>]) -> (u32, Vec<u8>) {
    let mut frame = Vec::with_capacity(REGIONS * REGION_BYTES);
    let mut crc = 0;
    for r in regions {
        crc ^= serial::crc32_slice16(r);
        frame.extend_from_slice(r);
    }
    (crc, frame)
}

/// One `heatdis_ckpt` frame's payload: larger than L2, so a second pass
/// over it does not find it there.
const PAYLOAD_BYTES: usize = 8 << 20;

/// (name, full_only, dirty regions)
const CONFIGS: &[(&str, bool, usize)] = &[
    ("full_pack", true, REGIONS),
    ("incremental_1pct", false, 1),
    ("incremental_25pct", false, 25),
    ("incremental_100pct", false, REGIONS),
];

fn main() {
    let mut lines = Vec::new();
    for &(name, full_only, dirty) in CONFIGS {
        let cl = bench_cluster(1);
        let mut p = Pipeline::new(&cl, name, full_only, dirty);
        let median_ns = measure(WARMUP, SAMPLES, || elapsed_ns(|| p.step())).median_ns;
        let bytes = p.bytes_written(&cl);
        println!("{name:<24} median {median_ns:>10} ns, {bytes:>7} bytes/frame");
        lines.push(format!(
            "{{\"name\":\"{name}\",\"median_ns\":{median_ns},\"bytes_written\":{bytes}}}"
        ));
    }
    let regions: Vec<Vec<u8>> = (0..REGIONS).map(|i| vec![i as u8; REGION_BYTES]).collect();
    let median_ns = measure(WARMUP, SAMPLES, || elapsed_ns(|| pack_kernels(&regions))).median_ns;
    println!("{:<24} median {median_ns:>10} ns", "pack_kernels");
    lines.push(format!(
        "{{\"name\":\"pack_kernels\",\"median_ns\":{median_ns}}}"
    ));
    // Into a destination already faulted in, as a recycled frame is.
    let src: Vec<u8> = (0..PAYLOAD_BYTES).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; PAYLOAD_BYTES];
    let want = serial::crc32(&src);
    let mut time_pass = |name: &str, pass: &dyn Fn(&mut [u8]) -> u32| {
        assert_eq!(pass(&mut dst), want, "{name}");
        let median_ns = measure(8, 101, || elapsed_ns(|| pass(&mut dst))).median_ns;
        println!("{name:<24} median {median_ns:>10} ns");
        lines.push(format!("{{\"name\":\"{name}\",\"median_ns\":{median_ns}}}"));
    };
    time_pass("copy_crc_8m", &|dst| serial::copy_crc(dst, &src));
    time_pass("copy_then_crc_8m", &|dst| {
        dst.copy_from_slice(&src);
        serial::crc32(dst)
    });
    write_results(
        "checkpoint",
        &format!(
            "\"bench\":\"checkpoint_pipeline\",\"regions\":{REGIONS},\"region_bytes\":{REGION_BYTES},\"crc_kernel\":\"{}\"",
            serial::crc32_kernel()
        ),
        &lines,
    );
}
