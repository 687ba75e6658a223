//! Synchronous checkpoint-pipeline cost: full-pack vs incremental (VCF2
//! delta frames) at 1%, 25%, and 100% dirty regions.
//!
//! Beyond the criterion console table, this bench writes
//! `target/BENCH_checkpoint.json` — median nanoseconds and steady-state
//! bytes written per configuration — which `scripts/bench_gate.sh`
//! compares against the committed baseline (`BENCH_checkpoint.json` at the
//! repo root) to fail CI on a >15% sync-checkpoint regression and to prove
//! the incremental pipeline's speedup claim (≥5× at 1-of-100 regions
//! dirty).

use std::time::Instant;

use cluster::{Cluster, ClusterConfig, TimeScale};
use criterion::{black_box, Criterion};
use std::sync::Arc;
use veloc::{Client, Config, VecRegion};

/// Protected state: `REGIONS` regions of `REGION_BYTES` each.
const REGIONS: usize = 100;
const REGION_BYTES: usize = 4 * 1024;
/// Scratch versions kept live while the loop runs (plus delta bases).
const KEEP: usize = 2;
/// Samples for the JSON medians (one checkpoint per sample).
const JSON_SAMPLES: usize = 41;
const JSON_WARMUP: usize = 10;

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
    /// per-commit latency, and rare enough that a 41-sample median is
    /// unaffected.
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

/// Median wall-clock nanoseconds of one `step()` call.
fn measure_median_ns(p: &mut Pipeline) -> u64 {
    for _ in 0..JSON_WARMUP {
        p.step();
    }
    let mut samples: Vec<u64> = (0..JSON_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            p.step();
            black_box(t.elapsed().as_nanos() as u64)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn cluster() -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: 1,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    })
}

/// (json name, criterion label, full_only, dirty regions)
const CONFIGS: &[(&str, &str, bool, usize)] = &[
    ("full_pack", "full-pack/100pct-dirty", true, REGIONS),
    ("incremental_1pct", "incremental/1pct-dirty", false, 1),
    ("incremental_25pct", "incremental/25pct-dirty", false, 25),
    (
        "incremental_100pct",
        "incremental/100pct-dirty",
        false,
        REGIONS,
    ),
];

fn main() {
    let mut c = Criterion::default();
    {
        let mut group = c.benchmark_group("checkpoint_pipeline");
        group
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(200))
            .measurement_time(std::time::Duration::from_millis(800));
        for &(_, label, full_only, dirty) in CONFIGS {
            let cl = cluster();
            let mut p = Pipeline::new(&cl, label, full_only, dirty);
            group.bench_function(label, |b| b.iter(|| p.step()));
        }
        group.finish();
    }

    // Independent measurement pass for the machine-readable gate input.
    let mut lines = Vec::new();
    for &(json_name, _, full_only, dirty) in CONFIGS {
        let cl = cluster();
        let mut p = Pipeline::new(&cl, json_name, full_only, dirty);
        let median_ns = measure_median_ns(&mut p);
        let bytes = p.bytes_written(&cl);
        println!("{json_name:<24} median {median_ns:>10} ns, {bytes:>7} bytes/frame");
        lines.push(format!(
            "  {{\"name\":\"{json_name}\",\"median_ns\":{median_ns},\"bytes_written\":{bytes}}}"
        ));
    }
    let json = format!(
        "{{\"bench\":\"checkpoint_pipeline\",\"regions\":{REGIONS},\"region_bytes\":{REGION_BYTES},\"configs\":[\n{}\n]}}\n",
        lines.join(",\n")
    );
    // Benches run with CWD = the package dir; anchor at the workspace root
    // so the CI gate finds the artifact under the shared target/.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _unused = std::fs::create_dir_all(&out);
    let path = out.join("BENCH_checkpoint.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("bench json written to {}", path.display());
}
