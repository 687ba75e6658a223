//! DES scheduler throughput: schedules per second (ISSUE 9 satellite).
//!
//! Three layers of the deterministic backend's cost, measured separately:
//!
//! * `baton_handoff` — one yield/wake round-trip between two tasks on the
//!   raw [`simmpi::Scheduler`]: the per-event floor (heap push/pop, seeded
//!   tiebreak, condvar grant/park).
//! * `ring_16` / `ring_64` — one complete schedule: a full DES
//!   `Universe::launch` on a virtual-time cluster, ring exchange +
//!   allreduce per iteration. This is what the chaos campaign pays per
//!   explored schedule, so its inverse is the campaign's schedules/sec.
//! * `repair_256` / `repair_1024` — what one in-place repair costs the
//!   host, per rank: the scale-smoke shape (Heatdis + Fenix/KR, 8 ranks per
//!   node, one spare node, two checkpoints) run without and with one kill,
//!   the difference divided by the rank count. Per-rank repair work that
//!   scans all ranks shows as `repair_1024` ≈ 4 × `repair_256`.
//!
//! Writes `target/BENCH_sched.json` (median ns per config); the committed
//! `BENCH_sched.json` at the repo root is the regression baseline enforced
//! by `scripts/bench_gate.sh`.

use std::sync::Arc;
use std::time::Instant;

use apps::Heatdis;
use cluster::{Cluster, ClusterConfig, RelaunchModel};
use criterion::{black_box, Criterion};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::{
    Backend, FaultPlan, MpiResult, RankCtx, ReduceOp, Scheduler, Universe, UniverseConfig,
};

const JSON_SAMPLES: usize = 21;
const JSON_WARMUP: usize = 3;
/// The repair configs launch a thousand threads twice per sample.
const REPAIR_SAMPLES: usize = 9;
const REPAIR_WARMUP: usize = 1;
/// One spare node of eight ranks.
const REPAIR_SPARES: usize = 8;
/// Yield round-trips per baton_handoff sample (amortizes thread spawn).
const HANDOFF_ROUNDS: u64 = 20_000;
/// Ring-exchange iterations per schedule.
const RING_ITERS: u64 = 8;

fn virtual_cluster(n: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: n,
        ranks_per_node: 1,
        virtual_time: true,
        ..ClusterConfig::default()
    })
}

/// Two tasks alternating sleep-yields: 2 × `HANDOFF_ROUNDS` dispatched
/// events per call. Returns total ns.
fn baton_handoff() -> u64 {
    let clock = Arc::new(cluster::Clock::virtual_at(0));
    let s = Scheduler::new(2, 0xbeef, clock);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for task in 0..2 {
            let s = Arc::clone(&s);
            scope.spawn(move || {
                s.wait_for_start(task);
                for _ in 0..HANDOFF_ROUNDS {
                    s.sleep(task, std::time::Duration::from_nanos(10));
                }
                s.finish(task);
            });
        }
        s.start();
    });
    black_box(t.elapsed().as_nanos() as u64)
}

/// One complete DES schedule: launch, run the ring workload, tear down.
fn ring_schedule(n: usize, seed: u64) -> u64 {
    let cluster = virtual_cluster(n);
    let t = Instant::now();
    let report = Universe::launch(
        &cluster,
        UniverseConfig {
            backend: Backend::Des { seed },
            ..UniverseConfig::default()
        },
        Arc::new(FaultPlan::none()),
        |ctx: &mut RankCtx| -> MpiResult<()> {
            let w = ctx.world();
            let (me, n) = (ctx.rank(), w.size());
            for i in 0..RING_ITERS {
                w.send((me + 1) % n, i, &(me as u64).to_le_bytes())?;
                let mut b = [0u8; 8];
                w.recv_into(Some((me + n - 1) % n), i, &mut b)?;
                w.allreduce_scalar(u64::from_le_bytes(b), ReduceOp::Sum)?;
            }
            Ok(())
        },
    );
    assert!(report.all_ok());
    black_box(t.elapsed().as_nanos() as u64)
}

/// Host ns per rank that one kill and its in-place repair add to a
/// Heatdis + Fenix/KR run at `active` ranks (fail run − failure-free run).
fn repair_per_rank(active: usize) -> u64 {
    let ranks = active + REPAIR_SPARES;
    let app = Heatdis::fixed(2 * 8 * 16 * 8, 16, 8);
    let cfg = ExperimentConfig {
        strategy: Strategy::FenixKokkosResilience,
        spares: REPAIR_SPARES,
        checkpoints: 2,
        backend: Backend::Des { seed: 1024 },
        ..ExperimentConfig::default()
    };
    let run = |plan: FaultPlan| {
        let cluster = Cluster::new(ClusterConfig {
            nodes: ranks.div_ceil(8),
            ranks_per_node: 8,
            virtual_time: true,
            relaunch: RelaunchModel::free(),
            ..ClusterConfig::default()
        });
        let t = Instant::now();
        let rec = run_experiment(&cluster, &app, &cfg, Arc::new(plan));
        let ns = t.elapsed().as_nanos() as u64;
        black_box(rec.digest);
        (ns, rec.repairs)
    };
    let (nf, _) = run(FaultPlan::none());
    let (fail, repairs) = run(FaultPlan::kill_at(active / 2, "iter", 5));
    assert_eq!(repairs, 1);
    fail.saturating_sub(nf) / ranks as u64
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn measure(warmup: usize, samples: usize, f: impl Fn() -> u64) -> u64 {
    for _ in 0..warmup {
        f();
    }
    median((0..samples).map(|_| f()).collect())
}

fn main() {
    let mut c = Criterion::default();
    {
        let mut group = c.benchmark_group("sched");
        group
            .sample_size(10)
            .warm_up_time(std::time::Duration::from_millis(200))
            .measurement_time(std::time::Duration::from_millis(800));
        group.bench_function("ring-16/schedule", |b| b.iter(|| ring_schedule(16, 7)));
        group.finish();
    }

    // Machine-readable gate input (median ns per config).
    type Config<'a> = (&'a str, usize, usize, Box<dyn Fn() -> u64>);
    let configs: [Config; 5] = [
        (
            "baton_handoff",
            JSON_WARMUP,
            JSON_SAMPLES,
            Box::new(baton_handoff),
        ),
        (
            "ring_16",
            JSON_WARMUP,
            JSON_SAMPLES,
            Box::new(|| ring_schedule(16, 7)),
        ),
        (
            "ring_64",
            JSON_WARMUP,
            JSON_SAMPLES,
            Box::new(|| ring_schedule(64, 7)),
        ),
        (
            "repair_256",
            REPAIR_WARMUP,
            REPAIR_SAMPLES,
            Box::new(|| repair_per_rank(256)),
        ),
        (
            "repair_1024",
            REPAIR_WARMUP,
            REPAIR_SAMPLES,
            Box::new(|| repair_per_rank(1024)),
        ),
    ];
    let mut lines = Vec::new();
    for (name, warmup, samples, f) in &configs {
        let median_ns = measure(*warmup, *samples, f);
        let per_sec = 1_000_000_000 / median_ns.max(1);
        println!("{name:<16} median {median_ns:>12} ns  ({per_sec}/sec)");
        lines.push(format!(
            "  {{\"name\":\"{name}\",\"median_ns\":{median_ns}}}"
        ));
    }
    let json = format!(
        "{{\"bench\":\"sched\",\"handoff_rounds\":{HANDOFF_ROUNDS},\"ring_iters\":{RING_ITERS},\"configs\":[\n{}\n]}}\n",
        lines.join(",\n")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _unused = std::fs::create_dir_all(&out);
    let path = out.join("BENCH_sched.json");
    std::fs::write(&path, json).expect("write bench json");
    println!("bench json written to {}", path.display());
}
