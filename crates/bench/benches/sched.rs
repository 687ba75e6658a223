//! DES scheduler throughput: schedules per second.
//!
//! Three layers of the deterministic backend's cost, measured separately:
//!
//! * `baton_handoff` — one sleep-yield round-trip between two tasks on the
//!   raw [`simmpi::Scheduler`]: the per-event floor (heap push/pop, seeded
//!   tiebreak, the task-locals' move and the stack switch). Its oracle is
//!   `condvar_pingpong`: the same number of hand-offs between two OS
//!   threads over one `Mutex<bool>` and `Condvar` per thread, the way a
//!   thread per rank would pass control. What that reads is the container's
//!   futex latency, so `baton_handoff` ÷ `condvar_pingpong` is what running
//!   every rank on one thread saves per dispatch.
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
//! Writes `target/BENCH_sched.json` (median and minimum ns per config);
//! `scripts/bench_gate.sh` holds the configs to each other within that one
//! run, pinned to one CPU.

use std::hint::black_box;
use std::sync::Arc;

use apps::Heatdis;
use bench::{elapsed_ns, measure, write_results};
use cluster::{Cluster, ClusterConfig, RelaunchModel};
use parking_lot::{Condvar, Mutex};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::{
    Backend, FaultPlan, MpiResult, RankCtx, ReduceOp, Scheduler, Universe, UniverseConfig,
};

const SAMPLES: usize = 21;
const WARMUP: usize = 3;
/// The repair configs launch a thousand ranks twice per sample.
const REPAIR_SAMPLES: usize = 15;
const REPAIR_WARMUP: usize = 1;
/// One spare node of eight ranks.
const REPAIR_SPARES: usize = 8;
/// Yield round-trips per baton_handoff sample (amortizes the launch).
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
/// events per call, each a stack switch. Returns total ns.
fn baton_handoff() -> u64 {
    let clock = Arc::new(cluster::Clock::virtual_at(0));
    let s = Scheduler::new(2, 0xbeef, clock);
    elapsed_ns(|| {
        s.run(&|task| {
            for _ in 0..HANDOFF_ROUNDS {
                s.sleep(task, std::time::Duration::from_nanos(10));
            }
        })
        .expect("two stacks")
    })
}

/// Two threads passing one token back and forth, 2 × `HANDOFF_ROUNDS`
/// hand-offs per call: park on one's own cell, grant the peer's (set the
/// token, unlock the cell, then notify its one waiter: a notify with the
/// lock held wakes the peer into a lock it cannot take). Returns total ns.
fn condvar_pingpong() -> u64 {
    type Cell = (Mutex<bool>, Condvar);
    fn grant((token, cv): &Cell) {
        *token.lock() = true;
        cv.notify_one();
    }
    fn park((token, cv): &Cell) {
        let mut tok = token.lock();
        while !*tok {
            cv.wait(&mut tok);
        }
        *tok = false;
    }
    // Thread 0 holds the token first.
    let cells = [
        (Mutex::new(true), Condvar::new()),
        (Mutex::new(false), Condvar::new()),
    ];
    elapsed_ns(|| {
        std::thread::scope(|scope| {
            for me in 0..2 {
                let cells = &cells;
                scope.spawn(move || {
                    for _ in 0..HANDOFF_ROUNDS {
                        park(&cells[me]);
                        grant(&cells[1 - me]);
                    }
                });
            }
        })
    })
}

/// One complete DES schedule: launch, run the ring workload, tear down.
fn ring_schedule(n: usize, seed: u64) -> u64 {
    let cluster = virtual_cluster(n);
    elapsed_ns(|| {
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
    })
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
        let mut repairs = 0;
        let ns = elapsed_ns(|| {
            let rec = run_experiment(&cluster, &app, &cfg, Arc::new(plan));
            repairs = rec.repairs;
            black_box(rec.digest)
        });
        (ns, repairs)
    };
    let (nf, _) = run(FaultPlan::none());
    let (fail, repairs) = run(FaultPlan::kill_at(active / 2, "iter", 5));
    assert_eq!(repairs, 1);
    fail.saturating_sub(nf) / ranks as u64
}

fn main() {
    type Config<'a> = (&'a str, usize, usize, fn() -> u64);
    let configs: [Config; 6] = [
        ("baton_handoff", WARMUP, SAMPLES, baton_handoff),
        ("condvar_pingpong", WARMUP, SAMPLES, condvar_pingpong),
        ("ring_16", WARMUP, SAMPLES, || ring_schedule(16, 7)),
        ("ring_64", WARMUP, SAMPLES, || ring_schedule(64, 7)),
        ("repair_256", REPAIR_WARMUP, REPAIR_SAMPLES, || {
            repair_per_rank(256)
        }),
        ("repair_1024", REPAIR_WARMUP, REPAIR_SAMPLES, || {
            repair_per_rank(1024)
        }),
    ];
    let mut lines = Vec::new();
    for (name, warmup, samples, f) in configs {
        let t = measure(warmup, samples, f);
        let (median_ns, min_ns) = (t.median_ns, t.min_ns);
        let per_sec = 1_000_000_000 / median_ns.max(1);
        println!("{name:<16} median {median_ns:>12} ns  min {min_ns:>12} ({per_sec}/sec)");
        lines.push(format!(
            "{{\"name\":\"{name}\",\"median_ns\":{median_ns},\"min_ns\":{min_ns}}}"
        ));
    }
    write_results(
        "sched",
        &format!(
            "\"bench\":\"sched\",\"handoff_rounds\":{HANDOFF_ROUNDS},\"ring_iters\":{RING_ITERS}"
        ),
        &lines,
    );
}
