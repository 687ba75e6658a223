//! 1,024-rank weak-scaling smoke on the DES backend (ISSUE 9 satellite):
//! a full Heatdis + Fenix/KR run with one injected failure at four-digit
//! rank counts, on virtual time. The thread-per-rank backend at this scale
//! would contend 1k OS threads against a handful of cores; under the
//! deterministic scheduler exactly one rank runs at a time, so the run
//! completes in tier-1 time and its schedule is a pure function of the
//! seed.
//!
//! `SCALE_RANKS` overrides the rank count for deeper sweeps, e.g.
//! `SCALE_RANKS=4096 cargo test -q -p apps --release --test scale_smoke`.

use std::sync::Arc;

use apps::Heatdis;
use bench::pins;
use cluster::{Cluster, ClusterConfig, RelaunchModel};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::{Backend, FaultPlan};
use telemetry::{names, Telemetry, TelemetryConfig};

/// Active ranks unless `SCALE_RANKS` says otherwise: the pinned shape.
const DEFAULT_RANKS: usize = 1024;
const SEED: u64 = 1024;

fn ranks() -> usize {
    std::env::var("SCALE_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_RANKS)
}

/// 8 ranks per node, virtual time: node topology (buddy placement, NIC
/// sharing) is exercised at scale, not just flat rank counts.
fn virtual_cluster(total_ranks: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: total_ranks.div_ceil(8),
        ranks_per_node: 8,
        virtual_time: true,
        relaunch: RelaunchModel::free(),
        ..ClusterConfig::default()
    })
}

#[test]
fn heatdis_1k_ranks_with_failure_completes_deterministically() {
    let active = ranks();
    let spares = 8; // one spare node
    let app = Heatdis::fixed(2 * 8 * 16 * 8, 16, 8);
    // The run, and what its scheduler did with the events it popped: the
    // baton hand-offs and the wakes that found a parked receive's predicate
    // unchanged. The hub has the default config: its per-rank logs grow with
    // the run, and none may drop an event.
    let run = || {
        let hub = Telemetry::new(TelemetryConfig::default());
        let rec = run_experiment(
            &virtual_cluster(active + spares),
            &app,
            &ExperimentConfig {
                strategy: Strategy::FenixKokkosResilience,
                spares,
                checkpoints: 2,
                backend: Backend::Des { seed: SEED },
                telemetry: Some(hub.clone()),
                ..ExperimentConfig::default()
            },
            // One failure past the first checkpoint, in the middle of the
            // rank grid.
            Arc::new(FaultPlan::kill_at(active / 2, "iter", 5)),
        );
        let count = |name| hub.metrics().counter(name).get();
        assert_eq!(
            hub.snapshot().dropped,
            0,
            "a default-config log dropped events"
        );
        (
            rec,
            count(names::SCHED_HANDOFFS),
            count(names::SCHED_UNREADY_SKIPPED),
        )
    };
    let t0 = std::time::Instant::now();
    let (rec, handoffs, unready_skipped) = run();
    assert_eq!(rec.ranks, active + spares);
    assert_eq!(rec.failures, 1);
    assert!(
        rec.repairs >= 1,
        "the kill must have been repaired in place"
    );
    assert_eq!(rec.iterations, 8, "recovered run must reach the last step");
    // Same seed, same schedule: the recovered digest replays exactly.
    let (again, handoffs_again, unready_again) = run();
    // The EXPERIMENTS.md weak-scaling panel is this line at several
    // SCALE_RANKS values (run with `--nocapture`); `scripts/ci.sh` keeps it,
    // `host_s` (the run and its replay) included, in
    // `target/scale-smoke.log`.
    println!(
        "scale_smoke: ranks={} virtual_wall={:?} repairs={} digest={:#x} handoffs={} unready_skipped={} host_s={:.3}",
        rec.ranks,
        rec.wall,
        rec.repairs,
        rec.digest,
        handoffs,
        unready_skipped,
        t0.elapsed().as_secs_f64()
    );
    assert_eq!(rec.digest, again.digest, "digest must replay bit-for-bit");
    assert_eq!(rec.wall, again.wall, "virtual wall time must replay");
    assert_eq!(handoffs, handoffs_again, "hand-offs must replay");
    assert_eq!(unready_skipped, unready_again, "skipped wakes must replay");
    // At the default rank count all four are pinned: a dispatcher that
    // wakes ranks which can only yield again fails here on a count.
    if active == DEFAULT_RANKS {
        let counts = [
            ("handoffs", handoffs.into()),
            ("unready_skipped", unready_skipped.into()),
        ];
        let fields = pins::wall_and_digest(rec.wall, rec.digest)
            .into_iter()
            .chain(counts);
        pins::assert_pinned(&[pins::entry("scale_smoke/1024", SEED, fields)]);
    }
}
