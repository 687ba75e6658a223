//! Partial rollback on converging Heatdis — the paper's §VI.D.2 result:
//! "a nearly 2× speedup of recovery from just keeping the in-progress data
//! on surviving ranks".
//!
//! Runs the converging heat solver three ways — failure-free, full-rollback
//! recovery, and partial-rollback recovery — and compares iteration counts
//! and recompute time.
//!
//! Run with: `cargo run --release --example partial_rollback`

use std::sync::Arc;

use layered_resilience::apps::Heatdis;
use layered_resilience::cluster::{Cluster, ClusterConfig};
use layered_resilience::resilience::{run_experiment, ExperimentConfig, Strategy};
use layered_resilience::simmpi::FaultPlan;

fn main() {
    // Small grid (convergence is O(N²) Jacobi sweeps).
    let app = Heatdis::converging(2 * 8 * 32 * 16, 32, 8000).with_eps(0.2);
    let ccfg = ClusterConfig {
        nodes: 5, // 4 active + 1 spare
        ..ClusterConfig::default()
    };
    let cluster = Cluster::new(ccfg);

    let cfg = |strategy: Strategy| ExperimentConfig {
        backend: Default::default(),
        strategy,
        spares: 1,
        checkpoints: 6,
        max_relaunches: 4,
        redundancy: None,
        telemetry: None,
    };

    let free = run_experiment(
        &cluster,
        &app,
        &cfg(Strategy::FenixKokkosResilience),
        Arc::new(FaultPlan::none()),
    );
    println!(
        "failure-free:      converged in {:>5} iterations, wall {:.3}s",
        free.iterations,
        free.wall.as_secs_f64()
    );

    let kill_at = free.iterations * 3 / 4;
    let full = run_experiment(
        &cluster,
        &app,
        &cfg(Strategy::FenixKokkosResilience),
        Arc::new(FaultPlan::kill_at(1, "iter", kill_at)),
    );
    println!(
        "full rollback:     converged in {:>5} iterations, wall {:.3}s, recompute {:.3}s (failure @ {kill_at})",
        full.iterations,
        full.wall.as_secs_f64(),
        full.breakdown.recompute.as_secs_f64()
    );

    let partial = run_experiment(
        &cluster,
        &app,
        &cfg(Strategy::PartialRollback),
        Arc::new(FaultPlan::kill_at(1, "iter", kill_at)),
    );
    println!(
        "partial rollback:  converged in {:>5} iterations, wall {:.3}s, recompute {:.3}s",
        partial.iterations,
        partial.wall.as_secs_f64(),
        partial.breakdown.recompute.as_secs_f64()
    );

    let full_extra = full.iterations.saturating_sub(free.iterations);
    let partial_extra = partial.iterations.saturating_sub(free.iterations);
    if partial_extra > 0 {
        println!(
            "\nextra iterations to recover: full {} vs partial {} ({:.2}× less work)",
            full_extra,
            partial_extra,
            full_extra as f64 / partial_extra as f64
        );
    } else {
        println!("\nextra iterations to recover: full {full_extra} vs partial {partial_extra}");
    }
}
