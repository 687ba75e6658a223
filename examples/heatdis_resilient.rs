//! Heatdis under the full integrated stack (Fenix + Kokkos Resilience +
//! VeloC), with a mid-run rank failure — the paper's primary benchmark.
//!
//! Prints the paper-style cost breakdown for a failure-free run and a run
//! with one injected failure, for both the integrated system and the
//! relaunch-based baseline, so the Fenix savings in the "Other" category
//! are directly visible.
//!
//! Run with: `cargo run --release --example heatdis_resilient`

use std::sync::Arc;

use layered_resilience::apps::Heatdis;
use layered_resilience::cluster::{Cluster, ClusterConfig};
use layered_resilience::resilience::{run_experiment, ExperimentConfig, RunRecord, Strategy};
use layered_resilience::simmpi::FaultPlan;

fn print_record(tag: &str, rec: &RunRecord) {
    println!("── {tag}");
    for (name, secs) in rec.breakdown.rows() {
        if secs > 1e-6 {
            println!("   {name:<28} {secs:>9.4} s");
        }
    }
    println!(
        "   {:<28} {:>9.4} s   (relaunches: {}, repairs: {})",
        "TOTAL (wall)",
        rec.wall.as_secs_f64(),
        rec.relaunches,
        rec.repairs
    );
}

fn main() {
    let iterations = 60;
    let per_rank_mb = 4.0;
    let app = Heatdis::fixed((per_rank_mb * 1e6) as usize, 512, iterations);

    let cfg = |strategy: Strategy, spares: usize| ExperimentConfig {
        backend: Default::default(),
        strategy,
        spares,
        checkpoints: 6,
        max_relaunches: 4,
        telemetry: None,
    };

    println!("Heatdis: {per_rank_mb} MB/rank, {iterations} iterations, 6 checkpoints\n");

    for strategy in [
        Strategy::KokkosResilience,
        Strategy::FenixKokkosResilience,
        Strategy::FenixImr,
    ] {
        let (nodes, spares) = if strategy.uses_fenix() {
            (5, 1)
        } else {
            (4, 0)
        };
        let ccfg = ClusterConfig {
            nodes,
            ..ClusterConfig::default()
        };
        let cluster = Cluster::new(ccfg);

        let free = run_experiment(
            &cluster,
            &app,
            &cfg(strategy, spares),
            Arc::new(FaultPlan::none()),
        );
        print_record(&format!("{strategy} — no failure"), &free);

        // Fail rank 2 at ~95% of the 4th checkpoint interval.
        let interval = iterations / 6;
        let kill_at = 4 * interval + (interval as f64 * 0.95) as u64;
        let failed = run_experiment(
            &cluster,
            &app,
            &cfg(strategy, spares),
            Arc::new(FaultPlan::kill_at(2, "iter", kill_at)),
        );
        print_record(
            &format!("{strategy} — one failure @ iter {kill_at}"),
            &failed,
        );
        println!(
            "   failure cost: {:+.4} s\n",
            failed.wall.as_secs_f64() - free.wall.as_secs_f64()
        );
    }
}
