//! Run the full §V.A strategy matrix on one Heatdis configuration and print
//! a side-by-side comparison — the repository's equivalent of the paper's
//! Figure 1 table brought to life.
//!
//! Run with: `cargo run --release --example strategy_matrix`

use std::sync::Arc;

use layered_resilience::apps::Heatdis;
use layered_resilience::cluster::{Cluster, ClusterConfig};
use layered_resilience::resilience::{run_experiment, ExperimentConfig, Strategy};
use layered_resilience::simmpi::FaultPlan;

fn main() {
    let iterations = 48;
    let app = Heatdis::fixed(8 * 1_000_000, 512, iterations);
    let kill_at = 37; // ~95% between checkpoints 4 and 5 (interval 8)

    println!(
        "Heatdis, 8 MB/rank, {iterations} iterations, 6 checkpoints, failure at iter {kill_at}\n"
    );
    println!(
        "{:<20} {:>10} {:>10} {:>9} {:>9} {:>11} {:>9}",
        "strategy", "no-fail s", "fail s", "cost s", "ckpt s", "relaunches", "repairs"
    );

    for strategy in [
        Strategy::Unprotected,
        Strategy::VelocOnly,
        Strategy::KokkosResilience,
        Strategy::FenixVeloc,
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
        let cfg = ExperimentConfig {
            backend: Default::default(),
            strategy,
            spares,
            checkpoints: 6,
            max_relaunches: 4,
            telemetry: None,
        };
        let free = run_experiment(&cluster, &app, &cfg, Arc::new(FaultPlan::none()));
        let failed = run_experiment(
            &cluster,
            &app,
            &cfg,
            Arc::new(FaultPlan::kill_at(2, "iter", kill_at)),
        );
        println!(
            "{:<20} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>11} {:>9}",
            strategy.label(),
            free.wall.as_secs_f64(),
            failed.wall.as_secs_f64(),
            failed.wall.as_secs_f64() - free.wall.as_secs_f64(),
            failed.breakdown.checkpoint_fn.as_secs_f64(),
            failed.relaunches,
            failed.repairs
        );
    }

    println!("\nreading guide (paper's qualitative results):");
    println!(
        " * relaunch strategies pay multi-second failure costs (teardown + restart + reinit);"
    );
    println!(" * Fenix strategies recover in place for a fraction of that;");
    println!(" * IMR's checkpoint function is cheap at small data and scales with size;");
    println!(" * checkpointing overhead itself is small next to recovery savings.");
}
