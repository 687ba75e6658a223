//! Ablation tables for the design choices DESIGN.md calls out (printed, not
//! gated):
//!
//! * checkpoint-interval sweep ("flexibility is key": the optimal interval
//!   is application-dependent);
//! * IMR vs VeloC checkpoint commit cost against data size (the Figure 5
//!   crossover);
//! * spare-count sensitivity of the Fenix run loop;
//! * collective-operation cost on the simulated MPI (substrate baseline).

use std::sync::Arc;

use apps::Heatdis;
use bench::{bench_cluster, elapsed_ns, measure};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::{FaultPlan, ReduceOp, Universe, UniverseConfig};

const SAMPLES: usize = 10;
const WARMUP: usize = 2;

fn row<T>(table: &str, label: &str, mut op: impl FnMut() -> T) {
    let t = measure(WARMUP, SAMPLES, || elapsed_ns(&mut op));
    println!(
        "{:<52} median {:>12} ns  (min {} ns, {SAMPLES} samples)",
        format!("{table}/{label}"),
        t.median_ns,
        t.min_ns
    );
}

/// One failure-free experiment per sample.
fn experiment_row(
    table: &str,
    label: &str,
    nodes: usize,
    app: &Heatdis,
    strategy: Strategy,
    spares: usize,
    checkpoints: u64,
) {
    let cluster = bench_cluster(nodes);
    let cfg = ExperimentConfig {
        strategy,
        spares,
        checkpoints,
        max_relaunches: 4,
        ..ExperimentConfig::default()
    };
    row(table, label, || {
        run_experiment(&cluster, app, &cfg, Arc::new(FaultPlan::none()))
    });
}

fn main() {
    for checkpoints in [2u64, 6, 15] {
        experiment_row(
            "ablation_checkpoint_interval",
            &format!("checkpoints/{checkpoints}"),
            5,
            &Heatdis::fixed(256 * 1024, 128, 30),
            Strategy::FenixKokkosResilience,
            1,
            checkpoints,
        );
    }
    for kb in [64usize, 512] {
        for strategy in [Strategy::FenixVeloc, Strategy::FenixImr] {
            experiment_row(
                "ablation_imr_vs_veloc_commit",
                &format!("{}/{kb}", strategy.label().replace(' ', "_")),
                5,
                &Heatdis::fixed(kb * 1024, 128, 12),
                strategy,
                1,
                6,
            );
        }
    }
    for spares in [0usize, 1, 3] {
        experiment_row(
            "ablation_spare_count",
            &format!("spares/{spares}"),
            4 + spares,
            &Heatdis::fixed(128 * 1024, 128, 20),
            Strategy::FenixKokkosResilience,
            spares,
            4,
        );
    }
    for ranks in [4usize, 8] {
        let cluster = bench_cluster(ranks);
        row(
            "ablation_simmpi_collectives",
            &format!("allreduce_x100/{ranks}"),
            || {
                let report = Universe::launch(
                    &cluster,
                    UniverseConfig::default(),
                    Arc::new(FaultPlan::none()),
                    |ctx| {
                        let w = ctx.world();
                        for i in 0..100u64 {
                            w.allreduce_scalar(i + ctx.rank() as u64, ReduceOp::Sum)?;
                        }
                        Ok(())
                    },
                );
                assert!(report.all_ok());
            },
        );
    }
}
