//! MiniMD under the integrated framework — the paper's "more real-world
//! sized example of implementing resilience".
//!
//! Runs a weak-scaled Lennard-Jones simulation with the full Fenix + Kokkos
//! Resilience + VeloC stack, injects one failure, prints the Figure 6 phase
//! breakdown, and reports the Figure 7 view-classification statistics the
//! automatic capture produced.
//!
//! Run with: `cargo run --release --example minimd_resilient`

use std::sync::Arc;

use layered_resilience::apps::MiniMd;
use layered_resilience::cluster::{Cluster, ClusterConfig};
use layered_resilience::kokkos_resilience::{CheckpointFilter, Context, ContextConfig, ViewClass};
use layered_resilience::resilience::{
    run_experiment, Bookkeeper, ExperimentConfig, IterativeApp, Strategy,
};
use layered_resilience::simmpi::{FaultPlan, Universe, UniverseConfig};

fn main() {
    let app = MiniMd::new([3, 3, 3], 40);
    let cfg = ExperimentConfig {
        backend: Default::default(),
        strategy: Strategy::FenixKokkosResilience,
        spares: 1,
        checkpoints: 5,
        max_relaunches: 4,
        telemetry: None,
    };
    let ccfg = ClusterConfig {
        nodes: 5, // 4 active + 1 spare
        ..ClusterConfig::default()
    };
    let cluster = Cluster::new(ccfg);

    println!(
        "MiniMD: {} atoms/rank on 4 ranks + 1 spare, 40 steps, 5 checkpoints\n",
        app.atoms_per_rank()
    );

    let free = run_experiment(&cluster, &app, &cfg, Arc::new(FaultPlan::none()));
    println!("── failure-free run");
    for (name, secs) in free.breakdown.rows() {
        if secs > 1e-6 {
            println!("   {name:<28} {secs:>9.4} s");
        }
    }

    let failed = run_experiment(
        &cluster,
        &app,
        &cfg,
        Arc::new(FaultPlan::kill_at(2, "iter", 30)),
    );
    println!(
        "── with one failure at step 30 (repairs: {})",
        failed.repairs
    );
    for (name, secs) in failed.breakdown.rows() {
        if secs > 1e-6 {
            println!("   {name:<28} {secs:>9.4} s");
        }
    }
    println!(
        "   failure cost: {:+.4} s\n",
        failed.wall.as_secs_f64() - free.wall.as_secs_f64()
    );

    // Figure 7: what did automatic view detection find?
    let report = Universe::launch(
        &cluster,
        UniverseConfig::default(),
        Arc::new(FaultPlan::none()),
        |ctx| {
            if ctx.rank() != 0 {
                return Ok(());
            }
            let single = MiniMd::new([3, 3, 3], 1);
            let comm = ctx.world().clone();
            // A 1-rank sub-communicator for the standalone statistics pass.
            let solo = layered_resilience::simmpi::Comm::from_group(
                Arc::clone(ctx.router()),
                layered_resilience::simmpi::router::Router::derive_comm_id(0, 0x57A7),
                0,
                vec![0],
                0,
            );
            let bk = Bookkeeper::new(Arc::clone(ctx.profile()));
            let mut st = single.state_for(&solo);
            let kr = Context::new(
                ctx.cluster(),
                solo.clone(),
                ContextConfig {
                    name: "fig7".into(),
                    filter: CheckpointFilter::Never,
                    aliases: single.alias_labels(),
                },
            );
            use layered_resilience::resilience::RankApp;
            kr.checkpoint("loop", 0, || st.step(&solo, 0, &bk))?;
            let stats = kr.region_stats("loop").unwrap();
            println!("── view inventory (Figure 7 statistics)");
            for class in [
                ViewClass::Checkpointed,
                ViewClass::Alias,
                ViewClass::Skipped,
            ] {
                println!(
                    "   {class:?}: {:>2} views, {:>9} bytes ({:>5.1}% of total)",
                    stats.count(class),
                    stats.bytes(class),
                    100.0 * stats.fraction(class)
                );
            }
            println!("   total view objects: {}", stats.total_views());
            let _ = comm;
            Ok(())
        },
    );
    assert!(report.outcomes[0].result.is_ok());
}
