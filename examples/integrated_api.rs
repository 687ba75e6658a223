//! The future-work single-initialization API (paper §VII.A), with the IMR
//! data backend: one `resilient_main` call replaces the separate Fenix and
//! Kokkos Resilience initializations of the quickstart example, and
//! checkpoints live purely in peer memory — no filesystem at all.
//!
//! Run with: `cargo run --example integrated_api`

use std::sync::Arc;

use layered_resilience::cluster::{Cluster, ClusterConfig, TimeScale};
use layered_resilience::fenix::{ExhaustPolicy, Role};
use layered_resilience::kokkos::View;
use layered_resilience::kokkos_resilience::CheckpointFilter;
use layered_resilience::redstore::RedundancyMode;
use layered_resilience::resilience::{resilient_main, IntegratedBackend, IntegratedConfig};
use layered_resilience::simmpi::{FaultPlan, MpiResult, ReduceOp, Universe, UniverseConfig};

fn main() {
    let ccfg = ClusterConfig {
        nodes: 5, // 4 active + 1 spare
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::new(ccfg);

    // Kill rank 2 at iteration 13, after the v11 checkpoint.
    let plan = Arc::new(FaultPlan::kill_at(2, "iter", 13));

    let report = Universe::launch(
        &cluster,
        UniverseConfig::default(),
        plan,
        |ctx| -> MpiResult<()> {
            let field: View<f64> = View::new_1d("field", 4096);
            let cfg = IntegratedConfig {
                name: "demo".into(),
                spares: 1,
                filter: CheckpointFilter::EveryN(4),
                // Fenix's buddy-rank IMR: two replicas in peer memory.
                backend: IntegratedBackend::Redstore {
                    mode: Some(RedundancyMode::Replicate { k: 2 }),
                },
                aliases: &[],
                on_exhaustion: ExhaustPolicy::Abort,
                partial_rollback: false,
            };
            let ctx = &*ctx;
            let summary = resilient_main(ctx, cfg, |scope| {
                let start = scope.restart_version("loop", 20)?.map_or(0, |v| v + 1);
                println!(
                    "rank {} role {:?}: starting at iteration {start} (repairs so far: {})",
                    scope.comm().rank(),
                    scope.role(),
                    scope.repair_count()
                );
                if scope.role() != Role::Initial {
                    assert_eq!(start, 12, "re-entry resumes after the v11 checkpoint");
                }
                if start == 0 {
                    // A fresh start, or a failure before the first
                    // checkpoint: nothing restores the field, so the body
                    // puts it back to its initial state itself.
                    field.write_uncaptured().fill(0.0);
                }
                for i in start..20 {
                    ctx.fault_point("iter", i)?;
                    scope.checkpoint("loop", i, || {
                        {
                            let mut f = field.write();
                            for x in f.iter_mut() {
                                *x = 0.9 * *x + 0.1 * (i as f64);
                            }
                        }
                        let norm = field.read()[0];
                        let _ = scope.comm().allreduce_scalar(norm, ReduceOp::Max)?;
                        Ok(())
                    })?;
                }
                Ok(())
            })?;
            if summary.executed_body {
                println!(
                    "rank {} finished: {} repair(s), no filesystem touched",
                    ctx.rank(),
                    summary.repairs
                );
            }
            Ok(())
        },
    );

    println!(
        "\nvictims: {:?}; PFS bytes written: {}",
        report.killed_ranks(),
        cluster.pfs().stored_bytes()
    );
    assert_eq!(
        cluster.pfs().stored_bytes(),
        0,
        "IMR backend keeps checkpoints out of the filesystem"
    );
}
