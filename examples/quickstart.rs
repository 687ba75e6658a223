//! Quickstart: the paper's Figure 4 pattern on a toy iterative solver.
//!
//! Launches a simulated 4-rank MPI job plus one spare, wraps the iteration
//! loop in a Kokkos Resilience checkpoint region under Fenix process
//! recovery, kills rank 1 partway through, and shows the run completing
//! without a job restart.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use layered_resilience::cluster::{Cluster, ClusterConfig, TimeScale};
use layered_resilience::fenix::{self, ExhaustPolicy, FenixConfig, Role};
use layered_resilience::kokkos::View;
use layered_resilience::kokkos_resilience::{CheckpointFilter, Context, ContextConfig};
use layered_resilience::simmpi::{FaultPlan, MpiResult, ReduceOp, Universe, UniverseConfig};

fn main() {
    // A modeled 5-node cluster (4 active ranks + 1 spare).
    let cfg = ClusterConfig {
        nodes: 5,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    };
    let cluster = Cluster::new(cfg);

    // Kill world rank 1 at iteration 13 — ~95% of the way between the
    // checkpoints at iterations 9 and 14, like the paper's failure setup.
    let plan = Arc::new(FaultPlan::kill_at(1, "iter", 13));

    let report = Universe::launch(
        &cluster,
        UniverseConfig::default(),
        plan,
        |ctx| -> MpiResult<()> {
            let fenix_cfg = FenixConfig {
                spares: 1,
                on_exhaustion: ExhaustPolicy::Abort,
            };
            // Application state outliving repairs (survivors keep it).
            let data: View<f64> = View::new_1d("solution", 1024);
            let kr: std::cell::RefCell<Option<Context>> = std::cell::RefCell::new(None);
            let ctx_ref = &*ctx;

            fenix::run(ctx_ref.world(), fenix_cfg, |_fx, comm, role| {
                // Figure 4: make_context on Initial, reset(res_comm) after.
                if kr.borrow().is_none() {
                    *kr.borrow_mut() = Some(Context::new(
                        ctx_ref.cluster(),
                        comm.clone(),
                        ContextConfig {
                            name: "quickstart".into(),
                            filter: CheckpointFilter::EveryN(5),
                            aliases: vec![],
                        },
                    ));
                } else {
                    kr.borrow().as_ref().unwrap().reset(comm.clone());
                }
                let kr = kr.borrow();
                let kr = kr.as_ref().unwrap();
                println!(
                    "rank {} (world {}) entering as {:?}",
                    comm.rank(),
                    comm.my_global(),
                    role
                );

                let latest = kr.restart_version("loop", 20)?;
                let start = latest.map_or(0, |v| v + 1);
                if role != Role::Initial {
                    println!(
                        "rank {} resuming from checkpoint v{:?} at iteration {start}",
                        comm.rank(),
                        latest
                    );
                }
                for i in start..20 {
                    ctx_ref.fault_point("iter", i)?;
                    kr.checkpoint("loop", i, || {
                        // The "work": relax toward the rank average.
                        {
                            let mut d = data.write();
                            for x in d.iter_mut() {
                                *x = 0.5 * *x + 0.5 * (i as f64 + comm.rank() as f64);
                            }
                        }
                        let sum = comm.allreduce_scalar(data.read()[0], ReduceOp::Sum)?;
                        let _ = sum;
                        Ok(())
                    })?;
                }
                kr.checkpoint_wait();
                Ok(())
            })
            .map(|summary| {
                if summary.executed_body {
                    println!(
                        "rank {} done: {} repair(s), final role {:?}",
                        ctx_ref.rank(),
                        summary.repairs,
                        summary.final_role
                    );
                }
            })
        },
    );

    let killed = report.killed_ranks();
    println!("\ninjected failures: ranks {killed:?}");
    println!(
        "job survived without relaunch: {}",
        !report.aborted && report.outcomes.iter().filter(|o| o.result.is_ok()).count() >= 4
    );
}
