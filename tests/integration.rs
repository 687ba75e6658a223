//! Cross-crate integration tests through the umbrella crate: the full
//! stack assembled the way a downstream user would.

use std::sync::Arc;

use layered_resilience::apps::Heatdis;
use layered_resilience::cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};
use layered_resilience::fenix::{self, ExhaustPolicy, FenixConfig, Role};
use layered_resilience::kokkos::View;
use layered_resilience::kokkos_resilience::{CheckpointFilter, Context, ContextConfig};
use layered_resilience::resilience::{run_experiment, ExperimentConfig, Strategy};
use layered_resilience::simmpi::{FaultPlan, MpiResult, ReduceOp, Universe, UniverseConfig};

fn cluster(n: usize) -> Cluster {
    let cfg = ClusterConfig {
        nodes: n,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        relaunch: RelaunchModel::free(),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}

/// The Figure 4 pattern, hand-assembled (as in examples/quickstart.rs),
/// surviving two failures with two spares.
#[test]
fn figure4_pattern_survives_two_failures() {
    // 4 active + 2 spares
    let c = cluster(6);
    // Both kills land after a checkpoint call has drained the victim's
    // previous flush (`checkpoint` begins with `checkpoint_wait`), so an
    // older version is on the PFS for the replacement however late the
    // victim's flush worker is scheduled.
    let plan = Arc::new(FaultPlan::kill_at(1, "iter", 8).and_kill(2, "iter", 13));
    let report = Universe::launch(
        &c,
        UniverseConfig::default(),
        plan,
        |ctx| -> MpiResult<()> {
            let data: View<f64> = View::new_1d("state", 256);
            let kr: std::cell::RefCell<Option<Context>> = std::cell::RefCell::new(None);
            let ctx = &*ctx;
            fenix::run(
                ctx.world(),
                FenixConfig {
                    spares: 2,
                    on_exhaustion: ExhaustPolicy::Abort,
                },
                |_fx, comm, role| {
                    if kr.borrow().is_none() {
                        *kr.borrow_mut() = Some(Context::new(
                            ctx.cluster(),
                            comm.clone(),
                            ContextConfig {
                                name: "fig4".into(),
                                filter: CheckpointFilter::EveryN(4),
                                aliases: vec![],
                            },
                        ));
                    } else {
                        kr.borrow().as_ref().unwrap().reset(comm.clone());
                    }
                    let kr_ref = kr.borrow();
                    let kr = kr_ref.as_ref().unwrap();
                    let latest = kr.restart_version("loop", 20)?;
                    let start = latest.map_or(0, |v| v + 1);
                    if role != Role::Initial {
                        assert!(latest.is_some(), "checkpoints must exist by the failures");
                    }
                    for i in start..20 {
                        ctx.fault_point("iter", i)?;
                        kr.checkpoint("loop", i, || {
                            data.write()[0] = i as f64;
                            let s = comm.allreduce_scalar(1u64, ReduceOp::Sum)?;
                            assert_eq!(s, 4, "resilient communicator keeps its size");
                            Ok(())
                        })?;
                    }
                    kr.checkpoint_wait();
                    Ok(())
                },
            )
            .map(|summary| {
                if summary.executed_body {
                    assert!(summary.repairs >= 1);
                }
            })
        },
    );
    let mut killed = report.killed_ranks();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 2]);
    for o in &report.outcomes {
        if !killed.contains(&o.rank) {
            assert!(o.result.is_ok(), "rank {}: {:?}", o.rank, o.result);
        }
    }
}

/// Spare exhaustion aborts the job cleanly (no hang), as Fenix's default
/// policy dictates.
#[test]
fn spare_exhaustion_aborts_cleanly() {
    let c = cluster(4);
    let plan = Arc::new(FaultPlan::kill_at(0, "iter", 3).and_kill(1, "iter", 6));
    let rec = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_experiment(
            &c,
            &Heatdis::fixed(2 * 8 * 16 * 8, 16, 12),
            &ExperimentConfig {
                backend: Default::default(),
                strategy: Strategy::FenixKokkosResilience,
                spares: 1, // one spare, two failures
                checkpoints: 3,
                max_relaunches: 2,
                redundancy: None,
                telemetry: None,
            },
            plan,
        )
    }));
    // The driver panics on unrecoverable outcomes — the important property
    // is clean termination (the catch_unwind returning at all), not hanging.
    assert!(rec.is_err(), "exhaustion should surface as a hard failure");
}

/// The whole strategy matrix completes on a single shared cluster when
/// storage is wiped between experiments.
#[test]
fn strategy_matrix_shares_a_cluster() {
    let c = cluster(6);
    let app = Heatdis::fixed(2 * 8 * 32 * 8, 32, 18);
    let mut digests = Vec::new();
    for strategy in [
        Strategy::Unprotected,
        Strategy::VelocOnly,
        Strategy::KokkosResilience,
        Strategy::FenixVeloc,
        Strategy::FenixKokkosResilience,
        Strategy::FenixImr,
    ] {
        let rec = run_experiment(
            &c,
            &app,
            &ExperimentConfig {
                backend: Default::default(),
                strategy,
                spares: if strategy.uses_fenix() { 2 } else { 0 },
                checkpoints: 3,
                max_relaunches: 2,
                redundancy: None,
                telemetry: None,
            },
            Arc::new(FaultPlan::none()),
        );
        digests.push((strategy, rec.digest));
    }
    // Fenix runs use 4 active ranks (6 - 2 spares); non-Fenix use 6. The
    // digests must agree within each group.
    let fenix: Vec<_> = digests
        .iter()
        .filter(|(s, _)| s.uses_fenix())
        .map(|(_, d)| *d)
        .collect();
    let plain: Vec<_> = digests
        .iter()
        .filter(|(s, _)| !s.uses_fenix())
        .map(|(_, d)| *d)
        .collect();
    assert!(fenix.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
    assert!(plain.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
}

/// Checkpoint storage persists across simulated relaunches on the same
/// cluster (the property relaunch-based recovery depends on).
#[test]
fn storage_survives_relaunch_but_not_node_failure() {
    let c = cluster(2);
    c.pfs()
        .write("persist/x", bytes::Bytes::from_static(b"pfs"));
    c.scratch()
        .write(0, "persist/x", bytes::Bytes::from_static(b"scratch"));

    // A full universe launch/teardown does not touch storage.
    let report = Universe::launch(
        &c,
        UniverseConfig::default(),
        Arc::new(FaultPlan::none()),
        |_ctx| Ok(()),
    );
    assert!(report.all_ok());
    assert!(c.pfs().exists("persist/x"));
    assert!(c.scratch().exists(0, "persist/x"));

    // A node failure purges that node's scratch only.
    let report = Universe::launch(
        &c,
        UniverseConfig::default(),
        Arc::new(FaultPlan::kill_at(0, "boom", 0)),
        |ctx| {
            ctx.fault_point("boom", 0)?;
            Ok(())
        },
    );
    assert_eq!(report.killed_ranks(), vec![0]);
    assert!(c.pfs().exists("persist/x"), "PFS survives node failure");
    assert!(
        !c.scratch().exists(0, "persist/x"),
        "scratch lost with node"
    );
}
