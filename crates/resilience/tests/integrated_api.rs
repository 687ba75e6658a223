//! Tests of the future-work extensions: the single-initialization
//! integrated entry point and the peer-memory (IMR) data backend for Kokkos
//! Resilience.

use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};
use kokkos::View;
use kokkos_resilience::CheckpointFilter;
use resilience::{resilient_main, IntegratedBackend, IntegratedConfig};
use simmpi::{FaultPlan, MpiResult, RankCtx, ReduceOp, Universe, UniverseConfig};
use telemetry::{Telemetry, TelemetryConfig};

/// Fenix's buddy-rank IMR as a KR backend: the redundancy store at two
/// replicas.
fn imr_backend() -> IntegratedBackend {
    IntegratedBackend::Redstore {
        mode: Some(redstore::RedundancyMode::Replicate { k: 2 }),
    }
}

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

/// A little iterative kernel driven through the integrated API; returns the
/// final digest agreed across the resilient communicator.
fn run_integrated(
    n: usize,
    spares: usize,
    plan: FaultPlan,
    backend: IntegratedBackend,
    iters: u64,
) -> (simmpi::LaunchReport, Arc<std::sync::atomic::AtomicU64>) {
    let filter = CheckpointFilter::EveryN(4);
    run_configured(n, spares, plan, backend, iters, filter, None)
}

/// [`run_integrated`] with the checkpoint filter and a telemetry hub chosen
/// by the caller. After its loop every rank drains its flushes and passes
/// the `done` fault point, so a plan can kill a rank that has nothing left
/// to compute.
fn run_configured(
    n: usize,
    spares: usize,
    plan: FaultPlan,
    backend: IntegratedBackend,
    iters: u64,
    filter: CheckpointFilter,
    telemetry: Option<Telemetry>,
) -> (simmpi::LaunchReport, Arc<std::sync::atomic::AtomicU64>) {
    let digest = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let dg = Arc::clone(&digest);
    let report = Universe::launch(
        &cluster(n),
        UniverseConfig {
            telemetry,
            ..UniverseConfig::default()
        },
        Arc::new(plan),
        move |ctx: &mut RankCtx| -> MpiResult<()> {
            let data: View<u64> = View::new_1d("vec", 32);
            let cfg = IntegratedConfig {
                name: "itest".into(),
                spares,
                filter: filter.clone(),
                backend: backend.clone(),
                aliases: vec![],
                on_exhaustion: fenix::ExhaustPolicy::Abort,
                partial_rollback: false,
            };
            let ctx = &*ctx;
            let dg = Arc::clone(&dg);
            resilient_main(ctx, cfg, move |scope| {
                let start = scope.restart_version("loop", iters)?.map_or(0, |v| v + 1);
                if start == 0 {
                    // Deterministic reinit (failure before first checkpoint
                    // or fresh start).
                    let mut d = data.write_uncaptured();
                    for (i, x) in d.iter_mut().enumerate() {
                        *x = (scope.comm().rank() * 100 + i) as u64;
                    }
                }
                for i in start..iters {
                    ctx.fault_point("iter", i)?;
                    scope.checkpoint("loop", i, || {
                        {
                            let mut d = data.write();
                            for x in d.iter_mut() {
                                *x = x.wrapping_mul(31).wrapping_add(i);
                            }
                        }
                        Ok(())
                    })?;
                }
                scope.checkpoint_wait();
                ctx.fault_point("done", 0)?;
                let local = data
                    .read_uncaptured()
                    .iter()
                    .fold(0u64, |a, &x| a.wrapping_mul(131).wrapping_add(x));
                let total = scope.comm().allreduce_scalar(local, ReduceOp::Sum)?;
                dg.store(total, std::sync::atomic::Ordering::Relaxed);
                Ok(())
            })
            .map(|_| ())
        },
    );
    (report, digest)
}

fn reference_digest(n: usize, spares: usize, iters: u64) -> u64 {
    let (report, digest) = run_integrated(
        n,
        spares,
        FaultPlan::none(),
        IntegratedBackend::VelocSingle,
        iters,
    );
    assert!(report.all_ok(), "{:?}", report.outcomes);
    digest.load(std::sync::atomic::Ordering::Relaxed)
}

#[test]
fn integrated_api_failure_free_both_backends() {
    let reference = reference_digest(5, 1, 16);
    let (report, digest) = run_integrated(5, 1, FaultPlan::none(), imr_backend(), 16);
    assert!(report.all_ok());
    assert_eq!(
        digest.load(std::sync::atomic::Ordering::Relaxed),
        reference,
        "IMR backend must not change failure-free results"
    );
}

#[test]
fn integrated_api_recovers_with_veloc_backend() {
    let reference = reference_digest(5, 1, 16);
    let (report, digest) = run_integrated(
        5,
        1,
        FaultPlan::kill_at(1, "iter", 11), // after the v7 checkpoint
        IntegratedBackend::VelocSingle,
        16,
    );
    assert_eq!(report.killed_ranks(), vec![1]);
    assert_eq!(
        digest.load(std::sync::atomic::Ordering::Relaxed),
        reference,
        "recovered run must match uninterrupted run"
    );
}

#[test]
fn integrated_api_recovers_with_imr_backend() {
    // The future-work configuration: KR context driving buddy-rank memory
    // storage, no filesystem at all.
    let reference = reference_digest(5, 1, 16);
    let (report, digest) =
        run_integrated(5, 1, FaultPlan::kill_at(2, "iter", 11), imr_backend(), 16);
    assert_eq!(report.killed_ranks(), vec![2]);
    assert_eq!(
        digest.load(std::sync::atomic::Ordering::Relaxed),
        reference,
        "IMR-backend recovery must match uninterrupted run"
    );
}

#[test]
fn integrated_api_imr_multiple_failures() {
    // Two failures need two spares (6 nodes = 4 active + 2 spares).
    let reference = reference_digest(6, 2, 20);
    let (report, digest) = run_integrated(
        6,
        2,
        FaultPlan::kill_at(0, "iter", 6).and_kill(3, "iter", 14),
        imr_backend(),
        20,
    );
    let mut killed = report.killed_ranks();
    killed.sort_unstable();
    assert_eq!(killed, vec![0, 3]);
    assert_eq!(digest.load(std::sync::atomic::Ordering::Relaxed), reference);
}

#[test]
fn integrated_api_failure_at_checkpoint_iteration() {
    // The victim dies exactly at a checkpoint iteration (filter fires at
    // 3, 7, 11, …): survivors are entering the collective store when the
    // failure hits, exercising the two-phase commit's abort path. The run
    // must roll back to the previous committed version and still match.
    let reference = reference_digest(5, 1, 16);
    for backend in [IntegratedBackend::VelocSingle, imr_backend()] {
        let (report, digest) =
            run_integrated(5, 1, FaultPlan::kill_at(3, "iter", 7), backend.clone(), 16);
        assert_eq!(report.killed_ranks(), vec![3]);
        assert_eq!(
            digest.load(std::sync::atomic::Ordering::Relaxed),
            reference,
            "{backend:?}"
        );
    }
}

#[test]
fn integrated_api_recovered_rank_dies_too() {
    // The replacement rank itself fails during recovery re-execution; the
    // second spare takes over. (Global rank 4 is the first spare with 6
    // nodes and 2 spares.)
    let reference = reference_digest(6, 2, 20);
    let (report, digest) = run_integrated(
        6,
        2,
        // Rank 4 is promoted after rank 1 dies at 14, resumes at 12 (the
        // v11 checkpoint), and is killed at 13 during its recovery pass.
        FaultPlan::kill_at(1, "iter", 14).and_kill(4, "iter", 13),
        IntegratedBackend::VelocSingle,
        20,
    );
    let mut killed = report.killed_ranks();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 4]);
    assert_eq!(digest.load(std::sync::atomic::Ordering::Relaxed), reference);
}

#[test]
fn integrated_api_simultaneous_failures() {
    // Two ranks die at the same iteration; one repair wave (or two) must
    // absorb both and the result must still match.
    let reference = reference_digest(6, 2, 20);
    for backend in [IntegratedBackend::VelocSingle, imr_backend()] {
        let (report, digest) = run_integrated(
            6,
            2,
            FaultPlan::kill_at(0, "iter", 6).and_kill(2, "iter", 6),
            backend.clone(),
            20,
        );
        let mut killed = report.killed_ranks();
        killed.sort_unstable();
        assert_eq!(killed, vec![0, 2]);
        assert_eq!(
            digest.load(std::sync::atomic::Ordering::Relaxed),
            reference,
            "{backend:?}"
        );
    }
}

#[test]
fn integrated_api_failure_before_first_checkpoint() {
    let reference = reference_digest(5, 1, 16);
    for backend in [IntegratedBackend::VelocSingle, imr_backend()] {
        let (report, digest) = run_integrated(
            5,
            1,
            FaultPlan::kill_at(1, "iter", 2), // before the first checkpoint (v3)
            backend.clone(),
            16,
        );
        assert_eq!(report.killed_ranks(), vec![1]);
        assert_eq!(
            digest.load(std::sync::atomic::Ordering::Relaxed),
            reference,
            "{backend:?}"
        );
    }
}

#[test]
fn integrated_api_failure_after_the_final_commit_still_restores() {
    // Every iteration checkpoints, so when rank 1 dies after the loop the
    // newest agreed version is the final one. Resuming after it would run
    // no region, the armed restore would never fire, and the replacement
    // would contribute its freshly initialised data to the digest:
    // `restart_version` re-agrees lower so one iteration replays.
    let reference = reference_digest(5, 1, 8);
    let (report, digest) = run_configured(
        5,
        1,
        FaultPlan::kill_at(1, "done", 0),
        IntegratedBackend::VelocSingle,
        8,
        CheckpointFilter::Always,
        None,
    );
    assert_eq!(report.killed_ranks(), vec![1]);
    assert_eq!(
        digest.load(std::sync::atomic::Ordering::Relaxed),
        reference,
        "a replacement with nothing left to compute must still be restored"
    );
}

#[test]
fn integrated_api_run_is_traced_through_every_layer() {
    // The context `resilient_main` creates carries the rank's recorder, so
    // a traced run shows the control-flow and data layers, not just Fenix.
    let tel = Telemetry::new(TelemetryConfig::default());
    let (report, _) = run_configured(
        5,
        1,
        FaultPlan::none(),
        IntegratedBackend::VelocSingle,
        8,
        CheckpointFilter::EveryN(4),
        Some(tel.clone()),
    );
    assert!(report.all_ok(), "{:?}", report.outcomes);
    let snap = tel.snapshot();
    for kind in ["region_enter", "region_commit", "checkpoint_local"] {
        assert!(
            !snap.of_kind(kind).is_empty(),
            "trace of a resilient_main run has no `{kind}` event"
        );
    }
}
