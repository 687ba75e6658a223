//! Tests of the future-work extensions: the single-initialization
//! integrated entry point and the peer-memory (IMR) data backend for Kokkos
//! Resilience.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};
use fenix::Role;
use kokkos::View;
use kokkos_resilience::CheckpointFilter;
use resilience::{resilient_main, IntegratedBackend, IntegratedConfig};
use simmpi::{Backend, FaultPlan, MpiResult, RankCtx, ReduceOp, Universe, UniverseConfig};
use telemetry::{Event, Telemetry, TelemetryConfig, TraceSnapshot};

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

/// What one run through the integrated API came to.
struct Run {
    report: simmpi::LaunchReport,
    /// The final digest agreed across the resilient communicator.
    digest: u64,
    /// Where the job resumed after a repair: the lowest `start` any rank
    /// re-entered its loop at. `None` when no rank re-entered.
    resume: Option<u64>,
    trace: TraceSnapshot,
}

/// A little iterative kernel driven through the integrated API,
/// checkpointing every fourth iteration.
fn run_integrated(
    n: usize,
    spares: usize,
    plan: FaultPlan,
    backend: IntegratedBackend,
    iters: u64,
) -> Run {
    let filter = CheckpointFilter::EveryN(4);
    run_configured(n, spares, plan, backend, iters, filter)
}

/// [`run_integrated`] with the checkpoint filter chosen by the caller.
/// After its loop every rank drains its flushes and passes the `done`
/// fault point, so a plan can kill a rank that has nothing left to
/// compute.
fn run_configured(
    n: usize,
    spares: usize,
    plan: FaultPlan,
    backend: IntegratedBackend,
    iters: u64,
    filter: CheckpointFilter,
) -> Run {
    let digest = AtomicU64::new(0);
    let resume = AtomicU64::new(u64::MAX);
    let tel = Telemetry::new(TelemetryConfig::default());
    let report = Universe::launch(
        &cluster(n),
        UniverseConfig {
            telemetry: Some(tel.clone()),
            ..UniverseConfig::default()
        },
        Arc::new(plan),
        |ctx: &mut RankCtx| -> MpiResult<()> {
            let data: View<u64> = View::new_1d("vec", 32);
            let cfg = IntegratedConfig {
                name: "itest".into(),
                spares,
                filter: filter.clone(),
                backend: backend.clone(),
                aliases: &[],
                on_exhaustion: fenix::ExhaustPolicy::Abort,
                partial_rollback: false,
            };
            let ctx = &*ctx;
            resilient_main(ctx, cfg, |scope| {
                let reentered = scope.role() != Role::Initial;
                if reentered {
                    // A failure can cascade into recovery itself.
                    ctx.fault_point("recovery", scope.repair_count())?;
                }
                let start = scope.restart_version("loop", iters)?.map_or(0, |v| v + 1);
                if reentered {
                    resume.fetch_min(start, Relaxed);
                }
                if start == 0 {
                    // Deterministic reinit (failure before first checkpoint
                    // or fresh start).
                    let mut d = data.write_uncaptured();
                    for (i, x) in d.iter_mut().enumerate() {
                        *x = (scope.comm().rank() * 100 + i) as u64;
                    }
                }
                for i in start..iters {
                    // A rank dies with its flushes drained: which version
                    // its replacement finds on the filesystem — the resume
                    // point the tests assert — must not depend on how far a
                    // flush worker got.
                    scope.checkpoint_wait();
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
                digest.store(total, Relaxed);
                Ok(())
            })
            .map(|_| ())
        },
    );
    let resume = resume.into_inner();
    Run {
        report,
        digest: digest.into_inner(),
        resume: (resume != u64::MAX).then_some(resume),
        trace: tel.snapshot(),
    }
}

fn reference_digest(n: usize, spares: usize, iters: u64) -> u64 {
    let run = run_integrated(
        n,
        spares,
        FaultPlan::none(),
        IntegratedBackend::Veloc,
        iters,
    );
    assert!(run.report.all_ok(), "{:?}", run.report.outcomes);
    assert_eq!(run.resume, None);
    run.digest
}

/// Check where a recovered run resumed: exactly at `expected` on DES and
/// with peer memory, whose collective store keeps the ranks in step. A
/// VeloC run on threads is not in step (nothing between its checkpoints
/// communicates): on a loaded host a held-back rank has not flushed the
/// expected version when a peer that ran ahead is killed, and the job
/// rightly resumes lower. There it resumes between `expected` and the
/// flush-lag bound of `resilience::resume_bounds`: right after the newest
/// version every active rank had flushed before a kill.
fn assert_resume(
    run: &Run,
    backend: &IntegratedBackend,
    active: usize,
    iters: u64,
    filter: &CheckpointFilter,
    expected: u64,
) {
    let lock_step =
        Backend::default() != Backend::Threads || !matches!(backend, IntegratedBackend::Veloc);
    if lock_step {
        assert_eq!(run.resume, Some(expected), "{backend:?}: resume point");
        return;
    }
    let events = &run.trace.events;
    let flushed_before = |rank: usize, version: u64, t_ns: u64| {
        events.iter().any(|e| {
            e.rank as usize == rank
                && e.t_ns < t_ns
                && matches!(e.event, Event::FlushDone { version: v, .. } if v == version)
        })
    };
    // A kill at `iter` k precedes checkpoint k; a kill in recovery bounds
    // nothing (its agreement never completes). KR re-agrees below the
    // final version, which leaves nothing to replay.
    let lower = events
        .iter()
        .filter_map(|e| match &e.event {
            Event::FaultInjected { site, count } if site != "recovery" => {
                let stored = if site == "iter" { *count } else { iters };
                Some((e.t_ns, stored))
            }
            _ => None,
        })
        .map(|(t_ns, stored)| {
            (0..stored.min(iters))
                .filter(|&v| filter.should_checkpoint(v) && v + 2 <= iters)
                .filter(|&v| (0..active).all(|rank| flushed_before(rank, v, t_ns)))
                .max()
                .map_or(0, |v| v + 1)
        })
        .min()
        .unwrap_or(expected);
    let resume = run.resume.unwrap_or(u64::MAX);
    assert!(
        (lower..=expected).contains(&resume),
        "{backend:?}: resumed at {:?}, outside [{lower}, {expected}]",
        run.resume
    );
}

/// Run the kills `(rank, fault point, count)` on each backend: exactly
/// those ranks die, the job resumes at `resume` — from its newest
/// checkpoint, not from wherever a cold restart would put it, which
/// reproduces the digest just as well (see [`assert_resume`] for a VeloC
/// run on threads) — and finishes on the uninterrupted digest.
fn assert_recovers(n: usize, spares: usize, iters: u64, kills: &[(usize, &str, u64)], resume: u64) {
    let reference = reference_digest(n, spares, iters);
    let filter = CheckpointFilter::EveryN(4);
    for backend in [IntegratedBackend::Veloc, imr_backend()] {
        let mut plan = FaultPlan::none();
        for &(rank, site, at) in kills {
            plan = plan.and_kill(rank, site, at);
        }
        let run = run_integrated(n, spares, plan, backend.clone(), iters);
        let mut killed = run.report.killed_ranks();
        killed.sort_unstable();
        let victims: Vec<usize> = kills.iter().map(|k| k.0).collect();
        assert_eq!(killed, victims, "{backend:?}");
        assert_resume(&run, &backend, n - spares, iters, &filter, resume);
        assert_eq!(run.digest, reference, "{backend:?}: digest");
    }
}

#[test]
fn integrated_api_failure_free_both_backends() {
    let reference = reference_digest(5, 1, 16);
    let run = run_integrated(5, 1, FaultPlan::none(), imr_backend(), 16);
    assert!(run.report.all_ok());
    assert_eq!(
        run.digest, reference,
        "IMR backend must not change failure-free results"
    );
}

#[test]
fn integrated_api_recovers_from_the_newest_checkpoint() {
    // Rank 2 dies after the v7 checkpoint. The future-work configuration
    // (KR context driving buddy-rank memory, no filesystem at all) must
    // resume where the published one does.
    assert_recovers(5, 1, 16, &[(2, "iter", 11)], 8);
}

#[test]
fn integrated_api_multiple_failures() {
    // Two failures need two spares (6 nodes = 4 active + 2 spares). The
    // first resumes after v3, the second after v11.
    assert_recovers(6, 2, 20, &[(0, "iter", 6), (3, "iter", 14)], 4);
}

#[test]
fn integrated_api_failure_at_checkpoint_iteration() {
    // The victim dies exactly at a checkpoint iteration (filter fires at
    // 3, 7, 11, …): survivors are entering the collective store when the
    // failure hits, exercising the two-phase commit's abort path. The run
    // must roll back to the previous committed version and still match.
    assert_recovers(5, 1, 16, &[(3, "iter", 7)], 4);
}

#[test]
fn integrated_api_recovered_rank_dies_too() {
    // The replacement rank itself fails during recovery re-execution; the
    // second spare takes over. (Global rank 4 is the first spare with 6
    // nodes and 2 spares.) Rank 4 is promoted after rank 1 dies at 14,
    // resumes at 12 (the v11 checkpoint), and is killed at 13 during its
    // recovery pass; the second repair resumes at 12 again.
    assert_recovers(6, 2, 20, &[(1, "iter", 14), (4, "iter", 13)], 12);
}

#[test]
fn integrated_api_failure_cascades_into_recovery() {
    // Rank 1 dies at 14; on re-entry, before anything is restored, survivor
    // 3 dies too. The second repair's replacement list names rank 3's slot
    // only, but the first replacement never restored either: who lacks the
    // v11 checkpoint is decided by possession, not by the process layer's
    // list, or the job waits forever on a rank that aborted on its empty
    // store.
    assert_recovers(6, 2, 20, &[(1, "iter", 14), (3, "recovery", 1)], 12);
}

#[test]
fn integrated_api_simultaneous_failures() {
    // Two ranks die at the same iteration; one repair wave (or two) must
    // absorb both and the result must still match.
    assert_recovers(6, 2, 20, &[(0, "iter", 6), (2, "iter", 6)], 4);
}

#[test]
fn integrated_api_failure_before_first_checkpoint() {
    // Before the first checkpoint (v3): a consistent cold restart.
    assert_recovers(5, 1, 16, &[(1, "iter", 2)], 0);
}

#[test]
fn integrated_api_failure_after_the_final_commit_still_restores() {
    // Every iteration checkpoints, so when rank 1 dies after the loop the
    // newest agreed version is the final one. Resuming after it would run
    // no region, the armed restore would never fire, and the replacement
    // would contribute its freshly initialised data to the digest:
    // `restart_version` re-agrees lower so one iteration replays. VeloC
    // keeps older versions and resumes after v6. Peer memory holds one
    // version — the final one — so there is nothing lower to agree on and
    // the job restarts cold, by design.
    let reference = reference_digest(5, 1, 8);
    for (backend, resume) in [(IntegratedBackend::Veloc, 7), (imr_backend(), 0)] {
        let filter = CheckpointFilter::Always;
        let plan = FaultPlan::kill_at(1, "done", 0);
        let run = run_configured(5, 1, plan, backend.clone(), 8, filter.clone());
        assert_eq!(run.report.killed_ranks(), vec![1], "{backend:?}");
        assert_resume(&run, &backend, 4, 8, &filter, resume);
        assert_eq!(
            run.digest, reference,
            "{backend:?}: a replacement with nothing left to compute must still be restored"
        );
    }
}

#[test]
fn integrated_api_run_is_traced_through_every_layer() {
    // The context `resilient_main` creates carries the rank's recorder, so
    // a traced run shows the control-flow and data layers, not just Fenix.
    let run = run_integrated(5, 1, FaultPlan::none(), IntegratedBackend::Veloc, 8);
    assert!(run.report.all_ok(), "{:?}", run.report.outcomes);
    for kind in ["region_enter", "region_commit", "checkpoint_local"] {
        assert!(
            !run.trace.of_kind(kind).is_empty(),
            "trace of a resilient_main run has no `{kind}` event"
        );
    }
}
