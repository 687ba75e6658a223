//! End-to-end tests of the Fenix run loop: spare promotion, roles, repair,
//! multi-failure, exhaustion policies, and normal completion.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, TimeScale};
use fenix::{ExhaustPolicy, FenixConfig, Role};
use parking_lot::Mutex;
use simmpi::{FaultPlan, MpiResult, RankCtx, ReduceOp, Universe, UniverseConfig};

fn cluster(n: usize) -> Cluster {
    let cfg = ClusterConfig {
        nodes: n,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}

fn launch<F>(n: usize, plan: FaultPlan, f: F) -> simmpi::LaunchReport
where
    F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
{
    Universe::launch(&cluster(n), UniverseConfig::default(), Arc::new(plan), f)
}

#[test]
fn failure_free_run_finalizes_spares() {
    let body_runs = Arc::new(AtomicUsize::new(0));
    let br = Arc::clone(&body_runs);
    let report = launch(4, FaultPlan::none(), move |ctx| {
        let cfg = FenixConfig {
            spares: 1,
            on_exhaustion: ExhaustPolicy::Abort,
        };
        let br = Arc::clone(&br);
        let summary = fenix::run(ctx.world(), cfg, |_fx, comm, role| {
            assert_eq!(role, Role::Initial);
            assert_eq!(comm.size(), 3);
            br.fetch_add(1, Ordering::Relaxed);
            comm.barrier()?;
            Ok(())
        })?;
        if ctx.rank() == 3 {
            // The spare never ran the body.
            assert!(!summary.executed_body);
            assert_eq!(summary.final_role, None);
        }
        assert_eq!(summary.repairs, 0);
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
    assert_eq!(body_runs.load(Ordering::Relaxed), 3);
}

#[test]
fn single_failure_promotes_spare_in_place() {
    // 4 ranks, 1 spare (global rank 3). Global rank 1 dies at iteration 2.
    // The spare must take comm rank 1; survivors keep their ranks.
    let roles_seen = Arc::new(Mutex::new(Vec::<(usize, Role, usize)>::new()));
    let rs = Arc::clone(&roles_seen);
    let report = launch(4, FaultPlan::kill_at(1, "iter", 2), move |ctx| {
        let cfg = FenixConfig {
            spares: 1,
            on_exhaustion: ExhaustPolicy::Abort,
        };
        let rs = Arc::clone(&rs);
        let me = ctx.rank();
        fenix::run(ctx.world(), cfg, |fx, comm, role| {
            rs.lock().push((me, role, comm.rank()));
            if role != Role::Initial {
                // In-place substitution: comm size unchanged, and the
                // replacement fills slot 1.
                assert_eq!(comm.size(), 3);
                assert_eq!(fx.recovered_ranks(), vec![1]);
                assert_eq!(fx.spares_remaining(), 0);
            }
            for i in 0..5u64 {
                ctx.fault_point("iter", i)?;
                let sum = comm.allreduce_scalar(1u64, ReduceOp::Sum)?;
                assert_eq!(sum, 3);
            }
            Ok(())
        })
        .map(|_| ())
    });
    assert_eq!(report.killed_ranks(), vec![1]);
    // Every non-victim rank completed.
    for o in &report.outcomes {
        if o.rank != 1 {
            assert!(o.result.is_ok(), "rank {} failed: {:?}", o.rank, o.result);
        }
    }
    let roles = roles_seen.lock();
    // Spare (global 3) re-entered as Recovered with comm rank 1.
    assert!(
        roles.contains(&(3, Role::Recovered, 1)),
        "expected spare promotion, got {roles:?}"
    );
    // Survivors re-entered as Survivor keeping their comm ranks.
    assert!(roles.contains(&(0, Role::Survivor, 0)));
    assert!(roles.contains(&(2, Role::Survivor, 2)));
}

#[test]
fn two_failures_consume_two_spares() {
    let repairs_done = Arc::new(AtomicU64::new(0));
    let rd = Arc::clone(&repairs_done);
    let report = launch(
        6,
        FaultPlan::kill_at(0, "iter", 1).and_kill(2, "iter", 3),
        move |ctx| {
            let cfg = FenixConfig {
                spares: 2,
                on_exhaustion: ExhaustPolicy::Abort,
            };
            let rd = Arc::clone(&rd);
            let summary = fenix::run(ctx.world(), cfg, |_fx, comm, _role| {
                for i in 0..6u64 {
                    ctx.fault_point("iter", i)?;
                    let sum = comm.allreduce_scalar(1u64, ReduceOp::Sum)?;
                    assert_eq!(sum, 4);
                }
                Ok(())
            })?;
            rd.fetch_max(summary.repairs, Ordering::Relaxed);
            Ok(())
        },
    );
    let mut killed = report.killed_ranks();
    killed.sort_unstable();
    assert_eq!(killed, vec![0, 2]);
    assert!(
        repairs_done.load(Ordering::Relaxed) >= 2,
        "expected at least two repairs"
    );
}

#[test]
fn exhaustion_abort_policy_aborts() {
    let report = launch(3, FaultPlan::kill_at(0, "iter", 1), |ctx| {
        let cfg = FenixConfig {
            spares: 0,
            on_exhaustion: ExhaustPolicy::Abort,
        };
        fenix::run(ctx.world(), cfg, |_fx, comm, _role| {
            for i in 0..4u64 {
                ctx.fault_point("iter", i)?;
                comm.barrier()?;
            }
            Ok(())
        })
        .map(|_| ())
    });
    assert_eq!(report.killed_ranks(), vec![0]);
    assert!(report.aborted, "exhaustion with Abort policy must abort");
}

#[test]
fn exhaustion_shrink_policy_continues_smaller() {
    let sizes_seen = Arc::new(Mutex::new(Vec::<usize>::new()));
    let ss = Arc::clone(&sizes_seen);
    let report = launch(4, FaultPlan::kill_at(1, "iter", 1), move |ctx| {
        let cfg = FenixConfig {
            spares: 0,
            on_exhaustion: ExhaustPolicy::Shrink,
        };
        let ss = Arc::clone(&ss);
        fenix::run(ctx.world(), cfg, |_fx, comm, role| {
            ss.lock().push(comm.size());
            if role == Role::Initial {
                for i in 0..4u64 {
                    ctx.fault_point("iter", i)?;
                    comm.barrier()?;
                }
            } else {
                // Shrunk continuation: 3 survivors, re-ranked contiguously.
                assert_eq!(comm.size(), 3);
                let sum = comm.allreduce_scalar(comm.rank() as u64, ReduceOp::Sum)?;
                assert_eq!(sum, 3); // 0+1+2
            }
            Ok(())
        })
        .map(|_| ())
    });
    assert_eq!(report.killed_ranks(), vec![1]);
    let sizes = sizes_seen.lock();
    assert!(sizes.contains(&4) && sizes.contains(&3), "{sizes:?}");
}

#[test]
fn spare_failure_is_tolerated() {
    // The spare itself (global 3) dies; actives complete unaffected.
    let report = launch(4, FaultPlan::kill_at(3, "spare-death", 0), |ctx| {
        if ctx.rank() == 3 {
            // Simulate the spare crashing while parked: it dies before
            // even entering fenix::run.
            ctx.fault_point("spare-death", 0)?;
        }
        let cfg = FenixConfig {
            spares: 1,
            on_exhaustion: ExhaustPolicy::Abort,
        };
        fenix::run(ctx.world(), cfg, |_fx, comm, _role| {
            comm.barrier()?;
            Ok(())
        })
        .map(|_| ())
    });
    assert_eq!(report.killed_ranks(), vec![3]);
    for o in &report.outcomes {
        if o.rank != 3 {
            assert!(o.result.is_ok(), "rank {} failed: {:?}", o.rank, o.result);
        }
    }
}

#[test]
fn survivor_state_persists_across_repair() {
    // Survivors keep local (non-checkpointed) state across the repair —
    // the property partial rollback exploits. The progress loop performs no
    // collectives because ranks resume at different points (collective
    // counts would mismatch, which is an application error under MPI).
    let report = launch(4, FaultPlan::kill_at(2, "iter", 1), |ctx| {
        let cfg = FenixConfig {
            spares: 1,
            on_exhaustion: ExhaustPolicy::Abort,
        };
        let mut local_progress = 0u64;
        fenix::run(ctx.world(), cfg, |_fx, comm, role| {
            if role == Role::Survivor {
                assert!(
                    local_progress > 0,
                    "survivor must still see pre-failure progress"
                );
            }
            if role == Role::Recovered {
                assert_eq!(local_progress, 0, "recovered rank starts fresh");
            }
            while local_progress < 4 {
                ctx.fault_point("iter", local_progress)?;
                local_progress += 1;
            }
            // One collective everyone reaches with matched counts.
            comm.barrier()?;
            Ok(())
        })
        .map(|_| ())
    });
    assert_eq!(report.killed_ranks(), vec![2]);
    for o in &report.outcomes {
        if o.rank != 2 {
            assert!(o.result.is_ok(), "rank {}: {:?}", o.rank, o.result);
        }
    }
}

#[test]
fn recovery_callbacks_fire_with_repair_facts() {
    use fenix::RepairInfo;
    use parking_lot::Mutex as PMutex;

    // Paper §IV: after repairing the communicator, Fenix "runs any
    // application callbacks before returning control to the application".
    let seen: Arc<PMutex<Vec<(usize, RepairInfo)>>> = Arc::new(PMutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let report = launch(5, FaultPlan::kill_at(1, "iter", 2), move |ctx| {
        let cfg = FenixConfig {
            spares: 1,
            on_exhaustion: ExhaustPolicy::Abort,
        };
        let me = ctx.rank();
        let seen = Arc::clone(&seen2);
        let mut registered = false;
        fenix::run(ctx.world(), cfg, |fx, comm, _role| {
            if !registered {
                registered = true;
                let seen = Arc::clone(&seen);
                fx.register_callback(Box::new(move |info| {
                    seen.lock().push((me, info.clone()));
                }));
            }
            for i in 0..5u64 {
                ctx.fault_point("iter", i)?;
                comm.barrier()?;
            }
            Ok(())
        })
        .map(|_| ())
    });
    assert_eq!(report.killed_ranks(), vec![1]);
    let calls = seen.lock();
    // Survivors 0, 2, 3 registered before the failure and must each have
    // been called once. (The promoted spare registers after the repair.)
    let callers: Vec<usize> = calls.iter().map(|(r, _)| *r).collect();
    for r in [0usize, 2, 3] {
        assert!(
            callers.contains(&r),
            "rank {r} callback missing: {callers:?}"
        );
    }
    for (_, info) in calls.iter() {
        assert_eq!(info.repair_count, 1);
        assert_eq!(info.failed_global, vec![1]);
        assert_eq!(info.recovered_ranks, vec![1]);
        assert_eq!(info.resilient_size, 4);
        assert_eq!(info.spares_remaining, 0);
    }
}

#[test]
fn repair_leaves_no_retired_comm_traffic_in_live_mailboxes() {
    // Every active rank posts a message on the first resilient communicator
    // that nobody receives, then rank 1 dies. Each survivor purges its own
    // mailbox during the repair, so afterwards no live rank — survivor,
    // promoted spare or finalized one — holds an envelope of the retired
    // communicator.
    let seen = Arc::new(Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let report = launch(5, FaultPlan::kill_at(1, "iter", 1), move |ctx| {
        let cfg = FenixConfig {
            spares: 2,
            on_exhaustion: ExhaustPolicy::Abort,
        };
        fenix::run(ctx.world(), cfg, |_fx, comm, role| {
            if role == Role::Initial {
                *seen2.lock() = Some((Arc::clone(ctx.router()), comm.id()));
                comm.send((comm.rank() + 1) % comm.size(), 99, &[1u8])?;
                // Everyone's stray message is queued before anyone dies.
                comm.barrier()?;
            } else {
                let (router, retired) = seen2.lock().clone().expect("set on first entry");
                assert_eq!(router.queued_on(ctx.rank(), retired, 0), 0);
            }
            for i in 0..3u64 {
                ctx.fault_point("iter", i)?;
                comm.barrier()?;
            }
            Ok(())
        })
        .map(|_| ())
    });
    assert_eq!(report.killed_ranks(), vec![1]);
    let (router, retired) = seen.lock().clone().expect("body ran");
    for rank in [0, 2, 3, 4] {
        assert_eq!(router.queued_on(rank, retired, 0), 0, "rank {rank}");
    }
    // The victim's own mailbox is nobody's to purge: its stray is still
    // there, which is also what shows the purge had something to remove.
    assert!(router.queued_on(1, retired, 0) >= 1);
}
