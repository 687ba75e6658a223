//! ULFM failure semantics across launched universes: fault injection,
//! failure observability, revoke/agree/shrink recovery, and plain-MPI abort.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, TimeScale};
use simmpi::{
    Backend, FaultPlan, MpiError, MpiResult, RankCtx, ReduceOp, Universe, UniverseConfig,
};

fn cluster(n: usize) -> Cluster {
    let cfg = ClusterConfig {
        nodes: n,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}

fn run_with_faults<F>(n: usize, plan: FaultPlan, cfg: UniverseConfig, f: F) -> simmpi::LaunchReport
where
    F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
{
    Universe::launch(&cluster(n), cfg, Arc::new(plan), f)
}

#[test]
fn injected_fault_kills_only_victim() {
    let report = run_with_faults(
        3,
        FaultPlan::kill_at(1, "step", 2),
        UniverseConfig::default(),
        |ctx| {
            for i in 0..5 {
                ctx.fault_point("step", i)?;
            }
            Ok(())
        },
    );
    assert_eq!(report.killed_ranks(), vec![1]);
    assert!(report.outcomes[0].result.is_ok());
    assert!(report.outcomes[2].result.is_ok());
}

/// A lock held into a blocking receive is a bug, not a crash: the launch
/// fails with the witness's message instead of recovering the rank, and
/// its peer still finishes.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "blocks on a peer while this thread holds")]
fn lock_order_violation_fails_the_launch() {
    let lock = parking_lot::Mutex::new(());
    run_with_faults(2, FaultPlan::none(), UniverseConfig::default(), |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let _held = lock.lock();
            w.recv_vec::<u8>(Some(1), 1)?;
        }
        Ok(())
    });
}

const ENGINES: [Backend; 2] = [Backend::Threads, Backend::Des { seed: 5 }];

/// The message of the panic a launch of `n` ranks re-raised.
fn launch_panic<F>(n: usize, backend: Backend, f: F) -> String
where
    F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
{
    let config = UniverseConfig {
        backend,
        ..UniverseConfig::default()
    };
    let launch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_with_faults(n, FaultPlan::none(), config, f)
    }));
    let payload = launch.expect_err("the launch re-raises the witness's panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default()
}

/// Only the root enters a barrier, then every rank broadcasts: the
/// collective-sequence witness sees a barrier and a bcast as the same
/// collective and fails the launch, naming both call sites and both ranks,
/// on either engine.
#[test]
#[cfg(debug_assertions)]
fn root_only_barrier_fails_the_launch() {
    let barrier_at = line!() + 6;
    let bcast_at = line!() + 8;
    for backend in ENGINES {
        let msg = launch_panic(2, backend, |ctx| {
            let w = ctx.world();
            if w.rank() == 0 {
                w.barrier()?;
            }
            let mut v = [7u64];
            w.bcast(0, &mut v)?;
            Ok(())
        });
        assert!(msg.starts_with("collective witness:"), "{backend:?}: {msg}");
        for site in [
            format!("rank 0 entered barrier at {}:{barrier_at}:", file!()),
            format!("rank 1 entered bcast at {}:{bcast_at}:", file!()),
        ] {
            assert!(msg.contains(&site), "{backend:?}: {msg}");
        }
    }
}

#[derive(Clone, Copy)]
enum Role {
    Leader,
    Member,
}

/// After an agreement only the leader gathers: nothing mismatches, the
/// members finish and the leader waits for them for ever. Under DES the
/// drained event heap lists the leader's pending gather and its site, and
/// with no rank dead the listing fails the launch.
#[test]
#[cfg(debug_assertions)]
fn lopsided_commit_fails_the_des_launch_with_the_pending_site() {
    let allgather_at = line!() + 11;
    let msg = launch_panic(3, ENGINES[1], |ctx| {
        let w = ctx.world();
        let role = if w.rank() == 0 {
            Role::Leader
        } else {
            Role::Member
        };
        match role {
            Role::Leader => {
                w.agree(1, 0)?;
                w.allgather(&[1u64])?;
            }
            Role::Member => {
                w.agree(1, 0)?;
            }
        }
        Ok(())
    });
    assert!(msg.starts_with("collective witness: deadlock"), "{msg}");
    assert!(
        msg.contains(&format!(
            "rank 0 waits in gather at {}:{allgather_at}:",
            file!()
        )),
        "{msg}"
    );
}

/// The clean twin: the root's arm and the others' issue the same kinds
/// from different sites, so the witness stays silent.
#[test]
fn same_kinds_from_different_sites_pass() {
    for backend in ENGINES {
        let config = UniverseConfig {
            backend,
            ..UniverseConfig::default()
        };
        let report = run_with_faults(3, FaultPlan::none(), config, |ctx| {
            let w = ctx.world();
            let mut v = [0u64];
            if w.rank() == 0 {
                v[0] = 7;
                w.bcast(0, &mut v)?;
                w.agree(1, 1)?;
            } else {
                w.bcast(0, &mut v)?;
                w.agree(1, 1)?;
            }
            assert_eq!(v, [7]);
            Ok(())
        });
        assert!(report.all_ok(), "{:?}", report.outcomes);
    }
}

/// A rank that blocks inside a no-blocking scope fails the launch the
/// same way, naming where the scope was entered; its peer, waiting for it
/// in the barrier, sees it fail instead of hanging.
#[test]
#[cfg(debug_assertions)]
fn blocking_in_a_no_blocking_scope_fails_the_launch() {
    let peer_failed = std::sync::atomic::AtomicBool::new(false);
    let msg = launch_panic(2, Backend::Threads, |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let _scope = parking_lot::no_blocking();
            w.barrier()?;
        } else {
            peer_failed.store(w.barrier().is_err(), Ordering::Relaxed);
        }
        Ok(())
    });
    assert!(
        msg.contains("inside the no-blocking scope entered at crates/simmpi/tests/failures.rs"),
        "{msg}"
    );
    assert!(
        peer_failed.load(Ordering::Relaxed),
        "the peer's barrier failed"
    );
}

#[test]
fn neighbor_observes_proc_failed() {
    // Rank 1 dies; rank 0 tries to receive from it and gets ProcFailed.
    let report = run_with_faults(
        2,
        FaultPlan::kill_at(1, "pre-send", 0),
        UniverseConfig::default(),
        |ctx| {
            let w = ctx.world();
            if ctx.rank() == 1 {
                ctx.fault_point("pre-send", 0)?;
                w.send(0, 1, &[1u8])?;
            } else {
                let mut b = [0u8];
                let e = w.recv_into(Some(1), 1, &mut b).unwrap_err();
                assert_eq!(e, MpiError::proc_failed(1));
            }
            Ok(())
        },
    );
    assert_eq!(report.killed_ranks(), vec![1]);
    assert!(report.outcomes[0].result.is_ok());
}

#[test]
fn revoke_unblocks_third_party() {
    // Rank 2 dies. Rank 1 would block forever receiving from rank 0 (which
    // is itself stuck on rank 2) — until rank 0 observes the failure and
    // revokes. This is the exact deadlock ULFM's revoke exists to solve.
    let report = run_with_faults(
        3,
        FaultPlan::kill_at(2, "boom", 0),
        UniverseConfig::default(),
        |ctx| {
            let w = ctx.world();
            match ctx.rank() {
                0 => {
                    let mut b = [0u8];
                    let e = w.recv_into(Some(2), 9, &mut b).unwrap_err();
                    assert_eq!(e, MpiError::proc_failed(2));
                    w.revoke();
                    Ok(())
                }
                1 => {
                    let mut b = [0u8];
                    let e = w.recv_into(Some(0), 9, &mut b).unwrap_err();
                    assert_eq!(e, MpiError::Revoked);
                    Ok(())
                }
                _ => Err(ctx.die()),
            }
        },
    );
    assert_eq!(report.killed_ranks(), vec![2]);
}

#[test]
fn agree_converges_despite_failure() {
    let report = run_with_faults(
        4,
        FaultPlan::kill_at(3, "boom", 0),
        UniverseConfig::default(),
        |ctx| {
            let w = ctx.world();
            if ctx.rank() == 3 {
                return Err(ctx.die());
            }
            let out = w.agree(0, 0b1110 | (1 << ctx.rank()))?;
            // AND over live ranks 0..2.
            assert_eq!(out.flags, 0b1110);
            assert_eq!(out.failed, vec![3]);
            Ok(())
        },
    );
    assert_eq!(report.killed_ranks(), vec![3]);
}

#[test]
fn shrink_builds_working_survivor_comm() {
    let survivors_sum = Arc::new(AtomicUsize::new(0));
    let ss = Arc::clone(&survivors_sum);
    let report = run_with_faults(
        4,
        FaultPlan::kill_at(1, "boom", 0),
        UniverseConfig::default(),
        move |ctx| {
            let w = ctx.world();
            if ctx.rank() == 1 {
                return Err(ctx.die());
            }
            let shrunk = w.shrink(0)?;
            assert_eq!(shrunk.size(), 3);
            // Survivor order preserved: globals [0, 2, 3].
            assert_eq!(*shrunk.group().as_slice(), [0, 2, 3]);
            // The shrunk communicator must be fully operational.
            let total = shrunk.allreduce_scalar(shrunk.rank() as u64, ReduceOp::Sum)?;
            assert_eq!(total, 3); // 0+1+2
            ss.fetch_add(1, Ordering::Relaxed);
            Ok(())
        },
    );
    assert_eq!(report.killed_ranks(), vec![1]);
    assert_eq!(survivors_sum.load(Ordering::Relaxed), 3);
}

#[test]
fn abort_on_failure_tears_down_job() {
    // Plain-MPI semantics: rank 1 dies, rank 0 is blocked in a receive from
    // rank 2 (which never sends); the abort must unblock everyone.
    let cfg = UniverseConfig {
        abort_on_failure: true,
        charge_startup: false,
        ..UniverseConfig::default()
    };
    let report = run_with_faults(3, FaultPlan::kill_at(1, "boom", 0), cfg, |ctx| {
        let w = ctx.world();
        match ctx.rank() {
            1 => ctx.fault_point("boom", 0).map(|_| ()),
            0 => {
                let mut b = [0u8];
                let e = w.recv_into(Some(2), 5, &mut b).unwrap_err();
                assert_eq!(e, MpiError::Aborted);
                Err(e)
            }
            _ => {
                let mut b = [0u8];
                // Rank 2 blocks on rank 0 and is also unblocked by abort.
                let e = w.recv_into(Some(0), 6, &mut b).unwrap_err();
                assert_eq!(e, MpiError::Aborted);
                Err(e)
            }
        }
    });
    assert!(report.aborted);
    assert_eq!(report.killed_ranks(), vec![1]);
}

#[test]
fn collective_reports_failure_not_hang() {
    // A failure before a reduction: participants that depend on the dead
    // rank's subtree observe ProcFailed (possibly after revoke).
    let report = run_with_faults(
        4,
        FaultPlan::kill_at(2, "boom", 0),
        UniverseConfig::default(),
        |ctx| {
            let w = ctx.world();
            if ctx.rank() == 2 {
                return Err(ctx.die());
            }
            match w.allreduce_scalar(1u64, ReduceOp::Sum) {
                Ok(_) => Ok(()), // completed before observing the failure
                Err(e) if e.is_recoverable() => {
                    w.revoke(); // propagate, like a Fenix error handler
                    Ok(())
                }
                Err(e) => Err(e),
            }
        },
    );
    assert_eq!(report.killed_ranks(), vec![2]);
    for o in &report.outcomes {
        if o.rank != 2 {
            assert!(
                o.result.is_ok(),
                "rank {} hung or failed: {:?}",
                o.rank,
                o.result
            );
        }
    }
}

#[test]
fn panic_in_rank_is_contained() {
    let report = run_with_faults(2, FaultPlan::none(), UniverseConfig::default(), |ctx| {
        if ctx.rank() == 1 {
            panic!("application bug");
        }
        // Rank 0 tries to talk to the panicked rank; must not hang.
        let w = ctx.world();
        let mut b = [0u8];
        let e = w.recv_into(Some(1), 3, &mut b).unwrap_err();
        assert_eq!(e, MpiError::proc_failed(1));
        Ok(())
    });
    assert_eq!(report.killed_ranks(), vec![1]);
    assert!(report.outcomes[0].result.is_ok());
}

#[test]
fn fault_plan_does_not_refire_on_relaunch() {
    let plan = Arc::new(FaultPlan::kill_at(0, "iter", 1));
    let c = cluster(2);
    let app = |ctx: &mut RankCtx| -> MpiResult<()> {
        for i in 0..3 {
            ctx.fault_point("iter", i)?;
        }
        Ok(())
    };
    let first = Universe::launch(&c, UniverseConfig::default(), Arc::clone(&plan), app);
    assert_eq!(first.killed_ranks(), vec![0]);
    // Relaunch (same plan, like a restarted job): no kill this time.
    let second = Universe::launch(&c, UniverseConfig::default(), Arc::clone(&plan), app);
    assert!(second.all_ok());
}

#[test]
fn schedule_kill_fires_at_most_once_across_many_relaunches() {
    // Regression for the chaos campaign's relaunch loop: a Kill is consumed
    // by its first firing and stays consumed across *every* later launch of
    // the same schedule — if it re-fired, any run with a finite relaunch
    // budget would be killed at the same site forever and could never
    // complete.
    let plan = Arc::new(FaultPlan::kill_at(0, "iter", 1));
    let c = cluster(2);
    let app = |ctx: &mut RankCtx| -> MpiResult<()> {
        for i in 0..3 {
            ctx.fault_point("iter", i)?;
        }
        Ok(())
    };
    let first = Universe::launch(&c, UniverseConfig::default(), Arc::clone(&plan), app);
    assert_eq!(first.killed_ranks(), vec![0]);
    assert_eq!(plan.fired_count(), 1);
    for relaunch in 0..3 {
        let again = Universe::launch(&c, UniverseConfig::default(), Arc::clone(&plan), app);
        assert!(again.all_ok(), "kill re-fired on relaunch {relaunch}");
        assert_eq!(plan.fired_count(), 1);
    }
}

#[test]
fn duplicate_kills_at_same_site_fire_on_successive_launches() {
    // Two schedule entries at the identical (rank, site, count) triple are
    // two distinct faults: the first launch consumes one, the relaunch
    // consumes the other, and only the third launch runs clean. This is how
    // a chaos schedule expresses "kill the recovered job at the same place
    // again".
    let plan = Arc::new(FaultPlan::kill_at(0, "iter", 1).and_kill(0, "iter", 1));
    let c = cluster(2);
    let app = |ctx: &mut RankCtx| -> MpiResult<()> {
        for i in 0..3 {
            ctx.fault_point("iter", i)?;
        }
        Ok(())
    };
    let first = Universe::launch(&c, UniverseConfig::default(), Arc::clone(&plan), app);
    assert_eq!(first.killed_ranks(), vec![0]);
    assert_eq!(plan.fired_count(), 1);
    let second = Universe::launch(&c, UniverseConfig::default(), Arc::clone(&plan), app);
    assert_eq!(
        second.killed_ranks(),
        vec![0],
        "duplicate kill must also fire"
    );
    assert_eq!(plan.fired_count(), 2);
    let third = Universe::launch(&c, UniverseConfig::default(), Arc::clone(&plan), app);
    assert!(third.all_ok());
}

#[test]
fn multiple_failures_shrink_twice() {
    // Two failures at different times; survivors shrink, lose another rank,
    // and shrink again.
    let report = run_with_faults(
        5,
        FaultPlan::kill_at(1, "first", 0).and_kill(3, "second", 0),
        UniverseConfig::default(),
        |ctx| {
            let w = ctx.world();
            if ctx.rank() == 1 {
                return Err(ctx.die());
            }
            let s1 = w.shrink(0)?;
            assert_eq!(s1.size(), 4);
            if ctx.rank() == 3 {
                return Err(ctx.die());
            }
            let s2 = s1.shrink(1)?;
            assert_eq!(s2.size(), 3);
            assert_eq!(*s2.group().as_slice(), [0, 2, 4]);
            let sum = s2.allreduce_scalar(1u64, ReduceOp::Sum)?;
            assert_eq!(sum, 3);
            Ok(())
        },
    );
    let mut killed = report.killed_ranks();
    killed.sort_unstable();
    assert_eq!(killed, vec![1, 3]);
}

/// Three ranks on the DES backend, where one rank runs at a time and gives
/// the baton up only at a wait: whatever rank 2 does between publishing an
/// agreement and its next wait lands *between* the publication and the
/// other ranks' pick-ups, on every run. Returns the router for inspection.
fn des_launch<F>(f: F) -> (simmpi::LaunchReport, Arc<simmpi::router::Router>)
where
    F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
{
    let cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        ranks_per_node: 1,
        virtual_time: true,
        ..ClusterConfig::default()
    });
    let router = parking_lot::Mutex::new(None);
    let report = Universe::launch(
        &cluster,
        UniverseConfig {
            backend: simmpi::Backend::Des { seed: 3 },
            ..UniverseConfig::default()
        },
        Arc::new(FaultPlan::none()),
        |ctx| {
            router
                .lock()
                .get_or_insert_with(|| Arc::clone(ctx.router()));
            if ctx.rank() == 2 {
                // Arrive last: ranks 0 and 1 are parked in the agreement.
                ctx.cluster()
                    .time_scale()
                    .sleep(std::time::Duration::from_millis(1));
            }
            f(ctx)
        },
    );
    let router = router.lock().take().expect("a rank ran");
    (report, router)
}

#[test]
fn agree_delivers_a_published_result_on_a_revoked_communicator() {
    let (report, router) = des_launch(|ctx| {
        let w = ctx.world();
        let out = w.agree(0, 0b11)?;
        if ctx.rank() == 2 {
            // Published by this call; nobody else has picked it up yet.
            w.revoke();
        }
        assert_eq!(out.flags, 0b11);
        assert!(w.is_revoked() || ctx.rank() == 2);
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
    assert_eq!(router.agreements_in_flight(), 0);
}

#[test]
fn agree_not_yet_published_fails_with_revoked() {
    let (report, _router) = des_launch(|ctx| {
        let w = ctx.world();
        if ctx.rank() == 2 {
            // Abandons the agreement for recovery instead of joining it.
            w.revoke();
            return Ok(());
        }
        assert_eq!(w.agree(0, 0b11), Err(MpiError::Revoked));
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
}

#[test]
fn agreement_is_retired_when_a_member_dies_after_publication() {
    let (report, router) = des_launch(|ctx| {
        let w = ctx.world();
        let out = w.agree(0, 0b11)?;
        if ctx.rank() == 2 {
            // Rank 1 contributed and is owed a pick-up it may never make.
            ctx.router().kill(1);
        }
        assert_eq!(out.flags, 0b11);
        Ok(())
    });
    for o in &report.outcomes {
        assert!(o.result.is_ok(), "rank {}: {:?}", o.rank, o.result);
    }
    assert_eq!(router.agreements_in_flight(), 0);
}
