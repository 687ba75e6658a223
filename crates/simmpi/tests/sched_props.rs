//! Determinism battery for the DES backend (ISSUE 9 satellite): for any
//! workload shape, ring size, and (optional) injected failure, launching
//! the same schedule twice with the same seed must produce **byte-identical**
//! telemetry timelines and identical per-rank digests — the schedule is a
//! pure function of the seed. A no-fault run's result must additionally be
//! independent of the seed: scheduling order may change, the answer may not.
//!
//! Below the battery, directed launches on a three-rank universe hold the
//! dispatcher's ready filter to the receive's own predicate: a parked
//! receive is handed the baton exactly when it would do something with it.

use std::collections::BTreeMap;
use std::sync::Arc;

use cluster::{Cluster, ClusterConfig};
use parking_lot::Mutex;
use proptest::prelude::*;
use simmpi::{
    Backend, FaultPlan, MpiError, MpiResult, RankCtx, ReduceOp, Universe, UniverseConfig,
};
use telemetry::export::to_jsonl;
use telemetry::{names, Telemetry, TelemetryConfig, TimeSource};

fn virtual_cluster(n: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes: n,
        ranks_per_node: 1,
        virtual_time: true,
        ..ClusterConfig::default()
    })
}

/// Outcome of one DES launch: the exported timeline, per-rank digests of
/// everything each rank received, and the per-rank ok/err pattern.
struct RunTrace {
    timeline: String,
    digests: BTreeMap<usize, u64>,
    oks: Vec<bool>,
    killed: Vec<usize>,
    dispatches: Dispatches,
}

/// What the dispatcher did with the events it popped for live tasks. The
/// three add up to the pushes, which the ready filter leaves as they were.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Dispatches {
    handoffs: u64,
    self_dispatches: u64,
    unready_skipped: u64,
}

impl Dispatches {
    fn of(tel: &Telemetry) -> Self {
        let get = |name| tel.metrics().counter(name).get();
        Dispatches {
            handoffs: get(names::SCHED_HANDOFFS),
            self_dispatches: get(names::SCHED_SELF_DISPATCHES),
            unready_skipped: get(names::SCHED_UNREADY_SKIPPED),
        }
    }
}

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// Ring workload: each iteration every rank sends its running digest to
/// `(r+1) % n`, receives from the left neighbor, folds it in, and joins an
/// allreduce. Recoverable errors (a neighbor died, the job aborted) end the
/// rank early — under DES a wait that can never complete is converted into
/// a typed abort by the scheduler's deadlock detector, so this terminates.
fn run_once(n: usize, iters: u64, seed: u64, kill: Option<(usize, u64)>) -> RunTrace {
    let cluster = virtual_cluster(n);
    let clock = Arc::clone(cluster.clock());
    let tel = Telemetry::with_time_source(
        TelemetryConfig {
            record_mpi_calls: true,
            ..TelemetryConfig::default()
        },
        TimeSource::External(Arc::new(move || clock.now_ns())),
    );
    let plan = match kill {
        Some((victim, at)) => FaultPlan::kill_at(victim, "iter", at),
        None => FaultPlan::none(),
    };
    let digests: Arc<Mutex<BTreeMap<usize, u64>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let sink = Arc::clone(&digests);
    let report = Universe::launch(
        &cluster,
        UniverseConfig {
            telemetry: Some(tel.clone()),
            backend: Backend::Des { seed },
            ..UniverseConfig::default()
        },
        Arc::new(plan),
        move |ctx: &mut RankCtx| -> MpiResult<()> {
            let w = ctx.world();
            let n = w.size();
            let me = ctx.rank();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for i in 0..iters {
                ctx.fault_point("iter", i)?;
                let res = (|| -> MpiResult<u64> {
                    w.send((me + 1) % n, i, &h.to_le_bytes())?;
                    let mut b = [0u8; 8];
                    w.recv_into(Some((me + n - 1) % n), i, &mut b)?;
                    h = fnv(h, u64::from_le_bytes(b));
                    w.allreduce_scalar(h, ReduceOp::Max)
                })();
                match res {
                    Ok(sum) => h = fnv(h, sum),
                    // A dead neighbor or a job abort is a legitimate end of
                    // this rank's run; anything else is a real failure.
                    Err(e) if e.is_recoverable() || e == simmpi::MpiError::Aborted => break,
                    Err(e) => return Err(e),
                }
            }
            sink.lock().insert(me, h);
            Ok(())
        },
    );
    let final_digests = digests.lock().clone();
    RunTrace {
        timeline: to_jsonl(&tel.snapshot()),
        digests: final_digests,
        oks: report.outcomes.iter().map(|o| o.result.is_ok()).collect(),
        killed: report.killed_ranks(),
        dispatches: Dispatches::of(&tel),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed ⇒ bitwise-identical telemetry timeline, identical final
    /// digests, identical outcome pattern — with or without a failure.
    #[test]
    fn same_seed_same_schedule(
        n in 2usize..6,
        iters in 1u64..5,
        seed in any::<u64>(),
        fault in (any::<bool>(), 0usize..8, 0u64..8),
    ) {
        let (with_fault, fr, fat) = fault;
        let kill = with_fault.then(|| (fr % n, fat % iters));
        let a = run_once(n, iters, seed, kill);
        let b = run_once(n, iters, seed, kill);
        prop_assert_eq!(&a.timeline, &b.timeline, "timelines diverged for seed {}", seed);
        prop_assert_eq!(&a.digests, &b.digests);
        prop_assert_eq!(&a.oks, &b.oks);
        prop_assert_eq!(&a.killed, &b.killed);
        prop_assert_eq!(a.dispatches, b.dispatches);
        prop_assert!(!a.timeline.is_empty(), "timeline must carry events");
    }

    /// Without faults the *answer* is schedule-independent: two different
    /// seeds may order the ranks differently but must agree on every
    /// rank's final digest.
    #[test]
    fn result_is_seed_independent_without_faults(
        n in 2usize..6,
        iters in 1u64..5,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let a = run_once(n, iters, seed_a, None);
        let b = run_once(n, iters, seed_b, None);
        prop_assert_eq!(&a.digests, &b.digests);
        prop_assert!(a.oks.iter().all(|&ok| ok));
        prop_assert!(b.oks.iter().all(|&ok| ok));
    }
}

// ---- the ready filter, directed ---------------------------------------------

/// One DES launch of `body` on `n` ranks of a single node — a send between
/// them costs no modeled time, so the only yields are the ones `body`
/// writes: a parked receive and [`pause`].
fn directed<F>(n: usize, body: F) -> (simmpi::LaunchReport, Dispatches)
where
    F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
{
    let cluster = Cluster::new(ClusterConfig {
        nodes: 1,
        ranks_per_node: n,
        virtual_time: true,
        ..ClusterConfig::default()
    });
    let tel = Telemetry::new(TelemetryConfig {
        ring_capacity: 1 << 6,
        ..TelemetryConfig::default()
    });
    let report = Universe::launch(
        &cluster,
        UniverseConfig {
            telemetry: Some(tel.clone()),
            backend: Backend::Des { seed: 7 },
            ..UniverseConfig::default()
        },
        Arc::new(FaultPlan::none()),
        body,
    );
    (report, Dispatches::of(&tel))
}

/// Let `ms` of virtual time pass: every rank that pauses longer runs later.
fn pause(ctx: &RankCtx, ms: u64) {
    ctx.cluster()
        .time_scale()
        .sleep(std::time::Duration::from_millis(ms));
}

fn results(report: &simmpi::LaunchReport) -> Vec<MpiResult<()>> {
    report.outcomes.iter().map(|o| o.result.clone()).collect()
}

/// Rank 0 parks in `recv(src = 1, tag = 7)` at t = 0. With `noise`, rank 2
/// sends it tag 7 and rank 1 sends it tag 8 before the matching send.
fn parked_recv(noise: bool) -> Dispatches {
    let (report, d) = directed(3, move |ctx| {
        let w = ctx.world();
        match ctx.rank() {
            0 => {
                let mut b = [0u8];
                w.recv_into(Some(1), 7, &mut b)?;
                assert_eq!(b, [17], "the matching message, not a neighbour's");
            }
            1 => {
                pause(ctx, 2);
                if noise {
                    w.send(0, 8, &[18u8])?;
                }
                pause(ctx, 1);
                w.send(0, 7, &[17u8])?;
            }
            _ => {
                pause(ctx, 1);
                if noise {
                    w.send(0, 7, &[27u8])?;
                }
            }
        }
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", results(&report));
    d
}

#[test]
fn parked_recv_is_dispatched_by_the_matching_send_only() {
    let (quiet, noisy) = (parked_recv(false), parked_recv(true));
    assert_eq!(quiet.unready_skipped, 0);
    // Another source, another tag: two wakes, two events popped, no baton.
    assert_eq!(noisy.unready_skipped, 2);
    assert_eq!(
        noisy.handoffs, quiet.handoffs,
        "a wake that matched nothing cost a hand-off"
    );
    assert_eq!(noisy.self_dispatches, quiet.self_dispatches);
}

/// What rank 1 does to a universe where rank 0 is parked in
/// `recv(src = 1, tag = 7)` and rank 2 in `recv(src = 0, tag = 99)`.
#[derive(Clone, Copy, Debug)]
enum Cause {
    SourceDies,
    Revoke,
    Abort,
    KillsReceiver,
}

#[test]
fn parked_recv_is_dispatched_by_every_failure_transition_it_reports() {
    let failed = |r| Err(MpiError::proc_failed(r));
    // (cause, rank 0's result, rank 2's result, wakes that found rank 2's
    // predicate unchanged)
    let table = [
        // Rank 2 waits for rank 0, which lives: the kill's fan-out wakes it
        // for nothing, and rank 0 releases it afterwards.
        (Cause::SourceDies, failed(1), Ok(()), 1),
        (
            Cause::Revoke,
            Err(MpiError::Revoked),
            Err(MpiError::Revoked),
            0,
        ),
        (
            Cause::Abort,
            Err(MpiError::Aborted),
            Err(MpiError::Aborted),
            0,
        ),
        (Cause::KillsReceiver, Err(MpiError::Killed), failed(0), 0),
    ];
    for (cause, rank0, rank2, unready) in table {
        let (report, d) = directed(3, move |ctx| {
            let w = ctx.world();
            let mut b = [0u8];
            match ctx.rank() {
                0 => {
                    let got = w.recv_into(Some(1), 7, &mut b).map(drop);
                    if matches!(cause, Cause::SourceDies) {
                        w.send(2, 99, &[0u8])?;
                    }
                    got
                }
                1 => {
                    pause(ctx, 1);
                    match cause {
                        Cause::SourceDies => return Err(ctx.die()),
                        Cause::Revoke => w.revoke(),
                        Cause::Abort => ctx.router().abort(),
                        Cause::KillsReceiver => ctx.router().kill(0),
                    }
                    Ok(())
                }
                _ => w.recv_into(Some(0), 99, &mut b).map(drop),
            }
        });
        let got = results(&report);
        assert_eq!(got[0], rank0, "{cause:?}: the parked receive's verdict");
        assert_eq!(got[2], rank2, "{cause:?}: the bystander's verdict");
        assert_eq!(d.unready_skipped, unready, "{cause:?}");
    }
}

#[test]
fn any_source_recv_is_dispatched_by_a_matching_tag_from_anyone() {
    let (report, d) = directed(3, |ctx| {
        let w = ctx.world();
        match ctx.rank() {
            0 => {
                let (payload, src) = w.recv_bytes(None, 7)?;
                assert_eq!((&payload[..], src), (&[17u8][..], 1));
            }
            1 => {
                pause(ctx, 2);
                w.send(0, 7, &[17u8])?;
            }
            _ => {
                pause(ctx, 1);
                w.send(0, 8, &[28u8])?;
            }
        }
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", results(&report));
    assert_eq!(d.unready_skipped, 1, "tag 8 matched nothing");
}

#[test]
fn any_source_recv_is_dispatched_by_the_death_of_its_last_live_peer() {
    let (report, d) = directed(3, |ctx| match ctx.rank() {
        0 => ctx.world().recv_bytes(None, 7).map(|_| ()),
        r => {
            pause(ctx, r as u64);
            Err(ctx.die())
        }
    });
    assert_eq!(
        results(&report)[0],
        Err(MpiError::ProcFailed { ranks: vec![1, 2] })
    );
    assert_eq!(
        d.unready_skipped, 1,
        "rank 1's death left rank 2 to wait for"
    );
}

/// A send to oneself leaves a pending wake, which the next blocking yield
/// turns into an event of the rank's own. If that yield is a receive for
/// something else the event is dropped like any other unready one, and the
/// matching send still brings the baton back.
#[test]
fn pending_wake_of_a_self_send_neither_runs_nor_strands_the_next_recv() {
    let (report, d) = directed(2, |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            w.send(0, 9, &[9u8])?;
            let mut b = [0u8];
            w.recv_into(Some(1), 7, &mut b)?;
            w.recv_into(Some(0), 9, &mut b)?;
            assert_eq!(b, [9]);
        } else {
            pause(ctx, 1);
            w.send(0, 7, &[7u8])?;
        }
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", results(&report));
    assert!(!report.aborted);
    assert_eq!(d.unready_skipped, 1);
}

/// The heap drains over a rank the filter skipped: the deadlock hook's
/// abort is a predicate change like any other, so the rank runs and
/// reports it.
#[test]
fn recv_nobody_satisfies_ends_in_a_typed_abort() {
    let (report, d) = directed(2, |ctx| {
        let w = ctx.world();
        if ctx.rank() == 0 {
            let mut b = [0u8];
            w.recv_into(Some(1), 7, &mut b).map(drop)
        } else {
            pause(ctx, 1);
            w.send(0, 8, &[8u8])
        }
    });
    assert_eq!(results(&report), [Err(MpiError::Aborted), Ok(())]);
    assert!(report.aborted);
    assert_eq!(d.unready_skipped, 1);
}
