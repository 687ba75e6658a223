//! Directed chaos scenarios: failure shapes the campaign generator can
//! produce, pinned down as named regression tests with stronger assertions
//! than the oracle alone (specific typed errors, specific telemetry
//! evidence, specific detection behavior).

#[cfg(not(feature = "chaos-mutants"))]
use std::sync::atomic::{AtomicBool, Ordering};
#[cfg(not(feature = "chaos-mutants"))]
use std::sync::Arc;

use chaos::{ChaosSchedule, Oracle, RunOutcome};
#[cfg(not(feature = "chaos-mutants"))]
use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};
#[cfg(not(feature = "chaos-mutants"))]
use fenix::{ExhaustPolicy, FenixConfig, Role};
#[cfg(not(feature = "chaos-mutants"))]
use redstore::{RedStore, RedundancyGroup, RedundancyMode};
use resilience::ExperimentError;
#[cfg(not(feature = "chaos-mutants"))]
use simmpi::{
    CorruptKind, CorruptTier, FaultSchedule, MpiError, ReduceOp, Universe, UniverseConfig,
};
#[cfg(not(feature = "chaos-mutants"))]
use veloc::{serial, Protected, VecRegion};

/// Exhausting the spare pool must end in the driver's typed error — with a
/// failure timeline that shows both kills and the one repair that *did*
/// succeed — never in a hang or a panic (ISSUE 4 satellite: the paper's §VI
/// only ever spends one spare; the campaign spends them all).
#[test]
fn spare_exhaustion_yields_typed_error_and_coherent_timeline() {
    let oracle = Oracle::new();
    // One spare, two kills at different fault points: the first repair
    // consumes the pool, the second failure finds it empty.
    let sched = ChaosSchedule::parse(
        "strategy=FenixVeloc spares=1 kill(rank=1,site=iter,at=3) kill(rank=2,site=iter,at=6)",
    )
    .expect("spec parses");
    let report = oracle.run(&sched);
    match &report.verdict {
        Ok(RunOutcome::TypedError(ExperimentError::RankFailed { .. })) => {}
        other => panic!("expected the driver's RankFailed error, got {other:?}"),
    }
    // The oracle already enforced causal order; assert the evidence is
    // complete: both injected kills were recorded, and the first failure's
    // repair ran to completion before the pool emptied.
    let snap = &report.snapshot;
    let kills = snap
        .events
        .iter()
        .filter(|e| e.event.kind() == "rank_killed")
        .count();
    assert!(
        kills >= 2,
        "expected both kills in the timeline, saw {kills}"
    );
    let repairs_done = snap
        .events
        .iter()
        .filter(|e| e.event.kind() == "repair_end")
        .count();
    assert!(
        repairs_done >= 1,
        "the first failure's repair should have completed"
    );
}

/// Buddy (k=2 replica) recovery with a corrupted partner store: the holder's
/// copy of the dead rank's data is tampered with before the failure, so the
/// replacement receives a blob whose CRC frame no longer matches. Detection
/// must be positive (unpack returns `None`, not garbage state), and the job
/// must end in a *consistent* typed abort on every active rank — no hang,
/// no panic (ISSUE 4 satellite).
///
/// Gated out of `chaos-mutants` builds: the mutant disables exactly the
/// CRC rejection this test asserts.
#[cfg(not(feature = "chaos-mutants"))]
#[test]
fn imr_recovery_detects_corrupted_partner_store_and_aborts_cleanly() {
    let c = Cluster::new(ClusterConfig {
        nodes: 5, // 4 active + 1 spare
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        relaunch: RelaunchModel::free(),
        ..ClusterConfig::default()
    });
    let plan = Arc::new(FaultSchedule::kill_at(0, "after-store", 0));
    let corruption_detected = Arc::new(AtomicBool::new(false));
    let detected = Arc::clone(&corruption_detected);
    let buddy_tampered = Arc::new(AtomicBool::new(false));
    let tampered = Arc::clone(&buddy_tampered);

    let report = Universe::launch(&c, UniverseConfig::default(), plan, move |ctx| {
        let store = RedStore::new();
        let detected = Arc::clone(&detected);
        let tampered = Arc::clone(&tampered);
        fenix::run(
            ctx.world(),
            FenixConfig {
                spares: 1,
                on_exhaustion: ExhaustPolicy::Abort,
            },
            |fx, comm, role| {
                // Two replicas on 4 ranks: rank 0's buddy holds its data.
                let mode = Some(RedundancyMode::Replicate { k: 2 });
                let group = RedundancyGroup::new(Arc::clone(&store), comm, mode);
                if role == Role::Initial {
                    let region: Arc<dyn Protected> =
                        Arc::new(VecRegion::new(vec![comm.rank() as u8; 32]));
                    let payload = serial::pack(None, &[(0, region)], &[]);
                    group.store(0, 1, payload).map_err(|_| MpiError::Aborted)?;
                    // Whoever holds rank 0's copy rots it; nobody else does.
                    if store.tamper_held(0, 0) {
                        tampered.store(true, Ordering::SeqCst);
                    }
                    // Rank 0 dies here; survivors detect it at the finalize
                    // rendezvous and repair.
                    ctx.fault_point("after-store", 0)?;
                    return Ok(());
                }
                // Post-repair: collective restore. The replacement's blob
                // comes from the tampered holder.
                let (version, blob) = group
                    .restore(0, &fx.recovered_ranks())
                    .map_err(|_| MpiError::Aborted)?;
                assert_eq!(version, 1);
                let intact = serial::unpack(&blob).is_some();
                if fx.recovered_ranks().contains(&comm.rank()) {
                    assert!(!intact, "CRC frame must reject the tampered blob");
                    detected.store(true, Ordering::SeqCst);
                }
                // Agree on restore validity so every rank takes the same
                // exit — the typed-abort pattern the runner uses.
                let all_ok = comm.allreduce_scalar(intact as i64, ReduceOp::Min)?;
                if all_ok == 0 {
                    return Err(MpiError::Aborted);
                }
                Ok(())
            },
        )
        .map(|_| ())
    });

    assert!(
        buddy_tampered.load(Ordering::SeqCst),
        "rank 0's buddy should have held its data"
    );
    assert!(
        corruption_detected.load(Ordering::SeqCst),
        "the replacement never saw the corrupted blob"
    );
    assert_eq!(report.killed_ranks(), vec![0]);
    for o in &report.outcomes {
        if o.rank == 0 {
            continue; // the killed rank
        }
        assert_eq!(
            o.result,
            Err(MpiError::Aborted),
            "rank {} should abort through the typed channel, got {:?}",
            o.rank,
            o.result
        );
    }
}

/// Two ranks of the same redundancy placement group die in the same
/// iteration (ISSUE 6 satellite). Under buddy IMR (two replicas; on a
/// one-rank-per-node layout the width-2 groups are the rank pairs 0↔1,
/// 2↔3) ranks 0 and 1 are each other's buddies, so both copies of both
/// payloads vanish at once and the driver must surface its typed
/// unrecoverable error — while the same store's erasure-coded groups
/// (auto → RS(4,2) on this shape) absorb both erasures and finish
/// bitwise-equal to the baseline.
#[test]
fn placement_group_double_kill_recovers_via_redstore_but_not_buddy_imr() {
    let oracle = Oracle::new();
    let buddy = ChaosSchedule::parse(
        "strategy=FenixImr spares=2 kill(rank=0,site=iter,at=5) kill(rank=1,site=iter,at=5)",
    )
    .expect("spec parses");
    match &oracle.run(&buddy).verdict {
        Ok(RunOutcome::TypedError(ExperimentError::RankFailed { .. })) => {}
        other => panic!("buddy IMR cannot survive a buddy-pair kill: {other:?}"),
    }

    let red = ChaosSchedule::parse(
        "strategy=FenixRedstore spares=2 kill(rank=0,site=iter,at=5) kill(rank=1,site=iter,at=5)",
    )
    .expect("spec parses");
    let report = oracle.run(&red);
    match &report.verdict {
        Ok(RunOutcome::Completed { .. }) => {}
        other => panic!("redstore should recover the group kill bitwise: {other:?}"),
    }
    // Timeline evidence: both kills recorded, and at least one repair ran
    // to completion (the oracle already enforced causal order).
    let snap = &report.snapshot;
    let kills = snap
        .events
        .iter()
        .filter(|e| e.event.kind() == "rank_killed")
        .count();
    assert!(
        kills >= 2,
        "expected both kills in the timeline, saw {kills}"
    );
    let repairs_done = snap
        .events
        .iter()
        .filter(|e| e.event.kind() == "repair_end")
        .count();
    assert!(repairs_done >= 1, "the group kill's repair should complete");
}

/// A whole node dies on a two-ranks-per-node layout (ISSUE 6 satellite).
/// Buddy IMR (k=2) and the redundancy dial's own pick for this shape (auto
/// → k=2 as well) both place every copy off-node by construction — no
/// placement the store computes can put a rank's copy on its own node — so
/// the node loss completes bitwise-equal.
#[test]
fn node_kill_is_survived_by_distinct_node_placement() {
    let oracle = Oracle::new();
    let topo =
        ChaosSchedule::parse("strategy=FenixImr spares=2 rpn=2 nodekill(node=0,site=iter,at=5)")
            .expect("spec parses");
    match &oracle.run(&topo).verdict {
        Ok(RunOutcome::Completed { .. }) => {}
        other => panic!("distinct-node buddies should survive a node kill: {other:?}"),
    }

    let red = ChaosSchedule::parse(
        "strategy=FenixRedstore spares=2 rpn=2 nodekill(node=0,site=iter,at=5)",
    )
    .expect("spec parses");
    let report = oracle.run(&red);
    match &report.verdict {
        Ok(RunOutcome::Completed { .. }) => {}
        other => panic!("redstore should recover the node kill bitwise: {other:?}"),
    }
    // The node kill lowered to one kill per hosted rank; the repair that
    // replaced them both must appear in the same coherent timeline.
    let snap = &report.snapshot;
    let kills = snap
        .events
        .iter()
        .filter(|e| e.event.kind() == "rank_killed")
        .count();
    assert!(
        kills >= 2,
        "a two-rank node should record two kills, saw {kills}"
    );
    let repairs_done = snap
        .events
        .iter()
        .filter(|e| e.event.kind() == "repair_end")
        .count();
    assert!(repairs_done >= 1, "the node kill's repair should complete");
}

/// Incremental-checkpoint chain integrity under injected corruption (ISSUE 5
/// satellite): the *base* version of a delta chain is damaged through the
/// chaos injection hook at write time, and a later delta frame must never be
/// restored atop it. Detection has to be positive — `version_intact` turns
/// false for the whole chain, agreement degrades past it, and a forced
/// restart of the delta version fails with the typed `Corrupt` error, not
/// stale or hybrid state.
///
/// Gated out of `chaos-mutants` builds: the mutant disables exactly the CRC
/// rejection that makes base damage visible.
#[cfg(not(feature = "chaos-mutants"))]
#[test]
fn corrupted_delta_base_is_never_restored_atop() {
    let c = Cluster::new(ClusterConfig {
        nodes: 1,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    });
    // Flip a payload byte of version 1 on both tiers as it is written; the
    // delta written on top of it at version 2 stays clean.
    let plan = Arc::new(FaultSchedule::none().and_corrupt(
        CorruptTier::Both,
        1,
        0,
        CorruptKind::FlipBack { back: 0 },
    ));
    c.set_injector(Some(plan));

    let client = veloc::Client::init(c.clone(), 0, veloc::Config { async_flush: false });
    let hot = veloc::VecRegion::new(vec![1u8; 64]);
    let cold = veloc::VecRegion::new(vec![9u8; 256]);
    client.protect(0, Arc::new(hot.clone()));
    client.protect(1, Arc::new(cold.clone()));

    // v1: full frame — corrupted in flight by the injector.
    client.checkpoint("chain", 1).expect("checkpoint v1");
    // Only the hot region moves, so v2 is a delta referencing base v1.
    hot.lock()[0] = 2;
    client.checkpoint("chain", 2).expect("checkpoint v2");
    let (v2, _) = c
        .scratch()
        .read(0, "chain/v2/r0")
        .expect("v2 blob in scratch");
    let frame = serial::unpack(&v2).expect("v2 parses");
    assert_eq!(
        frame.base_version,
        Some(1),
        "v2 should be a delta on base v1"
    );

    // The chain is broken at its base: nothing intact remains, and the
    // agreement (no communicator: local knowledge) finds none.
    assert!(!client.version_intact("chain", 2));
    assert!(!client.version_intact("chain", 1));
    assert_eq!(
        client
            .agree_intact_version("chain", u64::MAX, None)
            .expect("local agreement"),
        None
    );

    // Forcing a restart of the delta version must fail with the typed
    // error and must not touch the protected regions.
    hot.lock().fill(7);
    cold.lock().fill(7);
    let err = client.restart("chain", 2).expect_err("restart must fail");
    assert!(
        matches!(err, veloc::VelocError::Corrupt { .. }),
        "expected Corrupt, got {err:?}"
    );
    assert_eq!(*hot.lock(), vec![7u8; 64], "no partial restore");
    assert_eq!(*cold.lock(), vec![7u8; 256], "no partial restore");
}
