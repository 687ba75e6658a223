//! Directed chaos scenarios: failure shapes pinned down as named
//! regression tests with stronger assertions than the oracle alone. The
//! schedule-driven ones replay lines of `crates/chaos/reproducers.txt`
//! through `Line::replay` (kill and repair evidence) and name the specific
//! outcome; the rest damage a stored blob in a layer they drive directly
//! and assert the damage is positively detected. Gated out of
//! `chaos-mutants` builds, which disable that CRC rejection.
#![cfg(not(feature = "chaos-mutants"))]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chaos::{corpus, Oracle, RunOutcome};
use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};
use fenix::{ExhaustPolicy, FenixConfig, Role};
use redstore::{RedStore, RedundancyGroup, RedundancyMode};
use resilience::ExperimentError;
use simmpi::{
    CorruptKind, CorruptTier, FaultSchedule, MpiError, ReduceOp, Universe, UniverseConfig,
};
use veloc::{serial, Protected, VecRegion};

/// Line `spare-exhaustion`: exhausting the spare pool must end in the
/// driver's typed error, with a timeline that shows both kills and the one
/// repair that *did* succeed, never in a hang or a panic (the paper's §VI
/// only ever spends one spare; the campaign spends them all).
#[test]
fn spare_exhaustion_yields_typed_error_and_coherent_timeline() {
    match corpus::line("spare-exhaustion").replay(&Oracle::new()) {
        Ok(RunOutcome::TypedError(ExperimentError::RankFailed { .. })) => {}
        other => panic!("expected the driver's RankFailed error, got {other:?}"),
    }
}

/// Two ranks of the same redundancy placement group die in the same
/// iteration. Under buddy IMR (line `imr-buddy-pair`) ranks 0 and 1 are
/// each other's buddies, so both copies of both payloads vanish at once and
/// the driver must surface its typed unrecoverable error, while the same
/// store's erasure-coded groups (`redstore-group-pair`) absorb both erasures
/// and finish bitwise-equal to the baseline.
#[test]
fn placement_group_double_kill_recovers_via_redstore_but_not_buddy_imr() {
    let oracle = Oracle::new();
    match corpus::line("imr-buddy-pair").replay(&oracle) {
        Ok(RunOutcome::TypedError(ExperimentError::RankFailed { .. })) => {}
        other => panic!("buddy IMR cannot survive a buddy-pair kill: {other:?}"),
    }
    match corpus::line("redstore-group-pair").replay(&oracle) {
        Ok(RunOutcome::Completed { .. }) => {}
        other => panic!("redstore should recover the group kill bitwise: {other:?}"),
    }
}

/// A whole node dies on a two-ranks-per-node layout (lines `imr-nodekill`
/// and `redstore-nodekill`). Buddy IMR and the redundancy dial's own pick
/// for this shape both place every copy off-node by construction, so the
/// node loss, lowered to one kill per hosted rank, completes bitwise-equal.
#[test]
fn node_kill_is_survived_by_distinct_node_placement() {
    let oracle = Oracle::new();
    for id in ["imr-nodekill", "redstore-nodekill"] {
        match corpus::line(id).replay(&oracle) {
            Ok(RunOutcome::Completed { .. }) => {}
            other => panic!("{id}: distinct-node copies should survive a node kill: {other:?}"),
        }
    }
}

/// Buddy (k=2 replica) recovery with a corrupted partner store: the holder's
/// copy of the dead rank's data is tampered with before the failure, so the
/// replacement receives a blob whose CRC frame no longer matches. Detection
/// must be positive (unpack returns `None`, not garbage state), and the job
/// must end in a *consistent* typed abort on every active rank — no hang,
/// no panic (ISSUE 4 satellite).
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

/// Incremental-checkpoint chain integrity under injected corruption (ISSUE 5
/// satellite): the *base* version of a delta chain is damaged through the
/// chaos injection hook at write time, and a later delta frame must never be
/// restored atop it. Detection has to be positive — `version_intact` turns
/// false for the whole chain, agreement degrades past it, and a forced
/// restart of the delta version fails with the typed `Corrupt` error, not
/// stale or hybrid state.
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
