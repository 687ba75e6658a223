//! End-to-end store/restore over simulated MPI: multi-failure recovery,
//! re-encode-after-repair coverage restoration, topology-aware placement
//! invariants, and typed unrecoverable outcomes.
//!
//! Recovery is mostly simulated without Fenix: "failed" ranks clear their
//! stores (a replacement spare starts empty) and the survivors feed them
//! through [`RedundancyGroup::restore`], exactly the call sequence the
//! resilience runner makes after a repair. The `k = 2` cases are the
//! paper's buddy-rank IMR (§V.A); one of them runs under a real Fenix
//! repair.

use std::sync::Arc;

use bytes::Bytes;
use cluster::{Cluster, ClusterConfig, TimeScale};
use parking_lot::Mutex;
use redstore::{
    comm_node_map, PlacementError, RedError, RedStore, RedundancyGroup, RedundancyMode,
};
use simmpi::{FaultPlan, MpiResult, RankCtx, Universe, UniverseConfig};

fn cluster(nodes: usize, rpn: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        ranks_per_node: rpn,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    })
}

fn launch<F>(nodes: usize, rpn: usize, f: F) -> simmpi::LaunchReport
where
    F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
{
    Universe::launch(
        &cluster(nodes, rpn),
        UniverseConfig::default(),
        Arc::new(FaultPlan::none()),
        f,
    )
}

fn payload(rank: usize, len: usize) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i * 31 + rank * 7 + 1) as u8)
            .collect::<Vec<u8>>(),
    )
}

const MEMBER: u32 = 0;

/// Per-rank restore outcomes collected out of a launch.
type RestoreResults = Arc<Mutex<Vec<Option<Result<Bytes, RedError>>>>>;

/// Store on every rank, wipe `dead`, restore, and hand each rank's
/// restored payload to `check`. Runs entirely inside one launch.
fn store_kill_restore(
    nodes: usize,
    rpn: usize,
    mode: Option<RedundancyMode>,
    dead: &'static [usize],
    results: RestoreResults,
) -> simmpi::LaunchReport {
    launch(nodes, rpn, move |ctx| {
        let n = nodes * rpn;
        let store = RedStore::new();
        let comm = ctx.world().clone();
        let group = RedundancyGroup::new(Arc::clone(&store), &comm, mode);
        let me = comm.rank();
        group
            .store(MEMBER, 5, payload(me, 256))
            .expect("store commits");
        comm.barrier()?;
        if dead.contains(&me) {
            store.clear();
        }
        comm.barrier()?;
        let out = group.restore(MEMBER, dead).map(|(v, blob)| {
            assert_eq!(v, 5, "committed version survives recovery");
            blob
        });
        results.lock()[me] = Some(out);
        // A failed restore is collective: every rank sees the same typed
        // error, and nobody proceeds — mirror that by not erroring the
        // rank itself.
        let _ = n;
        Ok(())
    })
}

fn run_case(
    nodes: usize,
    rpn: usize,
    mode: Option<RedundancyMode>,
    dead: &'static [usize],
) -> Vec<Result<Bytes, RedError>> {
    let results = Arc::new(Mutex::new(vec![None; nodes * rpn]));
    let report = store_kill_restore(nodes, rpn, mode, dead, Arc::clone(&results));
    assert!(report.all_ok(), "ranks completed: {:?}", report.outcomes);
    let locked = results.lock();
    locked
        .iter()
        .map(|r| r.clone().expect("every rank reported"))
        .collect()
}

#[test]
fn rs_recovers_two_failures_in_one_group() {
    // 4 ranks on 4 nodes: auto mode is RS(2+2) over one width-4 group —
    // two concurrent failures inside the group must be recoverable.
    let out = run_case(4, 1, None, &[0, 1]);
    for (rank, r) in out.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("recovered"),
            &payload(rank, 256),
            "rank {rank} bitwise round-trip"
        );
    }
}

#[test]
fn exceeding_tolerance_is_a_typed_error_everywhere() {
    // Three of four ranks lost exceeds RS(2+2)'s m=2: every rank must see
    // the same typed DataLost, never a panic or a hang.
    let out = run_case(4, 1, None, &[0, 1, 2]);
    for (rank, r) in out.iter().enumerate() {
        assert!(
            matches!(r, Err(RedError::DataLost { .. })),
            "rank {rank}: {r:?}"
        );
    }
}

#[test]
fn replicate_groups_span_nodes_and_survive_a_node_loss() {
    // 2 nodes × 2 ranks: auto degrades to 2-replica groups. Ranks 0,1 are
    // node 0 — a whole-node loss. Distinct-node placement puts their
    // partners on node 1, so both recover.
    let out = run_case(2, 2, None, &[0, 1]);
    for (rank, r) in out.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("recovered"),
            &payload(rank, 256),
            "rank {rank}"
        );
    }
}

const BUDDY: Option<RedundancyMode> = Some(RedundancyMode::Replicate { k: 2 });

#[test]
fn buddy_pairs_recover_one_loss_per_pair_on_even_and_odd_communicators() {
    // Even: pairs {0,1},{2,3} — one loss in each pair is recoverable.
    // Odd: {0,1,2},{3,4} — the group of three is a buddy ring.
    for (n, dead) in [(4, &[1usize, 2][..]), (5, &[2, 3][..]), (5, &[0][..])] {
        let out = run_case(n, 1, BUDDY, dead);
        for (rank, r) in out.iter().enumerate() {
            assert_eq!(
                r.as_ref().expect("recovered"),
                &payload(rank, 256),
                "{n} ranks, dead {dead:?}: rank {rank}"
            );
        }
    }
}

#[test]
fn losing_both_buddies_is_a_typed_error_everywhere() {
    let out = run_case(4, 1, BUDDY, &[0, 1]);
    for (rank, r) in out.iter().enumerate() {
        assert!(
            matches!(r, Err(RedError::DataLost { .. })),
            "rank {rank}: {r:?}"
        );
    }
}

#[test]
fn buddy_store_and_restore_over_a_fenix_repair() {
    use fenix::{ExhaustPolicy, FenixConfig, Role};

    // 5 ranks: 4 active, 1 spare. Rank 1 dies after checkpoint v2
    // (committed at i=5); the replacement must get v2 back from its buddy.
    let plan = Arc::new(FaultPlan::kill_at(1, "iter", 7));
    let report = Universe::launch(&cluster(5, 1), UniverseConfig::default(), plan, |ctx| {
        let cfg = FenixConfig {
            spares: 1,
            on_exhaustion: ExhaustPolicy::Abort,
        };
        let store = RedStore::new();
        let ctx = &*ctx;
        fenix::run(ctx.world(), cfg, |fx, comm, role| {
            let group = RedundancyGroup::new(Arc::clone(&store), comm, BUDDY);
            let mut start = 0u64;
            if role != Role::Initial {
                // After a single failure possession names the rank Fenix
                // replaced.
                let (committed, recovering) = group
                    .possession(0)
                    .expect("agreement")
                    .expect("v2 is committed");
                assert_eq!((committed, &recovering), (2, &fx.recovered_ranks()));
                let (version, data) = group.restore(0, &recovering).expect("buddy restore");
                assert_eq!(version, 2);
                // Payload is the owning comm rank repeated.
                assert!(data.iter().all(|&b| b == comm.rank() as u8));
                start = version * 3;
            }
            for i in start..8 {
                ctx.fault_point("iter", i)?;
                if i % 3 == 2 {
                    let version = i / 3 + 1;
                    let payload = Bytes::from(vec![comm.rank() as u8; 64]);
                    group.store(0, version, payload).expect("store commits");
                }
                comm.barrier()?;
            }
            Ok(())
        })
        .map(|_| ())
    });
    assert_eq!(report.killed_ranks(), vec![1]);
    for o in &report.outcomes {
        if o.rank != 1 {
            assert!(o.result.is_ok(), "rank {}: {:?}", o.rank, o.result);
        }
    }
}

#[test]
fn possession_names_every_rank_that_lacks_the_committed_version() {
    // 4 ranks on 4 nodes, one RS(2+2) group. "Failed" ranks clear their
    // stores, as a replacement spare starts empty.
    let report = launch(4, 1, |ctx| {
        let store = RedStore::new();
        let comm = ctx.world().clone();
        let group = RedundancyGroup::new(Arc::clone(&store), &comm, None);
        let me = comm.rank();
        let lose = |rank: usize| -> MpiResult<()> {
            comm.barrier()?;
            if me == rank {
                store.clear();
            }
            comm.barrier()
        };

        // Nothing committed: a consistent cold restart.
        assert_eq!(group.possession(MEMBER), Ok(None));

        group
            .store(MEMBER, 5, payload(me, 256))
            .expect("store commits");
        assert_eq!(group.possession(MEMBER), Ok(Some((5, vec![]))));

        // One empty replacement.
        lose(1)?;
        assert_eq!(group.possession(MEMBER), Ok(Some((5, vec![1]))));

        // A failure cascades into recovery: rank 1 never restored, and now
        // rank 3 is replaced as well. The last repair's list would name 3
        // alone; possession names both.
        lose(3)?;
        let (version, recovering) = group
            .possession(MEMBER)
            .expect("agreement")
            .expect("v5 is committed");
        assert_eq!((version, recovering.as_slice()), (5, &[1, 3][..]));

        let (restored, blob) = group.restore(MEMBER, &recovering).expect("restore");
        assert_eq!((restored, blob), (5, payload(me, 256)));
        assert_eq!(group.possession(MEMBER), Ok(Some((5, vec![]))));
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
}

#[test]
fn replica_legs_move_the_handle_not_a_copy() {
    // Owner → buddy on the store leg, buddy → replacement on the restore
    // leg: with no header to prepend, the replacement must end up holding
    // the *same allocation* the owner committed, not a copy of it.
    let same = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&same);
    let report = launch(4, 1, move |ctx| {
        let store = RedStore::new();
        let comm = ctx.world().clone();
        let group = RedundancyGroup::new(Arc::clone(&store), &comm, BUDDY);
        let me = comm.rank();
        let mine = payload(me, 4096);
        group.store(MEMBER, 1, mine.clone()).expect("store");
        comm.barrier()?;
        if me == 2 {
            store.clear();
        }
        comm.barrier()?;
        let (_, blob) = group.restore(MEMBER, &[2]).expect("restore");
        if me == 2 {
            s2.lock().push(blob.as_ptr() == mine.as_ptr());
        }
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
    assert_eq!(*same.lock(), vec![true]);
}

#[test]
fn coded_restore_leg_moves_the_handle_not_a_copy() {
    // RS 2+2 over one group of four. A holder keeps the wire frame it
    // received on the store leg and, on the restore leg, sends that very
    // buffer back: no re-framing, no copy. Rank 2 plays the recovering
    // rank's side of `restore` by hand, because the frames it is sent are
    // what has to be seen: the layout broadcast, one frame per survivor on
    // `RedundancyGroup::tag(MEMBER, 1)`, then the collective re-encode,
    // which is a `store` at the committed version.
    const RESTORE_TAG: u64 = (0x0200_0000 | 1) << 32 | MEMBER as u64;
    let held = Arc::new(Mutex::new(Vec::new()));
    let resent = Arc::new(Mutex::new(Vec::new()));
    let (h2, r2) = (Arc::clone(&held), Arc::clone(&resent));
    let report = launch(4, 1, move |ctx| {
        let store = RedStore::new();
        let comm = ctx.world().clone();
        let group = RedundancyGroup::new(Arc::clone(&store), &comm, None);
        let me = comm.rank();
        let mine = payload(me, 4096);
        group.store(MEMBER, 1, mine.clone()).expect("store");
        comm.barrier()?;
        if me != 2 {
            let (version, frame) = store.held(MEMBER, 2).expect("a shard of rank 2's");
            assert_eq!((version, frame.len()), (1, 17 + 2048));
            h2.lock().push((me, frame.as_ptr() as usize));
            group.restore(MEMBER, &[2]).expect("restore");
        } else {
            store.clear();
            comm.bcast_bytes(0, Bytes::new())?;
            for from in [0, 1, 3] {
                let (frame, _) = comm.recv_bytes(Some(from), RESTORE_TAG)?;
                r2.lock().push((from, frame.as_ptr() as usize));
            }
            group.store(MEMBER, 1, mine).expect("re-encode");
        }
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
    let (mut held, resent) = (held.lock().clone(), resent.lock().clone());
    held.sort_unstable();
    assert_eq!(held.len(), 3);
    assert_eq!(held, resent);
}

#[test]
fn tampered_buddy_copy_reaches_the_replacement_verbatim() {
    // The chaos hook flips one byte of the copy held for `owner`; the
    // store ships replicas verbatim, so the replacement sees exactly that
    // damage (integrity is the payload framing's job, one layer up).
    let results = Arc::new(Mutex::new(vec![None; 4]));
    let r2 = Arc::clone(&results);
    let report = launch(4, 1, move |ctx| {
        let store = RedStore::new();
        let comm = ctx.world().clone();
        let group = RedundancyGroup::new(Arc::clone(&store), &comm, BUDDY);
        let me = comm.rank();
        assert!(!store.tamper_held(MEMBER, 0), "nothing held yet");
        group.store(MEMBER, 3, payload(me, 64)).expect("store");
        // Rank 0's buddy is rank 1; nobody else holds its copy.
        assert_eq!(store.tamper_held(MEMBER, 0), me == 1);
        comm.barrier()?;
        if me == 0 {
            store.clear();
        }
        comm.barrier()?;
        let (_, blob) = group.restore(MEMBER, &[0]).expect("restore");
        r2.lock()[me] = Some(blob);
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
    let results = results.lock();
    let mut rotted = payload(0, 64).to_vec();
    *rotted.last_mut().expect("non-empty") ^= 0xFF;
    assert_eq!(results[0].as_deref(), Some(&rotted[..]));
    for rank in 1..4 {
        assert_eq!(
            results[rank].as_ref(),
            Some(&payload(rank, 64)),
            "rank {rank}"
        );
    }
}

#[test]
fn overloaded_node_is_a_typed_placement_error_not_a_colocated_fallback() {
    // Ranks 0..4 of a 2-node × 3-rank cluster: three of the four sit on
    // node 0, so some pair would have to share it and silently cover
    // nothing against its loss. The store refuses with a typed error on
    // every rank instead.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s2 = Arc::clone(&seen);
    let report = launch(2, 3, move |ctx| {
        let world = ctx.world().clone();
        let me = world.rank();
        let comm = world.split((me < 4) as u64, me as u64)?;
        if me >= 4 {
            return Ok(());
        }
        let store = RedStore::new();
        let group = RedundancyGroup::new(Arc::clone(&store), &comm, BUDDY);
        s2.lock().push(group.store(MEMBER, 1, payload(me, 32)));
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
    let seen = seen.lock();
    assert_eq!(seen.len(), 4);
    for r in seen.iter() {
        assert!(
            matches!(
                r,
                Err(RedError::Placement(PlacementError::InsufficientNodes {
                    max_per_node: 3,
                    groups: 2,
                    ..
                }))
            ),
            "{r:?}"
        );
    }
}

#[test]
fn explicit_k3_survives_two_failures() {
    let out = run_case(6, 1, Some(RedundancyMode::Replicate { k: 3 }), &[0, 3]);
    for (rank, r) in out.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("recovered"),
            &payload(rank, 256),
            "rank {rank}"
        );
    }
}

#[test]
fn xor_survives_one_failure_but_not_two_in_group() {
    let ok = run_case(3, 1, Some(RedundancyMode::XorParity { width: 3 }), &[1]);
    for (rank, r) in ok.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("recovered"),
            &payload(rank, 256),
            "rank {rank}"
        );
    }
    let lost = run_case(3, 1, Some(RedundancyMode::XorParity { width: 3 }), &[0, 1]);
    for r in &lost {
        assert!(matches!(r, Err(RedError::DataLost { .. })));
    }
}

#[test]
fn placement_invariant_is_committed_with_the_layout() {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let report = launch(3, 2, move |ctx| {
        let store = RedStore::new();
        let comm = ctx.world().clone();
        let group = RedundancyGroup::new(Arc::clone(&store), &comm, None);
        group
            .store(MEMBER, 1, payload(comm.rank(), 64))
            .expect("store");
        let layout = store.layout(MEMBER).expect("layout committed");
        let nodes = comm_node_map(&comm);
        for g in &layout.groups {
            let mut group_nodes: Vec<usize> = g.iter().map(|&r| nodes[r]).collect();
            group_nodes.sort_unstable();
            let len = group_nodes.len();
            group_nodes.dedup();
            assert_eq!(group_nodes.len(), len, "two group members share a node");
        }
        seen2.lock().push(layout.groups.len());
        Ok(())
    });
    assert!(report.all_ok());
    assert_eq!(seen.lock().len(), 6);
}

#[test]
fn restore_reencodes_so_coverage_is_restored_not_consumed() {
    // After recovering ranks {0,1}, the re-encode must have re-established
    // full redundancy: losing {2,3} *afterwards* is again recoverable.
    // Without the re-encode, survivors 2 and 3 would still hold shards
    // placed for the pre-repair group and the second restore would fail.
    let results = Arc::new(Mutex::new(vec![None; 4]));
    let r2 = Arc::clone(&results);
    let report = launch(4, 1, move |ctx| {
        let store = RedStore::new();
        let comm = ctx.world().clone();
        let group = RedundancyGroup::new(Arc::clone(&store), &comm, None);
        let me = comm.rank();
        group.store(MEMBER, 7, payload(me, 300)).expect("store");
        comm.barrier()?;
        if [0usize, 1].contains(&me) {
            store.clear();
        }
        comm.barrier()?;
        group.restore(MEMBER, &[0, 1]).expect("first recovery");
        comm.barrier()?;
        if [2usize, 3].contains(&me) {
            store.clear();
        }
        comm.barrier()?;
        let (v, blob) = group.restore(MEMBER, &[2, 3]).expect("second recovery");
        assert_eq!(v, 7);
        r2.lock()[me] = Some(blob);
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
    for (rank, blob) in results.lock().iter().enumerate() {
        assert_eq!(
            blob.as_ref().expect("reported"),
            &payload(rank, 300),
            "rank {rank}"
        );
    }
}

#[test]
fn zero_length_payloads_commit_and_restore() {
    let results = Arc::new(Mutex::new(vec![None; 4]));
    let r2 = Arc::clone(&results);
    let report = launch(4, 1, move |ctx| {
        let store = RedStore::new();
        let comm = ctx.world().clone();
        let group = RedundancyGroup::new(Arc::clone(&store), &comm, None);
        let me = comm.rank();
        group.store(MEMBER, 0, Bytes::new()).expect("store empty");
        comm.barrier()?;
        if me == 2 {
            store.clear();
        }
        comm.barrier()?;
        let (_, blob) = group.restore(MEMBER, &[2]).expect("restore empty");
        r2.lock()[me] = Some(blob.len());
        Ok(())
    });
    assert!(report.all_ok());
    assert!(results.lock().iter().all(|l| *l == Some(0)));
}

#[test]
fn memory_overhead_matches_the_mode() {
    // The EXPERIMENTS.md coverage/cost table comes from these ratios:
    // k-replica is k×, XOR n+1 is (n+1)/n×, RS over a width-w group with
    // m parity is 1 + (w-1)/(w-m)× of the payload.
    let cases: &[(usize, usize, Option<RedundancyMode>, f64)] = &[
        (4, 1, Some(RedundancyMode::Replicate { k: 2 }), 2.0),
        (6, 1, Some(RedundancyMode::Replicate { k: 3 }), 3.0),
        // width-3 XOR: own + 2 held shards of len/2 = 2.0×
        (3, 1, Some(RedundancyMode::XorParity { width: 3 }), 2.0),
        // width-4 RS m=2: own + 3 held shards of len/2 = 2.5×
        (
            4,
            1,
            Some(RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2,
            }),
            2.5,
        ),
    ];
    for &(nodes, rpn, mode, expect) in cases {
        let measured = Arc::new(Mutex::new(Vec::new()));
        let m2 = Arc::clone(&measured);
        let len = 4096usize;
        let report = launch(nodes, rpn, move |ctx| {
            let store = RedStore::new();
            let comm = ctx.world().clone();
            let group = RedundancyGroup::new(Arc::clone(&store), &comm, mode);
            group
                .store(MEMBER, 1, payload(comm.rank(), len))
                .expect("store");
            m2.lock().push(store.resident_bytes() as f64 / len as f64);
            Ok(())
        });
        assert!(report.all_ok());
        for ratio in measured.lock().iter() {
            assert!(
                (ratio - expect).abs() < 0.01,
                "{mode:?}: measured {ratio}, expected {expect}"
            );
        }
    }
}
