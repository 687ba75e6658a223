//! Context behaviour over launched universes: detection, classification,
//! checkpoint/recovery cycles, reset-with-new-comm, and recovery scopes.

use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, TimeScale};
use kokkos::View;
use kokkos_resilience::{CheckpointFilter, Context, ContextConfig, RecoveryScope, ViewClass};
use simmpi::{FaultPlan, MpiResult, RankCtx, Universe, UniverseConfig};

fn cluster(n: usize) -> Cluster {
    let cfg = ClusterConfig {
        nodes: n,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}

fn launch<F>(c: &Cluster, f: F) -> simmpi::LaunchReport
where
    F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
{
    Universe::launch(c, UniverseConfig::default(), Arc::new(FaultPlan::none()), f)
}

fn config(name: &str, filter: CheckpointFilter) -> ContextConfig {
    ContextConfig {
        name: name.into(),
        filter,
        aliases: Vec::new(),
    }
}

#[test]
fn detection_classifies_views() {
    let c = cluster(1);
    let report = launch(&c, |ctx| {
        let kr = Context::new(
            ctx.cluster(),
            ctx.world().clone(),
            config("t1", CheckpointFilter::Never),
        );
        kr.mark_alias("swap");
        let x: View<f64> = View::new_1d("x", 100);
        let x_dup = x.duplicate_handle("x_lambda_copy");
        let swap: View<f64> = View::new_1d("swap", 100);
        let y: View<u32> = View::new_1d("y", 10);

        kr.checkpoint("loop", 0, || {
            let _ = x.write();
            let _ = x_dup.read(); // duplicate over x's allocation
            let _ = swap.write(); // declared alias
            let _ = y.write();
            Ok(())
        })?;

        let stats = kr.region_stats("loop").expect("region detected");
        assert_eq!(stats.total_views(), 4);
        assert_eq!(stats.count(ViewClass::Checkpointed), 2); // x, y
        assert_eq!(stats.count(ViewClass::Skipped), 1); // x_dup
        assert_eq!(stats.count(ViewClass::Alias), 1); // swap
        assert_eq!(stats.bytes(ViewClass::Checkpointed), 800 + 40);
        assert_eq!(kr.checkpoint_bytes("loop"), 840);
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn checkpoint_and_recover_across_contexts() {
    // Simulates a relaunch: first "job" checkpoints, second starts from the
    // latest version and recovers the data.
    let c = cluster(2);
    let report = launch(&c, |ctx| {
        let data: View<u64> = View::new_1d("data", 8);
        let kr = Context::new(
            ctx.cluster(),
            ctx.world().clone(),
            config("job", CheckpointFilter::EveryN(2)),
        );
        assert_eq!(kr.latest_version("loop")?, None);
        for i in 0..6u64 {
            kr.checkpoint("loop", i, || {
                let mut d = data.write();
                for x in d.iter_mut() {
                    *x += 1;
                }
                Ok(())
            })?;
        }
        kr.checkpoint_wait();
        assert!(data.read().iter().all(|&x| x == 6));
        Ok(())
    });
    assert!(report.all_ok());

    let report = launch(&c, |ctx| {
        let data: View<u64> = View::new_1d("data", 8);
        let kr = Context::new(
            ctx.cluster(),
            ctx.world().clone(),
            config("job", CheckpointFilter::EveryN(2)),
        );
        // Checkpoints fired at iterations 1, 3, 5.
        let latest = kr.latest_version("loop")?;
        assert_eq!(latest, Some(5));
        let mut resumed = latest.map_or(0, |v| v + 1);
        assert_eq!(resumed, 6);
        // One more iteration; the first checkpoint call restores v5 (data
        // value 6) and then executes on the restored data.
        let out = kr.checkpoint("loop", resumed, || {
            let mut d = data.write();
            for x in d.iter_mut() {
                *x += 1;
            }
            Ok(())
        })?;
        assert!(out.restored);
        assert_eq!(out.executions, 2, "detection pass + post-restore run");
        resumed += 1;
        assert_eq!(resumed, 7);
        // Restored 6, one increment applied on restored data -> 7.
        assert!(
            data.read().iter().all(|&x| x == 7),
            "{:?}",
            &data.read()[..]
        );
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn filter_controls_checkpoint_count() {
    let c = cluster(1);
    let report = launch(&c, |ctx| {
        let data: View<u8> = View::new_1d("d", 4);
        let kr = Context::new(
            ctx.cluster(),
            ctx.world().clone(),
            config("filt", CheckpointFilter::EveryN(5)),
        );
        let mut taken = 0;
        for i in 0..20u64 {
            let out = kr.checkpoint("loop", i, || {
                let _ = data.write();
                Ok(())
            })?;
            if out.checkpointed {
                taken += 1;
            }
        }
        assert_eq!(taken, 4);
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn reset_clears_metadata_and_reranks() {
    // After a "repair", the context must forget cached metadata and adopt
    // the new communicator's rank for checkpoint naming.
    let c = cluster(2);
    let report = launch(&c, |ctx| {
        let data: View<u64> = View::new_1d("d", 4);
        let kr = Context::new(
            ctx.cluster(),
            ctx.world().clone(),
            config("rst", CheckpointFilter::Always),
        );
        kr.checkpoint("loop", 0, || {
            let mut d = data.write();
            d[0] = 10 + ctx.rank() as u64;
            Ok(())
        })?;
        kr.checkpoint_wait();

        // Build a "repaired" communicator with the same membership (the
        // repair path exercises comm replacement; membership is unchanged
        // in this failure-free test).
        let new_comm = simmpi::Comm::from_group(
            Arc::clone(ctx.router()),
            simmpi::router::Router::derive_comm_id(0, 999),
            0,
            vec![0, 1],
            ctx.rank(),
        );
        kr.reset(new_comm);
        assert!(kr.region_stats("loop").is_none(), "metadata cache cleared");

        // Recovery across the reset: version 0 is found and restored.
        assert_eq!(kr.latest_version("loop")?, Some(0));
        let out = kr.checkpoint("loop", 1, || {
            let _ = data.write();
            Ok(())
        })?;
        assert!(out.restored);
        assert_eq!(data.read()[0], 10 + ctx.rank() as u64);
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn recovery_scope_limits_restores() {
    let c = cluster(2);
    // Round 1: both ranks checkpoint value 100+rank.
    let report = launch(&c, |ctx| {
        let data: View<u64> = View::new_1d("d", 1);
        data.write()[0] = 100 + ctx.rank() as u64;
        let kr = Context::new(
            ctx.cluster(),
            ctx.world().clone(),
            config("scope", CheckpointFilter::Always),
        );
        kr.checkpoint("loop", 0, || {
            let _ = data.read();
            Ok(())
        })?;
        kr.checkpoint_wait();
        Ok(())
    });
    assert!(report.all_ok());

    // Round 2: only rank 1 restores; rank 0 keeps its in-progress value.
    let report = launch(&c, |ctx| {
        let data: View<u64> = View::new_1d("d", 1);
        data.write()[0] = 555; // "in-progress" value
        let kr = Context::new(
            ctx.cluster(),
            ctx.world().clone(),
            config("scope", CheckpointFilter::Never),
        );
        kr.set_recovery_scope(RecoveryScope::OnlyRanks(vec![1]));
        assert_eq!(kr.latest_version("loop")?, Some(0));
        let out = kr.checkpoint("loop", 1, || {
            let _ = data.read();
            Ok(())
        })?;
        if ctx.rank() == 1 {
            assert!(out.restored);
            assert_eq!(data.read()[0], 101);
        } else {
            assert!(!out.restored);
            assert_eq!(data.read()[0], 555, "survivor keeps in-progress data");
        }
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn world_communicator_agrees_on_version() {
    // What stock collective VeloC does: the same reduction, over the world.
    let c = cluster(3);
    let report = launch(&c, |ctx| {
        let data: View<u64> = View::new_1d("d", 2);
        let kr = Context::new(
            ctx.cluster(),
            ctx.world().clone(),
            config("coll", CheckpointFilter::Always),
        );
        for i in 0..3u64 {
            kr.checkpoint("loop", i, || {
                let _ = data.write();
                Ok(())
            })?;
        }
        kr.checkpoint_wait();
        assert_eq!(kr.latest_version("loop")?, Some(2));
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn redetection_after_reset_sees_new_views() {
    let c = cluster(1);
    let report = launch(&c, |ctx| {
        let kr = Context::new(
            ctx.cluster(),
            ctx.world().clone(),
            config("redet", CheckpointFilter::Never),
        );
        let a: View<u8> = View::new_1d("a", 4);
        kr.checkpoint("loop", 0, || {
            let _ = a.write();
            Ok(())
        })?;
        assert_eq!(kr.region_stats("loop").unwrap().total_views(), 1);

        kr.reset(ctx.world().clone());
        let b: View<u8> = View::new_1d("b", 8);
        kr.checkpoint("loop", 1, || {
            let _ = a.write();
            let _ = b.write();
            Ok(())
        })?;
        assert_eq!(kr.region_stats("loop").unwrap().total_views(), 2);
        Ok(())
    });
    assert!(report.all_ok());
}
