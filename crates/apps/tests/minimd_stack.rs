//! MiniMD over the full stack: physics sanity, recovery exactness, and the
//! Figure 7 view-classification statistics.

use std::sync::Arc;

use apps::MiniMd;
use bench::pins;
use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};
use kokkos_resilience::{CheckpointFilter, Context, ContextConfig, ViewClass};
use resilience::{run_experiment, Bookkeeper, ExperimentConfig, IterativeApp, RunRecord, Strategy};
use simmpi::{Backend, FaultPlan, MpiResult, Universe, UniverseConfig};

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

fn cfg(strategy: Strategy, spares: usize) -> ExperimentConfig {
    ExperimentConfig {
        backend: Default::default(),
        strategy,
        spares,
        checkpoints: 4,
        max_relaunches: 4,
        telemetry: None,
    }
}

const CELLS: [usize; 3] = [3, 3, 3];
const ITERS: u64 = 20;
const DES_SEED: u64 = 16;

#[test]
fn minimd_runs_and_conserves_energy_roughly() {
    // Total energy (pe + ke summed over ranks) must not blow up over a
    // short NVE run — a strong end-to-end physics check.
    use resilience::RankApp;
    use simmpi::ReduceOp;

    let c = cluster(2);
    let report = Universe::launch(
        &c,
        UniverseConfig::default(),
        Arc::new(FaultPlan::none()),
        |ctx| {
            let app = MiniMd::new(CELLS, 40);
            let comm = ctx.world().clone();
            let bk = Bookkeeper::new(Arc::clone(ctx.profile()));
            let mut st = app.state_for(&comm);
            let mut energies = Vec::new();
            for i in 0..40u64 {
                st.step(&comm, i, &bk)?;
                let local = st.views().pe.read_uncaptured()[0] + st.views().ke.read_uncaptured()[0];
                // ke is refreshed every thermo_every steps; sample there.
                if (i % 10) == 0 {
                    let total = comm.allreduce_scalar(local, ReduceOp::Sum)?;
                    energies.push(total);
                }
            }
            let e0 = energies[1];
            let e1 = *energies.last().unwrap();
            assert!(
                (e1 - e0).abs() < 0.05 * e0.abs().max(1.0),
                "energy drift too large: {e0} -> {e1}"
            );
            Ok(())
        },
    );
    assert!(report.all_ok(), "{:?}", report.outcomes);
}

#[test]
fn minimd_failure_free_equivalence() {
    let reference = run_experiment(
        &cluster(4),
        &MiniMd::new(CELLS, ITERS),
        &cfg(Strategy::Unprotected, 0),
        Arc::new(FaultPlan::none()),
    )
    .digest;
    for strategy in [Strategy::KokkosResilience, Strategy::FenixKokkosResilience] {
        let (nodes, spares) = if strategy.uses_fenix() {
            (5, 1)
        } else {
            (4, 0)
        };
        let rec = run_experiment(
            &cluster(nodes),
            &MiniMd::new(CELLS, ITERS),
            &cfg(strategy, spares),
            Arc::new(FaultPlan::none()),
        );
        assert_eq!(rec.digest, reference, "{strategy}");
    }
}

#[test]
fn minimd_recovery_is_bitwise_exact() {
    let reference = run_experiment(
        &cluster(4),
        &MiniMd::new(CELLS, ITERS),
        &cfg(Strategy::Unprotected, 0),
        Arc::new(FaultPlan::none()),
    )
    .digest;
    for strategy in [
        Strategy::FenixKokkosResilience,
        Strategy::FenixVeloc,
        Strategy::FenixImr,
    ] {
        let rec = run_experiment(
            &cluster(5),
            &MiniMd::new(CELLS, ITERS),
            &cfg(strategy, 1),
            // Checkpoints at 4,9,14,19; die at 13 (~95% of 10..14).
            Arc::new(FaultPlan::kill_at(2, "iter", 13)),
        );
        assert!(rec.repairs >= 1, "{strategy}");
        assert_eq!(
            rec.digest, reference,
            "{strategy} trajectory diverged after recovery"
        );
    }
}

/// One run of this file's shape under the DES engine on a virtual-time
/// cluster: 4 active ranks, plus a spare under Fenix.
fn des_run(strategy: Strategy, plan: FaultPlan) -> RunRecord {
    let spares = usize::from(strategy.uses_fenix());
    let cluster = Cluster::new(ClusterConfig {
        nodes: 4 + spares,
        ranks_per_node: 1,
        virtual_time: true,
        ..ClusterConfig::default()
    });
    let cfg = ExperimentConfig {
        backend: Backend::Des { seed: DES_SEED },
        ..cfg(strategy, spares)
    };
    run_experiment(&cluster, &MiniMd::new(CELLS, ITERS), &cfg, Arc::new(plan))
}

/// Virtual wall and digest of the reference run (`Unprotected`), then
/// `FenixKokkosResilience` failure-free and with rank 2 killed at 13, are
/// pinned (`minimd_stack/{ref,nf,fail}` in the pin file), and so is where
/// the fail run resumed. The digest is a
/// function of every atom's position and velocity bits, and ghost counts
/// price the modelled messages, so a neighbor search that drops, adds or
/// reorders one pair moves a value here.
#[test]
fn minimd_trajectory_and_modelled_time_are_pinned() {
    let runs = [
        ("ref", des_run(Strategy::Unprotected, FaultPlan::none())),
        (
            "nf",
            des_run(Strategy::FenixKokkosResilience, FaultPlan::none()),
        ),
        (
            "fail",
            des_run(
                Strategy::FenixKokkosResilience,
                FaultPlan::kill_at(2, "iter", 13),
            ),
        ),
    ];
    let measured = runs.each_ref().map(|(role, rec)| {
        assert_eq!(rec.iterations, ITERS, "{role}");
        let shape = format!("minimd_stack/{role}");
        let resumed = (*role == "fail").then(|| pins::resumed_at(&rec.resumed_at));
        let fields = pins::wall_and_digest(rec.wall, rec.digest)
            .into_iter()
            .chain(resumed);
        pins::entry(&shape, DES_SEED, fields)
    });
    pins::assert_pinned(&measured);
    assert_eq!(runs[2].1.repairs, 1);
}

#[test]
fn minimd_view_inventory_matches_paper_figure7() {
    // The §VI.E statistics: 61 view objects — 39 checkpointed, 3 aliases,
    // 19 skipped duplicates — with one view holding the bulk of the data.
    let c = cluster(2);
    let report = Universe::launch(
        &c,
        UniverseConfig::default(),
        Arc::new(FaultPlan::none()),
        |ctx| -> MpiResult<()> {
            let app = MiniMd::new(CELLS, 4);
            let comm = ctx.world().clone();
            let bk = Bookkeeper::new(Arc::clone(ctx.profile()));
            let mut st = app.init_rank(ctx, &comm);
            let kr = Context::new(
                ctx.cluster(),
                comm.clone(),
                ContextConfig {
                    name: "fig7".into(),
                    filter: CheckpointFilter::Never,
                    aliases: app.alias_labels(),
                },
            );
            kr.checkpoint("loop", 0, || st.step(&comm, 0, &bk))?;
            let stats = kr.region_stats("loop").expect("region detected");

            assert_eq!(stats.total_views(), 61, "total view objects");
            assert_eq!(stats.count(ViewClass::Checkpointed), 39);
            assert_eq!(stats.count(ViewClass::Alias), 3);
            assert_eq!(stats.count(ViewClass::Skipped), 19);

            // "A single view contains the majority of the data" — the
            // largest checkpointed view dominates the checkpointed bytes.
            let max_view = stats
                .views
                .iter()
                .filter(|v| v.class == ViewClass::Checkpointed)
                .map(|v| v.meta.bytes)
                .max()
                .unwrap();
            assert!(
                max_view as f64 > 0.3 * stats.bytes(ViewClass::Checkpointed) as f64,
                "largest view should dominate"
            );
            // Skipped views represent real memory (duplicated big arrays).
            assert!(stats.bytes(ViewClass::Skipped) > stats.bytes(ViewClass::Alias) / 2);
            Ok(())
        },
    );
    assert!(report.all_ok(), "{:?}", report.outcomes);
}
