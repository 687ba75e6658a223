//! Heatdis over the full resilience stack: strategy equivalence, recovery
//! correctness, and the partial-rollback speedup the paper reports.

use std::sync::Arc;

use apps::Heatdis;
use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::FaultPlan;

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
        checkpoints: 6,
        max_relaunches: 4,
        telemetry: None,
    }
}

const BYTES: usize = 2 * 8 * 64 * 24; // 24 rows × 64 cols × 2 buffers
const ITERS: u64 = 30;

fn reference_digest(ranks: usize) -> u64 {
    let rec = run_experiment(
        &cluster(ranks),
        &Heatdis::fixed(BYTES, 64, ITERS),
        &cfg(Strategy::Unprotected, 0),
        Arc::new(FaultPlan::none()),
    );
    rec.digest
}

#[test]
fn heatdis_failure_free_equivalence() {
    let reference = reference_digest(4);
    for strategy in [
        Strategy::VelocOnly,
        Strategy::KokkosResilience,
        Strategy::FenixVeloc,
        Strategy::FenixKokkosResilience,
        Strategy::FenixImr,
    ] {
        let (nodes, spares) = if strategy.uses_fenix() {
            (5, 1)
        } else {
            (4, 0)
        };
        let rec = run_experiment(
            &cluster(nodes),
            &Heatdis::fixed(BYTES, 64, ITERS),
            &cfg(strategy, spares),
            Arc::new(FaultPlan::none()),
        );
        assert_eq!(rec.digest, reference, "{strategy}");
        assert_eq!(rec.iterations, ITERS, "{strategy}");
    }
}

#[test]
fn heatdis_recovery_is_bitwise_exact() {
    let reference = reference_digest(4);
    // Failure at iteration 23 — ~95% of the 20..24 checkpoint interval.
    for strategy in [
        Strategy::KokkosResilience,
        Strategy::FenixKokkosResilience,
        Strategy::FenixImr,
    ] {
        let (nodes, spares) = if strategy.uses_fenix() {
            (5, 1)
        } else {
            (4, 0)
        };
        let rec = run_experiment(
            &cluster(nodes),
            &Heatdis::fixed(BYTES, 64, ITERS),
            &cfg(strategy, spares),
            Arc::new(FaultPlan::kill_at(2, "iter", 23)),
        );
        assert_eq!(rec.digest, reference, "{strategy} diverged after recovery");
        if strategy.uses_fenix() {
            assert_eq!(rec.relaunches, 0, "{strategy}");
            assert!(rec.repairs >= 1, "{strategy}");
        } else {
            assert_eq!(rec.relaunches, 1, "{strategy}");
        }
    }
}

#[test]
fn heatdis_converges_under_partial_rollback() {
    // Small grid: Jacobi needs O(N²) sweeps, so convergence tests use a
    // 32×16 global grid (8 rows × 16 cols per rank across 4 ranks).
    let app = Heatdis::converging(2 * 8 * 16 * 8, 16, 3000).with_eps(0.5);
    let c = cluster(5);
    let free = run_experiment(
        &c,
        &app,
        &cfg(Strategy::FenixKokkosResilience, 1),
        Arc::new(FaultPlan::none()),
    );
    assert!(
        free.iterations > 10 && free.iterations < 3000,
        "failure-free run converged in {} iterations",
        free.iterations
    );

    let kill_at = free.iterations * 3 / 4;
    let partial = run_experiment(
        &c,
        &app,
        &cfg(Strategy::PartialRollback, 1),
        Arc::new(FaultPlan::kill_at(1, "iter", kill_at)),
    );
    assert!(partial.repairs >= 1);
    assert!(partial.iterations < 3000, "partial rollback converged");

    let full = run_experiment(
        &c,
        &app,
        &cfg(Strategy::FenixKokkosResilience, 1),
        Arc::new(FaultPlan::kill_at(1, "iter", kill_at)),
    );
    assert!(full.repairs >= 1);
    assert!(full.iterations < 3000, "full rollback converged");

    // The paper's §VI.D.2: survivors keeping in-progress data cuts the
    // post-failure work — partial rollback needs no more total iterations
    // than full rollback.
    assert!(
        partial.iterations <= full.iterations,
        "partial ({}) should not exceed full ({})",
        partial.iterations,
        full.iterations
    );
}

#[test]
fn heatdis_checkpoint_is_half_app_data() {
    // The checkpointed view (primary buffer) is half of per-rank app data.
    let app = Heatdis::fixed(BYTES, 64, 4);
    let rows = app.rows_per_rank();
    let ckpt_bytes = (rows + 2) * 64 * 8;
    assert!((ckpt_bytes as f64) / (BYTES as f64) > 0.4);
    assert!((ckpt_bytes as f64) / (BYTES as f64) < 0.6);
}

#[test]
fn heatdis_is_decomposition_invariant() {
    // The same global grid computed on 1 rank and on 4 ranks must produce
    // bitwise-identical fields: halo exchange is exact communication, not
    // an approximation.
    use resilience::{Bookkeeper, RankApp};
    use simmpi::{Universe, UniverseConfig};
    use std::sync::Mutex;

    let cols = 32;
    let rows_per_rank = 8;
    let iters = 25u64;

    let run = |ranks: usize| -> Vec<f64> {
        let app = Heatdis::fixed(2 * 8 * cols * rows_per_rank * 4 / ranks, cols, iters);
        let field = Mutex::new(vec![Vec::new(); ranks]);
        let report = Universe::launch(
            &cluster(ranks),
            UniverseConfig::default(),
            Arc::new(FaultPlan::none()),
            |ctx| {
                let comm = ctx.world().clone();
                let bk = Bookkeeper::new(Arc::clone(ctx.profile()));
                let mut st = app.state_for(&comm);
                for i in 0..iters {
                    st.step(&comm, i, &bk)?;
                }
                field.lock().unwrap()[comm.rank()] = st.owned_field();
                Ok(())
            },
        );
        assert!(report.all_ok());
        field.into_inner().unwrap().concat()
    };

    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "cell {i}: {a} vs {b}");
    }
}
