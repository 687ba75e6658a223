//! Shared experiment drivers.

use std::sync::Arc;

use apps::{Heatdis, MiniMd};
use cluster::{Cluster, ClusterConfig, TimeScale};
use resilience::{run_experiment, ExperimentConfig, IterativeApp, RunRecord, Strategy};
use simmpi::FaultPlan;
use telemetry::{Json, Telemetry};

/// A no-failure/with-failure pair of averaged runs for one configuration —
/// the paper's protocol: "Each tested application is run four times, twice
/// with failure and twice without. The times are averaged."
#[derive(Clone, Debug)]
pub struct PairedRuns {
    pub strategy: Strategy,
    pub no_failure: RunRecord,
    pub with_failure: Option<RunRecord>,
}

impl PairedRuns {
    /// The paper's "failure cost": wall-time difference.
    pub fn failure_cost_secs(&self) -> Option<f64> {
        self.with_failure
            .as_ref()
            .map(|f| f.wall.as_secs_f64() - self.no_failure.wall.as_secs_f64())
    }
}

/// One x-axis point of a figure: label plus the per-strategy pairs.
#[derive(Clone, Debug)]
pub struct ExperimentPoint {
    pub label: String,
    pub active_ranks: usize,
    pub pairs: Vec<PairedRuns>,
}

/// Serializable flat record for `--json` output.
pub struct JsonRecord {
    pub point: String,
    pub strategy: String,
    pub failed: bool,
    pub ranks: usize,
    pub wall_s: f64,
    pub categories: Vec<(String, f64)>,
    pub relaunches: usize,
    pub repairs: u64,
    pub iterations: u64,
}

impl JsonRecord {
    pub fn from_record(point: &str, failed: bool, rec: &RunRecord) -> Self {
        JsonRecord {
            point: point.to_owned(),
            strategy: rec.strategy.label().to_owned(),
            failed,
            ranks: rec.ranks,
            wall_s: rec.wall.as_secs_f64(),
            categories: rec
                .breakdown
                .rows()
                .into_iter()
                .map(|(n, v)| (n.to_owned(), v))
                .collect(),
            relaunches: rec.relaunches,
            repairs: rec.repairs,
            iterations: rec.iterations,
        }
    }

    /// Flat JSON object for this record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("point", Json::from(self.point.as_str())),
            ("strategy", Json::from(self.strategy.as_str())),
            ("failed", Json::from(self.failed)),
            ("ranks", Json::from(self.ranks)),
            ("wall_s", Json::from(self.wall_s)),
            (
                "categories",
                Json::arr(
                    self.categories
                        .iter()
                        .map(|(n, v)| Json::arr([Json::from(n.as_str()), Json::from(*v)])),
                ),
            ),
            ("relaunches", Json::from(self.relaunches)),
            ("repairs", Json::from(self.repairs)),
            ("iterations", Json::from(self.iterations)),
        ])
    }
}

/// Build the experiment cluster for a given active-rank count (Fenix
/// strategies get their spares as extra nodes, like the paper's spare
/// nodes).
pub fn experiment_cluster(nodes: usize, time_scale: f64) -> Cluster {
    let cfg = ClusterConfig {
        nodes,
        ranks_per_node: 1,
        time_scale: TimeScale(time_scale),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}

fn averaged(records: Vec<RunRecord>) -> RunRecord {
    // Average wall and each category over repeats; keep the rest from the
    // first record.
    let n = records.len() as f64;
    let mut it = records.into_iter();
    let mut acc = it.next().expect("at least one repeat");
    let mut wall = acc.wall.as_secs_f64();
    let mut cats: Vec<f64> = acc.breakdown.rows().iter().map(|(_, v)| *v).collect();
    for r in it {
        wall += r.wall.as_secs_f64();
        for (c, (_, v)) in cats.iter_mut().zip(r.breakdown.rows()) {
            *c += v;
        }
        acc.relaunches = acc.relaunches.max(r.relaunches);
        acc.repairs = acc.repairs.max(r.repairs);
    }
    wall /= n;
    for c in &mut cats {
        *c /= n;
    }
    // Write the averages back through the breakdown fields.
    acc.wall = std::time::Duration::from_secs_f64(wall);
    let b = &mut acc.breakdown;
    let assign = |d: &mut std::time::Duration, v: f64| {
        *d = std::time::Duration::from_secs_f64(v.max(0.0));
    };
    assign(&mut b.app_compute, cats[0]);
    assign(&mut b.app_mpi, cats[1]);
    assign(&mut b.force_compute, cats[2]);
    assign(&mut b.neighboring, cats[3]);
    assign(&mut b.communicator, cats[4]);
    assign(&mut b.resilience_init, cats[5]);
    assign(&mut b.checkpoint_fn, cats[6]);
    assign(&mut b.data_recovery, cats[7]);
    assign(&mut b.recompute, cats[8]);
    {
        // "Other" row merges other+app_init; store it all in `other`.
        b.app_init = std::time::Duration::ZERO;
        assign(&mut b.other, cats[9]);
    }
    acc
}

/// Run one strategy at one point: `repeats`× without failure and (if
/// `fail_at` is set) `repeats`× with a failure at that iteration.
#[allow(clippy::too_many_arguments)]
pub fn run_pair(
    app: &dyn IterativeApp,
    strategy: Strategy,
    active_ranks: usize,
    spares: usize,
    checkpoints: u64,
    fail_at: Option<(usize, u64)>,
    repeats: usize,
    time_scale: f64,
    telemetry: Option<Telemetry>,
) -> PairedRuns {
    let nodes = if strategy.uses_fenix() {
        active_ranks + spares
    } else {
        active_ranks
    };
    let cluster = experiment_cluster(nodes, time_scale);
    let cfg = ExperimentConfig {
        strategy,
        spares: if strategy.uses_fenix() { spares } else { 0 },
        checkpoints,
        max_relaunches: 6,
        redundancy: None,
        telemetry,
        backend: simmpi::Backend::default(),
    };

    let no_failure = averaged(
        (0..repeats)
            .map(|_| run_experiment(&cluster, app, &cfg, Arc::new(FaultPlan::none())))
            .collect(),
    );
    let with_failure = fail_at.map(|(rank, iter)| {
        averaged(
            (0..repeats)
                .map(|_| {
                    run_experiment(
                        &cluster,
                        app,
                        &cfg,
                        Arc::new(FaultPlan::kill_at(rank, "iter", iter)),
                    )
                })
                .collect(),
        )
    });
    PairedRuns {
        strategy,
        no_failure,
        with_failure,
    }
}

/// Figure 5 configuration.
#[derive(Clone, Debug)]
pub struct Fig5Config {
    pub strategies: Vec<Strategy>,
    pub iterations: u64,
    pub checkpoints: u64,
    pub cols: usize,
    pub repeats: usize,
    pub time_scale: f64,
    /// Observability hub shared by every run of the panel (`--trace`).
    pub telemetry: Option<Telemetry>,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            strategies: vec![
                Strategy::Unprotected,
                Strategy::KokkosResilience,
                Strategy::FenixKokkosResilience,
                Strategy::FenixImr,
            ],
            iterations: 60,
            checkpoints: 6,
            cols: 512,
            repeats: 2,
            time_scale: 1.0,
            telemetry: None,
        }
    }
}

/// The paper's failure point: ~95% of the way between checkpoints 4 and 5
/// (clamped into the run for configurations with fewer checkpoints).
pub fn default_fail_iteration(iterations: u64, checkpoints: u64) -> u64 {
    let interval = (iterations / checkpoints.max(1)).max(1);
    let paper_point = 4 * interval + ((interval as f64) * 0.95) as u64;
    paper_point.min(iterations.saturating_sub(2))
}

/// One Figure 5 panel: Heatdis at each `(label, mb_per_rank, ranks)` point.
pub fn fig5_panel(cfg: &Fig5Config, points: &[(String, f64, usize)]) -> Vec<ExperimentPoint> {
    points
        .iter()
        .map(|(label, mb, ranks)| {
            let app = Heatdis::fixed((mb * 1e6) as usize, cfg.cols, cfg.iterations);
            let fail_iter = default_fail_iteration(cfg.iterations, cfg.checkpoints);
            let pairs = cfg
                .strategies
                .iter()
                .map(|&s| {
                    run_pair(
                        &app,
                        s,
                        *ranks,
                        1,
                        cfg.checkpoints,
                        Some((ranks / 2, fail_iter)),
                        cfg.repeats,
                        cfg.time_scale,
                        cfg.telemetry.clone(),
                    )
                })
                .collect();
            ExperimentPoint {
                label: label.clone(),
                active_ranks: *ranks,
                pairs,
            }
        })
        .collect()
}

/// Figure 6: MiniMD weak scaling under the integrated framework, with the
/// no-Fenix baseline for the relaunch comparison.
#[allow(clippy::too_many_arguments)]
pub fn fig6_weak_scaling(
    rank_counts: &[usize],
    cells: [usize; 3],
    iterations: u64,
    checkpoints: u64,
    repeats: usize,
    time_scale: f64,
    telemetry: Option<Telemetry>,
) -> Vec<ExperimentPoint> {
    rank_counts
        .iter()
        .map(|&ranks| {
            let app = MiniMd::new(cells, iterations);
            let fail_iter = default_fail_iteration(iterations, checkpoints);
            let pairs = [Strategy::KokkosResilience, Strategy::FenixKokkosResilience]
                .iter()
                .map(|&s| {
                    run_pair(
                        &app,
                        s,
                        ranks,
                        1,
                        checkpoints,
                        Some((ranks / 2, fail_iter)),
                        repeats,
                        time_scale,
                        telemetry.clone(),
                    )
                })
                .collect();
            ExperimentPoint {
                label: format!("{ranks} ranks"),
                active_ranks: ranks,
                pairs,
            }
        })
        .collect()
}

/// Figure 7: view statistics per simulation size.
pub struct Fig7Row {
    pub label: String,
    pub total_views: usize,
    pub checkpointed: (usize, usize),
    pub alias: (usize, usize),
    pub skipped: (usize, usize),
}

pub fn fig7_stats(cell_sizes: &[usize]) -> Vec<Fig7Row> {
    fig7_stats_traced(cell_sizes, None)
}

/// [`fig7_stats`] with an optional observability hub (`--trace`).
pub fn fig7_stats_traced(cell_sizes: &[usize], telemetry: Option<Telemetry>) -> Vec<Fig7Row> {
    use kokkos_resilience::{CheckpointFilter, Context, ContextConfig, ViewClass};
    use resilience::{Bookkeeper, RankApp};
    use simmpi::{Universe, UniverseConfig};

    cell_sizes
        .iter()
        .map(|&n| {
            let cluster = experiment_cluster(1, 0.0);
            let row = std::sync::Mutex::new(None);
            let report = Universe::launch(
                &cluster,
                UniverseConfig {
                    telemetry: telemetry.clone(),
                    ..UniverseConfig::default()
                },
                Arc::new(FaultPlan::none()),
                |ctx| {
                    let app = MiniMd::new([n, n, n], 1);
                    let comm = ctx.world().clone();
                    let bk = Bookkeeper::new(Arc::clone(ctx.profile()));
                    let mut st = app.state_for(&comm);
                    let kr = Context::new(
                        ctx.cluster(),
                        comm.clone(),
                        ContextConfig {
                            name: format!("fig7-{n}"),
                            filter: CheckpointFilter::Never,
                            aliases: app.alias_labels(),
                        },
                    );
                    kr.set_recorder(ctx.recorder().clone());
                    kr.checkpoint("loop", 0, || st.step(&comm, 0, &bk))?;
                    let stats = kr.region_stats("loop").expect("region detected");
                    *row.lock().unwrap() = Some(Fig7Row {
                        label: format!("{n}^3 cells ({} atoms)", app.atoms_per_rank()),
                        total_views: stats.total_views(),
                        checkpointed: (
                            stats.count(ViewClass::Checkpointed),
                            stats.bytes(ViewClass::Checkpointed),
                        ),
                        alias: (stats.count(ViewClass::Alias), stats.bytes(ViewClass::Alias)),
                        skipped: (
                            stats.count(ViewClass::Skipped),
                            stats.bytes(ViewClass::Skipped),
                        ),
                    });
                    Ok(())
                },
            );
            assert!(report.all_ok());
            row.into_inner().unwrap().expect("stats recorded")
        })
        .collect()
}

/// §VI.D.2: partial vs full rollback on converging Heatdis.
pub struct PartialRollbackResult {
    pub free_iterations: u64,
    /// Loop iteration the recovered runs resumed from (checkpoint + 1).
    pub resume_iteration: u64,
    pub full: RunRecord,
    pub partial: RunRecord,
}

impl PartialRollbackResult {
    /// Iterations executed after the failure (the recovery work).
    pub fn post_failure_iterations(&self, rec: &RunRecord) -> u64 {
        rec.iterations.saturating_sub(self.resume_iteration)
    }

    /// How much less recovery work partial rollback needed (the paper's
    /// "nearly 2× speedup of recovery").
    pub fn recovery_speedup(&self) -> f64 {
        let full = self.post_failure_iterations(&self.full).max(1);
        let partial = self.post_failure_iterations(&self.partial).max(1);
        full as f64 / partial as f64
    }
}

pub fn partial_rollback_comparison(
    per_rank_bytes: usize,
    cols: usize,
    ranks: usize,
    time_scale: f64,
    telemetry: Option<Telemetry>,
) -> PartialRollbackResult {
    let app = Heatdis::converging(per_rank_bytes, cols, 12_000).with_eps(0.3);
    let cluster = experiment_cluster(ranks + 1, time_scale);
    let cfg = |strategy| ExperimentConfig {
        strategy,
        spares: 1,
        checkpoints: 6,
        max_relaunches: 4,
        redundancy: None,
        telemetry: telemetry.clone(),
        backend: simmpi::Backend::default(),
    };
    let free = run_experiment(
        &cluster,
        &app,
        &cfg(Strategy::FenixKokkosResilience),
        Arc::new(FaultPlan::none()),
    );
    let kill = free.iterations * 3 / 4;
    // Checkpoints fire at i % interval == interval-1; the recovered runs
    // resume at the first iteration after the last checkpoint before the
    // kill.
    let interval = 12_000u64 / 6;
    let resume_iteration = (kill / interval) * interval;
    let full = run_experiment(
        &cluster,
        &app,
        &cfg(Strategy::FenixKokkosResilience),
        Arc::new(FaultPlan::kill_at(1, "iter", kill)),
    );
    let partial = run_experiment(
        &cluster,
        &app,
        &cfg(Strategy::PartialRollback),
        Arc::new(FaultPlan::kill_at(1, "iter", kill)),
    );
    PartialRollbackResult {
        free_iterations: free.iterations,
        resume_iteration,
        full,
        partial,
    }
}
