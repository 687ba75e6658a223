//! Experiment orchestration: launch, relaunch, and measurement.
//!
//! The driver is the equivalent of the paper's test scripts: it times the
//! whole job from the outside (like `time mpirun …`), so costs that are
//! invisible inside the application — modeled job startup/teardown, the
//! relaunch a non-Fenix recovery needs, trailing checkpoint flushes — land
//! in the "Other" category of the cost breakdown.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use cluster::Cluster;
use simmpi::{Backend, FaultPlan, MpiError, Universe, UniverseConfig};
use telemetry::{Phase, PhaseAccumulator, Telemetry};

use crate::app::IterativeApp;
use crate::record::{CostBreakdown, RunRecord};
use crate::runner::{self, SharedState};
use crate::strategy::Strategy;

/// Options for one experiment run.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    pub strategy: Strategy,
    /// Spare ranks for Fenix strategies (ignored otherwise).
    pub spares: usize,
    /// Number of checkpoints over the whole run (the paper uses 6).
    pub checkpoints: u64,
    /// Safety bound on whole-job relaunches.
    pub max_relaunches: usize,
    /// Observability hub: when set, every launch (and relaunch) of this
    /// experiment records events/spans/metrics into it.
    pub telemetry: Option<Telemetry>,
    /// Execution engine for every launch of this experiment (threads by
    /// default; `Backend::Des` pairs with a `virtual_time` cluster for
    /// deterministic schedules).
    pub backend: Backend,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            strategy: Strategy::FenixKokkosResilience,
            spares: 1,
            checkpoints: 6,
            max_relaunches: 8,
            telemetry: None,
            backend: Backend::default(),
        }
    }
}

/// Typed terminal failures of an experiment run.
///
/// These are the clean outcomes the chaos oracle accepts in lieu of a
/// completed run: the job ended, every rank unwound, and the reason is
/// machine-readable — never a panic, never a hang.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExperimentError {
    /// A rank ended with an error no recovery layer claimed (e.g. spare
    /// pool exhausted, data unrecoverable).
    RankFailed {
        rank: usize,
        strategy: Strategy,
        error: MpiError,
    },
    /// A relaunch-based strategy exceeded its relaunch budget.
    RelaunchLimit { limit: usize, strategy: Strategy },
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::RankFailed {
                rank,
                strategy,
                error,
            } => write!(
                f,
                "rank {rank} failed unrecoverably under {strategy:?}: {error}"
            ),
            ExperimentError::RelaunchLimit { limit, strategy } => {
                write!(f, "exceeded {limit} relaunches under {strategy:?}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Run `app` on `cluster` under the configured strategy, injecting the
/// failures in `plan`. Returns the paper-style cost record.
///
/// Panics on unrecoverable outcomes — the historical harness behavior.
/// Callers that must observe failure as data (the chaos oracle) use
/// [`try_run_experiment`] instead.
pub fn run_experiment(
    cluster: &Cluster,
    app: &dyn IterativeApp,
    cfg: &ExperimentConfig,
    plan: Arc<FaultPlan>,
) -> RunRecord {
    match try_run_experiment(cluster, app, cfg, plan) {
        Ok(record) => record,
        Err(e) => panic!("{e}"),
    }
}

/// Like [`run_experiment`], but unrecoverable outcomes surface as a typed
/// [`ExperimentError`] instead of a panic.
///
/// For Fenix strategies the job is launched once and recovers in place.
/// For plain-MPI strategies a failure aborts the job; the driver pays the
/// modeled teardown+startup and relaunches until the run completes.
pub fn try_run_experiment(
    cluster: &Cluster,
    app: &dyn IterativeApp,
    cfg: &ExperimentConfig,
    plan: Arc<FaultPlan>,
) -> Result<RunRecord, ExperimentError> {
    // Every run starts from empty checkpoint storage.
    cluster.pfs().clear();
    cluster.scratch().clear();
    let shared = SharedState::default();
    let failures = plan.kills().len();
    let n = cluster.topology().total_ranks();
    // The wall time reported is a difference on the cluster clock, the one
    // the ranks' phase costs are read from. When that clock is virtual the
    // driver itself must not sleep: modeled teardown/startup charges
    // advance it instead.
    let clock = cluster.clock();
    let _driver_sleeper = clock.is_virtual().then(|| {
        let clock = Arc::clone(clock);
        cluster::install_virtual_sleeper(Arc::new(move |modeled: Duration| {
            clock.advance(modeled.as_nanos().min(u128::from(u64::MAX)) as u64);
        }))
    });
    let start_ns = clock.now_ns();
    // Each rank's phase costs, summed over the launches it ran in.
    let per_rank: Vec<PhaseAccumulator> = (0..n).map(|_| PhaseAccumulator::new()).collect();
    let mut relaunches = 0usize;

    // Fenix strategies recover in place: the one launch either completes
    // or ends in an error no layer claimed. Plain-MPI strategies abort on
    // the first failure and are relaunched until the run completes.
    let in_place = cfg.strategy.uses_fenix();
    loop {
        shared
            .relaunches
            .store(relaunches as u64, Ordering::Relaxed);
        let report = Universe::launch(
            cluster,
            UniverseConfig {
                abort_on_failure: !in_place,
                charge_startup: true,
                telemetry: cfg.telemetry.clone(),
                backend: cfg.backend,
            },
            Arc::clone(&plan),
            |ctx| runner::run_rank(ctx, app, cfg.strategy, cfg.spares, cfg.checkpoints, &shared),
        );
        for o in &report.outcomes {
            if let Some(phases) = o.recorder.phases() {
                per_rank[o.rank].merge_from(phases);
            }
        }
        if in_place {
            for o in &report.outcomes {
                match &o.result {
                    Ok(()) => {}
                    Err(MpiError::Killed) => {} // injected victim
                    Err(e) => {
                        return Err(ExperimentError::RankFailed {
                            rank: o.rank,
                            strategy: cfg.strategy,
                            error: e.clone(),
                        })
                    }
                }
            }
            break;
        }
        if report.all_ok() {
            break;
        }
        relaunches += 1;
        if relaunches > cfg.max_relaunches {
            return Err(ExperimentError::RelaunchLimit {
                limit: cfg.max_relaunches,
                strategy: cfg.strategy,
            });
        }
        // The failed job must be fully torn down before the next launch.
        cluster
            .time_scale()
            .sleep(cluster.config().relaunch.teardown(n));
    }

    let wall = Duration::from_nanos(clock.now_ns().saturating_sub(start_ns));
    // Critical-path view, matching a wall-clock measurement: per phase, the
    // rank that spent the most in it.
    let slowest = |phase| per_rank.iter().map(|r| r.get(phase)).max();
    let phases: Vec<(Phase, Duration)> = Phase::ALL
        .iter()
        .map(|&phase| (phase, slowest(phase).unwrap_or_default()))
        .collect();
    Ok(RunRecord {
        strategy: cfg.strategy,
        ranks: n,
        wall,
        breakdown: CostBreakdown::from_phases(&phases, wall),
        relaunches,
        repairs: shared.repairs.load(Ordering::Relaxed),
        failures,
        digest: shared.digest.load(Ordering::Relaxed),
        iterations: shared.iterations.load(Ordering::Relaxed),
        resumed_at: shared.resumed_at.into_inner().into_values().collect(),
    })
}
