//! The differential oracle: what a resilient run is allowed to do.
//!
//! For every chaos schedule the oracle runs the same application twice on
//! identically-shaped clusters — once uninterrupted (the baseline, cached
//! per strategy) and once under the schedule — and accepts exactly two
//! outcomes:
//!
//! 1. the run completes and its digest is bitwise-equal to the baseline;
//! 2. the run ends in a typed [`resilience::ExperimentError`].
//!
//! Everything else is a violation: a digest divergence (silent data
//! corruption survived the stack), a panic (a layer gave up instead of
//! unwinding through the error channel), a hang past the watchdog (a
//! collective deadlock), or a causally-impossible telemetry timeline.

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use apps::Heatdis;
use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};
use parking_lot::Mutex;
use resilience::{try_run_experiment, ExperimentConfig, ExperimentError, RunRecord, Strategy};
use simmpi::Backend;
use telemetry::{Event, Telemetry, TelemetryConfig, TimeSource, TraceSnapshot};

use crate::schedule::{ChaosSchedule, ACTIVE_RANKS, CHECKPOINTS, ITERATIONS};

/// Accepted terminal states of a chaotic run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Run completed; digest matched the baseline. `resumed_at` is the
    /// run's `RunRecord::resumed_at`: per recovery, the iteration the job
    /// resumed from. Not part of the verdict; `corpus` pins it per line.
    Completed { digest: u64, resumed_at: Vec<u64> },
    /// Run ended in a typed experiment error (spare exhaustion, data
    /// unrecoverable, relaunch budget) — clean by contract.
    TypedError(ExperimentError),
}

/// Oracle violations, most severe first.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Completed with a different answer than the uninterrupted run.
    Divergence { expected: u64, got: u64 },
    /// A panic escaped the resilience stack.
    Panic(String),
    /// No terminal state within the watchdog window: collective deadlock.
    Hang,
    /// Telemetry failure timeline is causally impossible.
    Timeline(String),
    /// The *uninterrupted* baseline failed — a harness bug, reported
    /// distinctly so it is never read as a chaos finding.
    Baseline(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Divergence { expected, got } => {
                write!(
                    f,
                    "digest divergence: baseline {expected:#018x}, got {got:#018x}"
                )
            }
            Violation::Panic(msg) => write!(f, "panic escaped the stack: {msg}"),
            Violation::Hang => write!(f, "no terminal state before watchdog timeout"),
            Violation::Timeline(msg) => write!(f, "timeline violation: {msg}"),
            Violation::Baseline(msg) => write!(f, "baseline run failed: {msg}"),
        }
    }
}

/// Verdict plus the evidence (telemetry of the chaotic run).
pub struct CaseReport {
    pub verdict: Result<RunOutcome, Violation>,
    pub snapshot: TraceSnapshot,
}

/// Watchdog window for one chaotic run (simulated time is instant, so
/// this is pure wall slack; anything near it is a deadlock). Under the DES
/// backend deadlocks surface as typed aborts first; the watchdog remains as
/// a livelock backstop.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Differential oracle with a per-strategy baseline cache.
pub struct Oracle {
    baselines: Mutex<HashMap<(Strategy, usize, usize), u64>>,
    /// Execution engine for every run this oracle launches. `Des` runs on
    /// virtual-time clusters with virtually-stamped telemetry, so a
    /// schedule's verdict *and* timeline are pure functions of the seed.
    backend: Backend,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

fn campaign_cluster(nodes: usize, rpn: usize, virtual_time: bool) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        ranks_per_node: rpn,
        time_scale: TimeScale::instant(),
        relaunch: RelaunchModel::free(),
        virtual_time,
        ..ClusterConfig::default()
    })
}

fn campaign_app() -> Heatdis {
    Heatdis::fixed(2 * 8 * 16 * 8, 16, ITERATIONS)
}

fn experiment_config(
    sched: &ChaosSchedule,
    telemetry: Option<Telemetry>,
    backend: Backend,
) -> ExperimentConfig {
    ExperimentConfig {
        strategy: sched.strategy,
        spares: sched.spares,
        checkpoints: CHECKPOINTS,
        max_relaunches: 8,
        telemetry,
        backend,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

impl Oracle {
    pub fn new() -> Oracle {
        Self::with_backend(Backend::Threads)
    }

    /// An oracle whose every launch runs on the given backend.
    /// `Backend::Des { seed }` turns the campaign into deterministic
    /// schedule-exploration: the seed picks the interleaving of
    /// simultaneous events, and replaying a `(schedule, seed)` pair
    /// reproduces the run bit-for-bit.
    pub fn with_backend(backend: Backend) -> Oracle {
        Oracle {
            baselines: Mutex::new(HashMap::new()),
            backend,
        }
    }

    /// Digest of the uninterrupted run (cached). Keyed by the full cluster
    /// shape — rank-per-node layout changes the communicator's node map,
    /// hence placement, hence the run's telemetry (never its digest, but
    /// the baseline must still launch on the identical shape).
    fn baseline(&self, strategy: Strategy, spares: usize, rpn: usize) -> Result<u64, Violation> {
        if let Some(d) = self.baselines.lock().get(&(strategy, spares, rpn)) {
            return Ok(*d);
        }
        let sched = ChaosSchedule {
            strategy,
            spares,
            rpn,
            events: Vec::new(),
        };
        let digest = match self.launch(&sched, false).0? {
            Ok(record) => record.digest,
            Err(e) => return Err(Violation::Baseline(e.to_string())),
        };
        self.baselines
            .lock()
            .insert((strategy, spares, rpn), digest);
        Ok(digest)
    }

    /// Run one schedule under the watchdog. `Ok(Ok(record))` = completed,
    /// `Ok(Err(e))` = typed error, `Err` = panic or hang. Also returns
    /// the telemetry hub when one was requested — it is created here so a
    /// DES run's hub can stamp events from the cluster's virtual clock.
    fn launch(
        &self,
        sched: &ChaosSchedule,
        want_telemetry: bool,
    ) -> (
        Result<Result<RunRecord, ExperimentError>, Violation>,
        Option<Telemetry>,
    ) {
        let des = matches!(self.backend, Backend::Des { .. });
        let cluster = campaign_cluster(sched.nodes(), sched.rpn, des);
        let telemetry = want_telemetry.then(|| {
            if des {
                let clock = Arc::clone(cluster.clock());
                Telemetry::with_time_source(
                    TelemetryConfig::default(),
                    TimeSource::External(Arc::new(move || clock.now_ns())),
                )
            } else {
                Telemetry::new(TelemetryConfig::default())
            }
        });
        let cfg = experiment_config(sched, telemetry.clone(), self.backend);
        let plan = Arc::new(sched.build_plan());
        let (tx, rx) = mpsc::channel();
        // The worker is detached on purpose: if the run deadlocks we report
        // Hang and leak the stuck threads rather than joining forever.
        std::thread::spawn(move || {
            let app = campaign_app();
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                try_run_experiment(&cluster, &app, &cfg, plan)
            }));
            let _ = tx.send(result);
        });
        let verdict = match rx.recv_timeout(WATCHDOG) {
            Err(_) => Err(Violation::Hang),
            Ok(Err(payload)) => Err(Violation::Panic(panic_message(payload))),
            Ok(Ok(Ok(record))) => Ok(Ok(record)),
            Ok(Ok(Err(e))) => Ok(Err(e)),
        };
        (verdict, telemetry)
    }

    /// Full differential check of one schedule, with evidence.
    pub fn run(&self, sched: &ChaosSchedule) -> CaseReport {
        let expected = match self.baseline(sched.strategy, sched.spares, sched.rpn) {
            Ok(d) => d,
            Err(v) => {
                return CaseReport {
                    verdict: Err(v),
                    snapshot: TraceSnapshot::default(),
                }
            }
        };
        let (outcome, tel) = self.launch(sched, true);
        let snapshot = tel.map(|t| t.snapshot()).unwrap_or_default();
        let verdict = match outcome {
            Err(v) => Err(v),
            Ok(terminal) => match check_timeline(&snapshot) {
                Err(v) => Err(v),
                Ok(()) => match terminal {
                    Ok(record) if record.digest == expected => Ok(RunOutcome::Completed {
                        digest: record.digest,
                        resumed_at: record.resumed_at,
                    }),
                    Ok(record) => Err(Violation::Divergence {
                        expected,
                        got: record.digest,
                    }),
                    Err(e) => Ok(RunOutcome::TypedError(e)),
                },
            },
        };
        CaseReport { verdict, snapshot }
    }

    /// Verdict only.
    pub fn check(&self, sched: &ChaosSchedule) -> Result<RunOutcome, Violation> {
        self.run(sched).verdict
    }
}

/// Causal-order checks over the merged failure timeline.
///
/// Only positive evidence fails a run: when the logs dropped events the
/// timeline is incomplete and the checks are skipped rather than guessed.
pub fn check_timeline(snap: &TraceSnapshot) -> Result<(), Violation> {
    if snap.dropped > 0 {
        return Ok(());
    }

    // 1. Injection precedes death: a rank with both kinds of event must
    //    have been marked for injection no later than its first death.
    for rank in 0..ACTIVE_RANKS as u32 {
        let injected = snap
            .events
            .iter()
            .find(|e| e.rank == rank && e.event.kind() == "fault_injected");
        let killed = snap
            .events
            .iter()
            .find(|e| e.rank == rank && e.event.kind() == "rank_killed");
        if let (Some(i), Some(k)) = (injected, killed) {
            if i.t_ns > k.t_ns {
                return Err(Violation::Timeline(format!(
                    "rank {rank} died at {} before its fault injection at {}",
                    k.t_ns, i.t_ns
                )));
            }
        }
    }

    // 2. Repair epochs pair up: a repair that ended must have begun no
    //    later than it ended. Fenix stamps RepairBegin with the pre-repair
    //    count and RepairEnd with the post-repair count, hence the -1.
    for e in &snap.events {
        if let Event::RepairEnd { epoch, .. } = &e.event {
            let begun = snap.events.iter().any(|b| {
                matches!(&b.event, Event::RepairBegin { epoch: be } if *be + 1 == *epoch)
                    && b.t_ns <= e.t_ns
            });
            if !begun {
                return Err(Violation::Timeline(format!(
                    "repair_end epoch {epoch} at {} with no earlier repair_begin",
                    e.t_ns
                )));
            }
        }
    }

    // 3. Restarts open before they close, per rank.
    for rank in 0..=snap.events.iter().map(|e| e.rank).max().unwrap_or(0) {
        let first_begin = snap
            .events
            .iter()
            .find(|e| e.rank == rank && e.event.kind() == "restart_begin")
            .map(|e| e.t_ns);
        let first_end = snap
            .events
            .iter()
            .find(|e| e.rank == rank && e.event.kind() == "restart_end")
            .map(|e| e.t_ns);
        if let (Some(b), Some(e)) = (first_begin, first_end) {
            if b > e {
                return Err(Violation::Timeline(format!(
                    "rank {rank} restart_end at {e} precedes restart_begin at {b}"
                )));
            }
        }
    }

    // 4. A flush lands only after its checkpoint began (same rank, same
    //    name/version coordinates).
    for e in &snap.events {
        let Event::FlushDone { name, version, .. } = &e.event else {
            continue;
        };
        let begun = snap.events.iter().any(|b| {
            b.rank == e.rank
                && b.t_ns <= e.t_ns
                && matches!(&b.event,
                    Event::CheckpointBegin { name: bn, version: bv } if bn == name && bv == version)
        });
        if !begun {
            return Err(Violation::Timeline(format!(
                "flush_done {name}/v{version} on rank {} with no earlier checkpoint_begin",
                e.rank
            )));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::DEFAULT_SEED;
    use crate::Rng;

    #[test]
    fn empty_schedule_passes_for_every_pooled_strategy() {
        let oracle = Oracle::new();
        for strategy in crate::schedule::STRATEGY_POOL {
            let sched = ChaosSchedule {
                strategy,
                spares: if strategy.uses_fenix() { 1 } else { 0 },
                rpn: 1,
                events: Vec::new(),
            };
            match oracle.check(&sched) {
                Ok(RunOutcome::Completed { resumed_at, .. }) => {
                    assert!(resumed_at.is_empty(), "{strategy:?} resumed without a kill")
                }
                other => panic!("{strategy:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn single_kill_recovers_with_equal_digest() {
        let oracle = Oracle::new();
        let sched = crate::corpus::schedule("fkr-iter");
        match oracle.check(&sched) {
            Ok(RunOutcome::Completed { resumed_at, .. }) => {
                assert_eq!(resumed_at.len(), 1, "one recovery, one resume point")
            }
            other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn oracle_is_deterministic_across_replays() {
        let oracle = Oracle::new();
        let mut rng = Rng::new(DEFAULT_SEED ^ 0x55);
        for _ in 0..4 {
            let sched = ChaosSchedule::generate(&mut rng);
            let a = oracle.check(&sched);
            let b = oracle.check(&sched);
            assert_eq!(
                a.is_ok(),
                b.is_ok(),
                "replay disagreed on {}",
                sched.to_spec()
            );
        }
    }
}
