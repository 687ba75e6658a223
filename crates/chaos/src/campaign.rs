//! Campaign driver: generate → check → shrink, N times, from one seed.

use simmpi::Backend;

use crate::oracle::{Oracle, RunOutcome, Violation};
use crate::schedule::ChaosSchedule;
use crate::shrink::shrink;
use crate::Rng;

/// One schedule's result within a campaign.
pub struct CaseResult {
    pub index: usize,
    pub schedule: ChaosSchedule,
    pub outcome: Result<RunOutcome, Violation>,
    /// Present only for failures: the minimized reproducer.
    pub shrunk: Option<ChaosSchedule>,
}

/// Everything a campaign produced.
pub struct CampaignReport {
    pub seed: u64,
    pub results: Vec<CaseResult>,
}

impl CampaignReport {
    pub fn failures(&self) -> Vec<&CaseResult> {
        self.results.iter().filter(|r| r.outcome.is_err()).collect()
    }

    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Ok(RunOutcome::Completed { .. })))
            .count()
    }

    pub fn typed_errors(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r.outcome, Ok(RunOutcome::TypedError(_))))
            .count()
    }
}

/// Run `n` schedules drawn from `seed`, shrinking every failure.
pub fn run_campaign(seed: u64, n: usize) -> CampaignReport {
    let oracle = Oracle::new();
    let mut rng = Rng::new(seed);
    let mut results = Vec::with_capacity(n);
    for index in 0..n {
        let schedule = ChaosSchedule::generate(&mut rng);
        let outcome = oracle.check(&schedule);
        let shrunk = if outcome.is_err() {
            Some(shrink(&oracle, &schedule))
        } else {
            None
        };
        results.push(CaseResult {
            index,
            schedule,
            outcome,
            shrunk,
        });
    }
    CampaignReport { seed, results }
}

/// Check (and shrink on failure) one explicit schedule — the `--schedule`
/// replay path — on `Backend::default()`: threads, or DES under
/// `SIMMPI_BACKEND=des` (seed `SIMMPI_SEED`), which replays a corpus line.
pub fn replay(sched: &ChaosSchedule) -> CaseResult {
    let oracle = Oracle::with_backend(Backend::default());
    let outcome = oracle.check(sched);
    let shrunk = if outcome.is_err() {
        Some(shrink(&oracle, sched))
    } else {
        None
    };
    CaseResult {
        index: 0,
        schedule: sched.clone(),
        outcome,
        shrunk,
    }
}
