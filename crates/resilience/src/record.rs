//! Experiment outcome records — the rows of the paper's figures.

use std::time::Duration;

use simmpi::Phase;

use crate::strategy::Strategy;

/// Aggregated cost breakdown for one run, in the paper's categories.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CostBreakdown {
    pub app_compute: Duration,
    pub app_mpi: Duration,
    pub resilience_init: Duration,
    pub checkpoint_fn: Duration,
    pub data_recovery: Duration,
    pub recompute: Duration,
    pub force_compute: Duration,
    pub neighboring: Duration,
    pub communicator: Duration,
    pub app_init: Duration,
    /// Wall time not accounted by any in-app phase: job startup/teardown,
    /// relaunch, finalize — the paper's "Other".
    pub other: Duration,
}

impl CostBreakdown {
    /// Build from critical-path `(phase, duration)` span totals plus the
    /// wall time measured on the same clock.
    pub fn from_phases(phases: &[(Phase, Duration)], wall: Duration) -> Self {
        let get = |want: Phase| -> Duration {
            phases
                .iter()
                .find(|(p, _)| *p == want)
                .map_or(Duration::ZERO, |&(_, d)| d)
        };
        let accounted: Duration = phases.iter().map(|&(_, d)| d).sum();
        CostBreakdown {
            app_compute: get(Phase::AppCompute),
            app_mpi: get(Phase::AppMpi),
            resilience_init: get(Phase::ResilienceInit),
            checkpoint_fn: get(Phase::CheckpointFn),
            data_recovery: get(Phase::DataRecovery),
            recompute: get(Phase::Recompute),
            force_compute: get(Phase::ForceCompute),
            neighboring: get(Phase::Neighboring),
            communicator: get(Phase::Communicator),
            app_init: get(Phase::AppInit),
            other: wall.saturating_sub(accounted),
        }
    }

    /// Total of every category (≈ wall time).
    pub fn total(&self) -> Duration {
        self.app_compute
            + self.app_mpi
            + self.resilience_init
            + self.checkpoint_fn
            + self.data_recovery
            + self.recompute
            + self.force_compute
            + self.neighboring
            + self.communicator
            + self.app_init
            + self.other
    }

    /// `(category, seconds)` rows in the paper's figure order. `AppInit` is
    /// folded into "Other", as in the paper ("data initialization, MPI job
    /// startup/teardown, and finalization time").
    pub fn rows(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("App compute", self.app_compute.as_secs_f64()),
            ("App MPI", self.app_mpi.as_secs_f64()),
            ("Force Compute", self.force_compute.as_secs_f64()),
            ("Neighboring", self.neighboring.as_secs_f64()),
            ("Communicator", self.communicator.as_secs_f64()),
            (
                "Resilience Initialization",
                self.resilience_init.as_secs_f64(),
            ),
            ("Checkpoint Function", self.checkpoint_fn.as_secs_f64()),
            ("Data Recovery", self.data_recovery.as_secs_f64()),
            ("Recompute", self.recompute.as_secs_f64()),
            ("Other", (self.other + self.app_init).as_secs_f64()),
        ]
    }
}

/// Outcome of one experiment run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    pub strategy: Strategy,
    pub ranks: usize,
    /// End-to-end wall time, including modeled relaunch costs — the
    /// equivalent of timing `mpirun` with the bash `time` utility.
    pub wall: Duration,
    pub breakdown: CostBreakdown,
    /// Whole-job relaunches performed (non-Fenix recovery).
    pub relaunches: usize,
    /// Fenix repairs performed (process-level recovery).
    pub repairs: u64,
    /// Failures injected by the fault plan.
    pub failures: usize,
    /// Application digest at completion (for correctness checks).
    pub digest: u64,
    /// Iterations executed in the final (successful) pass.
    pub iterations: u64,
    /// Per recovery (each relaunch, each Fenix re-entry), the lowest
    /// iteration any rank resumed at. Empty for a failure-free run.
    pub resumed_at: Vec<u64>,
}

impl RunRecord {
    /// Human-readable single-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{:<18} wall={:>8.3}s ckpt={:>7.3}s recov={:>7.3}s recomp={:>7.3}s other={:>7.3}s relaunches={} repairs={}",
            self.strategy.label(),
            self.wall.as_secs_f64(),
            self.breakdown.checkpoint_fn.as_secs_f64(),
            self.breakdown.data_recovery.as_secs_f64(),
            self.breakdown.recompute.as_secs_f64(),
            (self.breakdown.other + self.breakdown.app_init).as_secs_f64(),
            self.relaunches,
            self.repairs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_is_wall_minus_accounted() {
        let phases = [
            (Phase::AppCompute, Duration::from_millis(60)),
            (Phase::CheckpointFn, Duration::from_millis(15)),
        ];
        let b = CostBreakdown::from_phases(&phases, Duration::from_millis(100));
        assert_eq!(b.app_compute, Duration::from_millis(60));
        assert_eq!(b.checkpoint_fn, Duration::from_millis(15));
        assert_eq!(b.other, Duration::from_millis(25));
        assert_eq!(b.total(), Duration::from_millis(100));
    }

    #[test]
    fn other_saturates_when_profiles_overlap_wall() {
        let phases = [(Phase::AppCompute, Duration::from_millis(150))];
        let b = CostBreakdown::from_phases(&phases, Duration::from_millis(100));
        assert_eq!(b.other, Duration::ZERO);
    }

    #[test]
    fn rows_cover_figure_categories() {
        let b = CostBreakdown::default();
        let names: Vec<_> = b.rows().iter().map(|(n, _)| *n).collect();
        for expected in [
            "App compute",
            "App MPI",
            "Checkpoint Function",
            "Data Recovery",
            "Recompute",
            "Other",
            "Force Compute",
            "Neighboring",
            "Communicator",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
