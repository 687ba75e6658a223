//! Cost-category phases and the accumulator spans book into.
//!
//! The paper reports stacked cost breakdowns; every rank's recorder carries
//! an accumulator that books span time into the same categories: Heatdis uses
//! `AppCompute`/`AppMpi`, MiniMD uses `ForceCompute`/`Neighboring`/
//! `Communicator`, and the resilience layers book their own costs
//! (`ResilienceInit`, `CheckpointFn`, `DataRecovery`, `Recompute`). Whatever
//! the harness measures beyond the in-app phases lands in the paper's
//! "Other" category (job startup/teardown, data initialization).
//!
//! `Phase` lives here so every layer (and the exporters) can speak the same
//! category names without depending on the MPI simulation; `simmpi`
//! re-exports it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Cost categories matching the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Heatdis: local stencil compute.
    AppCompute,
    /// Heatdis: time blocked in MPI calls.
    AppMpi,
    /// Fenix + Kokkos Resilience + VeloC initialization.
    ResilienceInit,
    /// Synchronous portion of checkpoint calls.
    CheckpointFn,
    /// Restoring data after a failure (restart reads + deserialization).
    DataRecovery,
    /// Re-executing iterations lost since the last checkpoint.
    Recompute,
    /// MiniMD: force computation (compute-bound).
    ForceCompute,
    /// MiniMD: neighbor-list construction (mostly compute-bound).
    Neighboring,
    /// MiniMD: atom exchange/ghost communication (communication-bound).
    Communicator,
    /// Application initialization (counted toward "Other" on relaunch).
    AppInit,
}

impl Phase {
    pub const COUNT: usize = 10;

    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::AppCompute,
        Phase::AppMpi,
        Phase::ResilienceInit,
        Phase::CheckpointFn,
        Phase::DataRecovery,
        Phase::Recompute,
        Phase::ForceCompute,
        Phase::Neighboring,
        Phase::Communicator,
        Phase::AppInit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::AppCompute => "App compute",
            Phase::AppMpi => "App MPI",
            Phase::ResilienceInit => "Resilience Initialization",
            Phase::CheckpointFn => "Checkpoint Function",
            Phase::DataRecovery => "Data Recovery",
            Phase::Recompute => "Recompute",
            Phase::ForceCompute => "Force Compute",
            Phase::Neighboring => "Neighboring",
            Phase::Communicator => "Communicator",
            Phase::AppInit => "App Init",
        }
    }
}

/// Thread-safe phase-time accumulator (nanosecond resolution): spans
/// ([`crate::span`]) book their elapsed time here on drop.
#[derive(Default)]
pub struct PhaseAccumulator {
    nanos: [AtomicU64; Phase::COUNT],
}

impl PhaseAccumulator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a measured duration to a phase.
    pub fn add(&self, phase: Phase, d: Duration) {
        self.nanos[phase as usize].fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Accumulated time in a phase.
    pub fn get(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos[phase as usize].load(Ordering::Relaxed))
    }

    /// Merge another accumulator into this one.
    pub fn merge_from(&self, other: &PhaseAccumulator) {
        for &p in &Phase::ALL {
            self.add(p, other.get(p));
        }
    }
}

impl std::fmt::Debug for PhaseAccumulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("PhaseAccumulator");
        for &p in &Phase::ALL {
            let d = self.get(p);
            if !d.is_zero() {
                s.field(p.name(), &d);
            }
        }
        s.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let a = PhaseAccumulator::new();
        a.add(Phase::AppCompute, Duration::from_millis(5));
        a.add(Phase::AppCompute, Duration::from_millis(7));
        a.add(Phase::AppMpi, Duration::from_millis(1));
        assert_eq!(a.get(Phase::AppCompute), Duration::from_millis(12));
        assert_eq!(a.get(Phase::AppMpi), Duration::from_millis(1));
        assert_eq!(a.get(Phase::Recompute), Duration::ZERO);
    }

    #[test]
    fn merge_accumulates() {
        let a = PhaseAccumulator::new();
        let b = PhaseAccumulator::new();
        a.add(Phase::Recompute, Duration::from_millis(3));
        b.add(Phase::Recompute, Duration::from_millis(4));
        a.merge_from(&b);
        assert_eq!(a.get(Phase::Recompute), Duration::from_millis(7));
    }

    #[test]
    fn phase_names_unique() {
        let mut names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Phase::COUNT);
    }
}
