//! Phase booking with recompute rerouting.
//!
//! The paper separates "Recompute" — time spent re-executing iterations that
//! had already been computed before a failure — from first-time compute.
//! Applications book their phase times through a [`Bookkeeper`]; while
//! recompute mode is on (the runner enables it for iterations at or below
//! the globally reached progress mark), every booking is rerouted to
//! [`Phase::Recompute`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use simmpi::Phase;
use telemetry::Recorder;

/// Per-rank phase booking façade over the rank's recorder
/// (`RankCtx::profile`).
pub struct Bookkeeper {
    recorder: Arc<Recorder>,
    recompute: AtomicBool,
    /// Encoded `Option<Phase>`: 0 = none, else `phase as u8 + 1`.
    override_phase: std::sync::atomic::AtomicU8,
}

impl Bookkeeper {
    pub fn new(recorder: Arc<Recorder>) -> Self {
        Bookkeeper {
            recorder,
            recompute: AtomicBool::new(false),
            override_phase: std::sync::atomic::AtomicU8::new(0),
        }
    }

    /// Reroute *all* bookings to one phase (e.g. `DataRecovery` while
    /// rebuilding derived state after a restore). Pass `None` to clear.
    pub fn set_phase_override(&self, phase: Option<Phase>) {
        let encoded = phase.map_or(0, |p| p as u8 + 1);
        self.override_phase.store(encoded, Ordering::Relaxed);
    }

    fn override_get(&self) -> Option<Phase> {
        match self.override_phase.load(Ordering::Relaxed) {
            0 => None,
            // `set_phase_override` only stores `phase as u8 + 1`, so the
            // index is in range by construction; an out-of-range byte decodes
            // as "no override" rather than indexing past `ALL`.
            n => Phase::ALL.get((n - 1) as usize).copied(),
        }
    }

    /// Enable/disable recompute rerouting.
    pub fn set_recompute(&self, on: bool) {
        self.recompute.store(on, Ordering::Relaxed);
    }

    pub fn is_recompute(&self) -> bool {
        self.recompute.load(Ordering::Relaxed)
    }

    fn route(&self, phase: Phase) -> Phase {
        if let Some(p) = self.override_get() {
            return p;
        }
        if self.is_recompute() {
            match phase {
                // Resilience overheads keep their identity even during
                // recompute; only application work is rerouted.
                Phase::CheckpointFn | Phase::DataRecovery | Phase::ResilienceInit => phase,
                Phase::AppCompute
                | Phase::AppMpi
                | Phase::Recompute
                | Phase::ForceCompute
                | Phase::Neighboring
                | Phase::Communicator
                | Phase::AppInit => Phase::Recompute,
            }
        } else {
            phase
        }
    }

    /// Time `f` and book it under `phase` (or `Recompute` when rerouting).
    pub fn book<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        self.recorder.time(self.route(phase), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn bookkeeper() -> Bookkeeper {
        Bookkeeper::new(Arc::new(Recorder::disabled()))
    }

    #[test]
    fn phase_override_reroutes_and_ignores_corrupt_encodings() {
        let bk = bookkeeper();
        bk.set_phase_override(Some(Phase::DataRecovery));
        assert_eq!(bk.route(Phase::AppCompute), Phase::DataRecovery);
        // A corrupt encoding decodes as "no override", not an out-of-range
        // index into `Phase::ALL`.
        bk.override_phase.store(200, Ordering::Relaxed);
        assert_eq!(bk.route(Phase::AppCompute), Phase::AppCompute);
    }

    #[test]
    fn books_to_named_phase_by_default() {
        let bk = bookkeeper();
        for phase in Phase::ALL {
            assert_eq!(bk.route(phase), phase);
        }
    }

    #[test]
    fn recompute_mode_reroutes_app_phases() {
        let bk = bookkeeper();
        bk.set_recompute(true);
        for phase in [Phase::AppCompute, Phase::AppMpi, Phase::ForceCompute] {
            assert_eq!(bk.route(phase), Phase::Recompute);
        }
    }

    #[test]
    fn resilience_phases_keep_identity_during_recompute() {
        let bk = bookkeeper();
        bk.set_recompute(true);
        for phase in [
            Phase::CheckpointFn,
            Phase::DataRecovery,
            Phase::ResilienceInit,
        ] {
            assert_eq!(bk.route(phase), phase);
        }
    }

    #[test]
    fn phase_override_reroutes_everything() {
        let bk = bookkeeper();
        bk.set_phase_override(Some(Phase::DataRecovery));
        assert_eq!(bk.route(Phase::AppCompute), Phase::DataRecovery);
        assert_eq!(bk.route(Phase::CheckpointFn), Phase::DataRecovery);
        bk.set_phase_override(None);
        assert_eq!(bk.route(Phase::AppCompute), Phase::AppCompute);
    }

    #[test]
    fn mode_toggles() {
        let bk = bookkeeper();
        assert!(!bk.is_recompute());
        bk.set_recompute(true);
        assert!(bk.is_recompute());
        bk.set_recompute(false);
        assert_eq!(bk.route(Phase::AppCompute), Phase::AppCompute);
    }

    #[test]
    fn book_times_the_routed_phase_on_the_recorders_clock() {
        use std::sync::atomic::AtomicU64;
        use telemetry::TimeSource;

        let now = Arc::new(AtomicU64::new(0));
        let read = Arc::clone(&now);
        let time = TimeSource::External(Arc::new(move || read.load(Ordering::Relaxed)));
        let recorder = Arc::new(Recorder::phases_only(time));
        let bk = Bookkeeper::new(Arc::clone(&recorder));
        bk.set_recompute(true);
        let out = bk.book(Phase::AppCompute, || now.fetch_add(6, Ordering::Relaxed));
        assert_eq!(out, 0);
        let phases = recorder.phases().expect("enabled");
        assert_eq!(phases.get(Phase::Recompute), Duration::from_nanos(6));
        assert_eq!(phases.get(Phase::AppCompute), Duration::ZERO);
    }
}
