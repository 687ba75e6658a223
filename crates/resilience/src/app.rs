//! The application abstraction the strategy runners drive.
//!
//! An [`IterativeApp`] describes a bulk-synchronous iterative application
//! (both of the paper's benchmarks fit: Heatdis is a stencil loop, MiniMD a
//! timestep loop). Each rank instantiates a [`RankApp`] holding its views
//! and decomposition; the runner owns the loop, the checkpoint calls, and
//! recovery, so one application definition runs under every
//! [`crate::Strategy`].

use std::sync::Arc;

use kokkos::capture::Checkpointable;
use kokkos_resilience::CheckpointFilter;
use simmpi::{Comm, MpiResult, RankCtx};

use crate::bookkeeper::Bookkeeper;

/// How the run loop terminates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunMode {
    /// Run exactly this many iterations.
    FixedIterations(u64),
    /// Run until [`RankApp::converged`] (checked every `check_every`
    /// iterations), bounded by `max_iterations`. Required for the
    /// partial-rollback strategy.
    Converge {
        check_every: u64,
        max_iterations: u64,
    },
}

impl RunMode {
    /// Upper bound on iterations (checkpoint filters are derived from it).
    pub fn max_iterations(&self) -> u64 {
        match *self {
            RunMode::FixedIterations(n) => n,
            RunMode::Converge { max_iterations, .. } => max_iterations,
        }
    }
}

/// An application, instantiable on each rank.
pub trait IterativeApp: Send + Sync {
    /// Name used to namespace checkpoint sets.
    fn name(&self) -> &str;

    /// Loop termination.
    fn mode(&self) -> RunMode;

    /// Build this rank's state: allocate views, initial conditions,
    /// decomposition. Booked under `AppInit` by the runner (this is the
    /// work a relaunch has to redo — the paper's "Other" savings).
    fn init_rank(&self, ctx: &RankCtx, comm: &Comm) -> Box<dyn RankApp>;

    /// View labels the application declares as aliases (swap space that
    /// must not be checkpointed). Forwarded to the Kokkos Resilience
    /// context under KR strategies.
    fn alias_labels(&self) -> &'static [&'static str] {
        &[]
    }

    /// The checkpoint filter for a requested checkpoint count. The default
    /// spreads the checkpoints evenly; applications with structural
    /// constraints override it (MiniMD aligns checkpoints with
    /// neighbor-rebuild boundaries, like production MD restart files).
    fn checkpoint_filter(&self, checkpoints: u64) -> CheckpointFilter {
        CheckpointFilter::for_total(self.mode().max_iterations(), checkpoints)
    }
}

/// Per-rank application state.
pub trait RankApp {
    /// Execute one iteration: compute + communication, booked through `bk`.
    /// Must lock its views through `View::read`/`View::write` so capture
    /// detection works under Kokkos Resilience strategies.
    fn step(&mut self, comm: &Comm, iteration: u64, bk: &Bookkeeper) -> MpiResult<()>;

    /// The views to checkpoint, for strategies that manage data manually
    /// (VeloC-only, Fenix+VeloC, Fenix IMR). Order must be deterministic
    /// across ranks.
    fn checkpoint_views(&self) -> Vec<Arc<dyn Checkpointable>>;

    /// Convergence test (global; may communicate). Only called in
    /// [`RunMode::Converge`]. All ranks call it at the same iterations.
    fn converged(&mut self, _comm: &Comm, _bk: &Bookkeeper) -> MpiResult<bool> {
        Ok(false)
    }

    /// Rebuild derived state after checkpoint data was restored (e.g.
    /// MiniMD neighbor lists). Default: nothing.
    fn post_restore(&mut self, _comm: &Comm, _bk: &Bookkeeper) -> MpiResult<()> {
        Ok(())
    }

    /// A content digest for correctness tests (deterministic apps only).
    fn digest(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_mode_max_iterations() {
        assert_eq!(RunMode::FixedIterations(40).max_iterations(), 40);
        assert_eq!(
            RunMode::Converge {
                check_every: 10,
                max_iterations: 500
            }
            .max_iterations(),
            500
        );
    }
}
