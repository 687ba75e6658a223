//! Kokkos Resilience-style control-flow resilience.
//!
//! Applications wrap each checkpointable region (typically a loop body) in a
//! closure passed to [`Context::checkpoint`]. The context then:
//!
//! * **detects** the [`kokkos`] views the region uses (via a capture
//!   session around the region's first execution — the Rust rendering of
//!   Kokkos Resilience hooking view copies);
//! * **classifies** them: one *checkpointed* primary per allocation,
//!   *skipped* duplicates over the same allocation (views "copied into the
//!   checkpoint lambda by the compiler"), and user-declared *aliases*
//!   (swap-space views that must not be checkpointed) — the three classes
//!   of the paper's Figure 7;
//! * **drives the data layer**: registers the checkpointed views with an
//!   internally managed VeloC client and checkpoints at the configured
//!   interval;
//! * **manages recovery**: after [`Context::latest_version`] finds a
//!   restartable version, the next execution of the region restores the
//!   views and re-executes the closure on the restored data.
//!
//! The two library modifications this paper contributes are implemented
//! exactly:
//!
//! 1. The context always launches VeloC in non-collective mode and has the
//!    best-version agreement performed as a manual reduction over its
//!    *current* communicator ([`Context::restart_version`]), making the
//!    data layer compatible with a changing process pool. Without Fenix
//!    that communicator is the world, which is all "collective VeloC" was.
//! 2. [`Context::reset`] accepts a **new communicator** after a Fenix
//!    repair: it clears the checkpoint-metadata cache (a checkpoint that
//!    finished locally may not have finished globally), re-fetches it, and
//!    updates the cached rank id here and in VeloC.
//!
//! [`RecoveryScope`] implements the partial-rollback extension: restoring
//! "at just one rank with VeloC" while survivors keep in-progress data.

// A dropped `Result`, a catch-all arm over an enum, or a panic site fails
// the build in the recovery crates (DESIGN.md §10).
#![deny(
    unused_must_use,
    clippy::let_underscore_must_use,
    clippy::wildcard_enum_match_arm,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
// No host clock, threads or blocking waits (clippy.toml) and no hash-order
// iteration on a rank's path (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod backend;
pub mod context;
pub mod filter;
pub mod stats;

pub use backend::{DataBackend, RegionViews, VelocBackend};
pub use context::{CheckpointOutcome, Context, ContextConfig, RecoveryScope};
pub use filter::CheckpointFilter;
pub use stats::{RegionStats, ViewClass, ViewStat};
