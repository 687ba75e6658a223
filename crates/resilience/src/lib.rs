//! The integrated multi-layer resilience system — the paper's contribution.
//!
//! This crate glues the three layers together exactly as §IV–§V describe:
//! [`fenix`] handles process recovery (detecting failures, repairing the
//! communicator, reporting roles), [`kokkos_resilience`] handles control
//! flow (what/when to checkpoint, how to resume), and `veloc` handles the
//! data (asynchronous multi-tier checkpoint/restart) behind the
//! [`kokkos_resilience::DataBackend`] trait, beside the peer-memory
//! [`RedstoreBackend`]. The key integration moves are:
//!
//! * VeloC runs in **non-collective mode** with the best-checkpoint
//!   agreement performed above it;
//! * the Kokkos Resilience context is **reset with the repaired
//!   communicator** after every Fenix recovery (Figure 4's
//!   `ctx.reset(res_comm)`);
//! * checkpoint metadata caches are cleared on repair because "a checkpoint
//!   finished locally may not have finished globally".
//!
//! [`strategy::Strategy`] enumerates eight configurations — the paper's
//! §V.A matrix plus the peer-memory generalization — and
//! [`driver::run_experiment`] executes any application implementing
//! [`app::IterativeApp`] under any of them. The private `runner` keeps one
//! body per control-flow layer (unprotected, manual, Kokkos Resilience) and
//! hands it the data layer as a [`kokkos_resilience::DataBackend`] (VeloC
//! or peer memory, from [`IntegratedBackend`]'s one constructor); the
//! process layer only decides whether a rank reaches its body by (re)launch
//! — whole-job teardown, modeled `mpirun` restart, recovery from the
//! parallel filesystem — or by Fenix re-entry. The Fenix + Kokkos
//! Resilience combinations run through [`integrated::resilient_main`], the
//! same call an application makes.

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

pub mod app;
pub mod bookkeeper;
pub mod driver;
pub mod integrated;
pub mod record;
pub mod redstore_backend;
pub mod strategy;

mod runner;

pub use app::{IterativeApp, RankApp, RunMode};
pub use bookkeeper::Bookkeeper;
pub use driver::{run_experiment, try_run_experiment, ExperimentConfig, ExperimentError};
pub use integrated::{resilient_main, IntegratedBackend, IntegratedConfig, ResilientScope};
pub use record::{CostBreakdown, RunRecord};
pub use redstore_backend::RedstoreBackend;
pub use runner::resume_bounds;
pub use strategy::Strategy;
