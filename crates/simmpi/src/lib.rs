//! Simulated MPI with ULFM fault-tolerance semantics.
//!
//! Rust has no production MPI binding with User-Level Fault Mitigation
//! support, so this crate provides an in-process stand-in that preserves the
//! *interface and failure semantics* the paper's Fenix layer depends on:
//!
//! * Ranks are launched by a [`universe::Universe`], as OS threads or, under
//!   the DES backend, as tasks on one thread ([`sched`]); each receives a
//!   [`RankCtx`] holding its `MPI_COMM_WORLD` equivalent.
//! * Point-to-point messages and collectives move through a shared
//!   [`router::Router`] of per-rank mailboxes, and every payload is charged
//!   against the modeled [`cluster::Network`] — so checkpoint traffic and
//!   application traffic genuinely contend.
//! * Failures follow ULFM: a process failure is first observed only by ranks
//!   that communicate with the victim (as [`MpiError::ProcFailed`] from an
//!   MPI call); knowledge is propagated explicitly with
//!   [`ulfm`] `revoke`, after which every pending or future operation on the
//!   communicator raises [`MpiError::Revoked`]. Survivors then use
//!   [`ulfm`] `shrink`/`agree` to rebuild a working communicator.
//! * [`fault::FaultPlan`] injects deterministic failures: an application
//!   fault point kills the rank mid-computation, mimicking the paper's
//!   "rank exits early, ~95% of the way between two checkpoints".
//!
//! Everything above the router (collective algorithms, ULFM recovery, Fenix)
//! is implemented with message passing and per-rank state only; the shared
//! memory underneath is an implementation detail of the simulation.

// A panic site fails the build in the ULFM transport, as in the recovery
// crates (DESIGN.md §10).
#![deny(
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

mod abort;
pub mod comm;
pub mod error;
pub mod fault;
pub mod pod;
pub mod rendezvous;
pub mod router;
pub mod sched;
pub mod task;
pub mod ulfm;
pub mod universe;
#[cfg(debug_assertions)]
mod witness;

pub use comm::{Comm, ReduceOp, Tag};
pub use error::{MpiError, MpiResult};
pub use fault::{
    BackendFault, CorruptKind, CorruptTier, Corruption, FaultPlan, FaultSchedule, Kill,
};
pub use pod::Pod;
pub use sched::{SchedStats, Scheduler};
pub use telemetry::Phase;
pub use universe::{Backend, LaunchReport, RankCtx, RankOutcome, Universe, UniverseConfig};
