//! Fenix-style process resilience over simulated MPI-ULFM.
//!
//! Fenix's two promises (paper §IV):
//!
//! 1. **A resilient communicator** that appears to keep a consistent process
//!    pool across failures: spare ranks are held out of the communicator and
//!    substituted *in place* for failed ranks during repair, so surviving
//!    ranks keep their rank ids and the communicator keeps its size.
//! 2. **A single control-flow exit point** for failures: in C, an error
//!    handler long-jumps back to `Fenix_Init`. The Rust rendering is
//!    [`runtime::run`] — a re-entry loop. The application body is a closure;
//!    any recoverable MPI error unwinds out of it (via `?`), Fenix repairs
//!    the communicator, and the closure is invoked again with a
//!    [`runtime::Role`] describing what this rank now is (`Initial`,
//!    `Survivor`, or `Recovered`), exactly the roles of the paper's
//!    Figure 2.
//!
//! The repair protocol rides on the ULFM primitives: revoke the resilient
//! communicator, reach fault-tolerant agreement on the dead set (a
//! rendezvous all spares pre-join, which is also how blocked spares learn
//! about failures and about normal completion), rebuild the communicator,
//! and purge stale traffic.
//!
//! Fenix's In-Memory-Redundancy data interface (the buddy-rank policy the
//! paper evaluates: each rank keeps a local copy of its checkpoint and
//! stores a remote copy in a partner rank's memory) is the `redstore` crate
//! at `Replicate { k: 2 }`; this crate is process recovery only.

pub mod mutant;
pub mod runtime;

pub use runtime::{
    run, ExhaustPolicy, Fenix, FenixConfig, RecoveryCallback, RepairInfo, Role, RunSummary,
};
