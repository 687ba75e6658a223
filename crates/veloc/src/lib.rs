//! VeloC-style asynchronous multi-tier checkpoint/restart.
//!
//! Mirrors the VeloC architecture the paper uses as its data layer:
//!
//! * Applications *protect* memory regions ([`Client::protect`]) and then
//!   call [`Client::checkpoint`]. The **synchronous** phase serializes the
//!   protected regions to node-local scratch (the paper configures scratch
//!   as memory-mapped storage, so this is "just a memory copy").
//! * An **asynchronous** backend thread — the stand-in for the co-located
//!   VeloC server process — then flushes the scratch blob to the parallel
//!   filesystem, consuming real modeled network bandwidth. This background
//!   traffic is what congests application MPI in the paper's Figure 5.
//! * Restart finds the best available version through one agreement,
//!   [`Client::agree_intact_version`]. The client is always the
//!   non-collective one this paper *adds* to make VeloC usable under Fenix
//!   process recovery: it owns no communicator, and the caller passes the
//!   one that is current. "Collective VeloC" is that same reduction called
//!   over the world communicator of a job that is relaunched whole.
//!
//! Both tiers store a checkpoint under the key `(name, version, rank)`
//! ([`cluster::Key`]): VeloC's `"{name}/v{version}/r{rank}"` file with the
//! name interned. Restart prefers scratch (fast, node-local) and falls back
//! to the filesystem — which is why in the paper "other ranks are able to
//! restore using locally-available checkpoint files" while only the
//! replacement rank pays a remote read.

//!
//! Checkpoints are *incremental* where the data layer's dirty tracking
//! allows: regions whose generation stamp did not move since the last
//! committed version are referenced by id in a VCF2 delta frame instead of
//! re-serialized, so the synchronous phase scales with changed bytes (see
//! [`serial`] for the frame format and [`client::MAX_DELTA_DEPTH`] for the
//! forced-full-frame cadence).

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
pub mod client;
pub mod region;
pub mod serial;

pub use client::{Client, Config, RestartReport, VelocError, MAX_DELTA_DEPTH};
pub use region::{Protected, VecRegion};
