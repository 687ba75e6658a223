//! redstore — a replicated + erasure-coded in-memory checkpoint tier.
//!
//! The paper's in-memory recovery story (Fenix IMR, buddy ranks) stops at
//! single failures: one partner holds one copy, so losing a rank *and* its
//! buddy — or a whole node that hosts both — is job loss. This crate is
//! the next redundancy tier (ROADMAP item 2), following ReStore's
//! replicated in-memory storage design (arXiv 2203.01107) and FTHP-MPI's
//! tunable-redundancy dial (arXiv 2504.09989):
//!
//! * **k-replica placement groups** — every rank's checkpoint payload is
//!   mirrored to `k-1` peers in its group ([`RedundancyMode::Replicate`]).
//! * **Erasure coding** — XOR parity for `n+1` or a GF(256) Cauchy
//!   Reed–Solomon code for `n+m` ([`RedundancyMode::XorParity`],
//!   [`RedundancyMode::ReedSolomon`]): the same coverage as replication
//!   for single failures at a fraction of the memory, and tunable
//!   multi-failure coverage beyond it.
//!
//! Placement is topology-aware ([`placement`]): members of one group land
//! on distinct modeled nodes *by construction*, so a whole-node failure
//! costs each group at most one member. After a Fenix repair the store
//! re-encodes every group under a freshly computed placement, restoring
//! coverage instead of consuming it ([`RedundancyGroup::restore`]).
//!
//! The commit protocol is Fenix's two-phase `data_commit` (exchange, then
//! fault-tolerant agreement), so a failure mid-store leaves every rank on
//! the previous committed version, never a mix.

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

pub mod codec;
pub mod gf256;
pub mod mode;
pub mod placement;
pub mod store;

pub use codec::CodecError;
pub use mode::RedundancyMode;
pub use placement::{comm_node_map, Placement, PlacementError};
pub use store::{CommitLayout, RedError, RedStore, RedundancyGroup};
