//! Kokkos-style data abstractions.
//!
//! The paper's control-flow layer (Kokkos Resilience) leans on two Kokkos
//! properties: data lives in *labelled, reference-counted views*, and the
//! library can *observe which views a code region uses*. This crate provides
//! both for Rust:
//!
//! * [`view::View`] — an `Arc`-shared, labelled, shape-aware array of
//!   plain-old-data elements. Distinct `View` objects may share one
//!   allocation ([`view::View::duplicate_handle`]), mirroring Kokkos views
//!   copied into multiple lambdas by the compiler — the "skipped" views of
//!   the paper's Figure 7.
//! * [`capture`] — a capture-session mechanism: while a session is active on
//!   the current thread, every view whose data is locked for reading or
//!   writing is recorded. Kokkos Resilience opens a session around the first
//!   execution of a checkpoint region to discover, automatically, the data
//!   the region touches.

// No host clock, threads or blocking waits (clippy.toml) and no hash-order
// iteration on a rank's path (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod capture;
pub mod view;

pub use capture::{CaptureRecord, CaptureSession};
pub use view::{deep_copy, View, ViewMeta};
