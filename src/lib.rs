//! # layered-resilience
//!
//! Umbrella crate for the Rust reproduction of *Integrating process,
//! control-flow, and data resiliency layers using a hybrid Fenix/Kokkos
//! approach* (IEEE CLUSTER 2022).
//!
//! The system is a set of cooperating runtimes, one per resilience layer,
//! plus the integration protocol that is the paper's contribution:
//!
//! * [`fenix`] — **process** resilience: spare ranks, a resilient
//!   communicator that survives rank failures, and a single control-flow
//!   exit point.
//! * [`redstore`] — checkpoints in **peer memory**: k-replica (k = 2 is
//!   Fenix's buddy-rank in-memory redundancy) or erasure-coded placement
//!   groups on distinct nodes, re-encoded after every repair.
//! * [`kokkos_resilience`] — **control-flow** resilience: checkpoint regions
//!   wrapped in closures, automatic detection of the [`kokkos`] views a
//!   region uses, checkpoint-interval filters, and pluggable data backends.
//! * [`veloc`] — **data** resilience: asynchronous multi-tier
//!   checkpoint/restart (node-local scratch + parallel filesystem), in
//!   collective or non-collective ("single") mode.
//! * [`resilience`] — the glue: the strategy matrix of the paper's §V and
//!   the integrated Fenix + Kokkos Resilience + VeloC run loop of Figure 4.
//!
//! Substrates (pure simulation; see `DESIGN.md` for the substitution table):
//!
//! * [`simmpi`] — simulated MPI with ULFM fault-tolerance semantics and
//!   fault injection.
//! * [`cluster`] — modeled interconnect / parallel filesystem / node scratch
//!   with real contention via bandwidth governors.
//! * [`kokkos`] — labelled views and parallel patterns.
//! * [`apps`] — the paper's two evaluation applications, Heatdis and MiniMD.
//! * [`telemetry`] — cross-layer observability: structured event log,
//!   span timers backing the cost categories, metrics, and trace exporters
//!   (JSONL / Chrome `trace_event` / failure timeline).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for the Figure 4 pattern: a resilient
//! iteration loop that survives a mid-run rank failure.

pub use apps;
pub use cluster;
pub use fenix;
pub use kokkos;
pub use kokkos_resilience;
pub use redstore;
pub use resilience;
pub use simmpi;
pub use telemetry;
pub use veloc;

/// Crate version, for reports.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
