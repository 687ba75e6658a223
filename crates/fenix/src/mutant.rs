//! A seeded protocol violation, compiled only under the `lint-mutants`
//! feature.
//!
//! `crates/lint/tests/mutant.rs` proves the analyzer catches the violation
//! below and that it stays invisible without the opt-in, so the default
//! workspace scan remains clean.

/// BUG (on purpose): only the root rank enters the barrier — the classic
/// unmatched collective `collective-match` must flag. Every other rank
/// falls through and the root blocks forever.
#[cfg(feature = "lint-mutants")]
pub fn lopsided_barrier(comm: &simmpi::Comm) {
    if comm.rank() == 0 {
        comm.barrier().ok();
    }
}
