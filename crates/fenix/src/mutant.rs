//! Seeded protocol violations, compiled only under the `lint-mutants`
//! feature.
//!
//! `crates/lint/tests/mutant.rs` proves the analyzer catches the violation
//! below *transitively* — the panic site lives in a helper, not in the
//! entry point — and that it stays invisible without the opt-in, so the
//! default workspace scan remains clean.

/// A recovery entry point by name (`apply_repair` roots the `panic-reach`
/// traversal) that reaches a panic site only through [`rebuild_group`].
#[cfg(feature = "lint-mutants")]
pub fn apply_repair(dead: &[usize]) -> usize {
    rebuild_group(dead)
}

/// BUG (on purpose): panics on an empty dead list — exactly the class of
/// failure-during-recovery the paper's layering must exclude.
#[cfg(feature = "lint-mutants")]
fn rebuild_group(dead: &[usize]) -> usize {
    *dead.first().unwrap()
}

/// BUG (on purpose): only the root rank enters the barrier — the classic
/// unmatched collective `collective-match` must flag. Every other rank
/// falls through and the root blocks forever.
#[cfg(feature = "lint-mutants")]
pub fn lopsided_barrier(comm: &simmpi::Comm) {
    if comm.rank() == 0 {
        comm.barrier().ok();
    }
}
