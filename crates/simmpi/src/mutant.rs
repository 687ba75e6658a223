//! A seeded memory-ordering violation, compiled only under the
//! `lint-mutants` feature. No runtime suite catches it: the live version
//! survived tier-1 and the chaos smoke (DESIGN.md §10), and no suite can
//! kill a `Relaxed` mutant on x86-64.
//!
//! `crates/lint/tests/mutant.rs` proves the analyzer catches the
//! violation below exactly when mutants are opted in, and that it stays
//! invisible to the default workspace scan, which is required to be clean.

/// BUG (on purpose): an abort flag published with `Relaxed`, so a rank
/// that observes it is not ordered after the writes made before the abort.
/// `relaxed-sync` must flag it.
#[cfg(feature = "lint-mutants")]
pub fn abort_relaxed(aborted: &std::sync::atomic::AtomicBool) {
    use std::sync::atomic::Ordering;
    aborted.store(true, Ordering::Relaxed);
}
