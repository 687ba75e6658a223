//! Seeded lock-protocol and memory-ordering violations, compiled only
//! under the `lint-mutants` feature. No runtime suite catches any of them
//! (the live versions survived tier-1 and the chaos smoke; DESIGN.md §10).
//!
//! `crates/lint/tests/mutant.rs` proves the analyzer catches the
//! violations below exactly when mutants are opted in, and that they stay
//! invisible to the default workspace scan, which is required to be clean.

/// Two locks with no global acquisition order. [`Pair::ab`] and
/// [`Pair::ba`] take them in opposite orders — the classic ABBA deadlock
/// cycle `lock-order` must flag.
#[cfg(feature = "lint-mutants")]
#[derive(Default)]
pub struct Pair {
    mu_alpha: parking_lot::Mutex<u64>,
    mu_beta: parking_lot::Mutex<u64>,
}

#[cfg(feature = "lint-mutants")]
impl Pair {
    /// BUG (on purpose), half 1: alpha then beta.
    pub fn ab(&self) -> u64 {
        let a = self.mu_alpha.lock();
        let b = self.mu_beta.lock();
        *a + *b
    }

    /// BUG (on purpose), half 2: beta then alpha — with [`Pair::ab`],
    /// a two-thread schedule deadlocks with each holding one lock.
    pub fn ba(&self) -> u64 {
        let b = self.mu_beta.lock();
        let a = self.mu_alpha.lock();
        *a + *b
    }

    /// BUG (on purpose): a blocking receive while holding `mu_alpha`.
    /// The sender may need the same lock to make progress, so
    /// `blocking-context` must flag the receive.
    pub fn recv_under_lock(&self, comm: &crate::Comm) -> u64 {
        let a = self.mu_alpha.lock();
        comm.recv_bytes(None, 7).ok();
        *a
    }
}

/// BUG (on purpose): an abort flag published with `Relaxed`, so a rank
/// that observes it is not ordered after the writes made before the abort.
/// `relaxed-sync` must flag it.
#[cfg(feature = "lint-mutants")]
pub fn abort_relaxed(aborted: &std::sync::atomic::AtomicBool) {
    use std::sync::atomic::Ordering;
    aborted.store(true, Ordering::Relaxed);
}
