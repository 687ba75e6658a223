//! The job-abort flag (DESIGN.md §9).
//!
//! Raising it publishes every write the aborting rank made before the
//! abort to each rank that then sees it raised. The two orderings are
//! fixed here: neither method takes one, so no caller can write a
//! `Relaxed` access to the flag.

use std::sync::atomic::{AtomicBool, Ordering};

/// A flag that is raised once and never lowered.
#[derive(Debug, Default)]
pub(crate) struct AbortFlag(AtomicBool);

impl AbortFlag {
    /// Raise the flag: a `Release` store.
    pub fn raise(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Has the flag been raised? An `Acquire` load.
    pub fn is_raised(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}
