//! Governor-owned time source.
//!
//! The bandwidth layer used to read `Instant::now()` inline inside
//! [`crate::Governor::reserve`], which welded the queueing model to the
//! machine's wall clock. `Clock` hoists that read behind an interface with
//! two implementations:
//!
//! * [`Clock::wall`] — the production source; the **only**
//!   wall-clock read on the bandwidth path lives in [`Clock::now_ns`].
//! * [`Clock::virtual_at`] — a manually advanced counter. A discrete-event
//!   scheduler owns one of these, shares it across every governor, and
//!   advances it as events fire; reservation math becomes a pure function
//!   of `(state, now_ns)` with no real-time dependence at all.
//!
//! Times are nanoseconds since the clock's epoch. A `u64` of nanoseconds
//! spans ~584 years, far beyond any campaign.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond clock: real (wall) or simulated (virtual).
pub enum Clock {
    /// Reads the machine's monotonic clock, offset from a fixed epoch.
    Wall { epoch: Instant },
    /// A counter advanced explicitly by a scheduler; never touches the OS.
    Virtual { now_ns: AtomicU64 },
}

impl Clock {
    /// A wall clock whose epoch is the moment of construction.
    #[expect(
        clippy::disallowed_methods,
        reason = "the wall clock's epoch; a virtual clock never reads it"
    )]
    pub fn wall() -> Self {
        Clock::Wall {
            epoch: Instant::now(),
        }
    }

    /// A virtual clock starting at `now_ns` nanoseconds.
    pub fn virtual_at(now_ns: u64) -> Self {
        Clock::Virtual {
            now_ns: AtomicU64::new(now_ns),
        }
    }

    /// Nanoseconds since this clock's epoch.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one wall read on the bandwidth path; DES runs a virtual clock"
    )]
    pub fn now_ns(&self) -> u64 {
        match self {
            Clock::Wall { epoch } => epoch.elapsed().as_nanos() as u64,
            Clock::Virtual { now_ns } => now_ns.load(Ordering::Acquire),
        }
    }

    /// Advance a virtual clock by `delta_ns`; returns the new time.
    ///
    /// # Panics
    ///
    /// Panics on a wall clock — real time cannot be pushed forward.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        match self {
            Clock::Wall { .. } => panic!("cannot advance a wall clock"),
            Clock::Virtual { now_ns } => now_ns.fetch_add(delta_ns, Ordering::AcqRel) + delta_ns,
        }
    }

    /// True for [`Clock::Virtual`].
    pub fn is_virtual(&self) -> bool {
        matches!(self, Clock::Virtual { .. })
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Clock::Wall { .. } => f.write_str("Clock::Wall"),
            Clock::Virtual { now_ns } => f
                .debug_struct("Clock::Virtual")
                .field("now_ns", &now_ns.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let c = Clock::wall();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        assert!(!c.is_virtual());
    }

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let c = Clock::virtual_at(100);
        assert_eq!(c.now_ns(), 100);
        assert_eq!(c.now_ns(), 100);
        assert_eq!(c.advance(50), 150);
        assert_eq!(c.now_ns(), 150);
        assert!(c.is_virtual());
    }

    #[test]
    #[should_panic(expected = "cannot advance")]
    fn advancing_wall_clock_panics() {
        Clock::wall().advance(1);
    }
}
