//! FIFO bandwidth reservation.
//!
//! A [`Governor`] models a shared channel with a fixed data rate. Callers
//! *reserve* a transfer of `n` bytes: the reservation is appended to the
//! channel's timeline and the caller learns how long (in modeled time) it
//! must wait for its transfer to complete. Under contention the channel
//! delivers exactly its configured aggregate rate; an idle channel imposes
//! only the serialization delay of the transfer itself.
//!
//! Reservations are split from sleeping so that a transfer crossing several
//! resources (source NIC, bisection, destination NIC) can reserve on each and
//! sleep only the *maximum* — the resources operate in parallel, and the
//! slowest one determines completion.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

use crate::clock::Clock;
use crate::TimeScale;

/// A shared channel with a fixed modeled bandwidth.
pub struct Governor {
    /// Bytes per second of *modeled* time.
    rate: f64,
    /// Fixed per-operation latency added to every reservation.
    latency: Duration,
    state: Mutex<State>,
    scale: TimeScale,
    /// Time source for queue bookkeeping. Wall by default; a discrete-event
    /// scheduler shares one virtual clock across every governor instead.
    clock: Arc<Clock>,
}

struct State {
    /// Clock time (nanoseconds on `Governor::clock`, pre-scaling) at which
    /// the channel next becomes free.
    next_free_ns: Option<u64>,
}

impl Governor {
    /// Create a governor delivering `rate` bytes per modeled second,
    /// tracking queue time on a wall [`Clock`].
    pub fn new(rate: f64, latency: Duration, scale: TimeScale) -> Self {
        Self::with_clock(rate, latency, scale, Arc::new(Clock::wall()))
    }

    /// Create a governor on an explicit time source. Pass a shared
    /// [`Clock::virtual_at`] to drive reservations from simulated time.
    pub fn with_clock(rate: f64, latency: Duration, scale: TimeScale, clock: Arc<Clock>) -> Self {
        assert!(rate > 0.0, "bandwidth rate must be positive");
        Governor {
            rate,
            latency,
            state: Mutex::new(State { next_free_ns: None }),
            scale,
            clock,
        }
    }

    /// The time source this governor tracks its queue on.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// The configured rate in bytes per modeled second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Modeled serialization time of `bytes` on an otherwise idle channel.
    pub fn service_time(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_secs_f64(bytes as f64 / self.rate)
    }

    /// Reserve a transfer of `bytes` and return the modeled duration until
    /// it completes (queueing + serialization). Does not sleep.
    pub fn reserve(&self, bytes: usize) -> Duration {
        let service = self.service_time(bytes);
        // Queueing is tracked on the real clock but in modeled units scaled
        // by `scale` so that the queue drains at the same (real-time) rate at
        // which callers actually sleep.
        let real_service = self.scale.to_real(service);
        let now_ns = self.clock.now_ns();
        let service_ns = real_service.as_nanos().min(u128::from(u64::MAX)) as u64;
        let mut st = self.state.lock();
        let start_ns = match st.next_free_ns {
            Some(nf) if nf > now_ns => nf,
            _ => now_ns,
        };
        let done_ns = start_ns.saturating_add(service_ns);
        st.next_free_ns = Some(done_ns);
        let real_wait = Duration::from_nanos(done_ns - now_ns);
        // Convert the real wait back to modeled units for the caller.
        if self.scale.0 > 0.0 {
            real_wait.div_f64(self.scale.0)
        } else {
            // With an instant time scale there is no queueing: report pure
            // modeled service time for accounting purposes.
            service
        }
    }

    /// Reserve and sleep until the transfer completes. Returns the modeled
    /// duration of the whole operation (for accounting).
    pub fn transfer(&self, bytes: usize) -> Duration {
        let modeled = self.reserve(bytes);
        self.scale.sleep(modeled);
        modeled
    }
}

impl std::fmt::Debug for Governor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Governor")
            .field("rate", &self.rate)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov(rate: f64) -> Governor {
        Governor::new(rate, Duration::ZERO, TimeScale::instant())
    }

    #[test]
    fn service_time_is_linear_in_bytes() {
        let g = gov(1000.0);
        assert_eq!(g.service_time(1000), Duration::from_secs(1));
        assert_eq!(g.service_time(500), Duration::from_millis(500));
    }

    #[test]
    fn latency_is_added() {
        let g = Governor::new(1000.0, Duration::from_millis(5), TimeScale::instant());
        assert_eq!(g.service_time(0), Duration::from_millis(5));
    }

    #[test]
    fn instant_scale_reports_service_time() {
        let g = gov(1_000_000.0);
        let d = g.reserve(1_000_000);
        assert_eq!(d, Duration::from_secs(1));
    }

    #[test]
    fn queueing_accumulates_under_contention() {
        // With a realtime scale, two back-to-back reservations must queue.
        let g = Governor::new(1.0e9, Duration::ZERO, TimeScale::realtime());
        let a = g.reserve(100_000_000); // 100 ms of channel time
        let b = g.reserve(100_000_000);
        assert!(a >= Duration::from_millis(99), "first ~100ms, got {a:?}");
        assert!(b >= Duration::from_millis(199), "second queues, got {b:?}");
    }

    #[test]
    fn aggregate_rate_is_respected_across_threads() {
        use std::sync::Arc;
        let g = Arc::new(Governor::new(1.0e9, Duration::ZERO, TimeScale::realtime()));
        let start = std::time::Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || g.transfer(25_000_000))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // 4 * 25 MB at 1 GB/s = 100 ms minimum regardless of thread count.
        assert!(start.elapsed() >= Duration::from_millis(95));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = Governor::new(0.0, Duration::ZERO, TimeScale::instant());
    }

    #[test]
    fn virtual_clock_queueing_is_deterministic() {
        // On a virtual clock, reservation is a pure function of queue state:
        // exact results, no real time consulted.
        let clock = Arc::new(Clock::virtual_at(0));
        let g = Governor::with_clock(1000.0, Duration::ZERO, TimeScale::realtime(), clock.clone());
        assert_eq!(g.reserve(1000), Duration::from_secs(1));
        assert_eq!(g.reserve(1000), Duration::from_secs(2));
        // Advancing simulated time drains the queue.
        clock.advance(2_000_000_000);
        assert_eq!(g.reserve(1000), Duration::from_secs(1));
    }
}
