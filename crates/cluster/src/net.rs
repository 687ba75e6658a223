//! Interconnect model: per-rank NICs plus a shared bisection channel.
//!
//! A transfer from rank `a` to rank `b` occupies `a`'s NIC, `b`'s NIC, and
//! the bisection simultaneously; the transfer completes when the slowest of
//! the three reservations drains. Both the MPI simulator and the VeloC-style
//! asynchronous checkpoint flusher charge their traffic here, which is what
//! lets background checkpoint flushes congest application messaging.

use std::sync::Arc;
use std::time::Duration;

use crate::bandwidth::Governor;
use crate::clock::Clock;
use crate::TimeScale;

/// The modeled interconnect.
pub struct Network {
    nics: Vec<Governor>,
    bisection: Governor,
    scale: TimeScale,
}

impl Network {
    pub fn new(
        ranks: usize,
        nic_bandwidth: f64,
        bisection_bandwidth: f64,
        latency: Duration,
        scale: TimeScale,
    ) -> Self {
        Self::with_clock(
            ranks,
            nic_bandwidth,
            bisection_bandwidth,
            latency,
            scale,
            &Arc::new(Clock::wall()),
        )
    }

    /// Like [`Network::new`], but every governor tracks its queue on the
    /// given shared time source (the DES backend passes one virtual clock
    /// for the whole cluster).
    pub fn with_clock(
        ranks: usize,
        nic_bandwidth: f64,
        bisection_bandwidth: f64,
        latency: Duration,
        scale: TimeScale,
        clock: &Arc<Clock>,
    ) -> Self {
        let nics = (0..ranks)
            .map(|_| Governor::with_clock(nic_bandwidth, latency, scale, Arc::clone(clock)))
            .collect();
        Network {
            nics,
            bisection: Governor::with_clock(
                bisection_bandwidth,
                Duration::ZERO,
                scale,
                Arc::clone(clock),
            ),
            scale,
        }
    }

    pub fn ranks(&self) -> usize {
        self.nics.len()
    }

    /// Rank `rank`'s NIC.
    pub fn nic(&self, rank: usize) -> Option<&Governor> {
        self.nics.get(rank)
    }

    /// Reserve a rank-to-rank transfer and return its modeled completion
    /// time. Does not sleep.
    pub fn reserve_transfer(&self, src: usize, dst: usize, bytes: usize) -> Duration {
        let _scope = parking_lot::no_blocking();
        let s = self.nics[src].reserve(bytes);
        let d = self.nics[dst].reserve(bytes);
        let b = self.bisection.reserve(bytes);
        s.max(d).max(b)
    }

    /// Perform (sleep through) a rank-to-rank transfer. Returns the modeled
    /// duration for accounting.
    pub fn transfer(&self, src: usize, dst: usize, bytes: usize) -> Duration {
        let modeled = self.reserve_transfer(src, dst, bytes);
        self.scale.sleep(modeled);
        modeled
    }

    /// A one-sided egress reservation (e.g. a rank pushing checkpoint data
    /// toward storage): occupies only the source NIC and the bisection.
    pub fn egress(&self, src: usize, bytes: usize) -> Duration {
        let s = self.nics[src].reserve(bytes);
        let b = self.bisection.reserve(bytes);
        let modeled = s.max(b);
        self.scale.sleep(modeled);
        modeled
    }

    pub fn time_scale(&self) -> TimeScale {
        self.scale
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("ranks", &self.nics.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(ranks: usize) -> Network {
        Network::new(ranks, 1.0e9, 8.0e9, Duration::ZERO, TimeScale::instant())
    }

    #[test]
    fn transfer_time_bounded_by_slowest_resource() {
        let n = net(2);
        // 1 MB at 1 GB/s NIC = 1 ms; bisection is faster so NIC dominates.
        let d = n.reserve_transfer(0, 1, 1_000_000);
        assert_eq!(d, Duration::from_millis(1));
    }

    #[test]
    fn egress_does_not_touch_destination_nic() {
        let n = Network::new(2, 1.0e9, 8.0e9, Duration::ZERO, TimeScale::realtime());
        // Saturate rank 1's NIC...
        let _ = n.nics[1].reserve(100_000_000);
        // ...egress from rank 0 is unaffected.
        let d = n.egress(0, 1_000_000);
        assert!(d < Duration::from_millis(10), "egress delayed: {d:?}");
    }

    #[test]
    fn bisection_caps_aggregate() {
        // Tiny bisection: many pairs contend even with fast NICs.
        let n = Network::new(4, 100.0e9, 1.0e9, Duration::ZERO, TimeScale::realtime());
        let d1 = n.reserve_transfer(0, 1, 100_000_000); // 100 ms of bisection
        let d2 = n.reserve_transfer(2, 3, 100_000_000); // queues behind it
        assert!(d2 > d1, "second pair should queue on bisection");
    }
}
