//! Named counters, gauges, and log2 histograms.
//!
//! A [`Metrics`] registry lives on each [`crate::Telemetry`]; layers grab
//! handles once (cheap `Arc` clones backed by atomics) and update them on
//! hot paths without locks. Registration takes a short lock and is expected
//! at setup time only.

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Well-known metric names shared across layers, so producers and the
/// experiment harness agree on spelling without string literals scattered
/// through the workspace.
pub mod names {
    /// Bytes the data layer was asked to protect, summed over checkpoint
    /// calls (what a non-incremental pipeline would have written).
    pub const VELOC_BYTES_PROTECTED: &str = "veloc.bytes_protected";
    /// Bytes the data layer actually wrote to scratch, summed over
    /// checkpoint calls. The gap to `VELOC_BYTES_PROTECTED` is what
    /// incremental (VCF2 delta) checkpointing saved.
    pub const VELOC_BYTES_WRITTEN: &str = "veloc.bytes_written";
    /// Payload bytes the data layer submitted to checksum verification on
    /// the read side (intactness checks during agreement, restart's verify
    /// stage), summed over frames. One recovery should read the agreed
    /// frame's bytes twice: once to agree, once to apply.
    pub const VELOC_BYTES_VERIFIED: &str = "veloc.bytes_verified";
    /// Checkpoints emitted as delta frames rather than full frames.
    pub const VELOC_DELTA_FRAMES: &str = "veloc.delta_frames";

    // Flushed by `simmpi::Universe::launch` once per launch, summed over
    // the launches of a run (the peak gauge keeps the largest).
    /// DES events dispatched: `SCHED_HANDOFFS` + `SCHED_SELF_DISPATCHES`.
    pub const SCHED_EVENTS_DISPATCHED: &str = "sched.events_dispatched";
    /// Dispatches that switched to another rank's task.
    pub const SCHED_HANDOFFS: &str = "sched.handoffs";
    /// Dispatches whose next event belonged to the yielding rank itself.
    pub const SCHED_SELF_DISPATCHES: &str = "sched.self_dispatches";
    /// Heap entries skipped because their rank had already exited.
    pub const SCHED_STALE_SKIPPED: &str = "sched.stale_skipped";
    /// Heap entries skipped because their rank, parked in a receive, would
    /// only have re-checked and yielded again (hand-offs that did not happen).
    pub const SCHED_UNREADY_SKIPPED: &str = "sched.unready_skipped";
    /// Kill / revoke / abort wake fan-outs.
    pub const SCHED_WAKE_ALL_CALLS: &str = "sched.wake_all_calls";
    /// Gauge: largest number of pending DES events.
    pub const SCHED_PEAK_HEAP_DEPTH: &str = "sched.peak_heap_depth";
    /// Mailboxes locked and filtered by post-repair purges.
    pub const SIMMPI_PURGE_MAILBOXES: &str = "simmpi.purge_mailboxes";
    /// Group members examined by rendezvous pick-ups (one each: the caller).
    pub const SIMMPI_RENDEZVOUS_SCANNED: &str = "simmpi.rendezvous_members_scanned";
    /// Member lists built for groups that `Router::share_group` shares: one
    /// per communicator, not one per rank that joins it.
    pub const SIMMPI_GROUPS_BUILT: &str = "simmpi.groups_built";
    /// Agreement entries still in the rendezvous table when a launch ended
    /// (an agreement some participant abandoned, or a leak).
    pub const SIMMPI_RENDEZVOUS_IN_FLIGHT: &str = "simmpi.rendezvous_in_flight";
    /// Stored keys touched by storage-tier metadata queries (version
    /// discovery: `children`, `exists`, `list`), scratch and PFS together.
    pub const CLUSTER_TIER_KEYS_EXAMINED: &str = "cluster.tier_keys_examined";
}

/// Monotonic event count.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed value.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Power-of-two bucketed histogram of `u64` samples (e.g. nanoseconds or
/// bytes). Bucket `i` counts samples whose value needs `i` significant
/// bits, i.e. upper bound `2^i - 1`.
pub struct Histogram {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Shareable histogram handle.
#[derive(Clone, Default)]
pub struct HistogramHandle(Arc<Histogram>);

impl HistogramHandle {
    pub fn record(&self, value: u64) {
        let bucket = 64 - value.leading_zeros() as usize;
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// Non-empty buckets as `(upper_bound, count)`.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Ordering::Relaxed);
                if c == 0 {
                    return None;
                }
                let bound = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                Some((bound, c))
            })
            .collect()
    }
}

/// The registry: name → handle, one per [`crate::Telemetry`].
pub struct Metrics {
    counters: Mutex<HashMap<String, Counter>>,
    gauges: Mutex<HashMap<String, Gauge>>,
    histograms: Mutex<HashMap<String, HistogramHandle>>,
}

/// One lock per line: the parking_lot shim's lock-order witness classes a
/// lock by the line that builds it, and a derive would give all three one.
impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            counters: Mutex::default(),
            gauges: Mutex::default(),
            histograms: Mutex::default(),
        }
    }
}

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    /// Handle for counter `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.histograms
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Point-in-time copy of everything, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, i64)> = self
            .gauges
            .lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        gauges.sort();
        let mut histograms: Vec<(String, HistogramSnapshot)> = self
            .histograms
            .lock()
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: v.count(),
                        sum: v.sum(),
                        buckets: v.buckets(),
                    },
                )
            })
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub buckets: Vec<(u64, u64)>,
}

#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_storage() {
        let m = Metrics::new();
        let a = m.counter("ckpt.commits");
        let b = m.counter("ckpt.commits");
        a.inc();
        b.add(2);
        assert_eq!(m.counter("ckpt.commits").get(), 3);
    }

    #[test]
    fn gauge_set_and_add() {
        let m = Metrics::new();
        let g = m.gauge("spares.left");
        g.set(4);
        g.add(-1);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_by_magnitude() {
        let m = Metrics::new();
        let h = m.histogram("flush.bytes");
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(1000);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1002);
        let buckets = h.buckets();
        // 0 → bucket bound 0; 1 → bound 1; 1000 → bound 1023.
        assert_eq!(buckets, vec![(0, 1), (1, 2), (1023, 1)]);
    }

    #[test]
    fn snapshot_sorted_by_name() {
        let m = Metrics::new();
        m.counter("b").inc();
        m.counter("a").inc();
        let names: Vec<_> = m.snapshot().counters.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
