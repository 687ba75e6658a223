//! Unified observability for the layered-resilience stack.
//!
//! One [`Telemetry`] instance covers one experiment (a `Universe` launch or
//! a whole relaunch sequence). Each rank gets a cheap [`Recorder`] handle
//! that feeds three sinks:
//!
//! - a **structured event log** — typed [`Event`]s in a bounded per-rank
//!   log ([`ring::EventLog`]) that grows as events arrive, with
//!   overwrite-oldest eviction and exact drop counting;
//! - **span timers** ([`span::SpanGuard`]) booking inclusive time into the
//!   recorder's [`PhaseAccumulator`] — the only phase timer in the
//!   workspace, reading the same clock the events are stamped from;
//! - a **metrics registry** ([`metrics::Metrics`]) of named counters,
//!   gauges, and histograms shared across ranks.
//!
//! [`Telemetry::snapshot`] merges every log into a time-sorted
//! [`TraceSnapshot`] which the exporters ([`export`]) turn into JSONL,
//! Chrome `trace_event` JSON, or a human-readable failure timeline.
//!
//! Overhead control: a defaulted [`Recorder`] (`Recorder::disabled()`) is a
//! `None` and every operation on it is a branch on an `Option` — layers can
//! therefore thread recorders unconditionally. A run without a hub still
//! needs its phase costs: [`Recorder::phases_only`] times spans on a given
//! clock and records no events (no log is registered).

pub mod event;
pub mod export;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod ring;
pub mod span;

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

pub use event::{Event, MpiOp};
pub use json::Json;
pub use metrics::{names, Counter, Gauge, HistogramHandle, Metrics, MetricsSnapshot};
pub use phase::{Phase, PhaseAccumulator};
pub use ring::EventLog;
pub use span::SpanGuard;

/// Tuning for one [`Telemetry`] instance.
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Per-rank log capacity in events. A log grows as its rank emits;
    /// past this many events the oldest are evicted and counted.
    pub ring_capacity: usize,
    /// Record an [`Event::MpiCall`] for every simulated MPI entry point.
    /// Off by default: calls are the highest-volume event class and the
    /// failure chain is observable without them.
    pub record_mpi_calls: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 16 * 1024,
            record_mpi_calls: false,
        }
    }
}

struct RankSlot {
    rank: u32,
    log: EventLog,
}

/// Where event timestamps and span durations come from.
#[derive(Clone)]
pub enum TimeSource {
    /// Wall-clock nanoseconds since the hub's creation (the default).
    Epoch(Instant),
    /// An external nanosecond counter — the DES backend passes a closure
    /// reading the cluster's virtual clock, so traces carry simulated
    /// timestamps and identical schedules produce identical timelines.
    External(Arc<dyn Fn() -> u64 + Send + Sync>),
}

impl TimeSource {
    fn now_ns(&self) -> u64 {
        match self {
            // lint: sanction(wall-clock): timestamps for traces and
            // metrics; observability only, never read back by the model.
            // Virtual-time hubs use External and never reach this arm.
            // audited 2026-08.
            TimeSource::Epoch(epoch) => epoch.elapsed().as_nanos() as u64,
            TimeSource::External(f) => f(),
        }
    }
}

struct TelemetryInner {
    time: TimeSource,
    config: TelemetryConfig,
    metrics: Metrics,
    slots: Mutex<Vec<Arc<RankSlot>>>,
}

/// Experiment-wide telemetry hub. Clones share state.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<TelemetryInner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("ranks", &self.inner.slots.lock().len())
            .field("config", &self.inner.config)
            .finish()
    }
}

impl Telemetry {
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Self::with_time_source(config, TimeSource::Epoch(Instant::now()))
    }

    /// A hub stamping events from an explicit [`TimeSource`] (the DES
    /// backend passes the cluster's virtual clock).
    pub fn with_time_source(config: TelemetryConfig, time: TimeSource) -> Telemetry {
        Telemetry {
            inner: Arc::new(TelemetryInner {
                time,
                config,
                metrics: Metrics::new(),
                slots: Mutex::new(Vec::new()),
            }),
        }
    }

    pub fn config(&self) -> &TelemetryConfig {
        &self.inner.config
    }

    /// Nanoseconds on this hub's time source (since creation for the
    /// wall-clock default, simulated time under DES).
    pub fn now_ns(&self) -> u64 {
        self.inner.time.now_ns()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Create a recorder for `rank`, stamping events and timing spans on
    /// this hub's time source. Each call registers a fresh log; a
    /// relaunched rank simply registers again and its events merge by
    /// timestamp.
    pub fn recorder(&self, rank: usize) -> Recorder {
        let slot = Arc::new(RankSlot {
            rank: rank as u32,
            log: EventLog::new(self.inner.config.ring_capacity),
        });
        self.inner.slots.lock().push(Arc::clone(&slot));
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                time: self.inner.time.clone(),
                phases: PhaseAccumulator::new(),
                hub: Some(Hub {
                    tel: Arc::clone(&self.inner),
                    slot,
                }),
            })),
        }
    }

    /// Merge every rank log into one time-ordered snapshot.
    pub fn snapshot(&self) -> TraceSnapshot {
        let slots: Vec<Arc<RankSlot>> = self.inner.slots.lock().clone();
        let mut events = Vec::new();
        let mut dropped = 0;
        let mut pushed = 0;
        for slot in &slots {
            let log = slot.log.snapshot();
            dropped += log.dropped();
            pushed += log.pushed;
            events.extend(log.events.into_iter().map(|(t_ns, event)| TimedEvent {
                t_ns,
                rank: slot.rank,
                event,
            }));
        }
        events.sort_by_key(|e| (e.t_ns, e.rank));
        TraceSnapshot {
            events,
            dropped,
            pushed,
        }
    }
}

/// All surviving events of a run, merged across ranks and sorted by time.
#[derive(Clone, Debug, Default)]
pub struct TraceSnapshot {
    pub events: Vec<TimedEvent>,
    /// Events evicted from logs before they could be read.
    pub dropped: u64,
    /// Events ever pushed (including evicted ones).
    pub pushed: u64,
}

impl TraceSnapshot {
    /// Events of one kind, in time order.
    pub fn of_kind(&self, kind: &str) -> Vec<&TimedEvent> {
        self.events
            .iter()
            .filter(|e| e.event.kind() == kind)
            .collect()
    }

    /// Timestamp of the first event of `kind`, if any.
    pub fn first_ns(&self, kind: &str) -> Option<u64> {
        self.events
            .iter()
            .find(|e| e.event.kind() == kind)
            .map(|e| e.t_ns)
    }
}

/// One event with its timestamp and originating rank.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedEvent {
    pub t_ns: u64,
    pub rank: u32,
    pub event: Event,
}

/// The event side of a recorder: the owning hub and this rank's log.
struct Hub {
    tel: Arc<TelemetryInner>,
    slot: Arc<RankSlot>,
}

struct RecorderInner {
    time: TimeSource,
    phases: PhaseAccumulator,
    /// `None` for [`Recorder::phases_only`]: spans are timed, nothing is
    /// recorded.
    hub: Option<Hub>,
}

/// Per-rank recording handle. `Default`/[`Recorder::disabled`] is a no-op
/// recorder: every operation short-circuits on one branch, so layers hold a
/// `Recorder` unconditionally instead of an `Option<..>` forest.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl Recorder {
    /// The no-op recorder.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A recorder without a hub: spans accumulate phase time read from
    /// `time`, events and metrics go nowhere. What a rank gets when no
    /// telemetry was asked for, so its phase costs are still measured — on
    /// the clock the run's wall time is measured on.
    pub fn phases_only(time: TimeSource) -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderInner {
                time,
                phases: PhaseAccumulator::new(),
                hub: None,
            })),
        }
    }

    fn hub(&self) -> Option<&Hub> {
        self.inner.as_ref()?.hub.as_ref()
    }

    /// Whether per-MPI-call events were requested (checked by `simmpi` so
    /// the highest-volume class can stay off by default).
    pub fn wants_mpi_calls(&self) -> bool {
        self.hub().is_some_and(|h| h.tel.config.record_mpi_calls)
    }

    /// Inclusive time of every span this recorder has closed, by phase
    /// (`None` when disabled).
    pub fn phases(&self) -> Option<&PhaseAccumulator> {
        self.inner.as_ref().map(|i| &i.phases)
    }

    /// Record `event` now. Free without a hub.
    #[inline]
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            if let Some(hub) = &inner.hub {
                hub.push(event, inner.time.now_ns());
            }
        }
    }

    /// Like [`Recorder::emit`] but the event is only constructed when it
    /// will actually be recorded — use when building it allocates.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> Event) {
        if self.hub().is_some() {
            self.emit(f());
        }
    }

    /// Open a phase span; time books when the guard drops.
    pub fn span(&self, phase: Phase) -> SpanGuard {
        SpanGuard::begin(self.clone(), phase)
    }

    /// Time a closure under `phase`.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let _guard = self.span(phase);
        f()
    }

    /// Metrics registry of the owning telemetry (`None` without a hub).
    pub fn metrics(&self) -> Option<&Metrics> {
        self.hub().map(|h| &h.tel.metrics)
    }

    /// One edge of a span: read the clock once, stamp `event` with that
    /// reading when there is a hub, and hand the reading back so the
    /// span's duration is the difference of its two stamps.
    pub(crate) fn span_edge(&self, event: Event) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let now_ns = inner.time.now_ns();
        if let Some(hub) = &inner.hub {
            hub.push(event, now_ns);
        }
        now_ns
    }
}

impl Hub {
    fn push(&self, event: Event, t_ns: u64) {
        self.slot.log.push(t_ns, event);
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (&self.inner, self.hub()) {
            (_, Some(hub)) => write!(f, "Recorder(rank {})", hub.slot.rank),
            (Some(_), None) => write!(f, "Recorder(phases only)"),
            (None, _) => write!(f, "Recorder(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(rec.phases().is_none());
        rec.emit(Event::Revoke);
        rec.emit_with(|| panic!("must not be constructed"));
        let out = rec.time(Phase::AppCompute, || 7);
        assert_eq!(out, 7);
    }

    #[test]
    fn snapshot_merges_ranks_in_time_order() {
        let tel = Telemetry::new(TelemetryConfig::default());
        let r0 = tel.recorder(0);
        let r1 = tel.recorder(1);
        r0.emit(Event::Revoke);
        r1.emit(Event::RankKilled);
        r0.emit(Event::Agree { seq: 1, flags: 0 });
        let snap = tel.snapshot();
        assert_eq!(snap.events.len(), 3);
        assert!(snap.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert_eq!(snap.pushed, 3);
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn overflow_counts_drops_in_snapshot() {
        let tel = Telemetry::new(TelemetryConfig {
            ring_capacity: 4,
            ..Default::default()
        });
        let rec = tel.recorder(0);
        for i in 0..10 {
            rec.emit(Event::Agree { seq: i, flags: 0 });
        }
        let snap = tel.snapshot();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        // The survivors are the newest pushes.
        let seqs: Vec<u64> = snap
            .events
            .iter()
            .map(|e| match &e.event {
                Event::Agree { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn metrics_reachable_through_recorder() {
        let tel = Telemetry::new(TelemetryConfig::default());
        let rec = tel.recorder(2);
        rec.metrics().unwrap().counter("repairs").inc();
        assert_eq!(
            tel.metrics().snapshot().counters,
            vec![("repairs".into(), 1)]
        );
    }
}
