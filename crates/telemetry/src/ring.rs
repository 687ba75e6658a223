//! Bounded per-rank event log with overwrite-oldest eviction.
//!
//! One log per registered rank. Its writers — the rank thread, and on the
//! threaded engine that rank's VeloC flush worker — take the log's lock for
//! one deque push; a snapshot takes it for one clone. The deque grows only
//! as events arrive. At capacity the oldest event is evicted and counted as
//! dropped, so every snapshot satisfies `events + dropped == pushed`
//! exactly.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::event::Event;

/// Bounded multi-writer log of timestamped events.
pub struct EventLog {
    capacity: usize,
    inner: Mutex<LogInner>,
}

#[derive(Default)]
struct LogInner {
    events: VecDeque<(u64, Event)>,
    pushed: u64,
}

/// One log's contents, read under one acquisition of its lock.
pub struct LogSnapshot {
    /// Surviving events with their timestamps, oldest first.
    pub events: Vec<(u64, Event)>,
    /// Events ever pushed, evicted ones included.
    pub pushed: u64,
}

impl LogSnapshot {
    /// Events evicted before this snapshot was taken.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.events.len() as u64
    }
}

impl EventLog {
    /// `capacity` is rounded up to at least 2 events. Nothing is allocated
    /// until the first push.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            capacity: capacity.max(2),
            inner: Mutex::default(),
        }
    }

    /// Append `event` stamped `t_ns`, evicting the oldest event when full.
    pub fn push(&self, t_ns: u64, event: Event) {
        let mut log = self.inner.lock();
        if log.events.len() == self.capacity {
            log.events.pop_front();
        }
        log.events.push_back((t_ns, event));
        log.pushed += 1;
    }

    /// Copy out the surviving events, oldest first, with the push count.
    pub fn snapshot(&self) -> LogSnapshot {
        let log = self.inner.lock();
        LogSnapshot {
            events: log.events.iter().cloned().collect(),
            pushed: log.pushed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, TelemetryConfig};

    /// A numbered event: `Agree`'s `seq` carries the number.
    fn ev(v: u64) -> Event {
        Event::Agree { seq: v, flags: 0 }
    }

    fn num(e: &Event) -> u64 {
        match e {
            Event::Agree { seq, .. } => *seq,
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn fifo_below_capacity() {
        let log = EventLog::new(8);
        for v in 0..5 {
            log.push(v * 10, ev(v));
        }
        let snap = log.snapshot();
        assert_eq!(
            snap.events,
            (0..5).map(|v| (v * 10, ev(v))).collect::<Vec<_>>()
        );
        assert_eq!(snap.dropped(), 0);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts_drops() {
        let log = EventLog::new(4);
        for v in 0..10 {
            log.push(v, ev(v));
        }
        let snap = log.snapshot();
        // Newest 4 survive, oldest 6 dropped.
        let survivors: Vec<u64> = snap.events.iter().map(|(_, e)| num(e)).collect();
        assert_eq!(survivors, vec![6, 7, 8, 9]);
        assert_eq!(snap.dropped(), 6);
        assert_eq!(snap.pushed, 10);
    }

    /// Four writers overflow one log. Eviction is oldest-first across all
    /// of them, so each writer's survivors are a contiguous run of its own
    /// newest pushes, in push order.
    #[test]
    fn concurrent_writers_produce_coherent_records() {
        let log = EventLog::new(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = &log;
                s.spawn(move || {
                    for i in 0..1000 {
                        log.push(0, ev(t * 1_000_000 + i));
                    }
                });
            }
        });
        let snap = log.snapshot();
        assert_eq!(snap.pushed, 4000);
        assert_eq!(snap.events.len(), 64);
        assert_eq!(snap.dropped(), 4000 - 64);
        for t in 0..4u64 {
            let mine: Vec<u64> = snap
                .events
                .iter()
                .map(|(_, e)| num(e))
                .filter(|v| v / 1_000_000 == t)
                .map(|v| v % 1_000_000)
                .collect();
            let expect: Vec<u64> = (1000 - mine.len() as u64..1000).collect();
            assert_eq!(mine, expect, "writer {t}'s survivors");
        }
    }

    /// Two writers share one rank's recorder (the rank thread and its
    /// flush worker) while a reader snapshots the hub. A snapshot is taken
    /// under each log's lock, so none is torn: every one accounts for each
    /// push as either a survivor or a drop. A barrier holds both writers at
    /// their halfway point for one snapshot; the reader keeps snapshotting
    /// while they finish, and after the join.
    #[test]
    fn snapshot_while_writing_never_yields_torn_records() {
        const PER_WRITER: u64 = 5_000;
        let tel = Telemetry::new(TelemetryConfig {
            ring_capacity: 16,
            ..TelemetryConfig::default()
        });
        let rec = tel.recorder(0);
        let halfway = std::sync::Barrier::new(3);
        let whole = |snap: &crate::TraceSnapshot| {
            assert_eq!(snap.events.len() as u64 + snap.dropped, snap.pushed);
            assert_eq!(snap.events.len() as u64, snap.pushed.min(16));
        };
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..2u64)
                .map(|t| {
                    let (rec, halfway) = (rec.clone(), &halfway);
                    s.spawn(move || {
                        for i in 0..PER_WRITER {
                            if i == PER_WRITER / 2 {
                                halfway.wait(); // paused for the reader...
                                halfway.wait(); // ...and released
                            }
                            rec.emit(ev(t * PER_WRITER + i));
                        }
                    })
                })
                .collect();
            halfway.wait();
            let mid = tel.snapshot();
            // Release the writers before checking, so a failed check
            // cannot leave them parked.
            halfway.wait();
            whole(&mid);
            assert_eq!(mid.pushed, PER_WRITER);
            while !writers.iter().all(|w| w.is_finished()) {
                whole(&tel.snapshot());
            }
        });
        let snap = tel.snapshot();
        whole(&snap);
        assert_eq!(snap.pushed, 2 * PER_WRITER);
        assert_eq!(snap.events.len(), 16);
    }
}
