//! Virtual-time phase split and event counts from a telemetry snapshot.
//!
//! Under DES every event carries the cluster's virtual clock, so durations
//! taken between event timestamps are modelled time and repeat exactly for
//! a seed. `RunRecord.breakdown` is not read: its categories are host
//! `Instant` spans set against a virtual wall (see the README).

use std::collections::BTreeMap;

use telemetry::{Event, Phase, TraceSnapshot};

/// Total virtual time rank by rank between `SpanBegin{phase}` and the
/// matching `SpanEnd{phase}`, maximum over ranks (the critical-path view a
/// wall-clock measurement would give), in nanoseconds.
pub fn max_span_ns(snap: &TraceSnapshot, phase: Phase) -> u64 {
    // rank → (open begin timestamps, closed total)
    let mut ranks: BTreeMap<u32, (Vec<u64>, u64)> = BTreeMap::new();
    for e in &snap.events {
        match &e.event {
            Event::SpanBegin { phase: p } if *p == phase => {
                ranks.entry(e.rank).or_default().0.push(e.t_ns);
            }
            Event::SpanEnd { phase: p } if *p == phase => {
                let (open, total) = ranks.entry(e.rank).or_default();
                if let Some(begin) = open.pop() {
                    // Only outermost spans count: nested spans of the same
                    // phase are already inside their parent's interval.
                    if open.is_empty() {
                        *total += e.t_ns.saturating_sub(begin);
                    }
                }
            }
            _ => {}
        }
    }
    ranks.values().map(|(_, total)| *total).max().unwrap_or(0)
}

/// Duration of each hop of one failure's recovery chain, virtual ns.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryHops {
    /// `fault_injected` → last `failure_detected`.
    pub detect_ns: u64,
    /// last `failure_detected` → last `repair_end`.
    pub repair_ns: u64,
    /// last `repair_end` → last `restart_end`, `region_restore` or end of a
    /// `DataRecovery` span.
    pub restore_ns: u64,
}

/// The hops after the first `fault_injected`; all zero when the snapshot
/// holds no injected fault. A hop whose closing event never appears (a
/// relaunch has neither detection nor repair) is zero, and the next hop
/// starts where the last known one ended.
pub fn recovery_hops(snap: &TraceSnapshot) -> RecoveryHops {
    let Some(fault) = snap.first_ns("fault_injected") else {
        return RecoveryHops::default();
    };
    let last_after = |from: u64, pick: &dyn Fn(&Event) -> bool| {
        snap.events
            .iter()
            .filter(|e| e.t_ns >= from && pick(&e.event))
            .map(|e| e.t_ns)
            .max()
    };
    let detected = last_after(fault, &|e| matches!(e, Event::FailureDetected { .. }));
    let detect_end = detected.unwrap_or(fault);
    let repaired = last_after(detect_end, &|e| matches!(e, Event::RepairEnd { .. }));
    let repair_end = repaired.unwrap_or(detect_end);
    let restored = last_after(repair_end, &|e| {
        matches!(
            e,
            Event::RestartEnd { .. }
                | Event::RegionRestore { .. }
                | Event::SpanEnd {
                    phase: Phase::DataRecovery
                }
        )
    });
    RecoveryHops {
        detect_ns: detect_end - fault,
        repair_ns: repair_end - detect_end,
        restore_ns: restored.unwrap_or(repair_end) - repair_end,
    }
}

/// Event counts of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub mpi_calls: u64,
    pub mpi_bytes: u64,
    /// Agreement rounds: the most `agree` events any one rank recorded.
    pub agree_rounds: u64,
    pub revokes: u64,
    pub flushes_done: u64,
    pub regions_entered: u64,
    pub commits: u64,
    /// Views in the largest `region_capture`.
    pub views_captured: u64,
    /// Bytes over every rank's `region_capture`.
    pub capture_bytes: u64,
}

pub fn count_events(snap: &TraceSnapshot) -> EventCounts {
    let mut c = EventCounts::default();
    let mut agrees: BTreeMap<u32, u64> = BTreeMap::new();
    for e in &snap.events {
        match &e.event {
            Event::MpiCall { bytes, .. } => {
                c.mpi_calls += 1;
                c.mpi_bytes += bytes;
            }
            Event::Agree { .. } => *agrees.entry(e.rank).or_default() += 1,
            Event::Revoke => c.revokes += 1,
            Event::FlushDone { .. } => c.flushes_done += 1,
            Event::RegionEnter { .. } => c.regions_entered += 1,
            Event::RegionCommit { .. } => c.commits += 1,
            Event::RegionCapture { views, bytes, .. } => {
                c.views_captured = c.views_captured.max(*views);
                c.capture_bytes += bytes;
            }
            _ => {}
        }
    }
    c.agree_rounds = agrees.values().copied().max().unwrap_or(0);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::TimedEvent;

    fn snap(events: Vec<(u64, u32, Event)>) -> TraceSnapshot {
        TraceSnapshot {
            events: events
                .into_iter()
                .map(|(t_ns, rank, event)| TimedEvent { t_ns, rank, event })
                .collect(),
            dropped: 0,
            pushed: 0,
        }
    }

    fn begin(phase: Phase) -> Event {
        Event::SpanBegin { phase }
    }

    fn end(phase: Phase) -> Event {
        Event::SpanEnd { phase }
    }

    #[test]
    fn span_time_is_summed_per_rank_and_the_slowest_rank_wins() {
        let s = snap(vec![
            (10, 0, begin(Phase::AppMpi)),
            (15, 1, begin(Phase::AppMpi)),
            (30, 0, end(Phase::AppMpi)),
            (35, 0, begin(Phase::CheckpointFn)),
            (40, 1, end(Phase::AppMpi)),
            (50, 0, end(Phase::CheckpointFn)),
            (60, 0, begin(Phase::AppMpi)),
            (75, 0, end(Phase::AppMpi)),
        ]);
        assert_eq!(max_span_ns(&s, Phase::AppMpi), 35);
        assert_eq!(max_span_ns(&s, Phase::CheckpointFn), 15);
        assert_eq!(max_span_ns(&s, Phase::Recompute), 0);
    }

    #[test]
    fn nested_same_phase_spans_and_unclosed_spans_do_not_double_count() {
        let s = snap(vec![
            (0, 0, begin(Phase::DataRecovery)),
            (10, 0, begin(Phase::DataRecovery)),
            (20, 0, end(Phase::DataRecovery)),
            (50, 0, end(Phase::DataRecovery)),
            (60, 0, begin(Phase::DataRecovery)),
        ]);
        assert_eq!(max_span_ns(&s, Phase::DataRecovery), 50);
    }

    #[test]
    fn recovery_hops_partition_fault_to_restore() {
        let s = snap(vec![
            (
                5,
                2,
                Event::RestartEnd {
                    name: "startup".into(),
                    version: 0,
                    ok: false,
                },
            ),
            (
                100,
                3,
                Event::FaultInjected {
                    site: "iter".into(),
                    count: 9,
                },
            ),
            (
                120,
                2,
                Event::FailureDetected {
                    scope: "world".into(),
                },
            ),
            (
                130,
                4,
                Event::FailureDetected {
                    scope: "world".into(),
                },
            ),
            (
                200,
                2,
                Event::RepairEnd {
                    epoch: 1,
                    survivors: 7,
                    spares_left: 0,
                },
            ),
            (
                260,
                8,
                Event::RestartEnd {
                    name: "loop".into(),
                    version: 7,
                    ok: true,
                },
            ),
            (
                250,
                2,
                Event::RegionRestore {
                    label: "loop".into(),
                    version: 7,
                },
            ),
        ]);
        assert_eq!(
            recovery_hops(&s),
            RecoveryHops {
                detect_ns: 30,
                repair_ns: 70,
                restore_ns: 60,
            }
        );
    }

    #[test]
    fn no_fault_means_no_hops_and_missing_hops_are_zero() {
        assert_eq!(recovery_hops(&snap(vec![])), RecoveryHops::default());
        let relaunch = snap(vec![
            (
                100,
                3,
                Event::FaultInjected {
                    site: "iter".into(),
                    count: 24,
                },
            ),
            (400, 0, begin(Phase::DataRecovery)),
            (450, 0, end(Phase::DataRecovery)),
        ]);
        assert_eq!(
            recovery_hops(&relaunch),
            RecoveryHops {
                detect_ns: 0,
                repair_ns: 0,
                restore_ns: 350,
            }
        );
    }

    #[test]
    fn counts_follow_the_events() {
        let s = snap(vec![
            (
                1,
                0,
                Event::MpiCall {
                    op: telemetry::MpiOp::Send,
                    peer: Some(1),
                    bytes: 4096,
                },
            ),
            (
                2,
                1,
                Event::MpiCall {
                    op: telemetry::MpiOp::Barrier,
                    peer: None,
                    bytes: 0,
                },
            ),
            (3, 0, Event::Agree { seq: 1, flags: 0 }),
            (3, 1, Event::Agree { seq: 1, flags: 0 }),
            (4, 0, Event::Agree { seq: 2, flags: 0 }),
            (5, 1, Event::Revoke),
            (
                6,
                0,
                Event::RegionCapture {
                    label: "loop".into(),
                    views: 3,
                    bytes: 100,
                },
            ),
            (
                6,
                1,
                Event::RegionCapture {
                    label: "loop".into(),
                    views: 2,
                    bytes: 50,
                },
            ),
        ]);
        let c = count_events(&s);
        assert_eq!((c.mpi_calls, c.mpi_bytes), (2, 4096));
        assert_eq!((c.agree_rounds, c.revokes), (2, 1));
        assert_eq!((c.views_captured, c.capture_bytes), (3, 150));
    }
}
