//! Property tests for the event log's eviction arithmetic: for any
//! capacity and push count, the drop count is exact and the survivors are
//! precisely the newest `capacity` events in push order, and snapshots
//! taken between bursts of pushes never reorder or duplicate an event.

use proptest::prelude::*;
use telemetry::ring::EventLog;
use telemetry::Event;

/// A numbered event: `Agree`'s `seq` carries the number.
fn ev(v: u64) -> Event {
    Event::Agree { seq: v, flags: 0 }
}

/// The numbers of a log's survivors, oldest first.
fn survivors(log: &EventLog) -> Vec<u64> {
    let snap = log.snapshot();
    snap.events
        .iter()
        .map(|(t_ns, e)| match e {
            Event::Agree { seq, .. } if seq == t_ns => *seq,
            other => panic!("event {other:?} lost its stamp {t_ns}"),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Exact drop accounting and survivor set for any (capacity, count),
    /// including counts that land exactly on, just before, and far past
    /// the capacity.
    #[test]
    fn wraparound_keeps_exactly_the_newest_records(cap in 2usize..17, n in 0usize..120) {
        let log = EventLog::new(cap);
        let cap = cap as u64;
        for v in 0..n as u64 {
            log.push(v, ev(v));
        }
        let n = n as u64;
        let snap = log.snapshot();
        prop_assert_eq!(snap.pushed, n);
        prop_assert_eq!(snap.dropped(), n.saturating_sub(cap));

        let expect: Vec<u64> = (n.saturating_sub(cap)..n).collect();
        prop_assert_eq!(survivors(&log), expect, "survivors must be the newest {} in order", cap);
    }

    /// Pushing in bursts (arbitrary split points) is indistinguishable
    /// from pushing the same sequence at once: snapshots taken between
    /// bursts never show duplicates or out-of-order events.
    #[test]
    fn interleaved_snapshots_never_duplicate_or_reorder(
        cap in 2usize..9,
        bursts in proptest::collection::vec(0usize..20, 1..6),
    ) {
        let log = EventLog::new(cap);
        let mut next = 0u64;
        for burst in bursts {
            for _ in 0..burst {
                log.push(next, ev(next));
                next += 1;
            }
            let vals = survivors(&log);
            // Strictly increasing => no duplicates, no reordering.
            prop_assert!(vals.windows(2).all(|p| p[0] < p[1]), "unordered: {:?}", vals);
            // And it is a suffix of what was pushed so far.
            let start = next.saturating_sub(cap as u64);
            let expect: Vec<u64> = (start..next).collect();
            prop_assert_eq!(vals, expect);
        }
    }
}
