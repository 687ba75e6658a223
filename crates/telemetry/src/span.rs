//! Span-based phase timing.
//!
//! A [`SpanGuard`] (from [`crate::Recorder::span`]) times a region on the
//! recorder's clock and books it on drop: the clock is read once per edge,
//! that reading stamps the `SpanBegin`/`SpanEnd` event (when the recorder
//! has a hub) and the difference of the two readings goes to the recorder's
//! [`crate::PhaseAccumulator`]. The accumulated total of a phase is
//! therefore exactly the sum of its `SpanBegin`→`SpanEnd` intervals in the
//! trace. Time is inclusive: a span nested in another counts in both.

use std::time::Duration;

use crate::event::Event;
use crate::phase::Phase;
use crate::Recorder;

/// RAII span; created by [`Recorder::span`].
pub struct SpanGuard {
    rec: Recorder,
    phase: Phase,
    begin_ns: u64,
}

impl SpanGuard {
    pub(crate) fn begin(rec: Recorder, phase: Phase) -> SpanGuard {
        let begin_ns = rec.span_edge(Event::SpanBegin { phase });
        SpanGuard {
            rec,
            phase,
            begin_ns,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = self.rec.span_edge(Event::SpanEnd { phase: self.phase });
        if let Some(phases) = self.rec.phases() {
            let inclusive = Duration::from_nanos(end_ns.saturating_sub(self.begin_ns));
            phases.add(self.phase, inclusive);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Telemetry, TelemetryConfig, TimeSource};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A time source the test advances by hand.
    fn manual_clock() -> (Arc<AtomicU64>, TimeSource) {
        let now = Arc::new(AtomicU64::new(0));
        let read = Arc::clone(&now);
        let source = TimeSource::External(Arc::new(move || read.load(Ordering::Relaxed)));
        (now, source)
    }

    #[test]
    fn nested_spans_book_inclusive_time() {
        let (now, source) = manual_clock();
        let rec = Recorder::phases_only(source);
        {
            let _outer = rec.span(Phase::AppCompute);
            now.fetch_add(4, Ordering::Relaxed);
            {
                let _inner = rec.span(Phase::CheckpointFn);
                now.fetch_add(3, Ordering::Relaxed);
            }
        }
        let phases = rec.phases().expect("enabled");
        assert_eq!(phases.get(Phase::AppCompute), Duration::from_nanos(7));
        assert_eq!(phases.get(Phase::CheckpointFn), Duration::from_nanos(3));
    }

    #[test]
    fn disabled_recorder_spans_are_noops() {
        let rec = Recorder::disabled();
        let _g = rec.span(Phase::AppCompute);
        assert!(rec.phases().is_none());
    }

    #[test]
    fn a_span_books_the_difference_of_its_two_stamps() {
        let (now, source) = manual_clock();
        let tel = Telemetry::with_time_source(TelemetryConfig::default(), source);
        let rec = tel.recorder(3);
        now.store(10, Ordering::Relaxed);
        {
            let _g = rec.span(Phase::AppMpi);
            now.store(25, Ordering::Relaxed);
        }
        let snap = tel.snapshot();
        let stamps: Vec<_> = snap
            .events
            .iter()
            .map(|e| (e.event.kind(), e.t_ns, e.rank))
            .collect();
        assert_eq!(stamps, vec![("span_begin", 10, 3), ("span_end", 25, 3)]);
        let phases = rec.phases().expect("enabled");
        assert_eq!(phases.get(Phase::AppMpi), Duration::from_nanos(15));
    }
}
