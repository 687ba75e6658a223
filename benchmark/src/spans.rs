//! The benchmark's own spans: one around every `try_run_experiment` and
//! every probe call, kept in memory and written out when the workload ends.
//!
//! Spans inside the program are a later change; these are recorded from the
//! benchmark's side of each layer boundary only.

use std::time::Instant;

/// One timed interval on the host clock, nanoseconds since the log's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Every span of one workload's traced run, indexed by span id.
pub struct SpanLog {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(workload: &str) -> Self {
        SpanLog {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Host nanoseconds since this log was created. Rank threads stamp
    /// their own intervals with [`SpanLog::epoch`] and hand them to
    /// [`SpanLog::record`] afterwards.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Record a finished interval; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_owned(),
            parent,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span under `parent`; `f` receives the new span's id so
    /// it can parent its own children. Returns the id with `f`'s result.
    pub fn scope<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce(&mut SpanLog, usize) -> T,
    ) -> (usize, T) {
        let id = self.record(name, parent, 0, 0);
        let start = self.now_ns();
        let out = f(self, id);
        let end = self.now_ns();
        self.spans[id].start_ns = start;
        self.spans[id].end_ns = end;
        (id, out)
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns - s.start_ns
    }

    /// A span's duration minus the part of its interval its direct children
    /// cover. Children are clipped to the parent and overlapping children
    /// (intervals stamped on different rank threads) are counted once.
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in kids {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (parent.end_ns - parent.start_ns) - covered
    }

    /// The whole log as one JSON document (span names are plain
    /// identifiers, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"workload\": \"{}\", \"spans\": [\n", self.workload);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {id}, \"workload\": \"{}\", \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}\n",
                self.workload,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id),
                if id + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_sibling_children() {
        let mut log = SpanLog::new("w");
        let root = log.record("root", None, 0, 100);
        log.record("a", Some(root), 10, 30);
        log.record("b", Some(root), 50, 90);
        assert_eq!(log.self_ns(root), 100 - 20 - 40);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let mut log = SpanLog::new("w");
        let root = log.record("root", None, 0, 100);
        let mid = log.record("mid", Some(root), 20, 80);
        let leaf = log.record("leaf", Some(mid), 30, 50);
        assert_eq!(log.self_ns(root), 40);
        assert_eq!(log.self_ns(mid), 40);
        assert_eq!(log.self_ns(leaf), 20);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let mut log = SpanLog::new("w");
        let root = log.record("root", None, 100, 200);
        log.record("a", Some(root), 110, 150);
        log.record("b", Some(root), 140, 160);
        log.record("late", Some(root), 190, 250);
        assert_eq!(log.self_ns(root), 100 - 50 - 10);
    }

    #[test]
    fn scope_nests_and_serialises() {
        let mut log = SpanLog::new("w");
        let (outer, inner) = log.scope("outer", None, |log, me| {
            log.scope("inner", Some(me), |_, _| ()).0
        });
        assert_eq!(log.spans[inner].parent, Some(outer));
        assert!(log.spans[outer].start_ns <= log.spans[inner].start_ns);
        assert!(log.spans[inner].end_ns <= log.spans[outer].end_ns);
        assert_eq!(
            log.self_ns(outer),
            log.duration_ns(outer) - log.duration_ns(inner)
        );
        let json = log.to_json();
        assert!(json.contains("\"name\": \"outer\", \"parent\": null"));
        assert!(json.contains("\"name\": \"inner\", \"parent\": 0"));
    }
}
