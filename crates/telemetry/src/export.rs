//! Trace exporters: JSONL event dumps, Chrome `trace_event` JSON, and a
//! human-readable failure timeline.
//!
//! All exporters consume a [`TraceSnapshot`] (see [`crate::Telemetry::snapshot`]),
//! whose events are already merged across ranks and sorted by timestamp.

use std::io::Write as _;
use std::path::Path;

use crate::event::Event;
use crate::json::Json;
use crate::TimedEvent;
use crate::TraceSnapshot;

/// The variant-specific payload of an event as JSON pairs.
pub fn event_fields(e: &Event) -> Vec<(&'static str, Json)> {
    match e {
        Event::MpiCall { op, peer, bytes } => {
            let mut f = vec![("op", Json::from(op.name()))];
            if let Some(p) = peer {
                f.push(("peer", Json::from(*p)));
            }
            f.push(("bytes", Json::from(*bytes)));
            f
        }
        Event::FaultInjected { site, count } => vec![
            ("site", Json::from(site.as_str())),
            ("count", Json::from(*count)),
        ],
        Event::RankKilled | Event::Revoke => vec![],
        Event::Agree { seq, flags } => {
            vec![("seq", Json::from(*seq)), ("flags", Json::from(*flags))]
        }
        Event::Shrink { survivors } => vec![("survivors", Json::from(*survivors))],
        Event::FailureDetected { scope } => vec![("scope", Json::from(scope.as_str()))],
        Event::RoleChanged { role } => vec![("role", Json::from(role.as_str()))],
        Event::RepairBegin { epoch } => vec![("epoch", Json::from(*epoch))],
        Event::RepairEnd {
            epoch,
            survivors,
            spares_left,
        } => vec![
            ("epoch", Json::from(*epoch)),
            ("survivors", Json::from(*survivors)),
            ("spares_left", Json::from(*spares_left)),
        ],
        Event::CallbackFired { name } => vec![("name", Json::from(name.as_str()))],
        Event::Protect { name, bytes } => vec![
            ("name", Json::from(name.as_str())),
            ("bytes", Json::from(*bytes)),
        ],
        Event::CheckpointBegin { name, version }
        | Event::FlushEnqueued { name, version }
        | Event::RestartBegin { name, version } => vec![
            ("name", Json::from(name.as_str())),
            ("version", Json::from(*version)),
        ],
        Event::CheckpointLocal {
            name,
            version,
            bytes,
        }
        | Event::FlushDone {
            name,
            version,
            bytes,
        } => vec![
            ("name", Json::from(name.as_str())),
            ("version", Json::from(*version)),
            ("bytes", Json::from(*bytes)),
        ],
        Event::RestartEnd { name, version, ok } => vec![
            ("name", Json::from(name.as_str())),
            ("version", Json::from(*version)),
            ("ok", Json::from(*ok)),
        ],
        Event::RegionEnter { label, iteration } => vec![
            ("label", Json::from(label.as_str())),
            ("iteration", Json::from(*iteration)),
        ],
        Event::RegionCapture {
            label,
            views,
            bytes,
        } => vec![
            ("label", Json::from(label.as_str())),
            ("views", Json::from(*views)),
            ("bytes", Json::from(*bytes)),
        ],
        Event::RegionCommit { label, version } | Event::RegionRestore { label, version } => vec![
            ("label", Json::from(label.as_str())),
            ("version", Json::from(*version)),
        ],
        Event::SpanBegin { phase } | Event::SpanEnd { phase } => {
            vec![("phase", Json::from(phase.name()))]
        }
        Event::Marker { label } => vec![("label", Json::from(label.as_str()))],
    }
}

fn event_json(e: &TimedEvent) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("t_ns".into(), Json::from(e.t_ns)),
        ("rank".into(), Json::from(e.rank)),
        ("layer".into(), Json::from(e.event.layer())),
        ("kind".into(), Json::from(e.event.kind())),
    ];
    pairs.extend(
        event_fields(&e.event)
            .into_iter()
            .map(|(k, v)| (k.to_string(), v)),
    );
    Json::Obj(pairs)
}

/// One JSON object per line, oldest event first.
pub fn to_jsonl(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    for e in &snap.events {
        out.push_str(&event_json(e).to_json());
        out.push('\n');
    }
    out
}

/// Chrome `trace_event` document: spans become `B`/`E` duration events and
/// everything else an instant (`i`), one track (`tid`) per rank. Load in
/// `chrome://tracing` or Perfetto.
pub fn to_chrome_trace(snap: &TraceSnapshot) -> Json {
    let mut events: Vec<Json> = Vec::with_capacity(snap.events.len() + 8);

    let mut ranks: Vec<u32> = snap.events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    for r in &ranks {
        events.push(Json::obj([
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(*r)),
            (
                "args",
                Json::obj([("name", Json::from(format!("rank {r}")))]),
            ),
        ]));
    }

    for e in &snap.events {
        let ts = e.t_ns as f64 / 1e3; // trace_event timestamps are µs
        let common = [
            ("ts", Json::Num(ts)),
            ("pid", Json::from(0u64)),
            ("tid", Json::from(e.rank)),
        ];
        let ev = match &e.event {
            Event::SpanBegin { phase } => Json::obj(
                [
                    ("name", Json::from(phase.name())),
                    ("cat", Json::from("phase")),
                    ("ph", Json::from("B")),
                ]
                .into_iter()
                .chain(common),
            ),
            Event::SpanEnd { phase } => Json::obj(
                [
                    ("name", Json::from(phase.name())),
                    ("cat", Json::from("phase")),
                    ("ph", Json::from("E")),
                ]
                .into_iter()
                .chain(common),
            ),
            other => Json::obj(
                [
                    ("name", Json::from(other.kind())),
                    ("cat", Json::from(other.layer())),
                    ("ph", Json::from("i")),
                    ("s", Json::from("t")),
                ]
                .into_iter()
                .chain(common)
                .chain([(
                    "args",
                    Json::Obj(
                        event_fields(other)
                            .into_iter()
                            .map(|(k, v)| (k.to_string(), v))
                            .collect(),
                    ),
                )]),
            ),
        };
        events.push(ev);
    }

    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
    ])
}

/// Event kinds that tell the failure story (everything but the high-volume
/// MPI-call and span-bracket noise).
fn is_timeline_kind(e: &Event) -> bool {
    !matches!(
        e,
        Event::MpiCall { .. } | Event::SpanBegin { .. } | Event::SpanEnd { .. }
    )
}

/// Human-readable chronological summary of the run's failure handling.
pub fn failure_timeline(snap: &TraceSnapshot) -> String {
    let picked: Vec<&TimedEvent> = snap
        .events
        .iter()
        .filter(|e| is_timeline_kind(&e.event))
        .collect();
    let mut out = format!(
        "failure timeline: {} events ({} shown, {} dropped from logs)\n",
        snap.events.len(),
        picked.len(),
        snap.dropped
    );
    for e in picked {
        let fields = event_fields(&e.event)
            .into_iter()
            .map(|(k, v)| {
                let v = match v {
                    Json::Str(s) => s,
                    other => other.to_json(),
                };
                format!("{k}={v}")
            })
            .collect::<Vec<_>>()
            .join(" ");
        out.push_str(&format!(
            "  +{:>12.6}s rank {:<3} [{:<17}] {}{}{}\n",
            e.t_ns as f64 / 1e9,
            e.rank,
            e.event.layer(),
            e.event.kind(),
            if fields.is_empty() { "" } else { " " },
            fields,
        ));
    }
    out
}

/// Write the JSONL dump to `path`.
pub fn write_jsonl(path: &Path, snap: &TraceSnapshot) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_jsonl(snap).as_bytes())
}

/// Write the Chrome trace JSON to `path`.
pub fn write_chrome_trace(path: &Path, snap: &TraceSnapshot) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_chrome_trace(snap).to_json().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MpiOp;

    fn snap(events: Vec<TimedEvent>) -> TraceSnapshot {
        TraceSnapshot {
            events,
            dropped: 0,
            pushed: 0,
        }
    }

    fn ev(t_ns: u64, rank: u32, event: Event) -> TimedEvent {
        TimedEvent { t_ns, rank, event }
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let s = snap(vec![
            ev(10, 0, Event::Revoke),
            ev(
                20,
                1,
                Event::CheckpointBegin {
                    name: "heatdis".into(),
                    version: 3,
                },
            ),
        ]);
        let text = to_jsonl(&s);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"t_ns":10,"rank":0,"layer":"simmpi","kind":"revoke"}"#
        );
        assert_eq!(
            lines[1],
            r#"{"t_ns":20,"rank":1,"layer":"veloc","kind":"checkpoint_begin","name":"heatdis","version":3}"#
        );
    }

    #[test]
    fn chrome_trace_has_span_brackets_and_instants() {
        let s = snap(vec![
            ev(
                1_000,
                2,
                Event::SpanBegin {
                    phase: crate::Phase::AppCompute,
                },
            ),
            ev(
                2_000,
                2,
                Event::MpiCall {
                    op: MpiOp::Barrier,
                    peer: None,
                    bytes: 0,
                },
            ),
            ev(
                3_000,
                2,
                Event::SpanEnd {
                    phase: crate::Phase::AppCompute,
                },
            ),
        ]);
        let doc = to_chrome_trace(&s);
        let Json::Obj(pairs) = &doc else { panic!() };
        let Json::Arr(events) = &pairs[0].1 else {
            panic!()
        };
        // 1 thread_name metadata + 3 events.
        assert_eq!(events.len(), 4);
        let phs: Vec<String> = events
            .iter()
            .filter_map(|e| {
                let Json::Obj(p) = e else { return None };
                p.iter().find(|(k, _)| k == "ph").map(|(_, v)| match v {
                    Json::Str(s) => s.clone(),
                    _ => panic!(),
                })
            })
            .collect();
        assert_eq!(phs, vec!["M", "B", "i", "E"]);
    }

    #[test]
    fn timeline_skips_noise_and_reports_drops() {
        let s = TraceSnapshot {
            events: vec![
                ev(
                    5,
                    0,
                    Event::MpiCall {
                        op: MpiOp::Send,
                        peer: Some(1),
                        bytes: 8,
                    },
                ),
                ev(
                    7,
                    0,
                    Event::FaultInjected {
                        site: "iter".into(),
                        count: 3,
                    },
                ),
            ],
            dropped: 4,
            pushed: 6,
        };
        let text = failure_timeline(&s);
        assert!(text.contains("1 shown"));
        assert!(text.contains("4 dropped"));
        assert!(text.contains("fault_injected site=iter count=3"));
        assert!(!text.contains("mpi_call"));
    }
}
