//! Telemetry integration: a fault-injected Fenix + Kokkos-Resilience run
//! must leave a trace whose failure events appear in causal order
//! (inject → kill → detect → revoke → agree → repair → restart), and the
//! exporters must produce parseable JSONL and a well-formed Chrome
//! `trace_event` document from that same run.

use std::collections::HashMap;
use std::sync::Arc;

use layered_resilience::apps::Heatdis;
use layered_resilience::cluster::{Cluster, ClusterConfig, RelaunchModel};
use layered_resilience::resilience::{run_experiment, ExperimentConfig, Strategy};
use layered_resilience::simmpi::FaultPlan;
use layered_resilience::telemetry::{export, Json, Telemetry, TelemetryConfig, TraceSnapshot};

fn cluster(n: usize) -> Cluster {
    let cfg = ClusterConfig {
        nodes: n,
        ranks_per_node: 1,
        virtual_time: true,
        relaunch: RelaunchModel::free(),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}

/// One fault-injected Fenix/KR Heatdis run, traced. The kill at iteration 7
/// lands between checkpoints (interval 4 → versions at 3, 7, 11), so the
/// recovery must restore from storage rather than recompute from scratch.
///
/// On the deterministic scheduler: under real threads the replacement rank
/// can reach recovery before VeloC's background flush of version 3 reaches
/// the PFS, in which case the job legitimately cold-restarts and the trace
/// has no `restart_begin` (about one run in eight on a loaded two-core
/// host).
fn traced_failure_run() -> TraceSnapshot {
    let tel = Telemetry::new(TelemetryConfig::default());
    let c = cluster(5); // 4 active + 1 spare
    let rec = run_experiment(
        &c,
        &Heatdis::fixed(2 * 8 * 16 * 8, 16, 12),
        &ExperimentConfig {
            strategy: Strategy::FenixKokkosResilience,
            spares: 1,
            checkpoints: 3,
            max_relaunches: 2,
            redundancy: None,
            telemetry: Some(tel.clone()),
            backend: simmpi::Backend::Des { seed: 7 },
        },
        Arc::new(FaultPlan::kill_at(1, "iter", 7)),
    );
    assert_eq!(rec.failures, 1, "the planned kill must have fired");
    tel.snapshot()
}

#[test]
fn fenix_failure_run_emits_causal_chain() {
    let snap = traced_failure_run();
    assert_eq!(snap.dropped, 0, "ring must not overflow on a small run");

    // The snapshot merge sorts by time: the JSONL file is chronological.
    for w in snap.events.windows(2) {
        assert!(w[0].t_ns <= w[1].t_ns, "snapshot must be time-sorted");
    }

    // Every link of the paper's failure chain, in causal order. Each later
    // kind's first occurrence is preceded (on some rank) by the earlier
    // kind, so first-occurrence timestamps must be non-decreasing.
    let chain = [
        "fault_injected",
        "rank_killed",
        "failure_detected",
        "revoke",
        "agree",
        "repair_begin",
        "repair_end",
        "restart_begin",
        "restart_end",
    ];
    let first = |kind: &str| {
        snap.first_ns(kind)
            .unwrap_or_else(|| panic!("trace has no `{kind}` event"))
    };
    for w in chain.windows(2) {
        assert!(
            first(w[0]) <= first(w[1]),
            "`{}` (t={}) must not come after `{}` (t={})",
            w[0],
            first(w[0]),
            w[1],
            first(w[1])
        );
    }

    // Recovery side effects: the spare took a role and the region restored.
    assert!(first("role_changed") >= first("repair_begin"));
    assert!(first("region_restore") >= first("repair_end"));
    // The run kept checkpointing before and after the failure.
    assert!(snap.of_kind("region_commit").len() >= 2);
}

#[test]
fn failure_run_jsonl_is_one_object_per_line_and_chronological() {
    let snap = traced_failure_run();
    let jsonl = export::to_jsonl(&snap);
    assert_eq!(jsonl.lines().count(), snap.events.len());
    let mut last_t = 0.0f64;
    for line in jsonl.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "each line must be a JSON object: {line}"
        );
        for key in ["\"t_ns\":", "\"rank\":", "\"layer\":", "\"kind\":"] {
            assert!(line.contains(key), "line missing {key}: {line}");
        }
        // Extract the leading t_ns number to confirm file-level ordering.
        let t: f64 = line
            .trim_start_matches("{\"t_ns\":")
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("t_ns must be first and numeric");
        assert!(t >= last_t, "JSONL must be chronological");
        last_t = t;
    }
}

/// Structural validation of the Chrome `trace_event` export: required keys
/// per phase type, one metadata record per rank track, and balanced `B`/`E`
/// span brackets on every track.
#[test]
fn failure_run_chrome_trace_is_well_formed() {
    fn get<'a>(v: &'a Json, key: &str) -> Option<&'a Json> {
        match v {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
        match get(v, key) {
            Some(Json::Str(s)) => s,
            other => panic!("`{key}` must be a string, got {other:?}"),
        }
    }
    fn num_of(v: &Json, key: &str) -> f64 {
        match get(v, key) {
            Some(Json::Num(x)) => *x,
            other => panic!("`{key}` must be a number, got {other:?}"),
        }
    }

    let snap = traced_failure_run();
    let doc = export::to_chrome_trace(&snap);
    let events = match get(&doc, "traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("root must carry a traceEvents array, got {other:?}"),
    };
    assert!(!events.is_empty());

    let mut depth: HashMap<u64, i64> = HashMap::new();
    let mut tracks = 0usize;
    for e in events {
        let ph = str_of(e, "ph");
        let tid = num_of(e, "tid") as u64;
        num_of(e, "pid");
        match ph {
            "M" => {
                assert_eq!(str_of(e, "name"), "thread_name");
                tracks += 1;
            }
            "B" | "E" | "i" => {
                assert!(!str_of(e, "name").is_empty());
                assert!(num_of(e, "ts") >= 0.0);
                if ph == "B" {
                    *depth.entry(tid).or_insert(0) += 1;
                } else if ph == "E" {
                    let d = depth.entry(tid).or_insert(0);
                    *d -= 1;
                    assert!(*d >= 0, "track {tid}: E without matching B");
                }
            }
            other => panic!("unexpected phase type `{other}`"),
        }
    }
    assert!(tracks >= 5, "one metadata record per rank track");
    for (tid, d) in depth {
        assert_eq!(d, 0, "track {tid}: unbalanced span brackets");
    }
    // Round-trips through the serializer without losing the envelope.
    let text = doc.to_json();
    assert!(text.starts_with("{\"traceEvents\":["));
    assert!(text.ends_with('}'));
}
