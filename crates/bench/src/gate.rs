//! The benchmark-gate decision logic behind `scripts/bench_gate.sh`.
//!
//! The shell script used to extract medians with `sed` and compare them in
//! arithmetic expansion — silent on malformed JSON, untestable, and easy to
//! desynchronize from the bench writers. The logic now lives here, unit
//! tested, and the script calls the thin `bench_compare` binary:
//!
//! * [`compare`] — per-config regression check of a fresh run against a
//!   committed baseline, with a percentage budget;
//! * [`assert_faster`] — a claim of the form "config A is at least N×
//!   faster than config B" within one results file (the incremental-
//!   pipeline speedup, XOR-cheaper-than-RS, slice-by-16 beats bitwise);
//! * [`check_baseline`] — structural validation of committed `BENCH_*.json`
//!   baselines (parseable, expected configs present, integer metrics);
//! * [`check_summary`] — schema validation of `target/ci-summary.json`.
//!
//! Every check returns a [`GateReport`]; the binary prints `lines` to
//! stdout, `failures` to stderr, and exits nonzero when failures exist.

use telemetry::Json;

/// Outcome of one gate check: human-readable progress lines plus the
/// violations (empty = pass).
#[derive(Debug, Default)]
pub struct GateReport {
    pub lines: Vec<String>,
    pub failures: Vec<String>,
}

impl GateReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn fail(&mut self, msg: String) {
        self.failures.push(msg);
    }
}

/// Per-bench required shape of a committed baseline: the `bench` field
/// value, the metric its gate reads, and the configs that must be present.
/// `check_baseline` validates against this table, so adding a bench config
/// to a writer without updating the gate fails CI here.
const REQUIRED: &[(&str, &str, &[&str])] = &[
    (
        "checkpoint_pipeline",
        "median_ns",
        &[
            "full_pack",
            "incremental_1pct",
            "incremental_25pct",
            "incremental_100pct",
        ],
    ),
    (
        "redundancy",
        "min_ns",
        &[
            "encode_k2",
            "reconstruct_k2",
            "encode_k3",
            "reconstruct_k3",
            "encode_xor4",
            "reconstruct_xor4",
            "encode_rs4_2",
            "reconstruct_rs4_2",
            "wire_rs4_2",
            "gf_mul_acc_1m",
            "gf_mul_acc_portable_1m",
        ],
    ),
    (
        "sched",
        "median_ns",
        &[
            "baton_handoff",
            "ring_16",
            "ring_64",
            "repair_256",
            "repair_1024",
        ],
    ),
    (
        "restart_latency",
        "median_ns",
        &[
            "restart_full",
            "restart_chain8",
            "crc_bitwise_1m",
            "crc_slice16_1m",
            "crc_dispatch_1m",
        ],
    ),
];

/// Extract `metric` for the named config from a bench results document.
fn config_metric(doc: &Json, name: &str, metric: &str) -> Result<u64, String> {
    let configs = doc
        .get("configs")
        .and_then(Json::as_array)
        .ok_or_else(|| "document has no configs array".to_owned())?;
    let cfg = configs
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .ok_or_else(|| format!("config {name} not found"))?;
    cfg.get(metric)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("config {name} has no integer {metric}"))
}

/// Compare `fresh` against `baseline` for every named config: fail when
/// `fresh > baseline * (100 + max_pct) / 100`. A config missing from
/// either side is a failure (the gate must never silently skip).
pub fn compare(
    baseline: &Json,
    fresh: &Json,
    metric: &str,
    max_pct: u64,
    configs: &[String],
) -> GateReport {
    let mut report = GateReport::default();
    for cfg in configs {
        let base = match config_metric(baseline, cfg, metric) {
            Ok(v) => v,
            Err(e) => {
                report.fail(format!("baseline: {e}"));
                continue;
            }
        };
        let now = match config_metric(fresh, cfg, metric) {
            Ok(v) => v,
            Err(e) => {
                report.fail(format!("fresh run: {e}"));
                continue;
            }
        };
        let limit = base.saturating_mul(100 + max_pct) / 100;
        if now > limit {
            report.fail(format!(
                "{cfg} regressed: {now} ns > {limit} ns (baseline {base} ns +{max_pct}%)"
            ));
        } else {
            report.lines.push(format!(
                "{cfg} {now} ns (baseline {base} ns, limit {limit} ns)"
            ));
        }
    }
    report
}

/// Assert that config `fast` is at least `min_x` times faster than config
/// `slow` within one results document: `fast * min_x <= slow`. A fractional
/// `min_x` bounds a growth ratio instead: `min_x = 0.25` holds `fast` to at
/// most four times `slow`.
pub fn assert_faster(doc: &Json, fast: &str, slow: &str, metric: &str, min_x: f64) -> GateReport {
    let mut report = GateReport::default();
    let (f, s) = match (
        config_metric(doc, fast, metric),
        config_metric(doc, slow, metric),
    ) {
        (Ok(f), Ok(s)) => (f, s),
        (f, s) => {
            for e in [f.err(), s.err()].into_iter().flatten() {
                report.fail(e);
            }
            return report;
        }
    };
    if f as f64 * min_x > s as f64 {
        report.fail(format!(
            "{fast} ({f} ns) must be >= {min_x}x faster than {slow} ({s} ns)"
        ));
    } else {
        report.lines.push(format!(
            "{fast} {f} ns vs {slow} {s} ns ({:.2}x, >= {min_x}x)",
            s as f64 / f as f64
        ));
    }
    report
}

/// Validate committed baselines: each document must parse, carry a `bench`
/// name known to the [`REQUIRED`] table, and contain every required config
/// with a positive integer metric.
pub fn check_baseline(docs: &[(String, Result<Json, String>)]) -> GateReport {
    let mut report = GateReport::default();
    for (path, parsed) in docs {
        let doc = match parsed {
            Ok(d) => d,
            Err(e) => {
                report.fail(format!("{path}: malformed JSON: {e}"));
                continue;
            }
        };
        let Some(bench) = doc.get("bench").and_then(Json::as_str) else {
            report.fail(format!("{path}: missing string field \"bench\""));
            continue;
        };
        let Some(&(_, metric, required)) = REQUIRED.iter().find(|(b, _, _)| *b == bench) else {
            report.fail(format!(
                "{path}: unknown bench {bench:?} (gate table out of date?)"
            ));
            continue;
        };
        let mut bad = false;
        for cfg in required {
            match config_metric(doc, cfg, metric) {
                Ok(0) => {
                    report.fail(format!("{path}: config {cfg} has zero {metric}"));
                    bad = true;
                }
                Ok(_) => {}
                Err(e) => {
                    report.fail(format!("{path}: {e}"));
                    bad = true;
                }
            }
        }
        if !bad {
            report
                .lines
                .push(format!("{path}: ok ({bench}, {} configs)", required.len()));
        }
    }
    report
}

/// Validate the CI stage summary: `ok` must be boolean true, `stages` a
/// non-empty array of `{name: string, seconds: non-negative number}`,
/// `artifacts` an object mapping names to path strings, `scale_smoke`,
/// when present, an array of `{ranks: positive integer, host_s:
/// non-negative number}` (recorded for the weak-scaling table, not gated:
/// host noise), and `crc_kernel`, when present (the restart bench ran), one
/// of the two kernels `veloc::serial::crc32` dispatches to, with
/// `crc_dispatch_1m_ns` a positive integer beside it — a number without the
/// kernel that produced it is not a record. `gf256_kernel` and
/// `gf_mul_acc_1m_ns` (the redundancy bench, `redstore::gf256::mul_acc`) are
/// held to the same rule.
pub fn check_summary(doc: &Json) -> GateReport {
    let mut report = GateReport::default();
    match doc.get("ok").and_then(Json::as_bool) {
        Some(true) => {}
        Some(false) => report.fail("summary says ok:false".into()),
        None => report.fail("summary missing boolean \"ok\"".into()),
    }
    match doc.get("stages").and_then(Json::as_array) {
        None => report.fail("summary missing \"stages\" array".into()),
        Some([]) => report.fail("summary has an empty \"stages\" array".into()),
        Some(stages) => {
            for (i, stage) in stages.iter().enumerate() {
                if stage.get("name").and_then(Json::as_str).is_none() {
                    report.fail(format!("stage {i} missing string \"name\""));
                }
                match stage.get("seconds").and_then(Json::as_f64) {
                    Some(s) if s >= 0.0 => {}
                    _ => report.fail(format!("stage {i} missing non-negative \"seconds\"")),
                }
            }
            if report.ok() {
                report.lines.push(format!("{} stages timed", stages.len()));
            }
        }
    }
    match doc.get("scale_smoke").map(Json::as_array) {
        None => {}
        Some(None) => report.fail("\"scale_smoke\" is not an array".into()),
        Some(Some(runs)) => {
            for (i, run) in runs.iter().enumerate() {
                let ranks = run.get("ranks").and_then(Json::as_u64).unwrap_or(0);
                match run.get("host_s").and_then(Json::as_f64) {
                    Some(s) if s >= 0.0 && ranks > 0 => report
                        .lines
                        .push(format!("scale smoke at {ranks} ranks: {s} s")),
                    _ => report.fail(format!(
                        "scale_smoke {i} needs positive \"ranks\" and non-negative \"host_s\""
                    )),
                }
            }
        }
    }
    for (kernel_key, ns_key, kernels, what) in [
        (
            "crc_kernel",
            "crc_dispatch_1m_ns",
            ["pclmulqdq", "slice16"],
            "crc32",
        ),
        (
            "gf256_kernel",
            "gf_mul_acc_1m_ns",
            ["ssse3", "portable"],
            "gf256::mul_acc",
        ),
    ] {
        let ns = doc.get(ns_key);
        match doc.get(kernel_key).map(Json::as_str) {
            None if ns.is_some() => report.fail(format!("{ns_key:?} without {kernel_key:?}")),
            None => {}
            Some(Some(kernel)) if kernels.contains(&kernel) => match ns.and_then(Json::as_u64) {
                Some(ns) if ns > 0 => report
                    .lines
                    .push(format!("{what} dispatches to {kernel}: {ns} ns per MiB")),
                _ => report.fail(format!(
                    "{kernel_key:?}:{kernel:?} needs a positive integer {ns_key:?}"
                )),
            },
            Some(_) => report.fail(format!(
                "{kernel_key:?} must be {:?} or {:?}",
                kernels[0], kernels[1]
            )),
        }
    }
    match doc.get("artifacts").and_then(Json::as_object) {
        None => report.fail("summary missing \"artifacts\" object".into()),
        Some(artifacts) => {
            for (k, v) in artifacts {
                if v.as_str().is_none() {
                    report.fail(format!("artifact {k:?} is not a path string"));
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(configs: &str) -> Json {
        Json::parse(&format!(
            "{{\"bench\":\"checkpoint_pipeline\",\"configs\":[{configs}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn compare_passes_within_budget() {
        let base = doc(r#"{"name":"a","median_ns":1000}"#);
        let fresh = doc(r#"{"name":"a","median_ns":1150}"#);
        let r = compare(&base, &fresh, "median_ns", 15, &["a".into()]);
        assert!(r.ok(), "{:?}", r.failures);
    }

    #[test]
    fn compare_fails_beyond_budget() {
        let base = doc(r#"{"name":"a","median_ns":1000}"#);
        let fresh = doc(r#"{"name":"a","median_ns":1151}"#);
        let r = compare(&base, &fresh, "median_ns", 15, &["a".into()]);
        assert!(!r.ok());
        assert!(r.failures[0].contains("regressed"));
    }

    #[test]
    fn compare_fails_on_missing_config() {
        let base = doc(r#"{"name":"a","median_ns":1000}"#);
        let fresh = doc(r#"{"name":"b","median_ns":10}"#);
        let r = compare(&base, &fresh, "median_ns", 15, &["a".into()]);
        assert!(!r.ok());
        assert!(r.failures[0].contains("not found"), "{:?}", r.failures);
    }

    #[test]
    fn compare_fails_on_non_integer_metric() {
        let base = doc(r#"{"name":"a","median_ns":1000}"#);
        let fresh = doc(r#"{"name":"a","median_ns":"fast"}"#);
        let r = compare(&base, &fresh, "median_ns", 15, &["a".into()]);
        assert!(!r.ok());
    }

    #[test]
    fn assert_faster_enforces_ratio() {
        let d = doc(r#"{"name":"inc","median_ns":100},{"name":"full","median_ns":501}"#);
        assert!(assert_faster(&d, "inc", "full", "median_ns", 5.0).ok());
        let d = doc(r#"{"name":"inc","median_ns":100},{"name":"full","median_ns":499}"#);
        assert!(!assert_faster(&d, "inc", "full", "median_ns", 5.0).ok());
    }

    #[test]
    fn assert_faster_with_a_fraction_bounds_growth() {
        // "big is at most 4x small", whatever the host's absolute speed.
        let d = doc(r#"{"name":"big","median_ns":400},{"name":"small","median_ns":100}"#);
        assert!(assert_faster(&d, "big", "small", "median_ns", 0.25).ok());
        let d = doc(r#"{"name":"big","median_ns":401},{"name":"small","median_ns":100}"#);
        assert!(!assert_faster(&d, "big", "small", "median_ns", 0.25).ok());
    }

    #[test]
    fn assert_faster_with_unit_ratio_is_plain_ordering() {
        let d = doc(r#"{"name":"s16","median_ns":10},{"name":"bit","median_ns":10}"#);
        assert!(assert_faster(&d, "s16", "bit", "median_ns", 1.0).ok());
        let d = doc(r#"{"name":"s16","median_ns":11},{"name":"bit","median_ns":10}"#);
        assert!(!assert_faster(&d, "s16", "bit", "median_ns", 1.0).ok());
    }

    #[test]
    fn check_baseline_accepts_complete_documents() {
        let text = r#"{"bench":"sched","configs":[
            {"name":"baton_handoff","median_ns":1},
            {"name":"ring_16","median_ns":2},
            {"name":"ring_64","median_ns":3},
            {"name":"repair_256","median_ns":4},
            {"name":"repair_1024","median_ns":5}
        ]}"#;
        let r = check_baseline(&[("BENCH_sched.json".into(), Json::parse(text))]);
        assert!(r.ok(), "{:?}", r.failures);
    }

    #[test]
    fn check_baseline_rejects_missing_config_and_bad_json() {
        let incomplete = r#"{"bench":"sched","configs":[{"name":"ring_16","median_ns":2}]}"#;
        let r = check_baseline(&[
            ("a.json".into(), Json::parse(incomplete)),
            ("b.json".into(), Json::parse("{nope")),
        ]);
        assert!(!r.ok());
        assert!(r.failures.iter().any(|f| f.contains("baton_handoff")));
        assert!(r.failures.iter().any(|f| f.contains("malformed")));
    }

    #[test]
    fn check_baseline_rejects_unknown_bench_and_zero_metric() {
        let unknown = r#"{"bench":"mystery","configs":[]}"#;
        let zero = r#"{"bench":"sched","configs":[
            {"name":"baton_handoff","median_ns":0},
            {"name":"ring_16","median_ns":2},
            {"name":"ring_64","median_ns":3}
        ]}"#;
        let r = check_baseline(&[
            ("u.json".into(), Json::parse(unknown)),
            ("z.json".into(), Json::parse(zero)),
        ]);
        assert!(r.failures.iter().any(|f| f.contains("unknown bench")));
        assert!(r.failures.iter().any(|f| f.contains("zero")));
    }

    #[test]
    fn check_summary_validates_schema() {
        let good = r#"{"ok":true,"stages":[{"name":"build","seconds":1.5}],
                       "artifacts":{"lint":"target/lint.json"}}"#;
        assert!(check_summary(&Json::parse(good).unwrap()).ok());
        let bad_ok = r#"{"ok":false,"stages":[{"name":"build","seconds":1}],"artifacts":{}}"#;
        assert!(!check_summary(&Json::parse(bad_ok).unwrap()).ok());
        let no_stages = r#"{"ok":true,"stages":[],"artifacts":{}}"#;
        assert!(!check_summary(&Json::parse(no_stages).unwrap()).ok());
        let bad_stage = r#"{"ok":true,"stages":[{"seconds":-1}],"artifacts":{}}"#;
        let r = check_summary(&Json::parse(bad_stage).unwrap());
        assert!(r.failures.iter().any(|f| f.contains("name")));
        assert!(r.failures.iter().any(|f| f.contains("seconds")));
        let bad_artifact = r#"{"ok":true,"stages":[{"name":"a","seconds":0}],
                              "artifacts":{"x":5}}"#;
        assert!(!check_summary(&Json::parse(bad_artifact).unwrap()).ok());
        let smoke = |runs: &str| {
            let text = format!(
                r#"{{"ok":true,"stages":[{{"name":"a","seconds":0}}],"artifacts":{{}},"scale_smoke":{runs}}}"#
            );
            check_summary(&Json::parse(&text).unwrap())
        };
        let r = smoke(r#"[{"ranks":1032,"host_s":1.9},{"ranks":2056,"host_s":6.5}]"#);
        assert!(r.ok(), "{:?}", r.failures);
        assert!(r.lines.iter().any(|l| l.contains("2056 ranks")));
        assert!(smoke("[]").ok(), "quick mode may record none");
        assert!(!smoke(r#"[{"ranks":1032}]"#).ok());
        assert!(!smoke(r#"[{"ranks":0,"host_s":1}]"#).ok());
        assert!(!smoke(r#"{"ranks":1032,"host_s":1}"#).ok());
    }

    #[test]
    fn check_summary_validates_the_crc_record() {
        let crc = |fields: &str| {
            let text = format!(
                r#"{{"ok":true,"stages":[{{"name":"a","seconds":0}}],"artifacts":{{}}{fields}}}"#
            );
            check_summary(&Json::parse(&text).unwrap())
        };
        assert!(crc("").ok(), "quick mode runs no bench and records none");
        let r = crc(r#","crc_kernel":"pclmulqdq","crc_dispatch_1m_ns":37505"#);
        assert!(r.ok(), "{:?}", r.failures);
        assert!(r.lines.iter().any(|l| l.contains("pclmulqdq: 37505 ns")));
        assert!(crc(r#","crc_kernel":"slice16","crc_dispatch_1m_ns":494892"#).ok());
        assert!(!crc(r#","crc_kernel":"avx512","crc_dispatch_1m_ns":1"#).ok());
        assert!(!crc(r#","crc_kernel":7,"crc_dispatch_1m_ns":1"#).ok());
        assert!(!crc(r#","crc_kernel":"slice16""#).ok());
        assert!(!crc(r#","crc_kernel":"slice16","crc_dispatch_1m_ns":0"#).ok());
        assert!(!crc(r#","crc_dispatch_1m_ns":37505"#).ok());
    }

    #[test]
    fn check_summary_validates_the_gf256_record() {
        // The redundancy bench's kernel record follows the CRC's rule, and
        // stands beside it or alone.
        let gf = |fields: &str| {
            let text = format!(
                r#"{{"ok":true,"stages":[{{"name":"a","seconds":0}}],"artifacts":{{}}{fields}}}"#
            );
            check_summary(&Json::parse(&text).unwrap())
        };
        let r = gf(r#","gf256_kernel":"ssse3","gf_mul_acc_1m_ns":64875"#);
        assert!(r.ok(), "{:?}", r.failures);
        assert!(r.lines.iter().any(|l| l.contains("ssse3: 64875 ns")));
        assert!(gf(
            r#","crc_kernel":"slice16","crc_dispatch_1m_ns":494892,"gf256_kernel":"portable","gf_mul_acc_1m_ns":379342"#
        )
        .ok());
        assert!(!gf(r#","gf256_kernel":"avx2","gf_mul_acc_1m_ns":1"#).ok());
        assert!(!gf(r#","gf256_kernel":"ssse3""#).ok());
        assert!(!gf(r#","gf256_kernel":"ssse3","gf_mul_acc_1m_ns":0"#).ok());
        assert!(!gf(r#","gf_mul_acc_1m_ns":64875"#).ok());
    }
}
