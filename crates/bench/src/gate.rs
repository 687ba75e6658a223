//! The benchmark-gate decision logic behind `scripts/bench_gate.sh`, unit
//! tested here and reached through the thin `bench_compare` binary:
//!
//! * [`assert_faster`] — a claim of the form "config A is at least N×
//!   faster than config B" within one fresh results file. Every claim the
//!   gate makes has this shape, each against an oracle measured in the same
//!   process (the incremental pipeline against the full pack, the full pack
//!   against its kernels, the baton against a bare condvar ping-pong, …),
//!   so no bound depends on the host's absolute speed;
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

/// Extract `metric` for the named config from a bench results document. A
/// missing, non-integer or zero value is an error: a zero on either side of
/// a ratio claim is a measurement that did not happen, and would otherwise
/// pass (`0 × min_x > slow` is false) or fail as a division by zero.
fn config_metric(doc: &Json, name: &str, metric: &str) -> Result<u64, String> {
    let configs = doc
        .get("configs")
        .and_then(Json::as_array)
        .ok_or_else(|| "document has no configs array".to_owned())?;
    let cfg = configs
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .ok_or_else(|| format!("config {name} not found"))?;
    match cfg.get(metric).and_then(Json::as_u64) {
        None => Err(format!("config {name} has no integer {metric}")),
        Some(0) => Err(format!("config {name} has zero {metric}")),
        Some(v) => Ok(v),
    }
}

/// Assert that config `fast` is at least `min_x` times faster than config
/// `slow` within one results document: `fast * min_x <= slow`. A fractional
/// `min_x` bounds a growth ratio instead: `min_x = 0.25` holds `fast` to at
/// most four times `slow`. The passing line carries the measured ratio
/// beside the bound; `scripts/ci.sh` copies both into `ci-summary.json`.
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
    let ratio = s as f64 / f as f64;
    if f as f64 * min_x > s as f64 {
        report.fail(format!(
            "{fast} ({f}) must be >= {min_x}x faster than {slow} ({s} {metric}): {ratio:.3}x"
        ));
    } else {
        report.lines.push(format!(
            "{fast} {f} vs {slow} {s} {metric} ({ratio:.3}x, >= {min_x}x)"
        ));
    }
    report
}

/// Validate the CI stage summary: `ok` must be boolean true, `stages` a
/// non-empty array of `{name: string, seconds: non-negative number}`,
/// `artifacts` an object mapping names to path strings, `scale_smoke`,
/// when present, an array of `{ranks: positive integer, host_s:
/// non-negative number, handoffs, unready_skipped: integers}` (`host_s` is
/// recorded for the weak-scaling table, not gated: host noise; `handoffs`
/// is a pure function of the smoke's seed, and at 1,024 active ranks may
/// not exceed [`SMOKE_1K_HANDOFFS`]), and `crc_kernel`, when present (the
/// restart bench ran), one of the two kernels `veloc::serial::crc32`
/// dispatches to, with
/// `crc_dispatch_1m_ns` a positive integer beside it — a number without the
/// kernel that produced it is not a record. `gf256_kernel` and
/// `gf_mul_acc_1m_ns` (the redundancy bench, `redstore::gf256::mul_acc`) are
/// held to the same rule. `claims`, when present (the bench gate ran), is
/// the record of what the gate held: an array of `{fast, slow, metric:
/// strings, ratio, min_x: positive numbers}` with `ratio >= min_x` — a
/// summary that says `ok` beside a claim below its bound contradicts itself.
/// Baton hand-offs of `crates/apps/tests/scale_smoke.rs` at its default
/// 1,024 active ranks ([`SMOKE_1K_RANKS`] with the spare node): exact, since
/// the DES schedule is a function of the seed alone. A change that makes the
/// dispatcher wake ranks that can only yield again shows here as a count,
/// not as a noisy host second; one that changes the smoke's schedule on
/// purpose re-records it.
pub const SMOKE_1K_HANDOFFS: u64 = 39_683;
const SMOKE_1K_RANKS: u64 = 1032;

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
                let count = |key| run.get(key).and_then(Json::as_u64);
                let ranks = count("ranks").unwrap_or(0);
                match (
                    run.get("host_s").and_then(Json::as_f64),
                    count("handoffs"),
                    count("unready_skipped"),
                ) {
                    (Some(s), Some(handoffs), Some(skipped)) if s >= 0.0 && ranks > 0 => {
                        report.lines.push(format!(
                            "scale smoke at {ranks} ranks: {s} s, {handoffs} hand-offs, {skipped} unready wakes skipped"
                        ));
                        if ranks == SMOKE_1K_RANKS && handoffs > SMOKE_1K_HANDOFFS {
                            report.fail(format!(
                                "scale smoke at {ranks} ranks made {handoffs} hand-offs, more than the recorded {SMOKE_1K_HANDOFFS}"
                            ));
                        }
                    }
                    _ => report.fail(format!(
                        "scale_smoke {i} needs positive \"ranks\", non-negative \"host_s\" and integer \"handoffs\", \"unready_skipped\""
                    )),
                }
            }
        }
    }
    match doc.get("claims").map(Json::as_array) {
        None => {}
        Some(None) => report.fail("\"claims\" is not an array".into()),
        Some(Some(claims)) => {
            for (i, claim) in claims.iter().enumerate() {
                let name = |key| claim.get(key).and_then(Json::as_str);
                let positive = |key| claim.get(key).and_then(Json::as_f64).filter(|v| *v > 0.0);
                match (
                    name("fast"),
                    name("slow"),
                    name("metric"),
                    positive("ratio"),
                    positive("min_x"),
                ) {
                    (Some(fast), Some(slow), Some(_), Some(ratio), Some(min_x)) => {
                        if ratio < min_x {
                            report.fail(format!(
                                "claim {i} ({fast} vs {slow}) is below its bound: {ratio}x < {min_x}x"
                            ));
                        }
                    }
                    _ => report.fail(format!(
                        "claim {i} needs strings \"fast\", \"slow\", \"metric\" and positive \"ratio\", \"min_x\""
                    )),
                }
            }
            if report.ok() && !claims.is_empty() {
                report.lines.push(format!("{} claims held", claims.len()));
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
    fn assert_faster_fails_on_missing_config() {
        let d = doc(r#"{"name":"a","median_ns":1000}"#);
        let r = assert_faster(&d, "a", "b", "median_ns", 1.0);
        assert!(!r.ok());
        assert!(r.failures[0].contains("b not found"), "{:?}", r.failures);
    }

    #[test]
    fn assert_faster_fails_on_non_integer_metric() {
        let d = doc(r#"{"name":"a","median_ns":1000},{"name":"b","median_ns":"fast"}"#);
        let r = assert_faster(&d, "a", "b", "median_ns", 1.0);
        assert!(!r.ok());
        assert!(r.failures[0].contains("no integer"), "{:?}", r.failures);
    }

    #[test]
    fn assert_faster_fails_on_a_zero_metric_on_either_side() {
        // `0 * min_x > slow` is false: without the rule a config that was
        // never measured is infinitely fast.
        let zero_fast = doc(r#"{"name":"a","median_ns":0},{"name":"b","median_ns":10}"#);
        let r = assert_faster(&zero_fast, "a", "b", "median_ns", 5.0);
        assert_eq!(r.failures, ["config a has zero median_ns"]);
        let zero_slow = doc(r#"{"name":"a","median_ns":10},{"name":"b","median_ns":0}"#);
        let r = assert_faster(&zero_slow, "a", "b", "median_ns", 0.5);
        assert_eq!(r.failures, ["config b has zero median_ns"]);
        let both = doc(r#"{"name":"a","median_ns":0},{"name":"b","median_ns":0}"#);
        let r = assert_faster(&both, "a", "b", "median_ns", 1.0);
        assert_eq!(r.failures.len(), 2, "{:?}", r.failures);
    }

    #[test]
    fn assert_faster_reads_the_named_metric_and_prints_the_ratio() {
        let d = doc(
            r#"{"name":"inc","median_ns":9,"bytes_written":4532},{"name":"full","median_ns":1,"bytes_written":411224}"#,
        );
        let r = assert_faster(&d, "inc", "full", "bytes_written", 90.7);
        assert!(r.ok(), "{:?}", r.failures);
        assert_eq!(
            r.lines,
            ["inc 4532 vs full 411224 bytes_written (90.738x, >= 90.7x)"]
        );
        let r = assert_faster(&d, "inc", "full", "median_ns", 3.0);
        assert!(r.failures[0].ends_with("0.111x"), "{:?}", r.failures);
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
        let r = smoke(
            r#"[{"ranks":1032,"host_s":1.9,"handoffs":39683,"unready_skipped":10364},
                {"ranks":2056,"host_s":6.5,"handoffs":90000,"unready_skipped":20000}]"#,
        );
        assert!(r.ok(), "{:?}", r.failures);
        assert!(r.lines.iter().any(|l| l.contains("2056 ranks")));
        assert!(smoke("[]").ok(), "quick mode may record none");
        assert!(!smoke(r#"[{"ranks":1032}]"#).ok());
        assert!(
            !smoke(r#"[{"ranks":1032,"host_s":1}]"#).ok(),
            "counts are required"
        );
        assert!(!smoke(r#"[{"ranks":0,"host_s":1,"handoffs":1,"unready_skipped":0}]"#).ok());
        assert!(!smoke(r#"{"ranks":1032,"host_s":1}"#).ok());
        // One hand-off over the recorded count fails, whatever the seconds;
        // other rank counts are recorded only.
        let r = smoke(r#"[{"ranks":1032,"host_s":0.1,"handoffs":39684,"unready_skipped":10363}]"#);
        assert!(
            r.failures[0].contains("more than the recorded"),
            "{:?}",
            r.failures
        );
        assert!(smoke(r#"[{"ranks":1032,"host_s":9,"handoffs":39000,"unready_skipped":0}]"#).ok());
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

    #[test]
    fn check_summary_validates_the_claims_record() {
        let claims = |claims: &str| {
            let text = format!(
                r#"{{"ok":true,"stages":[{{"name":"a","seconds":0}}],"artifacts":{{}},"claims":{claims}}}"#
            );
            check_summary(&Json::parse(&text).unwrap())
        };
        assert!(claims("[]").ok(), "quick mode runs no bench");
        let r = claims(
            r#"[{"fast":"incremental_1pct","slow":"full_pack","metric":"median_ns","ratio":4.71,"min_x":3},
                {"fast":"ring_64","slow":"ring_16","metric":"median_ns","ratio":0.33,"min_x":0.125}]"#,
        );
        assert!(r.ok(), "{:?}", r.failures);
        assert!(r.lines.iter().any(|l| l == "2 claims held"));
        let r = claims(r#"[{"fast":"a","slow":"b","metric":"median_ns","ratio":2.9,"min_x":3}]"#);
        assert!(
            r.failures[0].contains("below its bound"),
            "{:?}",
            r.failures
        );
        assert!(!claims(r#"[{"fast":"a","slow":"b","ratio":3,"min_x":3}]"#).ok());
        assert!(!claims(r#"[{"fast":"a","slow":"b","metric":"m","ratio":0,"min_x":1}]"#).ok());
        assert!(!claims(r#"[{"fast":"a","slow":"b","metric":"m","ratio":1}]"#).ok());
        assert!(!claims(r#"{"fast":"a"}"#).ok());
    }
}
