//! The benchmark-gate decision behind `scripts/bench_gate.sh`, unit tested
//! here and reached through the thin `bench_compare` binary:
//! [`assert_faster`], a claim of the form "config A is at least N× faster
//! than config B" within one fresh results file. Every claim the gate makes
//! has this shape, each against an oracle measured in the same process (the
//! incremental pipeline against the full pack, the full pack against its
//! kernels, the baton against a bare condvar ping-pong, …), so no bound
//! depends on the host's absolute speed.
//!
//! A check returns a [`GateReport`]; the binary prints `lines` to stdout,
//! `failures` to stderr, and exits nonzero when failures exist.

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
/// beside the bound; `scripts/ci.sh` keeps it in `target/bench-gate.log`.
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
}
