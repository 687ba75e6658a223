//! The A/B protocol behind `scripts/ab.sh`, unit tested here and reached
//! through `bench_compare ab`: alternating runs of the frozen `benchmark/`
//! package on a parent commit and on a change, read back from their logs
//! ([`Run::parse`]) and judged pair by pair ([`compare`]).
//!
//! Per metric it prints each side's median and quartiles and how many pairs
//! the change won; ties count for neither side. It ends with one verdict on
//! the claimed metric, [`CLAIM`], by the rule for a gain measured on a
//! shared host: the change wins at least nine pairs in ten, and its median
//! beats the parent's by more than the parent's interquartile range. Under ten pairs
//! a result that meets the rule is only consistent with a gain (a held-out
//! seed's check), never a claim. Every modelled
//! number — a metric named `virtual_*` and the `virtual_fingerprint` line
//! — is a function of the seed, so any difference between the two sides
//! of a pair is a failure, as is a run that failed its own checks. A
//! verdict that does not show a gain is not a failure: the same commit on
//! both sides is a valid comparison, and prints no difference.
//!
//! Each end-to-end metric `BENCHMARK.json` bounds ([`bounds`]) is also held
//! to its bound: a change whose median is worse than the parent's by more
//! than that fraction of it fails, whatever the verdict.
//!
//! Beside the verdict, as information only, it prints the same summary of
//! each side's raw, uncalibrated pass seconds ([`RAW`]). A calibrated gain
//! that the raw seconds do not share points at the calibration mix, not at
//! the change: a layout shift can move the mix's own timings.

use telemetry::Json;

use crate::gate::GateReport;
use crate::pins;

/// The metric a verdict judges: the whole-run host time of one pass.
pub const CLAIM: &str = "host_pass_s";

/// The uncalibrated pass seconds a log prints beside its metrics, on its
/// `samples raw_pass_s:` line.
pub const RAW: &str = "raw_pass_s";

/// How far one end-to-end metric may get worse: its `bound`, a fraction
/// of the parent's median, and which way is better.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub bound: f64,
    pub higher: bool,
}

/// The `end_to_end` metrics of a `BENCHMARK.json` document, each with its
/// bound; one without a numeric `bound` is an error.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    let metrics = doc.get("end_to_end").and_then(Json::as_array);
    let metrics = metrics.ok_or("no end_to_end metrics")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("a metric has no name")?;
            let bound = m.get("bound").and_then(Json::as_f64);
            Ok(Bound {
                name: name.to_owned(),
                bound: bound.ok_or_else(|| format!("{name} has no bound"))?,
                higher: m.get("better").and_then(Json::as_str) == Some("higher"),
            })
        })
        .collect()
}

/// One `benchmark --workload` run, as its log reads.
#[derive(Debug)]
pub struct Run {
    /// `(name, value, unit)` of every metric on the result line, in order.
    metrics: Vec<(String, f64, String)>,
    /// The table's `virtual_fingerprint` line.
    fingerprint: String,
    /// [`RAW`], where the log holds it.
    raw_pass_s: Option<f64>,
}

impl Run {
    /// Read a run from its log through [`pins::benchmark_result`]: a run
    /// that failed its own checks or printed no fingerprint is an error.
    pub fn parse(log: &str) -> Result<Run, String> {
        let (result, fingerprint) = pins::benchmark_result(log)?;
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("the result line has no metrics")?;
        let metrics = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let value = value.ok_or_else(|| format!("{name} has no value"))?;
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                Ok((name.clone(), value, unit.to_owned()))
            })
            .collect::<Result<_, String>>()?;
        Ok(Run {
            metrics,
            fingerprint: fingerprint.to_owned(),
            raw_pass_s: raw_pass_s(log),
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        let found = self.metrics.iter().find(|(n, ..)| n == name);
        found.map(|&(_, v, _)| v)
    }
}

/// A run's [`RAW`] seconds from its `samples raw_pass_s: a b | c d` line,
/// one group per scenario, by the benchmark's rule for a run's value: the
/// mean over scenarios of each scenario's median.
fn raw_pass_s(log: &str) -> Option<f64> {
    let line = log.lines().find_map(|l| {
        let rest = l.trim_start().strip_prefix("samples ")?;
        rest.strip_prefix(RAW)?.strip_prefix(':')
    })?;
    let medians = line
        .split('|')
        .map(|group| {
            let v: Vec<f64> = group
                .split_whitespace()
                .map(|x| x.parse().ok())
                .collect::<Option<_>>()?;
            (!v.is_empty()).then(|| quartiles(&v)[1])
        })
        .collect::<Option<Vec<f64>>>()?;
    Some(medians.iter().sum::<f64>() / medians.len() as f64)
}

/// Quartile cut points `[q1, median, q3]` by the rule of Python's
/// `statistics.quantiles(v, n=4)` (exclusive method), which the benchmark's
/// own summaries use. A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        if v[j - 1] == v[j] {
            return v[j];
        }
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// Whether a modelled number: held to equality between the two sides.
fn is_virtual(name: &str) -> bool {
    name.rsplit('.')
        .next()
        .unwrap_or(name)
        .starts_with("virtual_")
}

/// One metric over the pairs: each side's quartiles, and the pairs the
/// change won and lost (a tie counts for neither).
struct Sides {
    n: usize,
    parent: [f64; 3],
    change: [f64; 3],
    wins: usize,
    losses: usize,
}

impl Sides {
    fn of(values: &[(f64, f64)], higher: bool) -> Sides {
        let better = |c: f64, p: f64| if higher { c > p } else { c < p };
        let side =
            |pick: fn(&(f64, f64)) -> f64| quartiles(&values.iter().map(pick).collect::<Vec<_>>());
        Sides {
            n: values.len(),
            parent: side(|v| v.0),
            change: side(|v| v.1),
            wins: values.iter().filter(|&&(p, c)| better(c, p)).count(),
            losses: values.iter().filter(|&&(p, c)| better(p, c)).count(),
        }
    }

    /// The change's median against the parent's, in percent.
    fn change_pct(&self) -> f64 {
        let (pm, cm) = (self.parent[1], self.change[1]);
        if pm == 0.0 {
            0.0
        } else {
            (cm - pm) / pm.abs() * 100.0
        }
    }

    fn summary(&self) -> String {
        let ([pq1, pm, pq3], [cq1, cm, cq3]) = (self.parent, self.change);
        format!(
            "parent {pm:.4} (q1 {pq1:.4}, q3 {pq3:.4}), change {cm:.4} (q1 {cq1:.4}, q3 {cq3:.4}), \
             {:+.2} %, change better in {}/{} pairs, worse in {}",
            self.change_pct(),
            self.wins,
            self.n,
            self.losses
        )
    }
}

/// Judge `pairs` of `(parent, change)` runs, made alternately, on the
/// `claim`ed metric, and hold each metric in `bounds` to its bound. A
/// metric with a bound is better the way its bound says; otherwise a unit
/// that is a rate (`…/s`) is better higher, every other metric lower.
pub fn compare(pairs: &[(Run, Run)], claim: &str, bounds: &[Bound]) -> GateReport {
    let mut report = GateReport::default();
    let n = pairs.len();
    let Some((first, _)) = pairs.first() else {
        report.failures.push("no pairs to compare".into());
        return report;
    };
    report
        .lines
        .push(format!("{n} pairs, parent and change alternating"));
    let mut mismatches = 0;
    for (name, _, unit) in &first.metrics {
        let values: Option<Vec<(f64, f64)>> = pairs
            .iter()
            .map(|(p, c)| Some((p.metric(name)?, c.metric(name)?)))
            .collect();
        let Some(values) = values else {
            report
                .failures
                .push(format!("{name} is missing from a run"));
            continue;
        };
        if is_virtual(name) {
            let differ: Vec<usize> = (0..n).filter(|&i| values[i].0 != values[i].1).collect();
            mismatches += differ.len();
            for &i in &differ {
                let (p, c) = values[i];
                report.failures.push(format!(
                    "{name} differs in pair {i}: parent {p}, change {c}"
                ));
            }
            report.lines.push(format!(
                "{name}: identical in {}/{n} pairs",
                n - differ.len()
            ));
            continue;
        }
        let bound = bounds.iter().find(|b| b.name == *name);
        let higher = bound.map_or(unit.ends_with("/s"), |b| b.higher);
        let direction = if higher {
            "higher is better"
        } else {
            "lower is better"
        };
        let s = Sides::of(&values, higher);
        report
            .lines
            .push(format!("{name} [{unit}, {direction}]: {}", s.summary()));
        if let Some(b) = bound {
            let worse = if higher {
                -s.change_pct()
            } else {
                s.change_pct()
            };
            if worse > b.bound * 100.0 {
                report.failures.push(format!(
                    "{name}: the change's median is {worse:.2} % worse than the parent's, \
                     past its bound of {:.2} %",
                    b.bound * 100.0
                ));
            }
        }
        if name == claim {
            let ([pq1, pm, pq3], cm) = (s.parent, s.change[1]);
            let gap = if higher { cm - pm } else { pm - cm };
            let iqr = pq3 - pq1;
            let won = 10 * s.wins >= 9 * n;
            let verdict = match (won && gap > iqr, n >= 10) {
                (true, true) => "improved",
                (true, false) => "consistent with a gain (a claim needs 10 pairs)",
                (false, _) => "not shown",
            };
            report.lines.push(format!(
                "verdict: {claim} {verdict}: change better in {}/{n} pairs (needs 9/10), \
                 median gain {gap:.4} {unit} against the parent's IQR {iqr:.4} {unit} \
                 ({pm:.4} -> {cm:.4}, {:+.2} %)",
                s.wins,
                s.change_pct()
            ));
        }
    }
    let raw: Option<Vec<(f64, f64)>> = pairs
        .iter()
        .map(|(p, c)| Some((p.raw_pass_s?, c.raw_pass_s?)))
        .collect();
    report.lines.push(match raw {
        Some(raw) => format!(
            "{RAW} [s, uncalibrated, information only]: {}",
            Sides::of(&raw, false).summary()
        ),
        None => format!("{RAW}: missing from a log (information only)"),
    });
    let fingerprints = pairs.iter().map(|(p, c)| (&p.fingerprint, &c.fingerprint));
    for (i, (p, c)) in fingerprints.enumerate().filter(|(_, (p, c))| p != c) {
        mismatches += 1;
        report.failures.push(format!(
            "virtual_fingerprint differs in pair {i}: parent {p}, change {c}"
        ));
    }
    if first.metric(claim).is_none() {
        report
            .failures
            .push(format!("no run has the claimed metric {claim}"));
    }
    report
        .lines
        .push(format!("virtual mismatches: {mismatches}"));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A log as the benchmark prints it: two scenarios' raw pass seconds
    /// (`raw`), the fingerprint, and the result line.
    fn log(pass_s: f64, virtual_s: f64, fingerprint: &str, raw: &str) -> String {
        format!(
            "benchmark heatdis_inmem: nproc=2 seed=7\n    samples raw_pass_s: {raw}\n\
             \x20   samples slowdown: 1.5 | 1.5\n    virtual_fingerprint        {fingerprint}\n\
             {{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {{\
             \"host_pass_s\": {{\"value\": {pass_s}, \"unit\": \"s\"}}, \
             \"virtual_wall_fail_s\": {{\"value\": {virtual_s}, \"unit\": \"s\"}}, \
             \"veloc.crc_host_mib_s\": {{\"value\": {}, \"unit\": \"MiB/s\"}}}}}}\n",
            1.0 / pass_s
        )
    }

    fn run(pass_s: f64, virtual_s: f64, fingerprint: &str) -> Run {
        let raw = 1.5 * pass_s;
        Run::parse(&log(
            pass_s,
            virtual_s,
            fingerprint,
            &format!("{raw} | {raw}"),
        ))
        .unwrap()
    }

    /// Ten pairs: the parent reads `parent`, the change `change`, each at
    /// the same modelled numbers.
    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(Run, Run)> {
        let at = |s| run(s, 2.5, "00ff+00fe");
        parent
            .iter()
            .zip(change)
            .map(|(&p, &c)| (at(p), at(c)))
            .collect()
    }

    fn verdict(r: &GateReport) -> &str {
        r.lines.iter().find(|l| l.starts_with("verdict: ")).unwrap()
    }

    #[test]
    fn quartiles_follow_pythons_exclusive_rule() {
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
        assert_eq!(quartiles(&[0.1; 4]), [0.1; 3]);
    }

    #[test]
    fn nine_wins_in_ten_and_a_gap_past_the_iqr_is_a_gain() {
        let parent = [2.0, 2.1, 2.0, 2.2, 2.1, 2.0, 2.1, 2.05, 2.15, 2.0];
        let mut change = parent.map(|p| p - 0.2);
        change[3] = 2.3; // one pair lost
        let r = compare(&pairs(&parent, &change), CLAIM, &[]);
        assert!(r.ok(), "{:?}", r.failures);
        assert!(verdict(&r).starts_with("verdict: host_pass_s improved: change better in 9/10"));
        assert!(r.lines.contains(&"virtual mismatches: 0".to_owned()));
        // A rate is better higher: the change's CRC rate won the same pairs.
        let crc = r
            .lines
            .iter()
            .find(|l| l.starts_with("veloc.crc_host_mib_s"))
            .unwrap();
        assert!(
            crc.contains("higher is better") && crc.contains("better in 9/10"),
            "{crc}"
        );
    }

    #[test]
    fn eight_wins_or_a_gap_inside_the_iqr_shows_no_gain() {
        let parent = [2.0, 2.4, 2.0, 2.4, 2.0, 2.4, 2.0, 2.4, 2.0, 2.4];
        // Every pair won, by less than the parent's spread.
        let change = parent.map(|p| p - 0.1);
        let r = compare(&pairs(&parent, &change), CLAIM, &[]);
        assert!(verdict(&r).contains("not shown: change better in 10/10"));
        // A gap past the spread, but two pairs lost.
        let parent = [2.0; 10];
        let mut change = [1.5; 10];
        change[0] = 2.5;
        change[1] = 2.5;
        let r = compare(&pairs(&parent, &change), CLAIM, &[]);
        assert!(verdict(&r).contains("not shown: change better in 8/10"));
        assert!(r.ok(), "no gain is not a failure: {:?}", r.failures);
    }

    #[test]
    fn ties_count_for_neither_side() {
        // The parent against itself: no pair won, no difference.
        let same = [1.7, 1.8, 1.75];
        let r = compare(&pairs(&same, &same), CLAIM, &[]);
        let faster = compare(&pairs(&same, &same.map(|s| s - 0.2)), CLAIM, &[]);
        assert!(verdict(&faster)
            .contains("consistent with a gain (a claim needs 10 pairs): change better in 3/3"));
        assert!(r.ok(), "{:?}", r.failures);
        assert!(verdict(&r).contains("not shown: change better in 0/3"));
        assert!(r
            .lines
            .iter()
            .any(|l| l.ends_with("+0.00 %, change better in 0/3 pairs, worse in 0")));
    }

    #[test]
    fn raw_pass_seconds_are_information_beside_the_verdict() {
        // Each scenario's median, then their mean: (1.5 + 2.5) / 2.
        let at = |pass_s, raw: &str| Run::parse(&log(pass_s, 2.5, "00ff", raw)).unwrap();
        assert_eq!(at(1.0, "1.0 1.5 9.0 | 2.5").raw_pass_s, Some(2.0));
        // Calibrated faster in every pair while the raw seconds are slower
        // in every pair: shown, and not a failure.
        let p: Vec<(Run, Run)> = (0..10)
            .map(|i| {
                let p = 2.0 + f64::from(i) * 0.01;
                (at(p, "3.0 | 3.0"), at(p - 0.3, "3.2 | 3.4"))
            })
            .collect();
        let r = compare(&p, CLAIM, &[]);
        assert!(r.ok(), "{:?}", r.failures);
        assert!(verdict(&r).starts_with("verdict: host_pass_s improved"));
        let raw = r
            .lines
            .iter()
            .find(|l| l.starts_with("raw_pass_s"))
            .unwrap();
        assert_eq!(
            raw,
            "raw_pass_s [s, uncalibrated, information only]: parent 3.0000 (q1 3.0000, \
             q3 3.0000), change 3.3000 (q1 3.3000, q3 3.3000), +10.00 %, change better in \
             0/10 pairs, worse in 10"
        );
        // A log without the line: said so, and still not a failure.
        let r = compare(&[(run(2.0, 2.5, "00ff"), at(1.0, "3.0 | x"))], CLAIM, &[]);
        assert!(r.ok(), "{:?}", r.failures);
        assert!(r
            .lines
            .contains(&"raw_pass_s: missing from a log (information only)".to_owned()));
    }

    #[test]
    fn a_median_worse_past_its_bound_fails() {
        let doc = r#"{"end_to_end": [
            {"name": "host_pass_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "veloc.crc_host_mib_s", "unit": "MiB/s", "better": "higher", "bound": 0.1}
        ]}"#;
        let b = bounds(doc).unwrap();
        assert_eq!(b[0].name, "host_pass_s");
        assert_eq!((b[0].bound, b[0].higher, b[1].higher), (0.25, false, true));
        // 20 % slower is inside the bound; the rate (1 / pass) falls 16.7 %,
        // past its 10 %.
        let r = compare(&pairs(&[2.0; 4], &[2.4; 4]), CLAIM, &b);
        assert_eq!(
            r.failures,
            [
                "veloc.crc_host_mib_s: the change's median is 16.67 % worse than the \
              parent's, past its bound of 10.00 %"
            ]
        );
        // 30 % slower is past it. Faster, however much, is never a failure.
        let r = compare(&pairs(&[2.0; 4], &[2.6; 4]), CLAIM, &b[..1]);
        assert_eq!(
            r.failures,
            [
                "host_pass_s: the change's median is 30.00 % worse than the parent's, \
              past its bound of 25.00 %"
            ]
        );
        assert!(compare(&pairs(&[2.0; 4], &[0.5; 4]), CLAIM, &b).ok());
        // Every end-to-end metric of the repository's own file has one.
        let ours = bounds(include_str!("../../../BENCHMARK.json")).unwrap();
        assert!(ours.iter().any(|b| b.name == CLAIM && b.bound > 0.0));
        assert!(bounds(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
    }

    #[test]
    fn any_modelled_difference_fails() {
        let mut p = pairs(&[2.0; 3], &[1.0; 3]);
        p[1].1 = run(1.0, 2.5000001, "00ff+00fe");
        p[2].1 = run(1.0, 2.5, "00ff+00fd");
        let r = compare(&p, CLAIM, &[]);
        assert_eq!(
            r.failures,
            [
                "virtual_wall_fail_s differs in pair 1: parent 2.5, change 2.5000001",
                "virtual_fingerprint differs in pair 2: parent 00ff+00fe, change 00ff+00fd",
            ]
        );
        assert!(r.lines.contains(&"virtual mismatches: 2".to_owned()));
    }

    #[test]
    fn a_failed_run_or_a_missing_claim_fails() {
        let r = compare(&pairs(&[2.0], &[1.0]), "no_such_metric", &[]);
        assert_eq!(r.failures, ["no run has the claimed metric no_such_metric"]);
        assert!(!compare(&[], CLAIM, &[]).ok());
        let log = "    virtual_fingerprint 00ff\n\
                   {\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {}}";
        assert!(Run::parse(log).is_ok());
        for (log, why) in [
            (
                log.replace("\"failed\": 0", "\"failed\": 1"),
                "the run failed its own checks",
            ),
            (log.replace("virtual_", ""), "no virtual_fingerprint line"),
            ("no result".into(), "no result line"),
        ] {
            assert_eq!(Run::parse(&log).unwrap_err(), why);
        }
    }
}
