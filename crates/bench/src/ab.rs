//! The A/B protocol behind `scripts/ab.sh`, unit tested here and reached
//! through `bench_compare ab`: alternating runs of the frozen `benchmark/`
//! package on a parent commit and on a change, read back from their logs
//! ([`Run::parse`]) and judged pair by pair ([`compare`]).
//!
//! Per metric it prints each side's median and quartiles and how many pairs
//! the change won; ties count for neither side. The claimed metric,
//! [`CLAIM`], and every host metric `BENCHMARK.json` bounds each get a
//! verdict line by the rule for a gain measured on a shared host: the
//! change wins at least nine pairs in ten, and its median beats the
//! parent's by more than the parent's interquartile range. Under ten pairs
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
//! the change: a layout shift can move the mix's own timings. Two more
//! information lines follow: each side's median calibration slow-down,
//! with a warning when the two differ by more than 10 %, and each side's
//! median resilience work E = Nf + Fail − 2·Ref in raw seconds, read from
//! every pass's raw seconds and `host_resilience_ratio`.
//!
//! When the two sides' median slow-downs differ by more than the parent's
//! interquartile range of them, the mix itself ran differently, and each
//! calibrated metric ([`CALIBRATED`]) with a verdict is cross-checked: it
//! is judged again, by the same rule, on its raw seconds, printed beside
//! it, and a gain stands only when both verdicts show it. Bounds stay on
//! the calibrated metric.

use telemetry::Json;

use crate::gate::GateReport;
use crate::pins;

/// The metric a verdict judges: the whole-run host time of one pass.
pub const CLAIM: &str = "host_pass_s";

/// The uncalibrated pass seconds a log prints beside its metrics, on its
/// `samples raw_pass_s:` line.
pub const RAW: &str = "raw_pass_s";

/// Each pass's calibration slow-down: raw seconds per reported second.
const SLOWDOWN: &str = "slowdown";

/// The host metrics made of raw seconds over the calibration slow-down.
/// Per pass, a sample times its pass's slow-down is its raw reading: the
/// pass's raw seconds exactly for `host_pass_s`, and for the fail run's
/// seconds the raw time at the pass's mean slow-down. `setup_s` is
/// calibrated by the warm-up pass's slow-down, which no log prints, so it
/// has no raw reading, and a cross-check of it never shows a gain.
pub const CALIBRATED: [&str; 3] = ["host_pass_s", "host_fail_run_s", "setup_s"];

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
    /// Every pass's calibration slow-down.
    slowdowns: Vec<f64>,
    /// The raw reading of each [`CALIBRATED`] metric that has one.
    raw_calibrated: Vec<(&'static str, f64)>,
    /// Every pass's resilience work E, in raw seconds.
    resilience_e: Vec<f64>,
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
        // A pass's ratio r is (Nf + Fail) / (2·Ref) and its raw seconds
        // are Ref + Nf + Fail, so Ref = raw / (1 + 2r) and E = 2·Ref·(r − 1).
        let resilience_e = samples(log, RAW)
            .iter()
            .zip(samples(log, "host_resilience_ratio"))
            .map(|(raw, r)| 2.0 * raw / (1.0 + 2.0 * r) * (r - 1.0))
            .collect();
        let slowdowns = groups(log, SLOWDOWN);
        let raw_calibrated = CALIBRATED
            .into_iter()
            .filter_map(|name| {
                let (calibrated, slowdowns) = (groups(log, name)?, slowdowns.as_ref()?);
                let shaped = calibrated.len() == slowdowns.len()
                    && calibrated
                        .iter()
                        .zip(slowdowns)
                        .all(|(c, s)| c.len() == s.len());
                let raw = calibrated
                    .iter()
                    .zip(slowdowns)
                    .map(|(c, s)| c.iter().zip(s).map(|(c, s)| c * s).collect::<Vec<_>>());
                shaped.then(|| (name, run_value(&raw.collect::<Vec<_>>())))
            })
            .collect();
        Ok(Run {
            metrics,
            fingerprint: fingerprint.to_owned(),
            raw_pass_s: groups(log, RAW).map(|g| run_value(&g)),
            slowdowns: samples(log, SLOWDOWN),
            raw_calibrated,
            resilience_e,
        })
    }

    fn metric(&self, name: &str) -> Option<f64> {
        let found = self.metrics.iter().find(|(n, ..)| n == name);
        found.map(|&(_, v, _)| v)
    }

    fn raw(&self, name: &str) -> Option<f64> {
        let found = self.raw_calibrated.iter().find(|(n, _)| *n == name);
        found.map(|&(_, v)| v)
    }
}

/// The groups of a log's `samples NAME: a b | c d` line, one per
/// scenario; `None` without the line, or when a value does not parse or a
/// group is empty.
fn groups(log: &str, name: &str) -> Option<Vec<Vec<f64>>> {
    let line = log.lines().find_map(|l| {
        let rest = l.trim_start().strip_prefix("samples ")?;
        rest.strip_prefix(name)?.strip_prefix(':')
    })?;
    line.split('|')
        .map(|group| {
            let v: Vec<f64> = group
                .split_whitespace()
                .map(|x| x.parse().ok())
                .collect::<Option<_>>()?;
            (!v.is_empty()).then_some(v)
        })
        .collect()
}

/// A run's value from its samples' groups, by the benchmark's rule: the
/// mean over scenarios of each scenario's median.
fn run_value(groups: &[Vec<f64>]) -> f64 {
    let medians = groups.iter().map(|g| quartiles(g)[1]);
    medians.sum::<f64>() / groups.len() as f64
}

/// Every value of a log's `samples NAME: a b | c d` line, in order.
fn samples(log: &str, name: &str) -> Vec<f64> {
    log.lines()
        .find_map(|l| {
            let rest = l.trim_start().strip_prefix("samples ")?;
            rest.strip_prefix(name)?.strip_prefix(':')
        })
        .map_or_else(Vec::new, |line| {
            line.split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect()
        })
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

    /// The gain rule's verdict, the median gain and the parent's
    /// interquartile range it is held against.
    fn verdict(&self, higher: bool) -> (&'static str, f64, f64) {
        let ([pq1, pm, pq3], cm) = (self.parent, self.change[1]);
        let gap = if higher { cm - pm } else { pm - cm };
        let iqr = pq3 - pq1;
        let won = 10 * self.wins >= 9 * self.n;
        let verdict = match (won && gap > iqr, self.n >= 10) {
            (true, true) => "improved",
            (true, false) => "consistent with a gain (a claim needs 10 pairs)",
            (false, _) => NOT_SHOWN,
        };
        (verdict, gap, iqr)
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

/// The verdict of a metric whose pairs do not show a gain.
const NOT_SHOWN: &str = "not shown";

/// Judge `pairs` of `(parent, change)` runs, made alternately, on the
/// `claim`ed metric and on each host metric in `bounds`, and hold each
/// metric in `bounds` to its bound. A
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
    let pooled = |side: &dyn Fn(&(Run, Run)) -> &Vec<f64>| {
        let all: Vec<f64> = pairs.iter().flat_map(|p| side(p).iter().copied()).collect();
        (!all.is_empty()).then(|| quartiles(&all))
    };
    let slowdown = (pooled(&|p| &p.0.slowdowns), pooled(&|p| &p.1.slowdowns));
    // The mix ran differently on the two sides: calibrated gains need
    // their raw seconds' consent.
    let cross_check = match slowdown {
        (Some([pq1, p, pq3]), Some([_, c, _])) => (c - p).abs() > pq3 - pq1,
        _ => false,
    };
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
        if name == claim || bound.is_some() {
            let (mut verdict, gap, iqr) = s.verdict(higher);
            if cross_check && CALIBRATED.contains(&name.as_str()) && verdict != NOT_SHOWN {
                let raw: Option<Vec<(f64, f64)>> = pairs
                    .iter()
                    .map(|(p, c)| Some((p.raw(name)?, c.raw(name)?)))
                    .collect();
                let raw_verdict = match raw {
                    Some(raw) => {
                        let r = Sides::of(&raw, higher);
                        let (raw_verdict, gap, iqr) = r.verdict(higher);
                        report.lines.push(format!(
                            "{name} raw [{unit}, cross-check]: {}; {raw_verdict}: median gain \
                             {gap:.4} {unit} against the parent's IQR {iqr:.4} {unit}",
                            r.summary()
                        ));
                        raw_verdict
                    }
                    None => {
                        report
                            .lines
                            .push(format!("{name} raw: no raw reading in the logs"));
                        NOT_SHOWN
                    }
                };
                if raw_verdict == NOT_SHOWN {
                    verdict = "not shown (the calibration mix ran differently on the two \
                               sides, and the raw seconds do not show the gain)";
                }
            }
            let (pm, cm) = (s.parent[1], s.change[1]);
            report.lines.push(format!(
                "verdict: {name} {verdict}: change better in {}/{n} pairs (needs 9/10), \
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
    report.lines.push(match slowdown {
        (Some([pq1, p, pq3]), Some([_, c, _])) => {
            let differ = (c - p) / p * 100.0;
            let mut line = format!(
                "slowdown [calibration mix, information only]: parent median {p:.4}, change median {c:.4}"
            );
            if differ.abs() > 10.0 {
                line.push_str(&format!(
                    "; warning: the medians differ by {differ:+.1} %, so calibrated host metrics \
                     move with the mix as well as with the change (compare {RAW})"
                ));
            }
            if cross_check {
                line.push_str(&format!(
                    "; the medians differ by more than the parent's IQR {:.4}: calibrated \
                     gains were cross-checked on raw seconds",
                    pq3 - pq1
                ));
            }
            line
        }
        _ => "slowdown: missing from a log (information only)".to_owned(),
    });
    report.lines.push(
        match (
            pooled(&|p| &p.0.resilience_e).map(|q| q[1]),
            pooled(&|p| &p.1.resilience_e).map(|q| q[1]),
        ) {
            (Some(p), Some(c)) => format!(
                "resilience work E = Nf + Fail - 2 Ref [s, raw, information only]: \
                 parent median {p:.4}, change median {c:.4}"
            ),
            _ => "resilience work E: missing from a log (information only)".to_owned(),
        },
    );
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
    fn every_bounded_host_metric_gets_a_verdict() {
        let doc = r#"{"end_to_end": [
            {"name": "host_pass_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "virtual_wall_fail_s", "unit": "s", "better": "lower", "bound": 0.02},
            {"name": "veloc.crc_host_mib_s", "unit": "MiB/s", "better": "higher", "bound": 0.5}
        ]}"#;
        let parent = [2.0, 2.1, 2.0, 2.2, 2.1, 2.0, 2.1, 2.05, 2.15, 2.0];
        let mut change = parent.map(|p| p - 0.2);
        change[3] = 2.3; // one pair lost
        let verdicts = |bounds: &[Bound]| {
            let r = compare(&pairs(&parent, &change), CLAIM, bounds);
            assert!(r.ok(), "{:?}", r.failures);
            let found = r.lines.into_iter().filter(|l| l.starts_with("verdict: "));
            found.collect::<Vec<_>>()
        };
        // The claim and the bounded rate, by the same rule; a modelled
        // metric never gets one, bounded or not.
        let all = verdicts(&bounds(doc).unwrap());
        assert_eq!(all.len(), 2, "{all:?}");
        assert!(all[0].starts_with("verdict: host_pass_s improved: change better in 9/10"));
        assert!(
            all[1].starts_with("verdict: veloc.crc_host_mib_s improved: change better in 9/10"),
            "{}",
            all[1]
        );
        // Without bounds, the claim alone.
        assert_eq!(verdicts(&[]).len(), 1);
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
    fn slowdown_and_resilience_work_are_information_per_side() {
        // One pass each: raw 3.0 s at ratio 2.0 is Ref 0.6 s and E 1.2 s.
        let at = |slowdown: &str| {
            let log = log(1.0, 7.0, "f", "3.0").replace(
                "samples slowdown: 1.5 | 1.5",
                &format!("samples slowdown: {slowdown}\n    samples host_resilience_ratio: 2.0"),
            );
            Run::parse(&log).unwrap()
        };
        let lines = |p: &str, c: &str| compare(&[(at(p), at(c))], CLAIM, &[]).lines;
        let same = lines("1.5", "1.6");
        let slow = same.iter().find(|l| l.starts_with("slowdown")).unwrap();
        assert!(
            slow.contains("parent median 1.5000, change median 1.6000"),
            "{slow}"
        );
        assert!(!slow.contains("warning"), "{slow}");
        let e = same
            .iter()
            .find(|l| l.starts_with("resilience work"))
            .unwrap();
        assert!(
            e.contains("parent median 1.2000, change median 1.2000"),
            "{e}"
        );
        let apart = lines("1.5", "1.2");
        let slow = apart.iter().find(|l| l.starts_with("slowdown")).unwrap();
        assert!(
            slow.contains("warning: the medians differ by -20.0 %"),
            "{slow}"
        );
    }

    /// A one-pass run with the samples lines the cross-check reads: its
    /// calibrated pass seconds, the slow-down around them, and a setup.
    fn calibrated(pass_s: f64, slowdown: f64, setup_s: f64) -> Run {
        Run::parse(&format!(
            "    samples host_pass_s: {pass_s}\n    samples slowdown: {slowdown}\n\
             \x20   samples raw_pass_s: {}\n    virtual_fingerprint 00ff\n\
             {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {{\
             \"host_pass_s\": {{\"value\": {pass_s}, \"unit\": \"s\"}}, \
             \"setup_s\": {{\"value\": {setup_s}, \"unit\": \"s\"}}}}}}\n",
            pass_s * slowdown
        ))
        .unwrap()
    }

    /// Ten pairs: the parent's pass seconds spread a little, the change's
    /// `gain` lower; each side's slow-down from its function of the pair.
    fn shifted(
        gain: f64,
        parent_slowdown: impl Fn(f64) -> f64,
        change_slowdown: f64,
        setups: (f64, f64),
    ) -> Vec<(Run, Run)> {
        (0..10)
            .map(|i| {
                let (i, p) = (f64::from(i), 2.0 + f64::from(i) * 0.01);
                (
                    calibrated(p, parent_slowdown(i), setups.0),
                    calibrated(p - gain, change_slowdown, setups.1),
                )
            })
            .collect()
    }

    fn line<'a>(r: &'a GateReport, prefix: &str) -> Option<&'a str> {
        r.lines
            .iter()
            .find(|l| l.starts_with(prefix))
            .map(String::as_str)
    }

    #[test]
    fn a_slowdown_shift_inside_the_parents_spread_is_not_cross_checked() {
        // Parent slow-downs 1.40 .. 1.58 (IQR ~0.1); the change's 1.5 sits
        // inside them, and its raw seconds would read no gain at all.
        let p = shifted(0.3, |i| 1.4 + 0.02 * i, 1.5, (1.0, 1.0));
        let r = compare(&p, CLAIM, &[]);
        assert!(r.ok(), "{:?}", r.failures);
        assert!(verdict(&r).starts_with("verdict: host_pass_s improved"));
        assert!(line(&r, "host_pass_s raw").is_none());
        assert!(!line(&r, "slowdown").unwrap().contains("cross-checked"));
    }

    #[test]
    fn past_the_parents_spread_a_gain_the_raw_seconds_share_stands() {
        // The change's mix ran faster (1.3 against 1.5), and its raw
        // seconds are lower still: 2.1 × 1.3 against 2.4 × 1.5.
        let r = compare(&shifted(0.3, |_| 1.5, 1.3, (1.0, 1.0)), CLAIM, &[]);
        assert!(r.ok(), "{:?}", r.failures);
        assert!(verdict(&r).starts_with("verdict: host_pass_s improved: change better in 10/10"));
        assert_eq!(
            line(&r, "host_pass_s raw"),
            Some(
                "host_pass_s raw [s, cross-check]: parent 3.0675 (q1 3.0263, q3 3.1087), \
                 change 2.2685 (q1 2.2328, q3 2.3042), -26.05 %, change better in 10/10 pairs, \
                 worse in 0; improved: median gain 0.7990 s against the parent's IQR 0.0825 s"
            )
        );
        assert!(line(&r, "slowdown")
            .unwrap()
            .contains("cross-checked on raw seconds"));
    }

    #[test]
    fn past_the_parents_spread_a_gain_the_raw_seconds_lack_is_not_shown() {
        // Calibrated 0.2 s faster, but the mix ran slower (1.8 against
        // 1.5): raw, the change is 8 % slower in every pair.
        let b = [Bound {
            name: CLAIM.into(),
            bound: 0.05,
            higher: false,
        }];
        let r = compare(&shifted(0.2, |_| 1.5, 1.8, (1.0, 1.0)), CLAIM, &b);
        assert!(
            verdict(&r).starts_with(
                "verdict: host_pass_s not shown (the calibration mix ran differently on the \
                 two sides, and the raw seconds do not show the gain): change better in 10/10"
            ),
            "{}",
            verdict(&r)
        );
        assert!(line(&r, "host_pass_s raw")
            .unwrap()
            .contains("worse in 10; not shown"));
        // The bound stays on the calibrated metric, which got better.
        assert!(r.ok(), "{:?}", r.failures);
    }

    #[test]
    fn past_the_parents_spread_a_gain_without_a_raw_reading_is_not_shown() {
        let b = bounds(
            r#"{"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#,
        )
        .unwrap();
        // Setup halved, and the pass seconds level.
        let r = compare(&shifted(0.0, |_| 1.5, 1.3, (1.0, 0.5)), CLAIM, &b);
        assert!(r.ok(), "{:?}", r.failures);
        assert_eq!(
            line(&r, "setup_s raw"),
            Some("setup_s raw: no raw reading in the logs")
        );
        let setup = line(&r, "verdict: setup_s").unwrap();
        assert!(
            setup.starts_with("verdict: setup_s not shown (the calibration mix"),
            "{setup}"
        );
        // The same halving with the mix level on both sides stands.
        let r = compare(&shifted(0.0, |_| 1.5, 1.5, (1.0, 0.5)), CLAIM, &b);
        assert!(line(&r, "verdict: setup_s improved").is_some());
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
