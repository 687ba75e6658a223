//! The parent side: start a workload's children one after another, parse
//! what they print, and aggregate it into the workload's metrics.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::child::{LINE_TAG, RAW_PASS_S, SLOWDOWN};
use crate::stats::{median, summarize, Summary};
use crate::workloads::Workload;

/// Timed passes of one untraced run, over all its children, at the least.
const MIN_PASSES: usize = 5;

/// Child `i` of `k`'s share of [`MIN_PASSES`], one at the least.
fn min_passes(i: usize, k: usize) -> usize {
    (MIN_PASSES / k + usize::from(i < MIN_PASSES % k)).max(1)
}

pub struct Suite {
    pub seed: u64,
    pub seconds: f64,
}

/// Everything one child printed.
#[derive(Default)]
struct ChildReport {
    samples: BTreeMap<String, Vec<f64>>,
    values: BTreeMap<String, f64>,
    layers: Vec<(String, f64)>,
    counts: BTreeMap<String, u64>,
    fingerprint: Option<String>,
    notes: Vec<String>,
    span_file: Option<String>,
    /// The process ended without printing its counts, or never started.
    died: Option<String>,
}

fn parse_child(stdout: &str) -> ChildReport {
    let mut r = ChildReport::default();
    for line in stdout.lines() {
        let mut parts = line.splitn(4, ' ');
        if parts.next() != Some(LINE_TAG) {
            continue;
        }
        let (Some(kind), Some(name), Some(value)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let number = value.parse::<f64>().ok().filter(|v| v.is_finite());
        match (kind, number) {
            ("sample", Some(v)) => r.samples.entry(name.to_owned()).or_default().push(v),
            ("value", Some(v)) => {
                r.values.insert(name.to_owned(), v);
            }
            ("layer", Some(v)) => r.layers.push((name.to_owned(), v)),
            ("count", Some(v)) => {
                r.counts.insert(name.to_owned(), v as u64);
            }
            ("fingerprint", _) => r.fingerprint = Some(value.to_owned()),
            ("note", _) => r.notes.push(value.to_owned()),
            ("info", _) if name == "span_file" => r.span_file = Some(value.to_owned()),
            ("info", _) => {}
            _ => r.notes.push(format!("unreadable line from child: {line}")),
        }
    }
    r
}

/// What one workload's children measured, aggregated.
pub struct WorkloadResult {
    pub workload: &'static Workload,
    /// Every end-to-end metric's samples, one list per child in the order
    /// the children ran (a traced run holds only what its single child can
    /// give).
    pub samples: BTreeMap<&'static str, Vec<Vec<f64>>>,
    /// Printed beside the metrics, in the same shape: each pass's raw
    /// seconds and its slow-down (raw seconds per reported second).
    pub beside: BTreeMap<&'static str, Vec<Vec<f64>>>,
    /// Per-layer metrics in `PER_LAYER` order (traced run only).
    pub layers: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub passes: u64,
    /// Each child's `virtual_fingerprint`, in the order the children ran.
    pub fingerprints: Vec<String>,
    pub notes: Vec<String>,
    pub span_file: Option<String>,
}

impl WorkloadResult {
    /// The run's value of one end-to-end metric: the mean over its
    /// scenarios (children) of each scenario's median. Where host cost
    /// depends on the scenario the values cluster at a few levels, and the
    /// median of such a sample jumps between levels from run to run.
    pub fn end_to_end(&self, name: &str) -> Option<f64> {
        let medians: Vec<f64> = self
            .samples
            .get(name)?
            .iter()
            .filter(|child| !child.is_empty())
            .map(|child| median(child))
            .collect();
        (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64)
    }

    /// Median and quartiles of one end-to-end metric over every sample of
    /// every child.
    pub fn pooled(&self, name: &str) -> Option<Summary> {
        let all: Vec<f64> = self.samples.get(name)?.concat();
        (!all.is_empty()).then(|| summarize(&all))
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty() && self.attempted > 0
    }
}

impl Suite {
    fn spawn(
        &self,
        w: &Workload,
        seed: u64,
        seconds: f64,
        min_passes: usize,
        trace: bool,
        reversed: bool,
    ) -> ChildReport {
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => {
                return ChildReport {
                    died: Some(format!("cannot find the benchmark executable: {e}")),
                    ..Default::default()
                }
            }
        };
        let mut cmd = Command::new(exe);
        cmd.args(["--child", "--workload", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--min-passes", &min_passes.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if reversed {
            cmd.arg("--reversed");
        }
        // `output` waits for the child, so no process outlives the run.
        match cmd.output() {
            Ok(out) => {
                let mut r = parse_child(&String::from_utf8_lossy(&out.stdout));
                if !r.counts.contains_key("attempted") {
                    r.died = Some(format!("child ended without a result ({})", out.status));
                }
                r
            }
            Err(e) => ChildReport {
                died: Some(format!("cannot start the child process: {e}")),
                ..Default::default()
            },
        }
    }

    fn aggregate(w: &'static Workload, children: Vec<ChildReport>) -> WorkloadResult {
        let mut out = WorkloadResult {
            workload: w,
            samples: BTreeMap::new(),
            beside: BTreeMap::new(),
            layers: Vec::new(),
            attempted: 0,
            failed: 0,
            passes: 0,
            fingerprints: Vec::new(),
            notes: Vec::new(),
            span_file: None,
        };
        for child in children {
            for metric in &crate::metrics::END_TO_END {
                let mut mine = child.samples.get(metric.name).cloned().unwrap_or_default();
                mine.extend(child.values.get(metric.name));
                out.samples.entry(metric.name).or_default().push(mine);
            }
            for name in [RAW_PASS_S, SLOWDOWN] {
                let mine = child.samples.get(name).cloned().unwrap_or_default();
                out.beside.entry(name).or_default().push(mine);
            }
            let count = |name: &str| child.counts.get(name).copied().unwrap_or(0);
            out.attempted += count("attempted");
            out.failed += count("failed");
            out.passes += count("passes");
            if let Some(why) = child.died {
                // A child that died counts as one failed attempt.
                out.attempted += 1;
                out.failed += 1;
                out.notes.push(format!("{}: {why}", w.name));
            }
            out.fingerprints
                .push(child.fingerprint.unwrap_or_else(|| "missing".to_owned()));
            out.notes.extend(child.notes);
            out.layers.extend(child.layers);
            out.span_file = out.span_file.or(child.span_file);
        }
        let ratio = if out.attempted == 0 {
            1.0
        } else {
            out.failed as f64 / out.attempted as f64
        };
        out.samples.insert("run_fail_ratio", vec![vec![ratio]]);
        out
    }

    /// The workload's untraced run, its end-to-end metrics: one child per
    /// scenario, so as many set-ups and peak-memory readings, sharing
    /// `--seconds` and the minimum number of passes evenly.
    pub fn untraced(&self, w: &'static Workload, reversed: bool) -> WorkloadResult {
        let k = w.scenarios;
        let children = (0..k)
            .map(|i| {
                let seed = w.scenario_seed(self.seed, i);
                let seconds = self.seconds / k as f64;
                self.spawn(w, seed, seconds, min_passes(i, k), false, reversed)
            })
            .collect();
        Self::aggregate(w, children)
    }

    /// The workload's traced run, on the first scenario: its per-layer
    /// metrics and span file. A per-layer metric the child did not print is
    /// a failed check.
    pub fn traced(&self, w: &'static Workload) -> WorkloadResult {
        let seed = w.scenario_seed(self.seed, 0);
        let child = self.spawn(w, seed, self.seconds, 1, true, false);
        let mut out = Self::aggregate(w, vec![child]);
        for m in &crate::metrics::PER_LAYER {
            if !out.layers.iter().any(|(n, _)| n == m.name) {
                out.notes.push(format!(
                    "{}: per-layer metric {} is missing",
                    w.name, m.name
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    const CHILD_A: &str = "\
noise from a library
@bench value setup_s 3.5
@bench value virtual_ckpt_overhead_s 0.25
@bench value virtual_failure_cost_s 0.01
@bench value virtual_wall_fail_s 2.5
@bench sample host_pass_s 3.0
@bench sample raw_pass_s 3.3
@bench sample slowdown 1.1
@bench sample host_fail_run_s 1.0
@bench sample host_resilience_ratio 2.0
@bench sample host_pass_s 3.2
@bench sample host_fail_run_s 1.2
@bench sample host_resilience_ratio 2.2
@bench count passes 2
@bench value peak_rss_mib 600.5
@bench fingerprint virtual_fingerprint 00ff
@bench count attempted 9
@bench count failed 0
";

    #[test]
    fn a_run_is_the_mean_over_scenarios_of_each_scenario_s_median() {
        let b = CHILD_A
            .replace("setup_s 3.5", "setup_s 4.5")
            .replace("virtual_wall_fail_s 2.5", "virtual_wall_fail_s 2.7")
            .replace("host_pass_s 3.0", "host_pass_s 5.0")
            .replace("00ff", "00fe");
        let r = Suite::aggregate(&WORKLOADS[0], vec![parse_child(CHILD_A), parse_child(&b)]);
        assert!(r.correct(), "{:?}", r.notes);
        assert_eq!((r.attempted, r.failed, r.passes), (18, 0, 4));
        // Scenario medians 3.1 and 4.1; all four passes pooled for quartiles.
        assert!((r.end_to_end("host_pass_s").unwrap() - 3.6).abs() < 1e-12);
        assert_eq!(r.pooled("host_pass_s").unwrap().n, 4);
        assert_eq!(r.end_to_end("setup_s"), Some(4.0));
        assert_eq!(r.end_to_end("virtual_wall_fail_s"), Some(2.6));
        assert_eq!(r.end_to_end("run_fail_ratio"), Some(0.0));
        assert_eq!(r.fingerprints, ["00ff", "00fe"]);
        assert_eq!(r.beside[RAW_PASS_S], [[3.3], [3.3]]);
        assert_eq!(r.beside[SLOWDOWN], [[1.1], [1.1]]);
        // Every end-to-end metric is there exactly once.
        let names: Vec<_> = r.samples.keys().copied().collect();
        let mut want: Vec<_> = crate::metrics::END_TO_END.iter().map(|m| m.name).collect();
        want.sort_unstable();
        assert_eq!(names, want);
    }

    #[test]
    fn failed_or_dead_children_make_the_result_incorrect() {
        let failed = CHILD_A.replace("count failed 0", "count failed 2");
        let r = Suite::aggregate(
            &WORKLOADS[0],
            vec![parse_child(CHILD_A), parse_child(&failed)],
        );
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (18, 2));

        let mut dead = parse_child("@bench value setup_s 1.0\n");
        dead.died = Some("child ended without a result (signal: 9)".into());
        let r = Suite::aggregate(&WORKLOADS[0], vec![parse_child(CHILD_A), dead]);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (10, 1));
        assert!(r.end_to_end("run_fail_ratio").unwrap() > 0.0);
        assert_eq!(r.fingerprints, ["00ff", "missing"]);
    }

    #[test]
    fn every_scenario_gets_a_child_and_the_run_its_minimum_of_passes() {
        for w in &WORKLOADS {
            let k = w.scenarios;
            let total: usize = (0..k).map(|i| min_passes(i, k)).sum();
            assert!(k >= 2 && total >= MIN_PASSES, "{}", w.name);
        }
    }
}
