//! What the benchmark prints: the human ledger (`--all`), the agreement
//! table (`--agree`) and the driver's one-line JSON result (`--workload`).

use crate::host;
use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::suite::{Suite, WorkloadResult};
use crate::workloads::{Workload, WORKLOADS};

fn header(suite: &Suite, what: &str) {
    println!(
        "benchmark {what}: nproc={} seed={} seconds={} (closed loop, one run at a time, each workload's process pinned to one CPU)",
        host::nproc(),
        suite.seed,
        suite.seconds
    );
}

fn shape(w: &Workload) -> String {
    format!(
        "{:?}, {} active + {} spare ranks, {} per node, {} checkpoints, kill at iter {}, headline {:?}{}",
        w.app,
        w.active,
        w.spares,
        w.ranks_per_node,
        w.checkpoints,
        w.kill_iter,
        w.headline,
        w.alt.map_or(String::new(), |a| format!(", alt {a:?}")),
    )
}

fn print_end_to_end(r: &WorkloadResult) {
    println!(
        "  end-to-end, tracing off: {} scenarios (one child each), {} timed passes; value = mean over scenarios of the scenario's median; host seconds are raw seconds over the slow-down the calibration mix showed around each run",
        r.fingerprints.len(),
        r.passes
    );
    for m in &END_TO_END {
        let bound = m
            .bound
            .map_or("none".to_owned(), |b| format!("{}%", b * 100.0));
        match (r.end_to_end(m.name), r.pooled(m.name)) {
            (Some(value), Some(s)) => println!(
                "    {:<26} {:>14} {:<6} all samples: median {} q1 {} q3 {} n={} spread {:.2}% [{} clock, bound {bound}]",
                m.name,
                value,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.n,
                s.spread() * 100.0,
                m.clock
            ),
            _ => println!("    {:<26} missing", m.name),
        }
    }
    let lists = r.samples.iter().chain(&r.beside);
    for (name, children) in lists.filter(|(_, c)| c.concat().len() > 1) {
        let list: Vec<String> = children
            .iter()
            .map(|c| {
                c.iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect();
        println!("    samples {name}: {}", list.join(" | "));
    }
    println!(
        "    {:<26} {}",
        "virtual_fingerprint",
        r.fingerprints.join("+")
    );
}

fn print_layers(r: &WorkloadResult) {
    println!("  per-layer, traced run and probes:");
    for m in &PER_LAYER {
        match r.layers.iter().find(|(n, _)| n == m.name) {
            Some((_, v)) => println!(
                "    {:<42} {:>16} {:<6} ({} is better)",
                m.name,
                v,
                m.unit,
                m.better.name()
            ),
            None => println!("    {:<42} missing", m.name),
        }
    }
    if let Some(path) = &r.span_file {
        println!("    spans: {path}");
    }
}

fn print_notes(r: &WorkloadResult) {
    for note in &r.notes {
        println!("  FAILED CHECK: {note}");
    }
}

/// `--all`: every workload untraced, then traced. Non-zero when any run
/// failed; the metrics are printed either way.
pub fn all(suite: &Suite) -> i32 {
    header(suite, "--all");
    let mut ok = true;
    for w in &WORKLOADS {
        println!("\n== {} ==\n  {}\n  why: {}", w.name, shape(w), w.why);
        let untraced = suite.untraced(w, false);
        print_end_to_end(&untraced);
        print_notes(&untraced);
        let traced = suite.traced(w);
        print_layers(&traced);
        print_notes(&traced);
        // The traced run repeats the first scenario.
        if untraced.fingerprints.first() != traced.fingerprints.first() {
            println!("  FAILED CHECK: the traced run's virtual_fingerprint differs");
            ok = false;
        }
        ok &= untraced.correct() && traced.correct();
    }
    println!(
        "\nresult: {}",
        if ok {
            "every run passed its checks"
        } else {
            "FAILED"
        }
    );
    i32::from(!ok)
}

/// Whether two medians of one metric agree within its bound (exactly, for
/// a bound of 0), and their relative difference.
fn agreement(first: f64, second: f64, bound: f64) -> (f64, bool) {
    if first == second {
        return (0.0, true);
    }
    let rel = (second - first) / first.abs();
    (rel, rel.is_finite() && rel.abs() <= bound)
}

/// `--agree`: the untraced suite twice, the second time with each pass's
/// runs in reverse order.
pub fn agree(suite: &Suite) -> i32 {
    header(suite, "--agree");
    let run = |reversed| -> Vec<WorkloadResult> {
        WORKLOADS
            .iter()
            .map(|w| suite.untraced(w, reversed))
            .collect()
    };
    let (first, second) = (run(false), run(true));
    let mut ok = true;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "diff %", "bound %"
    );
    for (a, b) in first.iter().zip(&second) {
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (a.end_to_end(m.name), b.end_to_end(m.name)) else {
                println!("{:<16} {:<26} missing", a.workload.name, m.name);
                ok = false;
                continue;
            };
            let (rel, within) = agreement(x, y, m.agree_bound());
            println!(
                "{:<16} {:<26} {:>14.6} {:>14.6} {:>9.3} {:>7}  {}",
                a.workload.name,
                m.name,
                x,
                y,
                rel * 100.0,
                m.agree_bound() * 100.0,
                if within { "pass" } else { "FAIL" }
            );
            ok &= within;
        }
        if a.fingerprints != b.fingerprints {
            println!("{:<16} virtual_fingerprint differs: FAIL", a.workload.name);
            ok = false;
        }
        for r in [a, b] {
            print_notes(r);
            ok &= r.correct();
        }
    }
    println!(
        "\nresult: {}",
        if ok { "the two suites agree" } else { "FAILED" }
    );
    i32::from(!ok)
}

fn json_metric(name: &str, value: f64) -> String {
    let unit = metrics::unit_of(name).unwrap_or("");
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

/// One workload for the benchmark driver. The last line printed is the
/// result object; `--trace 0` carries the end-to-end metrics that have a
/// bound, `--trace 1` the per-layer ones and the end-to-end ones without.
pub fn driver_run(suite: &Suite, w: &'static Workload, trace: bool) -> i32 {
    header(suite, w.name);
    println!("  {}", shape(w));
    let mut fields = Vec::new();
    let mut result;
    if trace {
        result = suite.traced(w);
        print_layers(&result);
        for m in &PER_LAYER {
            if let Some((_, v)) = result.layers.iter().find(|(n, _)| n == m.name) {
                fields.push(json_metric(m.name, *v));
            }
        }
    } else {
        result = suite.untraced(w, false);
        print_end_to_end(&result);
    }
    for m in END_TO_END.iter().filter(|m| m.bound.is_none() == trace) {
        match result.end_to_end(m.name) {
            Some(value) => fields.push(json_metric(m.name, value)),
            None => result.notes.push(format!("{} is missing", m.name)),
        }
    }
    print_notes(&result);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct(),
        result.attempted.max(1),
        result.failed,
        fields.join(", ")
    );
    // The driver wants exit code 0 with the result printed; `correct` and
    // `failed` carry the verdict.
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_is_relative_to_the_first_median_and_exact_at_zero_bound() {
        assert_eq!(agreement(2.0, 2.0, 0.0), (0.0, true));
        assert!(!agreement(2.0, 2.0000001, 0.0).1);
        let (rel, ok) = agreement(2.0, 2.1, 0.10);
        assert!((rel - 0.05).abs() < 1e-12 && ok);
        assert!(!agreement(2.0, 1.7, 0.10).1);
        assert!(agreement(0.0, 0.0, 0.0).1);
        assert!(!agreement(0.0, 0.1, 0.25).1);
    }

    #[test]
    fn json_metrics_carry_value_and_unit() {
        assert_eq!(
            json_metric("host_pass_s", 3.0125),
            "\"host_pass_s\": {\"value\": 3.0125, \"unit\": \"s\"}"
        );
        assert_eq!(
            json_metric("fenix.revokes", 9.0),
            "\"fenix.revokes\": {\"value\": 9, \"unit\": \"count\"}"
        );
    }
}
