//! CLI wrapper around the tested bench-gate logic (`bench::gate`), called
//! from `scripts/bench_gate.sh` and `scripts/ci.sh`:
//!
//! ```text
//! bench_compare assert-faster <results.json> <fast> <slow> \
//!     [--metric median_ns] [--min-x 1]
//! bench_compare check-summary <ci-summary.json>
//! ```
//!
//! Exit codes: 0 = pass, 1 = gate violation (claim not held, missing
//! config, malformed artifact), 2 = usage error.

use bench::gate::{self, GateReport};
use telemetry::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

fn run(args: &[String]) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        return usage("missing subcommand");
    };
    let report = match cmd.as_str() {
        "assert-faster" => cmd_assert_faster(rest),
        "check-summary" => cmd_check_summary(rest),
        other => return usage(&format!("unknown subcommand {other:?}")),
    };
    match report {
        Err(msg) => usage(&msg),
        Ok(report) => {
            for line in &report.lines {
                println!("bench gate: {line}");
            }
            for failure in &report.failures {
                eprintln!("bench gate: FAIL — {failure}");
            }
            i32::from(!report.ok())
        }
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("bench_compare: {msg}");
    eprintln!(
        "usage: bench_compare assert-faster <file> <fast> <slow> [--metric M] [--min-x N]\n\
         \x20      bench_compare check-summary <file>"
    );
    2
}

/// `--flag value` pairs pulled out of an argument list.
type Flags<'a> = Vec<(&'a str, &'a str)>;

/// Split positional arguments from `--flag value` pairs.
fn parse_flags(args: &[String]) -> Result<(Vec<&str>, Flags<'_>), String> {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name, value.as_str()));
        } else {
            positional.push(a.as_str());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
    flags.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
}

/// Load and parse a results file; IO/parse problems are gate violations
/// (exit 1), reported through the GateReport rather than as usage errors.
fn load(path: &str) -> Result<Json, GateReport> {
    let text = std::fs::read_to_string(path).map_err(|e| GateReport {
        lines: Vec::new(),
        failures: vec![format!("{path}: {e}")],
    })?;
    Json::parse(&text).map_err(|e| GateReport {
        lines: Vec::new(),
        failures: vec![format!("{path}: malformed JSON: {e}")],
    })
}

fn cmd_assert_faster(args: &[String]) -> Result<GateReport, String> {
    let (pos, flags) = parse_flags(args)?;
    let [path, fast, slow] = pos[..] else {
        return Err("assert-faster needs <file> <fast> <slow>".into());
    };
    let metric = flag(&flags, "metric").unwrap_or("median_ns");
    let min_x = match flag(&flags, "min-x") {
        None => 1.0,
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("--min-x must be a positive number, got {v:?}"))?,
    };
    match load(path) {
        Ok(doc) => Ok(gate::assert_faster(&doc, fast, slow, metric, min_x)),
        Err(report) => Ok(report),
    }
}

fn cmd_check_summary(args: &[String]) -> Result<GateReport, String> {
    let (pos, flags) = parse_flags(args)?;
    if !flags.is_empty() {
        return Err("check-summary takes no flags".into());
    }
    let [path] = pos[..] else {
        return Err("check-summary needs exactly one file".into());
    };
    match load(path) {
        Ok(doc) => Ok(gate::check_summary(&doc)),
        Err(report) => Ok(report),
    }
}
