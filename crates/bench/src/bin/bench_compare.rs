//! CLI wrapper around the tested gate logic, called from
//! `scripts/bench_gate.sh` (`bench::gate`), `scripts/ci.sh` (`bench::pins`)
//! and `scripts/ab.sh` (`bench::ab`):
//!
//! ```text
//! bench_compare assert-faster <results.json> <fast> <slow> \
//!     [--metric median_ns] [--min-x 1]
//! bench_compare check-pins <benchmark-output.log>
//! bench_compare ab --bounds BENCHMARK.json <parent.log> <change.log> \
//!     [<parent.log> <change.log> ...]
//! ```
//!
//! Exit codes: 0 = pass, 1 = gate violation (claim not held, missing
//! config, a modelled number off its pin, malformed artifact), 2 = usage
//! error.

use bench::ab::{self, Run};
use bench::gate::{self, GateReport};
use bench::pins;
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
        "check-pins" => cmd_check_pins(rest),
        "ab" => cmd_ab(rest),
        other => return usage(&format!("unknown subcommand {other:?}")),
    };
    let prefix = if cmd == "ab" { "ab" } else { "bench gate" };
    match report {
        Err(msg) => usage(&msg),
        Ok(report) => {
            for line in &report.lines {
                println!("{prefix}: {line}");
            }
            for failure in &report.failures {
                eprintln!("{prefix}: FAIL — {failure}");
            }
            i32::from(!report.ok())
        }
    }
}

fn usage(msg: &str) -> i32 {
    eprintln!("bench_compare: {msg}");
    eprintln!(
        "usage: bench_compare assert-faster <file> <fast> <slow> [--metric M] [--min-x N]\n\
         \x20      bench_compare check-pins <file>\n\
         \x20      bench_compare ab --bounds BENCHMARK.json <parent.log> <change.log> [...]"
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

/// One `benchmark --workload` run's output held to its entry in the pin
/// file; an unreadable or incomplete output is a violation too.
fn cmd_check_pins(args: &[String]) -> Result<GateReport, String> {
    let [path] = args else {
        return Err("check-pins needs exactly one file".into());
    };
    let checked = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| pins::benchmark_entry(&text))
        .and_then(|e| pins::check(std::slice::from_ref(&e)).map(|()| e));
    let mut report = GateReport::default();
    match checked {
        Ok(e) => report.lines.push(format!("pinned: {}", e.to_json())),
        Err(why) => report.failures.push(format!("{path}: {why}")),
    }
    Ok(report)
}

/// Alternating parent and change logs of `benchmark --workload` runs,
/// judged pair by pair on [`ab::CLAIM`] and on each bounded host metric,
/// and held to the end-to-end bounds
/// of the `--bounds` file, which is only read; an unreadable log or bounds
/// file is a violation, a missing `--bounds` a usage error.
fn cmd_ab(args: &[String]) -> Result<GateReport, String> {
    let (logs, flags) = parse_flags(args)?;
    if logs.is_empty() || !logs.len().is_multiple_of(2) {
        return Err("ab needs parent and change logs, in pairs".into());
    }
    let path = flag(&flags, "bounds").ok_or("ab needs --bounds BENCHMARK.json")?;
    let bounds = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| ab::bounds(&text))
        .map_err(|e| format!("{path}: {e}"));
    let bounds = match bounds {
        Ok(bounds) => bounds,
        Err(why) => {
            return Ok(GateReport {
                lines: Vec::new(),
                failures: vec![why],
            })
        }
    };
    let runs: Result<Vec<Run>, String> = logs
        .iter()
        .map(|path| {
            let log = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Run::parse(&log).map_err(|e| format!("{path}: {e}"))
        })
        .collect();
    let mut runs = match runs {
        Ok(runs) => runs.into_iter(),
        Err(why) => {
            return Ok(GateReport {
                lines: Vec::new(),
                failures: vec![why],
            })
        }
    };
    let pairs: Vec<(Run, Run)> =
        std::iter::from_fn(|| Some((runs.next()?, runs.next()?))).collect();
    Ok(ab::compare(&pairs, ab::CLAIM, &bounds))
}
