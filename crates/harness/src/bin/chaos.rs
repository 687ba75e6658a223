//! Seeded chaos campaign runner.
//!
//! Fuzzes the three resilience layers with deterministic fault schedules
//! and checks every run against the differential oracle (complete with the
//! uninterrupted run's digest, or fail with a typed error — never panic,
//! hang, or diverge). Failures are shrunk to a minimal reproducer whose
//! spec string replays directly.
//!
//! Usage:
//!   cargo run -p harness --bin chaos -- [--schedules N] [--seed S]
//!   cargo run -p harness --bin chaos -- --schedule "strategy=FenixVeloc spares=1 kill(rank=1,site=iter,at=3)"
//!
//! A `--schedule` replay runs on DES under `SIMMPI_BACKEND=des` (seed
//! `SIMMPI_SEED`), as each line of `crates/chaos/reproducers.txt` does.
//!
//! Exit status: 0 when every schedule satisfied the oracle, 1 otherwise.

use chaos::schedule::DEFAULT_SEED;
use chaos::{replay, run_campaign, CaseResult, ChaosSchedule, RunOutcome};
use harness::table::arg_value;

fn print_failure(case: &CaseResult) {
    let Err(v) = &case.outcome else { return };
    eprintln!("FAIL schedule #{}: {v}", case.index);
    eprintln!("  schedule: {}", case.schedule.to_spec());
    if let Some(min) = &case.shrunk {
        eprintln!("  shrunk:   {}", min.to_spec());
        eprintln!(
            "  replay:   cargo run -p harness --bin chaos -- --schedule \"{}\"",
            min.to_spec()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if let Some(spec) = arg_value(&args, "--schedule") {
        let sched = match ChaosSchedule::parse(&spec) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bad --schedule spec: {e}");
                std::process::exit(2);
            }
        };
        let case = replay(&sched);
        match &case.outcome {
            Ok(RunOutcome::Completed { digest, resumed_at }) => {
                println!(
                    "PASS: completed, digest {digest:#018x} matches baseline, resumed at {resumed_at:?}"
                );
            }
            Ok(RunOutcome::TypedError(e)) => {
                println!("PASS: clean typed error: {e}");
            }
            Err(_) => {
                print_failure(&case);
                std::process::exit(1);
            }
        }
        return;
    }

    let schedules: usize = arg_value(&args, "--schedules")
        .map(|v| v.parse().expect("--schedules takes a number"))
        .unwrap_or(200);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed takes a number"))
        .unwrap_or(DEFAULT_SEED);

    println!("chaos campaign: {schedules} schedules from seed {seed:#x}");
    let report = run_campaign(seed, schedules);
    let failures = report.failures();
    println!(
        "completed={} typed-errors={} failures={}",
        report.completed(),
        report.typed_errors(),
        failures.len()
    );
    for case in &failures {
        print_failure(case);
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("oracle satisfied on all {schedules} schedules");
}
