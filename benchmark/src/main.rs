//! The repository's benchmark: four DES workloads, nine end-to-end and 57
//! per-layer metrics, one command. See `README.md` beside `Cargo.toml`.

mod calib;
mod child;
mod host;
mod metrics;
mod pass;
mod phases;
mod probes;
mod report;
mod spans;
mod stats;
mod suite;
mod traced;
mod workloads;

use std::time::Instant;

const USAGE: &str = "\
usage: benchmark --all [--seed N] [--seconds S]
       benchmark --agree [--seed N] [--seconds S]
       benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]

--all       every workload: an untraced run, then a traced run; prints every
            metric by name with its unit; exits non-zero if any run failed
--agree     the untraced suite twice (second time with each pass's runs in
            reverse order); compares medians against each metric's bound
--workload  one workload; the last line of standard output is one JSON
            object {correct, attempted, failed, metrics}
--seed      generates the run's fault scenarios: each feeds its own seed to
            Backend::Des and picks its victim (default 1)
--seconds   host seconds of timed passes per workload (default 18), never
            fewer than five passes
--trace     0: end-to-end metrics (default); 1: per-layer metrics";

/// Seed and measuring time when the command line names none; the same
/// values `BENCHMARK.json` carries for the driver.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 18.0;

enum Mode {
    All,
    Agree,
    Workload(&'static workloads::Workload),
    Child(&'static workloads::Workload),
}

struct Cli {
    mode: Mode,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_passes: usize,
    reversed: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut mode = None;
    let mut workload = None;
    let mut child = false;
    let mut cli = Cli {
        mode: Mode::All,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        min_passes: 1,
        reversed: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--all" => mode = Some(Mode::All),
            "--agree" => mode = Some(Mode::Agree),
            "--child" => child = true,
            "--reversed" => cli.reversed = true,
            "--workload" => {
                let name = value()?;
                workload = Some(workloads::find(name).ok_or_else(|| {
                    let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{name}`; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v.parse().map_err(|_| bad(v))?;
                if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
                    return Err(bad(v));
                }
            }
            "--min-passes" => {
                let v = value()?;
                cli.min_passes = v.parse::<usize>().map_err(|_| bad(v))?.max(1);
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cli.mode = match (mode, workload, child) {
        (None, Some(w), true) => Mode::Child(w),
        (None, Some(w), false) => Mode::Workload(w),
        (Some(m), None, false) => m,
        (None, None, _) => return Err("one of --all, --agree or --workload is required".into()),
        _ => return Err("--all, --agree and --workload exclude each other".into()),
    };
    Ok(cli)
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("benchmark: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let suite = suite::Suite {
        seed: cli.seed,
        seconds: cli.seconds,
    };
    let code = match cli.mode {
        Mode::Child(workload) => child::run(
            &child::ChildArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                min_passes: cli.min_passes,
                trace: cli.trace,
                reversed: cli.reversed,
            },
            started,
        ),
        Mode::All => locked(|| report::all(&suite)),
        Mode::Agree => locked(|| report::agree(&suite)),
        Mode::Workload(w) => locked(|| report::driver_run(&suite, w, cli.trace)),
    };
    std::process::exit(code);
}

/// Run a suite under the one-suite-at-a-time lock of this checkout.
fn locked(suite: impl FnOnce() -> i32) -> i32 {
    match host::RunLock::acquire() {
        Ok(_lock) => suite(),
        Err(why) => {
            eprintln!("benchmark: {why}");
            2
        }
    }
}
