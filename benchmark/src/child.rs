//! One workload in its own process, so that `VmHWM`, set-up time and
//! context switches belong to that workload alone. The child prints what it
//! measured as `@bench` lines; the parent parses and aggregates them.

use std::time::Instant;

use crate::calib::Calibrator;
use crate::host;
use crate::metrics::{LayerValues, PER_LAYER};
use crate::pass::{run_pass, Checker, PassOutput};
use crate::probes;
use crate::spans::SpanLog;
use crate::stats::median;
use crate::traced;
use crate::workloads::{Role, Workload};

/// Prefix of every line the parent reads; anything else on the child's
/// standard output is ignored.
pub const LINE_TAG: &str = "@bench";

/// Sample names that are printed beside the metrics without being one.
pub const RAW_PASS_S: &str = "raw_pass_s";
pub const SLOWDOWN: &str = "slowdown";

/// Untraced passes a traced child times before its traced pass: the
/// denominator of `telemetry.overhead_ratio` and the source of the
/// `resilience.host_*` run times.
const UNTRACED_BEFORE_TRACE: usize = 2;

pub struct ChildArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Keep timing passes until this many seconds have been measured…
    pub seconds: f64,
    /// …but never fewer than this many passes.
    pub min_passes: usize,
    pub trace: bool,
    /// Execute each pass's runs in reverse order (`--agree`, second suite).
    pub reversed: bool,
}

fn emit(kind: &str, name: &str, value: impl std::fmt::Display) {
    println!("{LINE_TAG} {kind} {name} {value}");
}

/// Host-time samples of one untraced pass; beside them, not metrics, what
/// the clock read and how much slower than nominal the machine ran.
fn emit_pass_samples(pass: &PassOutput) {
    emit("sample", "host_pass_s", pass.pass_s());
    emit("sample", RAW_PASS_S, pass.raw_pass_s());
    emit("sample", SLOWDOWN, pass.slowdown());
    emit("sample", "host_fail_run_s", pass.host_s(Role::Fail));
    // Of raw seconds: the three runs are back to back, so a slow phase
    // cancels by itself and calibration would only add its own noise.
    let raw = |role| pass.run(role).map_or(0.0, |r| r.raw_s);
    if raw(Role::Ref) > 0.0 {
        emit(
            "sample",
            "host_resilience_ratio",
            (raw(Role::Nf) + raw(Role::Fail)) / (2.0 * raw(Role::Ref)),
        );
    }
}

fn emit_virtual(pass: &PassOutput) {
    emit(
        "value",
        "virtual_ckpt_overhead_s",
        pass.wall_diff_s(Role::Nf, Role::Ref),
    );
    emit(
        "value",
        "virtual_failure_cost_s",
        pass.wall_diff_s(Role::Fail, Role::Nf),
    );
    emit("value", "virtual_wall_fail_s", pass.wall_s(Role::Fail));
}

/// Run the child. `started` is the process's first instant; the return
/// value is the exit code (non-zero when any run failed its checks).
pub fn run(args: &ChildArgs, started: Instant) -> i32 {
    let w = args.workload;
    if host::pin_to_one_cpu().is_none() {
        eprintln!("benchmark: could not pin to one CPU; host times will be noisier");
    }
    let app = w.build_app();
    let mut cal = Calibrator::new();
    let mut checker = Checker::default();

    // Set-up: inputs, then one untimed warm-up pass (lazy initialisation,
    // allocator and thread-stack caches). The warm-up pass is nearly all of
    // it, so its slow-down is the set-up's.
    let warm = run_pass(
        w,
        app.as_ref(),
        &mut cal,
        args.seed,
        args.reversed,
        false,
        None,
    );
    checker.check(w, &warm);
    emit(
        "value",
        "setup_s",
        started.elapsed().as_secs_f64() / warm.slowdown(),
    );
    emit_virtual(&warm);

    if args.trace {
        traced_passes(args, app.as_ref(), &mut cal, &mut checker);
    } else {
        let timed = Instant::now();
        let mut passes = 0usize;
        // Stop when the next pass, if it takes as long as the mean so far,
        // would end past the budget.
        while passes < args.min_passes
            || timed.elapsed().as_secs_f64() * (passes + 1) as f64 / passes as f64 <= args.seconds
        {
            let pass = run_pass(
                w,
                app.as_ref(),
                &mut cal,
                args.seed,
                args.reversed,
                false,
                None,
            );
            checker.check(w, &pass);
            emit_pass_samples(&pass);
            passes += 1;
        }
        emit("count", "passes", passes);
    }

    if let Some(mib) = host::peak_rss_mib() {
        emit("value", "peak_rss_mib", mib);
    }
    if let Some(fp) = checker.fingerprint {
        emit("fingerprint", "virtual_fingerprint", format!("{fp:016x}"));
    }
    for note in &checker.messages {
        emit("note", "check", note);
    }
    emit("count", "attempted", checker.attempted);
    emit("count", "failed", checker.failed);
    i32::from(checker.failed > 0 || !checker.messages.is_empty())
}

/// The traced child's measured part: untraced passes under spans, one
/// traced pass, the layer probes; prints all per-layer metrics and writes
/// the span file.
fn traced_passes(
    args: &ChildArgs,
    app: &dyn resilience::IterativeApp,
    cal: &mut Calibrator,
    checker: &mut Checker,
) {
    let w = args.workload;
    let mut log = SpanLog::new(w.name);
    let mut values = LayerValues::default();
    log.scope("workload", None, |log, root| {
        let mut untraced = Vec::new();
        for _ in 0..UNTRACED_BEFORE_TRACE {
            let (_, pass) = log.scope("pass.untraced", Some(root), |log, me| {
                run_pass(
                    w,
                    app,
                    cal,
                    args.seed,
                    args.reversed,
                    false,
                    Some((log, me)),
                )
            });
            checker.check(w, &pass);
            untraced.push(pass);
        }
        let med =
            |f: &dyn Fn(&PassOutput) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());
        let host = |role: Role| med(&|p| p.host_s(role));
        values.set("resilience.host_ref_run_s", host(Role::Ref));
        values.set("resilience.host_nf_run_s", host(Role::Nf));
        values.set(
            "resilience.host_ckpt_overhead_s",
            med(&|p| p.host_s(Role::Nf) - p.host_s(Role::Ref)),
        );
        let recovery_s = med(&|p| p.host_s(Role::Fail) - p.host_s(Role::Nf));
        values.set("resilience.host_recovery_s", recovery_s);
        values.set("resilience.host_alt_nf_run_s", host(Role::AltNf));
        values.set("resilience.host_alt_fail_run_s", host(Role::AltFail));
        values.set(
            "fenix.host_recovery_us_per_rank",
            recovery_s * 1e6 / w.total_ranks(w.headline) as f64,
        );
        values.set(
            "apps.host_ns_per_work_unit",
            host(Role::Ref) * 1e9 / w.work_units() as f64,
        );

        let (_, pass) = log.scope("pass.traced", Some(root), |log, me| {
            run_pass(w, app, cal, args.seed, args.reversed, true, Some((log, me)))
        });
        // Of the runs alone: the calibration mix hands off between threads too.
        let switches: u64 = pass.runs.iter().map(|r| r.ctx_switches).sum();
        values.set("simmpi.voluntary_ctx_switches", switches as f64);
        checker.check(w, &pass);
        // Tracing overhead is the traced pass against the untraced ones,
        // never a timing taken with tracing on.
        values.set(
            "telemetry.overhead_ratio",
            pass.pass_s() / med(&|p| p.pass_s()),
        );
        let dropped = traced::analyse(w, &pass, &mut values);
        if dropped > 0 {
            checker.failed += 1;
            checker.messages.push(format!(
                "{}: telemetry rings dropped {dropped} events",
                w.name
            ));
        }
        // Free the rings before the probes allocate their own buffers.
        drop(pass);

        let (_, probed) = log.scope("probes", Some(root), |log, me| {
            probes::run_all(w, args.seed, log, me, &mut values)
        });
        if let Err(why) = probed {
            checker.failed += 1;
            checker.messages.push(format!("{}: {why}", w.name));
        }
    });
    for metric in &PER_LAYER {
        if let Some(v) = values.get(metric.name) {
            emit("layer", metric.name, v);
        }
    }
    let path = host::out_dir().join(format!("trace-{}.json", w.name));
    let written = std::fs::create_dir_all(host::out_dir())
        .and_then(|()| std::fs::write(&path, log.to_json()));
    match written {
        Ok(()) => emit("info", "span_file", path.display()),
        Err(e) => {
            checker.failed += 1;
            checker
                .messages
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
}
