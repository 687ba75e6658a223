//! Running one pass of a workload and checking every run's result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use resilience::{try_run_experiment, ExperimentConfig, IterativeApp};
use simmpi::Backend;
use telemetry::{Telemetry, TelemetryConfig, TimeSource};

use crate::calib::{slowdown, Calibrator};
use crate::host;
use crate::spans::SpanLog;
use crate::workloads::{Role, Workload};

/// The fields of a `RunRecord` the benchmark reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunFacts {
    /// Virtual nanoseconds of the whole job.
    pub wall_ns: u64,
    pub digest: u64,
    pub iterations: u64,
    pub repairs: u64,
    pub relaunches: u64,
}

/// One `try_run_experiment` call as the benchmark saw it.
pub struct RunOutput {
    pub role: Role,
    /// Host seconds around the call as the clock read them, cluster
    /// construction included.
    pub raw_s: f64,
    /// How much slower than nominal the calibration mix ran around the call.
    pub slowdown: f64,
    /// Voluntary context switches of the process during the call (0 where
    /// the platform does not tell).
    pub ctx_switches: u64,
    /// The record, or why there is none (`Err` or panic).
    pub result: Result<RunFacts, String>,
    /// The run's hub in a traced pass: each run has its own cluster and
    /// virtual clock, so each has its own event timeline.
    pub telemetry: Option<Telemetry>,
}

impl RunOutput {
    /// Host seconds of the call on the quiet container: what every host
    /// metric is made of (see `calib.rs`).
    pub fn host_s(&self) -> f64 {
        self.raw_s / self.slowdown
    }
}

pub struct PassOutput {
    /// In [`Workload::roles`] order, whatever order they executed in.
    pub runs: Vec<RunOutput>,
}

impl PassOutput {
    pub fn run(&self, role: Role) -> Option<&RunOutput> {
        self.runs.iter().find(|r| r.role == role)
    }

    pub fn host_s(&self, role: Role) -> f64 {
        self.run(role).map_or(0.0, RunOutput::host_s)
    }

    /// The whole pass: the sum of its runs, calibration left out.
    pub fn pass_s(&self) -> f64 {
        self.runs.iter().map(RunOutput::host_s).sum()
    }

    pub fn raw_pass_s(&self) -> f64 {
        self.runs.iter().map(|r| r.raw_s).sum()
    }

    /// Slow-down over the pass: raw seconds per reported second.
    pub fn slowdown(&self) -> f64 {
        self.raw_pass_s() / self.pass_s()
    }

    fn wall_ns(&self, role: Role) -> Option<u64> {
        Some(self.run(role)?.result.as_ref().ok()?.wall_ns)
    }

    /// `wall(a) − wall(b)` in virtual seconds; 0 when either run is missing.
    pub fn wall_diff_s(&self, a: Role, b: Role) -> f64 {
        match (self.wall_ns(a), self.wall_ns(b)) {
            (Some(a), Some(b)) => (a as f64 - b as f64) / 1e9,
            _ => 0.0,
        }
    }

    pub fn wall_s(&self, role: Role) -> f64 {
        self.wall_ns(role).map_or(0.0, |ns| ns as f64 / 1e9)
    }

    /// FNV-1a over every run's virtual wall and digest, in role order.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for run in &self.runs {
            let (wall, digest) = run
                .result
                .as_ref()
                .map_or((u64::MAX, 0), |r| (r.wall_ns, r.digest));
            eat(wall);
            eat(digest);
        }
        h
    }
}

fn run_one(w: &Workload, app: &dyn IterativeApp, role: Role, seed: u64, traced: bool) -> RunOutput {
    let switches_before = host::voluntary_ctx_switches();
    let t0 = Instant::now();
    let strategy = w.strategy(role);
    let cluster = w.cluster(strategy);
    let telemetry = traced.then(|| {
        let clock = Arc::clone(cluster.clock());
        Telemetry::with_time_source(
            TelemetryConfig {
                record_mpi_calls: true,
                ring_capacity: w.ring_capacity,
            },
            TimeSource::External(Arc::new(move || clock.now_ns())),
        )
    });
    let cfg = ExperimentConfig {
        strategy,
        spares: if strategy.uses_fenix() { w.spares } else { 0 },
        checkpoints: w.checkpoints,
        backend: Backend::Des { seed },
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let plan = w.plan(role, seed);
    let result = match catch_unwind(AssertUnwindSafe(|| {
        try_run_experiment(&cluster, app, &cfg, plan)
    })) {
        Ok(Ok(record)) => Ok(RunFacts {
            wall_ns: record.wall.as_nanos() as u64,
            digest: record.digest,
            iterations: record.iterations,
            repairs: record.repairs,
            relaunches: record.relaunches as u64,
        }),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("panicked".to_owned()),
    };
    RunOutput {
        role,
        raw_s: t0.elapsed().as_secs_f64(),
        slowdown: 1.0,
        ctx_switches: match (switches_before, host::voluntary_ctx_switches()) {
            (Some(before), Some(after)) => after.saturating_sub(before),
            _ => 0,
        },
        result,
        telemetry,
    }
}

/// Run every run of the pass, one at a time, with a sample of the
/// calibration mix before the first and after each: a run's slow-down is
/// read from the two samples around it. `reversed` executes the runs in the
/// opposite order (the `--agree` second suite); `spans` wraps each run in a
/// span named `run.<role>`, and each sample in one named `calibrate`, under
/// the given parent.
pub fn run_pass(
    w: &Workload,
    app: &dyn IterativeApp,
    cal: &mut Calibrator,
    seed: u64,
    reversed: bool,
    traced: bool,
    mut spans: Option<(&mut SpanLog, usize)>,
) -> PassOutput {
    let mut order = w.roles();
    if reversed {
        order.reverse();
    }
    let mut before = spanned(&mut spans, "calibrate", || cal.sample());
    let mut runs = Vec::new();
    for role in order {
        let name = format!("run.{}", role.name());
        let mut run = spanned(&mut spans, &name, || run_one(w, app, role, seed, traced));
        let after = spanned(&mut spans, "calibrate", || cal.sample());
        run.slowdown = slowdown(before, after);
        before = after;
        runs.push(run);
    }
    runs.sort_by_key(|r| r.role);
    PassOutput { runs }
}

/// `f` under a span named `name`, when the pass records spans.
fn spanned<T>(spans: &mut Option<(&mut SpanLog, usize)>, name: &str, f: impl FnOnce() -> T) -> T {
    match spans.as_mut() {
        Some((log, parent)) => log.scope(name, Some(*parent), |_, _| f()).1,
        None => f(),
    }
}

/// Result checking across the passes of one child process. A run fails on
/// `Err`, panic, a digest other than the pass's reference digest, the wrong
/// `iterations`/`repairs`/`relaunches`, or a virtual wall that differs from
/// the same run in the first pass.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    first_walls: Vec<(Role, u64)>,
    pub fingerprint: Option<u64>,
}

impl Checker {
    pub fn check(&mut self, w: &Workload, pass: &PassOutput) {
        let ref_digest = pass
            .run(Role::Ref)
            .and_then(|r| r.result.as_ref().ok())
            .map(|r| r.digest);
        for run in &pass.runs {
            self.attempted += 1;
            if let Err(why) = self.check_run(w, run, ref_digest) {
                self.failed += 1;
                self.messages
                    .push(format!("{} {}: {why}", w.name, run.role.name()));
            }
        }
        let fp = pass.fingerprint();
        match self.fingerprint {
            None => self.fingerprint = Some(fp),
            // Every differing run was already counted above.
            Some(first) if first != fp => self.messages.push(format!(
                "{}: virtual_fingerprint {fp:016x} differs from the first pass's {first:016x}",
                w.name
            )),
            Some(_) => {}
        }
    }

    fn check_run(
        &mut self,
        w: &Workload,
        run: &RunOutput,
        ref_digest: Option<u64>,
    ) -> Result<(), String> {
        let rec = run.result.as_ref().map_err(Clone::clone)?;
        if Some(rec.digest) != ref_digest {
            return Err(format!(
                "digest {:#x} is not the reference digest {ref_digest:x?}",
                rec.digest
            ));
        }
        if rec.iterations != w.iterations() {
            return Err(format!(
                "{} iterations, expected {}",
                rec.iterations,
                w.iterations()
            ));
        }
        let failed = u64::from(run.role.injects_failure());
        let fenix = w.strategy(run.role).uses_fenix();
        let want_repairs = if fenix { failed } else { 0 };
        let want_relaunches = if fenix { 0 } else { failed };
        if rec.repairs != want_repairs || rec.relaunches != want_relaunches {
            return Err(format!(
                "{} repairs and {} relaunches, expected {want_repairs} and {want_relaunches}",
                rec.repairs, rec.relaunches
            ));
        }
        let wall = rec.wall_ns;
        match self.first_walls.iter().find(|(role, _)| *role == run.role) {
            None => self.first_walls.push((run.role, wall)),
            Some(&(_, first)) if first != wall => {
                return Err(format!(
                    "virtual wall {wall} ns differs from the first pass's {first} ns"
                ));
            }
            Some(_) => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn output(w: &Workload, role: Role, wall_ns: u64, digest: u64) -> RunOutput {
        let failed = role.injects_failure();
        let fenix = w.strategy(role).uses_fenix();
        RunOutput {
            role,
            raw_s: 1.0,
            slowdown: 1.0,
            ctx_switches: 0,
            result: Ok(RunFacts {
                wall_ns,
                digest,
                iterations: w.iterations(),
                repairs: u64::from(failed && fenix),
                relaunches: u64::from(failed && !fenix),
            }),
            telemetry: None,
        }
    }

    fn pass(w: &Workload, digest_of_fail: u64) -> PassOutput {
        PassOutput {
            runs: vec![
                output(w, Role::Ref, 1_000, 7),
                output(w, Role::Nf, 1_500, 7),
                output(w, Role::Fail, 1_900, digest_of_fail),
            ],
        }
    }

    #[test]
    fn a_clean_pass_counts_no_failures_and_splits_virtual_time() {
        let w = &WORKLOADS[0];
        let p = pass(w, 7);
        let mut c = Checker::default();
        c.check(w, &p);
        c.check(w, &p);
        assert_eq!((c.attempted, c.failed), (6, 0), "{:?}", c.messages);
        assert_eq!(p.wall_diff_s(Role::Nf, Role::Ref), 500e-9);
        assert_eq!(p.wall_diff_s(Role::Fail, Role::Nf), 400e-9);
        assert_eq!(c.fingerprint, Some(p.fingerprint()));
    }

    #[test]
    fn host_time_is_raw_time_over_the_slowdown_around_each_run() {
        let w = &WORKLOADS[0];
        let mut p = pass(w, 7);
        p.runs[1].raw_s = 3.0;
        p.runs[1].slowdown = 1.5;
        assert_eq!(p.host_s(Role::Ref), 1.0);
        assert_eq!(p.host_s(Role::Nf), 2.0);
        assert_eq!((p.pass_s(), p.raw_pass_s()), (4.0, 5.0));
        assert_eq!(p.slowdown(), 1.25);
    }

    #[test]
    fn wrong_digest_wrong_wall_and_errors_each_fail_their_run() {
        let w = &WORKLOADS[0];
        let mut c = Checker::default();
        c.check(w, &pass(w, 7));
        c.check(w, &pass(w, 8));
        assert_eq!(c.failed, 1);
        let mut moved = pass(w, 7);
        moved.runs[1] = output(w, Role::Nf, 1_501, 7);
        c.check(w, &moved);
        assert_eq!(c.failed, 2);
        let mut broken = pass(w, 7);
        broken.runs[2].result = Err("panicked".into());
        c.check(w, &broken);
        assert_eq!((c.attempted, c.failed), (12, 3));
        assert_ne!(broken.fingerprint(), pass(w, 7).fingerprint());
    }

    #[test]
    fn a_fail_run_without_its_repair_fails() {
        let w = &WORKLOADS[0];
        let mut p = pass(w, 7);
        p.runs[2] = output(w, Role::Nf, 1_900, 7);
        p.runs[2].role = Role::Fail;
        let mut c = Checker::default();
        c.check(w, &p);
        assert_eq!(c.failed, 1);
    }
}
