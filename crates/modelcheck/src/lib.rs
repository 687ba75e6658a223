//! Systematic interleaving exploration for the workspace's concurrent core.
//!
//! Drives the deterministic-execution runtime in `shims/loom` (which the
//! `parking_lot` shim and the `loom::sync::atomic` / `loom::thread` facades
//! hook into) with two schedulers:
//!
//! - **Bounded DFS** ([`DfsScheduler`]): depth-first enumeration of every
//!   schedule with at most [`Explorer::preemption_bound`] preemptions — the
//!   CHESS observation that almost all concurrency bugs manifest with one
//!   or two preemptions makes this both exhaustive-within-bound and
//!   tractable. Each execution records its decision trace; the explorer
//!   backtracks the deepest decision with an untried, in-budget sibling and
//!   replays that prefix.
//! - **Seeded random walks** ([`RandomScheduler`]): a splitmix64-seeded
//!   fallback sampling schedules *above* the preemption bound, so rare
//!   deep-preemption bugs still have a detection channel. Deterministic for
//!   a given [`Explorer::seed`].
//!
//! A failure (task panic, deadlock detected by the runtime, or an assertion
//! in the test closure) aborts exploration and is reported as a [`Failure`]
//! carrying the full schedule trace — enough to eyeball the interleaving or
//! replay it by prefix. The protocol suites live in `tests/`.

use loom::rt::{self, Choice, Scheduler, TaskId};

/// Continue the running task if it can continue, else the lowest runnable
/// id. The DFS's "no preemption" spine: prefixes only ever diverge from it
/// at explicitly chosen points, which is what makes replay cheap.
fn default_pick(runnable: &[TaskId], current: Option<TaskId>) -> TaskId {
    current.unwrap_or(runnable[0])
}

/// Replays a decision prefix, then follows the default policy.
pub struct DfsScheduler {
    prefix: Vec<TaskId>,
    step: usize,
}

impl DfsScheduler {
    #[must_use]
    pub fn new(prefix: Vec<TaskId>) -> Self {
        DfsScheduler { prefix, step: 0 }
    }
}

impl Scheduler for DfsScheduler {
    fn pick(&mut self, runnable: &[TaskId], current: Option<TaskId>) -> TaskId {
        let i = self.step;
        self.step += 1;
        if let Some(&want) = self.prefix.get(i) {
            if runnable.contains(&want) {
                return want;
            }
            // The program under test was nondeterministic beyond the
            // schedule (should not happen for modeled code); fall back to
            // the default policy rather than wedge.
        }
        default_pick(runnable, current)
    }
}

/// splitmix64: tiny, seedable, good enough for schedule sampling.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Picks uniformly-ish random runnable tasks, with a bias toward letting the
/// current task continue (long straight runs reach deep program points that
/// pure uniform choice rarely does).
pub struct RandomScheduler {
    rng: SplitMix64,
}

impl RandomScheduler {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomScheduler {
            rng: SplitMix64(seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, runnable: &[TaskId], current: Option<TaskId>) -> TaskId {
        let r = self.rng.next();
        if let Some(c) = current {
            if r & 1 == 0 {
                return c;
            }
        }
        runnable[(r >> 1) as usize % runnable.len()]
    }
}

/// A failing execution, with everything needed to understand and replay it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Panic message / deadlock report from the runtime.
    pub message: String,
    /// 0-based index of the failing execution within the exploration.
    pub execution: usize,
    /// The schedule that produced it.
    pub schedule: Vec<Choice>,
    /// Task names by id, for rendering.
    pub task_names: Vec<String>,
}

impl Failure {
    /// Human-readable rendering: the message plus the preemption points of
    /// the failing schedule (full traces run to hundreds of forced steps;
    /// the preemptions are the informative part).
    #[must_use]
    pub fn render(&self) -> String {
        let name = |id: TaskId| {
            self.task_names
                .get(id)
                .map_or_else(|| format!("task-{id}"), Clone::clone)
        };
        let mut out = format!(
            "modelcheck failure (execution #{}):\n  {}\n  schedule ({} steps, switches shown):\n",
            self.execution,
            self.message,
            self.schedule.len()
        );
        for c in &self.schedule {
            if c.is_preemption() || c.current.is_none() {
                let from = c.current.map_or_else(|| "-".to_string(), name);
                out.push_str(&format!(
                    "    step {:>4}: {} -> {}  (runnable: {:?})\n",
                    c.step,
                    from,
                    name(c.chosen),
                    c.runnable
                ));
            }
        }
        out
    }
}

/// Outcome of one [`Explorer::explore`] call.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions actually run (DFS + random).
    pub executions: usize,
    /// The DFS enumerated *every* schedule within the preemption bound
    /// (i.e. it terminated by exhaustion, not by the execution cap).
    pub exhaustive: bool,
    /// Executions cut short by the step budget (inconclusive, not failing).
    pub truncated: usize,
    /// First failure found, if any. Exploration stops at the first failure.
    pub failure: Option<Failure>,
    /// Longest schedule seen, for tuning step budgets.
    pub max_steps_seen: u64,
}

/// Exploration driver; all knobs are plain public fields.
#[derive(Clone, Debug)]
pub struct Explorer {
    /// Maximum preemptive context switches per schedule in the DFS phase.
    pub preemption_bound: usize,
    /// Cap on DFS executions; hitting it forfeits exhaustiveness.
    pub max_dfs_executions: usize,
    /// Random-walk executions run after the DFS phase.
    pub random_executions: usize,
    /// Seed for the random phase (the DFS phase is seed-independent).
    pub seed: u64,
    /// Per-execution schedule-point budget; overruns count as `truncated`.
    pub max_steps: u64,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            preemption_bound: 2,
            max_dfs_executions: 20_000,
            random_executions: 200,
            seed: 0x5eed_cafe,
            max_steps: 50_000,
        }
    }
}

impl Explorer {
    /// The default exploration, downscoped to `bound` preemptions.
    #[must_use]
    pub fn with_bound(preemption_bound: usize) -> Self {
        Explorer {
            preemption_bound,
            ..Explorer::default()
        }
    }

    /// Apply `MC_PREEMPTION_BOUND` / `MC_DFS_CAP` / `MC_RANDOM_EXECUTIONS` /
    /// `MC_SEED` environment overrides (used by `scripts/ci.sh` to run the
    /// suite deeper than the in-tree defaults).
    #[must_use]
    pub fn from_env(mut self) -> Self {
        fn get(name: &str) -> Option<u64> {
            std::env::var(name).ok()?.parse().ok()
        }
        if let Some(v) = get("MC_PREEMPTION_BOUND") {
            self.preemption_bound = v as usize;
        }
        if let Some(v) = get("MC_DFS_CAP") {
            self.max_dfs_executions = v as usize;
        }
        if let Some(v) = get("MC_RANDOM_EXECUTIONS") {
            self.random_executions = v as usize;
        }
        if let Some(v) = get("MC_SEED") {
            self.seed = v;
        }
        self
    }

    /// Explore `f` under every in-bound schedule (then random walks), up to
    /// the configured caps. Stops at the first failure.
    pub fn explore<F: Fn()>(&self, f: F) -> Report {
        let mut report = Report {
            executions: 0,
            exhaustive: false,
            truncated: 0,
            failure: None,
            max_steps_seen: 0,
        };
        let mut prefix: Vec<TaskId> = Vec::new();
        loop {
            if report.executions >= self.max_dfs_executions {
                break; // DFS budget exhausted; not exhaustive
            }
            let exec = rt::run_one(
                Box::new(DfsScheduler::new(prefix.clone())),
                self.max_steps,
                &f,
            );
            let idx = report.executions;
            report.executions += 1;
            report.max_steps_seen = report.max_steps_seen.max(exec.steps);
            if exec.truncated {
                report.truncated += 1;
            } else if let Some(message) = exec.failure {
                report.failure = Some(Failure {
                    message,
                    execution: idx,
                    schedule: exec.trace,
                    task_names: exec.task_names,
                });
                return report;
            }
            match self.backtrack(&exec.trace) {
                Some(next) => prefix = next,
                None => {
                    report.exhaustive = true;
                    break;
                }
            }
        }
        // Random phase: sample above the bound (and past any DFS cap).
        for k in 0..self.random_executions {
            let exec = rt::run_one(
                Box::new(RandomScheduler::new(
                    self.seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                )),
                self.max_steps,
                &f,
            );
            let idx = report.executions;
            report.executions += 1;
            report.max_steps_seen = report.max_steps_seen.max(exec.steps);
            if exec.truncated {
                report.truncated += 1;
            } else if let Some(message) = exec.failure {
                report.failure = Some(Failure {
                    message,
                    execution: idx,
                    schedule: exec.trace,
                    task_names: exec.task_names,
                });
                return report;
            }
        }
        report
    }

    /// Explore and panic (with the rendered schedule) on failure — the
    /// affirmative form the protocol suites use.
    pub fn check<F: Fn()>(&self, what: &str, f: F) -> Report {
        let report = self.explore(f);
        if let Some(failure) = &report.failure {
            panic!("{what}: {}", failure.render());
        }
        report
    }

    /// Explore expecting a failure (mutant tests); panics if every schedule
    /// passes.
    pub fn explore_expect_failure<F: Fn()>(&self, what: &str, f: F) -> Failure {
        let report = self.explore(f);
        report.failure.unwrap_or_else(|| {
            panic!(
                "{what}: expected a failing interleaving, but {} executions passed (exhaustive: {})",
                report.executions, report.exhaustive
            )
        })
    }

    /// Find the deepest decision in `trace` with an untried sibling whose
    /// choice keeps the schedule within the preemption budget, and return
    /// the replay prefix taking it. `None` means the in-bound schedule tree
    /// is exhausted.
    ///
    /// Sibling order at each decision is canonical: the default pick first,
    /// then remaining runnable ids ascending — matching what a fresh replay
    /// of the prefix will reproduce, which is what makes DFS over replayed
    /// prefixes sound.
    fn backtrack(&self, trace: &[Choice]) -> Option<Vec<TaskId>> {
        let mut acc = 0usize;
        let cumulative: Vec<usize> = trace
            .iter()
            .map(|c| {
                if c.is_preemption() {
                    acc += 1;
                }
                acc
            })
            .collect();
        for i in (0..trace.len()).rev() {
            let c = &trace[i];
            if c.runnable.len() < 2 {
                continue;
            }
            let before = if i == 0 { 0 } else { cumulative[i - 1] };
            let default = default_pick(&c.runnable, c.current);
            let mut order: Vec<TaskId> = Vec::with_capacity(c.runnable.len());
            order.push(default);
            order.extend(c.runnable.iter().copied().filter(|&t| t != default));
            let pos = order
                .iter()
                .position(|&t| t == c.chosen)
                .expect("chosen task is runnable");
            for &cand in &order[pos + 1..] {
                let extra = usize::from(matches!(c.current, Some(cur) if cand != cur));
                if before + extra <= self.preemption_bound {
                    let mut next: Vec<TaskId> = trace[..i].iter().map(|c| c.chosen).collect();
                    next.push(cand);
                    return Some(next);
                }
            }
        }
        None
    }
}
