//! The deterministic-execution runtime: a cooperative scheduler over real OS
//! threads.
//!
//! A *model run* ([`run_one`]) serializes every participating thread ("task")
//! through a single token: exactly one task executes application code at a
//! time, and every intercepted synchronization operation (atomic access,
//! mutex acquire, condvar wait, spawn, join) is a *schedule point* where the
//! token may move. A pluggable [`Scheduler`] decides which runnable task gets
//! the token at each point, so a driver (crates/modelcheck) can enumerate
//! interleavings deterministically — bounded DFS with replay, or seeded
//! random walks.
//!
//! Blocking is modeled with *ready predicates*: a task that cannot make
//! progress parks itself with a closure that reports whether it has become
//! runnable again ([`block_until`]). Predicates are re-evaluated at every
//! schedule point, so there are no lost wakeups in the model. Timed waits
//! (`wait_for`-style) are only "promoted" to timeouts when *no* task is
//! otherwise runnable — the standard trick that keeps timeout-based retry
//! loops from exploding the interleaving space while still letting them fire
//! when they are the only way forward.
//!
//! Failure handling: if any task panics, if no task can run (deadlock), or
//! if the step budget is exceeded, the run is *abandoned*. On abandonment
//! every task detaches from the model — subsequent intercepted operations
//! pass through to the real `std` primitives — so threads unwind or finish
//! natively and `run_one` can join them and report the failure with the full
//! schedule trace. Deadlocked tasks are unwound with a private panic payload
//! so they do not re-block on the real primitives.
//!
//! What is *not* modeled: weak memory. The runtime serializes execution, so
//! it explores interleavings under sequential consistency only. Memory
//! ordering bugs are covered separately (fences + audit comments, the lint
//! pass, optional Miri in CI) — see DESIGN.md §9.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

/// Index of a task within one execution. Task 0 is always the closure passed
/// to [`run_one`]; subsequently spawned tasks get ids in spawn order, which
/// is deterministic given the schedule.
pub type TaskId = usize;

/// How a blocked task was resumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// The ready predicate held (or the task was never blocked).
    Ready,
    /// The task held a timed wait and was promoted because nothing else in
    /// the execution could run.
    TimedOut,
    /// The execution was abandoned; the task is no longer modeled and the
    /// caller should fall back to the real primitive (treat as a spurious
    /// wakeup).
    Detached,
}

/// One scheduling decision: which tasks could run, which was running, which
/// was chosen. The sequence of choices is the *schedule trace* — enough to
/// both replay an execution and enumerate its untried siblings.
#[derive(Clone, Debug)]
pub struct Choice {
    /// 1-based step index within the execution.
    pub step: u64,
    /// Runnable tasks at this point, ascending.
    pub runnable: Vec<TaskId>,
    /// The task that held the token, if it is still a candidate.
    pub current: Option<TaskId>,
    /// The task the scheduler picked.
    pub chosen: TaskId,
}

impl Choice {
    /// A choice is a *preemption* when the running task could have continued
    /// but the scheduler moved the token elsewhere. Preemption counts are
    /// what bounded DFS budgets.
    pub fn is_preemption(&self) -> bool {
        matches!(self.current, Some(c) if c != self.chosen)
    }
}

/// Scheduling policy for one execution.
///
/// `runnable` is non-empty and sorted ascending; `current` is the previously
/// running task if (and only if) it appears in `runnable`. The returned id
/// must be an element of `runnable`.
pub trait Scheduler: Send {
    fn pick(&mut self, runnable: &[TaskId], current: Option<TaskId>) -> TaskId;
}

enum Status {
    Runnable,
    Blocked {
        timed: bool,
        ready: Box<dyn FnMut() -> bool + Send>,
    },
    Finished,
}

struct Task {
    status: Status,
    name: String,
    woke_by_timeout: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Abandon {
    /// Panic or step-budget overrun: detached tasks finish natively.
    Failure,
    /// No task can ever run again: detached tasks must *unwind*, not
    /// re-block for real.
    Deadlock,
}

struct ExecState {
    tasks: Vec<Task>,
    current: TaskId,
    steps: u64,
    max_steps: u64,
    truncated: bool,
    trace: Vec<Choice>,
    failure: Option<String>,
    abandon: Option<Abandon>,
    unfinished: usize,
    scheduler: Box<dyn Scheduler>,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

/// Shared state of one model run. All transitions happen under `st`; `cv` is
/// broadcast on every transition and waiters re-check their own condition.
struct Execution {
    st: Mutex<ExecState>,
    cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, TaskId)>> = const { RefCell::new(None) };
}

/// Panic payload used to unwind tasks out of a deadlocked model run. The
/// task is detached *before* the payload is thrown, so destructors that hit
/// intercepted primitives during the unwind pass through to `std` instead of
/// recursing into the dead model.
struct DeadlockUnwind;

/// True when the calling thread is a task of an active model run. All
/// facades use this as their fast path: one thread-local read in production.
pub fn is_modeled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

fn context() -> Option<(Arc<Execution>, TaskId)> {
    CURRENT.with(|c| c.borrow().clone())
}

fn detach() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl Execution {
    /// Pick the next task to run. Called with the state lock held by the
    /// task that holds the token (or is finishing). `me` is the caller if it
    /// is still runnable. Returns `false` when the run was abandoned or
    /// completed instead of scheduled.
    fn advance(&self, st: &mut ExecState, me: Option<TaskId>) -> bool {
        if st.abandon.is_some() {
            return false;
        }
        let mut runnable = Vec::new();
        for i in 0..st.tasks.len() {
            match &mut st.tasks[i].status {
                Status::Runnable => runnable.push(i),
                Status::Blocked { ready, .. } => {
                    if ready() {
                        st.tasks[i].status = Status::Runnable;
                        st.tasks[i].woke_by_timeout = false;
                        runnable.push(i);
                    }
                }
                Status::Finished => {}
            }
        }
        if runnable.is_empty() {
            // Timeout promotion: timed waits fire only when the execution
            // has no other way to make progress.
            for i in 0..st.tasks.len() {
                if matches!(st.tasks[i].status, Status::Blocked { timed: true, .. }) {
                    st.tasks[i].status = Status::Runnable;
                    st.tasks[i].woke_by_timeout = true;
                    runnable.push(i);
                }
            }
        }
        if runnable.is_empty() {
            if st.unfinished == 0 {
                self.cv.notify_all();
                return false; // execution complete
            }
            let blocked: Vec<&str> = st
                .tasks
                .iter()
                .filter(|t| matches!(t.status, Status::Blocked { .. }))
                .map(|t| t.name.as_str())
                .collect();
            st.failure = Some(format!(
                "deadlock: no runnable task; blocked: [{}]",
                blocked.join(", ")
            ));
            st.abandon = Some(Abandon::Deadlock);
            self.cv.notify_all();
            return false;
        }
        st.steps += 1;
        if st.steps > st.max_steps {
            st.truncated = true;
            if st.failure.is_none() {
                st.failure = Some(format!("step budget {} exceeded", st.max_steps));
            }
            st.abandon = Some(Abandon::Failure);
            self.cv.notify_all();
            return false;
        }
        let current = me.filter(|m| runnable.contains(m));
        let chosen = st.scheduler.pick(&runnable, current);
        debug_assert!(
            runnable.contains(&chosen),
            "scheduler picked a non-runnable task"
        );
        st.trace.push(Choice {
            step: st.steps,
            runnable,
            current,
            chosen,
        });
        st.current = chosen;
        self.cv.notify_all();
        true
    }

    /// Park until this task holds the token again (or the run is abandoned).
    fn wait_for_token(&self, me: TaskId) -> Wake {
        let mut st = self.st.lock().unwrap();
        loop {
            match st.abandon {
                Some(Abandon::Failure) => {
                    drop(st);
                    detach();
                    return Wake::Detached;
                }
                Some(Abandon::Deadlock) => {
                    drop(st);
                    detach();
                    std::panic::panic_any(DeadlockUnwind);
                }
                None => {}
            }
            if st.current == me && matches!(st.tasks[me].status, Status::Runnable) {
                let wake = if st.tasks[me].woke_by_timeout {
                    Wake::TimedOut
                } else {
                    Wake::Ready
                };
                st.tasks[me].woke_by_timeout = false;
                return wake;
            }
            // Every task but the token holder parks: that is how the
            // exploration serializes.
            #[expect(clippy::disallowed_methods, reason = "the model scheduler's park")]
            let parked = self.cv.wait(st);
            st = parked.unwrap();
        }
    }
}

/// A schedule point: offer the token to the scheduler and wait to get it
/// back. No-op outside a model run.
pub fn yield_point() {
    let Some((exec, me)) = context() else { return };
    {
        let mut st = exec.st.lock().unwrap();
        exec.advance(&mut st, Some(me));
    }
    exec.wait_for_token(me);
}

/// Block the calling task until `ready` returns true, at a schedule point.
///
/// The predicate is evaluated with the runtime lock held at every subsequent
/// transition; it must only inspect plain shared state (e.g. `Arc`ed
/// atomics) and never call back into the runtime. With `timed`, the wait can
/// additionally be promoted to a timeout — but only when nothing else in the
/// execution is runnable. Outside a model run this returns
/// [`Wake::Detached`] immediately and the caller uses the real primitive.
///
/// Note that a `Ready` wake only means the predicate held at the moment this
/// task was *promoted*; other tasks may have run since. Callers must re-check
/// their actual condition in a loop, exactly as with a real condvar.
pub fn block_until(ready: Box<dyn FnMut() -> bool + Send>, timed: bool) -> Wake {
    let Some((exec, me)) = context() else {
        return Wake::Detached;
    };
    {
        let mut st = exec.st.lock().unwrap();
        st.tasks[me].status = Status::Blocked { timed, ready };
        st.tasks[me].woke_by_timeout = false;
        // `advance` re-evaluates predicates, so if ours already holds we are
        // immediately a candidate again — registering is still one schedule
        // point either way. Pass ourselves as the incumbent: if the predicate
        // is already true we re-enter `runnable`, and moving the token
        // elsewhere is then a *preemption* (budgeted), not a free switch —
        // otherwise every ready-at-block point branches the DFS for free and
        // the schedule tree explodes exponentially.
        exec.advance(&mut st, Some(me));
    }
    exec.wait_for_token(me)
}

/// Register the end of task `id`, recording a panic as an execution failure
/// (unless it is the runtime's own deadlock unwind).
fn finish_task(exec: &Execution, id: TaskId, panic: Option<Box<dyn std::any::Any + Send>>) {
    detach();
    let mut st = exec.st.lock().unwrap();
    st.tasks[id].status = Status::Finished;
    st.unfinished -= 1;
    if let Some(p) = panic {
        if !p.is::<DeadlockUnwind>() && st.failure.is_none() {
            st.failure = Some(format!(
                "task '{}' panicked: {}",
                st.tasks[id].name,
                panic_message(p.as_ref())
            ));
            st.abandon = Some(Abandon::Failure);
        }
    }
    if st.abandon.is_none() {
        exec.advance(&mut st, None);
    }
    // Wake everyone regardless: detachees, token waiters, and the drain
    // loop in `run_one` watching `unfinished`.
    exec.cv.notify_all();
}

/// Spawn `f` as a new controlled task of the calling task's execution.
/// Returns `false` (without running `f`) when the caller is not modeled —
/// the facade then falls back to `std::thread`.
pub fn spawn_controlled(name: Option<String>, f: Box<dyn FnOnce() + Send>) -> bool {
    let Some((exec, me)) = context() else {
        return false;
    };
    let id = {
        let mut st = exec.st.lock().unwrap();
        let id = st.tasks.len();
        st.tasks.push(Task {
            status: Status::Runnable,
            name: name.clone().unwrap_or_else(|| format!("task-{id}")),
            woke_by_timeout: false,
        });
        st.unfinished += 1;
        id
    };
    let exec2 = Arc::clone(&exec);
    #[expect(clippy::disallowed_methods, reason = "one OS thread per modeled task")]
    let handle = std::thread::Builder::new()
        .name(name.unwrap_or_else(|| format!("loom-task-{id}")))
        .spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec2), id)));
            let exec3 = Arc::clone(&exec2);
            let result = catch_unwind(AssertUnwindSafe(move || {
                // First token (or immediate detach if already abandoned).
                let _ = exec3.wait_for_token(id);
                f();
            }));
            finish_task(&exec2, id, result.err());
        })
        .expect("spawn OS thread for modeled task");
    exec.st.lock().unwrap().os_handles.push(handle);
    let _ = me;
    // The spawn itself is a schedule point: the child may run first.
    yield_point();
    true
}

/// Everything `run_one` learned about one execution.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Schedule points taken.
    pub steps: u64,
    /// The full decision sequence (replayable).
    pub trace: Vec<Choice>,
    /// Why the run failed, if it did. `None` = clean completion.
    pub failure: Option<String>,
    /// The run hit the step budget (reported in `failure` too, but callers
    /// usually want to treat truncation as "inconclusive", not "bug").
    pub truncated: bool,
    /// Task names by id, for rendering traces.
    pub task_names: Vec<String>,
}

/// Run `f` once as task 0 of a fresh model run, scheduling every intercepted
/// operation through `scheduler`. Blocks until every spawned task has
/// finished (joining their OS threads), even on failure or abandonment.
pub fn run_one<F: FnOnce()>(scheduler: Box<dyn Scheduler>, max_steps: u64, f: F) -> ExecReport {
    assert!(
        !is_modeled(),
        "run_one called from inside a model run (nested model runs are not supported)"
    );
    let exec = Arc::new(Execution {
        st: Mutex::new(ExecState {
            tasks: vec![Task {
                status: Status::Runnable,
                name: "main".to_string(),
                woke_by_timeout: false,
            }],
            current: 0,
            steps: 0,
            max_steps,
            truncated: false,
            trace: Vec::new(),
            failure: None,
            abandon: None,
            unfinished: 1,
            scheduler,
            os_handles: Vec::new(),
        }),
        cv: Condvar::new(),
    });
    CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), 0)));
    let result = catch_unwind(AssertUnwindSafe(f));
    finish_task(&exec, 0, result.err());
    let handles = {
        let mut st = exec.st.lock().unwrap();
        // Abandoned tasks finish natively (or unwind, for deadlocks), so
        // this drains in every outcome short of a genuine native hang.
        while st.unfinished > 0 {
            #[expect(clippy::disallowed_methods, reason = "the model run drains its tasks")]
            let drained = exec.cv.wait(st);
            st = drained.unwrap();
        }
        std::mem::take(&mut st.os_handles)
    };
    for h in handles {
        #[expect(clippy::disallowed_methods, reason = "the model run joins its tasks")]
        let _ = h.join();
    }
    let st = exec.st.lock().unwrap();
    ExecReport {
        steps: st.steps,
        trace: st.trace.clone(),
        failure: st.failure.clone(),
        truncated: st.truncated,
        task_names: st.tasks.iter().map(|t| t.name.clone()).collect(),
    }
}
