//! Deterministic discrete-event scheduler: virtual-time ranks as
//! cooperative tasks.
//!
//! The thread-per-rank backend runs every rank on a free-running OS thread
//! and burns modeled time as scaled real sleeps; schedules depend on the
//! host's thread interleaving. This module replaces that with a
//! discrete-event simulation (DES) while keeping the rank code — and the
//! whole `Comm`/mailbox API — untouched:
//!
//! * Every rank is a **task** on a stack of its own ([`crate::task`]), and
//!   one OS thread, the one that called [`Scheduler::run`], runs them all.
//!   Exactly one task is `Running` at any instant, and control transfers
//!   only at *yield points* (a mailbox wait, a rendezvous wait, or a modeled
//!   sleep routed through [`cluster::install_virtual_sleeper`]): the
//!   yielding task decides the next one and switches stacks to it directly,
//!   a few nanoseconds with no kernel involved. Rank bodies are therefore
//!   resumable state machines. A switch with a lock held, or inside a
//!   no-blocking scope, fails the lock-order witness
//!   (`assert_no_locks_held`); a rank's thread-locals move with it
//!   ([`crate::task::TaskLocals`]).
//! * A single binary heap orders pending events by
//!   `(virtual time, tiebreak key, push sequence)`. The tiebreak key is a
//!   pure splitmix64-style mix of the schedule seed, the push sequence
//!   number, and the task id — identical seeds give identical schedules,
//!   different seeds explore different interleavings of simultaneous
//!   events. This is the committed determinism rule: no wall clock, no
//!   RNG state, no OS scheduler input.
//! * Virtual time lives on a shared [`cluster::Clock`]; the dispatcher
//!   advances it to each event's timestamp, so bandwidth-governor queueing
//!   is an exact function of simulated time (see
//!   `Governor::with_clock`).
//!
//! Because all wake-ups originate from the currently running task (a send,
//! a rendezvous publication, a kill), there are no lost-wakeup races by
//! construction. A hand-off is *decided* under the scheduler lock (pop,
//! clock advance, the next task marked `Running`) and made with no lock
//! held.
//!
//! The dispatcher also **asks before it switches**: an event popped for a
//! `Blocked` task goes through the ready probe (the universe installs
//! `Router::would_run`, the predicate the parked receive itself loops on),
//! and a task that would only re-check and yield again is skipped exactly
//! as a stale event is. A spurious run touches no clock, sequence number
//! or queue, so skipping it leaves the timeline bit-identical.
//!
//! **Deadlock** becomes an observable, deterministic outcome: when the
//! event heap drains while tasks are still blocked, the scheduler invokes
//! its deadlock hook (the universe installs `Router::abort`), every
//! blocked task re-runs, observes `MpiError::Aborted`, and unwinds — a
//! typed verdict instead of a hung process.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io;
use std::panic::AssertUnwindSafe;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use cluster::Clock;

use crate::task::{self, Stack, TaskLocals};

/// Scheduling state of one task (one simulated rank).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Not yet run: its stack holds only the entry context.
    NotStarted,
    /// The one task executing.
    Running,
    /// Switched away at a predicate wait (mailbox/rendezvous); runnable only
    /// once another task wakes it.
    Blocked,
    /// Switched away on a timed event (modeled sleep); wakes are ignored,
    /// the timer event stands.
    Sleeping,
    /// Returned; never scheduled again.
    Done,
}

/// One entry in the event heap. Ordering is the determinism contract:
/// earliest virtual time first, ties broken by the seeded key, then by
/// push order (seq is unique, so the ordering is total).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    t_ns: u64,
    key: u64,
    seq: u64,
    task: usize,
}

/// Seeded tiebreak key: a splitmix64-style finalizer over the schedule
/// seed, the push sequence number, and the task id. Pure arithmetic — the
/// same `(seed, seq, task)` always yields the same key.
fn tiebreak(seed: u64, seq: u64, task: u64) -> u64 {
    let mut z =
        seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ task.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a launch's scheduler did, as plain counts kept under the scheduler
/// lock and read once when the launch ends (`Universe::launch` flushes them
/// into the telemetry registry when a hub is installed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Dispatches that switched to another task's stack.
    pub handoffs: u64,
    /// Dispatches whose next event belonged to the yielding task itself.
    pub self_dispatches: u64,
    /// Heap entries skipped because their task had already exited.
    pub stale_skipped: u64,
    /// Heap entries skipped because their task, parked at a wait it
    /// registered, would only have re-checked and yielded again: hand-offs
    /// (or self-dispatches) that did not happen.
    pub unready_skipped: u64,
    /// Largest number of pending events.
    pub peak_heap_depth: u64,
    /// Kill / revoke / abort fan-outs.
    pub wake_all_calls: u64,
}

struct Inner {
    stats: SchedStats,
    heap: BinaryHeap<Reverse<Event>>,
    state: Vec<TaskState>,
    /// Whether a heap entry exists for the task (dedups wakes).
    queued: Vec<bool>,
    /// A wake arrived while the task was running (e.g. a self-send);
    /// consumed at its next blocking yield so the wake is not lost.
    pending_wake: Vec<bool>,
    /// Monotonic push counter feeding the tiebreak key.
    seq: u64,
}

impl Inner {
    /// Out-of-range task ids (impossible by construction — ids are rank
    /// numbers below `tasks`) read as `Done`: never scheduled, never woken.
    fn state_of(&self, task: usize) -> TaskState {
        self.state.get(task).copied().unwrap_or(TaskState::Done)
    }

    fn set_state(&mut self, task: usize, st: TaskState) {
        if let Some(s) = self.state.get_mut(task) {
            *s = st;
        }
    }

    fn set_pending_wake(&mut self, task: usize) {
        if let Some(p) = self.pending_wake.get_mut(task) {
            *p = true;
        }
    }

    /// Clear and return the task's pending-wake flag.
    fn take_pending_wake(&mut self, task: usize) -> bool {
        match self.pending_wake.get_mut(task) {
            Some(p) => std::mem::take(p),
            None => false,
        }
    }
}

/// The dispatcher's question about a `Blocked` task (see
/// [`Scheduler::set_ready_probe`]).
type ReadyProbe = Box<dyn Fn(usize) -> bool + Send + Sync>;

/// What the first switch into a task hands [`task_entry`]: the scheduler,
/// the body [`Scheduler::run`] runs, and the task's id. `run` keeps one per
/// task alive until every task is done.
struct Start {
    sched: *const Scheduler,
    /// A `&dyn Fn(usize)` on `run`'s stack.
    body: *const (),
    task: usize,
}

/// The discrete-event scheduler. One instance per DES launch, shared by
/// the router, the rendezvous table, and every rank task.
pub struct Scheduler {
    inner: Mutex<Inner>,
    /// The stack pointer each switched-away context resumes from: one per
    /// task, then the thread that called [`Scheduler::run`].
    contexts: Vec<AtomicPtr<u8>>,
    /// The running launch's start records, one per task (null outside
    /// [`Scheduler::run`]).
    starts: AtomicPtr<Start>,
    clock: Arc<Clock>,
    seed: u64,
    deadlock_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// Asked, under `inner`, before a `Blocked` task is dispatched: would it
    /// do anything but yield again? Unset means every event is dispatched.
    ready_probe: RwLock<Option<ReadyProbe>>,
}

impl Scheduler {
    /// A scheduler for `tasks` ranks, ordering simultaneous events by the
    /// seeded tiebreak rule, on the given (virtual) clock.
    pub fn new(tasks: usize, seed: u64, clock: Arc<Clock>) -> Arc<Self> {
        Arc::new(Scheduler {
            inner: Mutex::new(Inner {
                stats: SchedStats::default(),
                heap: BinaryHeap::new(),
                state: vec![TaskState::NotStarted; tasks],
                queued: vec![false; tasks],
                pending_wake: vec![false; tasks],
                seq: 0,
            }),
            contexts: (0..=tasks).map(|_| AtomicPtr::default()).collect(),
            starts: AtomicPtr::default(),
            clock,
            seed,
            deadlock_hook: Mutex::new(None),
            ready_probe: RwLock::new(None),
        })
    }

    /// Number of tasks this scheduler drives.
    pub fn tasks(&self) -> usize {
        self.contexts.len() - 1
    }

    /// The virtual clock events are ordered on.
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// The schedule seed (exposed for telemetry/reporting).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The counts so far.
    pub fn stats(&self) -> SchedStats {
        self.inner.lock().stats
    }

    /// Install the callback run when the event heap drains while tasks are
    /// still blocked (the universe installs `Router::abort` so deadlock
    /// becomes a typed `MpiError::Aborted` outcome).
    pub fn set_deadlock_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.deadlock_hook.lock() = Some(Box::new(hook));
    }

    /// Install the question the dispatcher asks before it switches to a
    /// `Blocked` task (the universe installs `Router::would_run`). The
    /// probe runs under the scheduler lock and must not re-enter the
    /// scheduler.
    pub(crate) fn set_ready_probe(&self, probe: impl Fn(usize) -> bool + Send + Sync + 'static) {
        *self.ready_probe.write() = Some(Box::new(probe));
    }

    /// Drop the deadlock hook and the ready probe. The universe's close
    /// over the router, which holds the scheduler — clearing them at the
    /// end of a launch breaks that reference cycle so neither leaks.
    pub fn clear_hooks(&self) {
        *self.deadlock_hook.lock() = None;
        *self.ready_probe.write() = None;
    }

    /// Run `body(task)` for every task, each on a stack of its own, all on
    /// the calling thread: seed a start event per task at the current
    /// virtual time, switch to the first one dispatched, and return once
    /// every task is done. A panic escaping `body` ends its task like a
    /// return. Fails when a stack cannot be mapped, or when every
    /// remaining task is blocked and the deadlock hook (if any) woke none
    /// of them — those tasks' stacks are then never reused.
    pub fn run(&self, body: &dyn Fn(usize)) -> io::Result<()> {
        let n = self.tasks();
        let mut stacks = Vec::with_capacity(n);
        for context in self.contexts.iter().take(n) {
            let mut stack = Stack::take()?;
            context.store(stack.prepare(task_entry), Ordering::Relaxed);
            stacks.push(stack);
        }
        let body_ref = &body;
        let starts: Vec<Start> = (0..n)
            .map(|task| Start {
                sched: self,
                body: ptr::from_ref(body_ref).cast(),
                task,
            })
            .collect();
        self.starts
            .store(starts.as_ptr().cast_mut(), Ordering::Relaxed);
        let first = {
            let mut inner = self.inner.lock();
            let now = self.clock.now_ns();
            for task in 0..n {
                self.push_event(&mut inner, task, now);
            }
            self.dispatch_next(&mut inner, None)
        };
        if let Some(first) = first {
            self.switch(n, first);
        }
        self.starts.store(ptr::null_mut(), Ordering::Relaxed);
        drop(starts);
        let inner = self.inner.lock();
        if inner.state.iter().all(|s| *s == TaskState::Done) {
            drop(inner);
            stacks.into_iter().for_each(Stack::give_back);
            Ok(())
        } else {
            // Suspended frames live on these stacks; they are never resumed.
            std::mem::forget(stacks);
            Err(io::Error::other(
                "every remaining task is blocked and the deadlock hook woke none",
            ))
        }
    }

    /// Yield at a predicate wait (mailbox or rendezvous): dispatch the next
    /// event and switch to its task; return when this task is dispatched
    /// again. The caller must re-check its predicate on return — wakes are
    /// level-triggered hints, exactly like condvar wakeups.
    pub fn yield_blocked(&self, task: usize) {
        parking_lot::assert_no_locks_held();
        let mut inner = self.inner.lock();
        inner.set_state(task, TaskState::Blocked);
        if inner.take_pending_wake(task) {
            // A wake landed while we were running (self-send, same-task
            // rendezvous publication): convert it into an immediate event
            // so we run again after any same-time peers.
            let now = self.clock.now_ns();
            self.push_event(&mut inner, task, now);
        }
        let next = self.hand_off(inner, task);
        self.switch(task, next);
    }

    /// Yield for `modeled` of virtual time: schedule our own resumption at
    /// `now + modeled`, dispatch, switch. This is the [`cluster`] virtual
    /// sleeper of rank tasks — every modeled transfer/startup charge on
    /// a rank path lands here.
    pub fn sleep(&self, task: usize, modeled: Duration) {
        parking_lot::assert_no_locks_held();
        let mut inner = self.inner.lock();
        inner.set_state(task, TaskState::Sleeping);
        let t = self
            .clock
            .now_ns()
            .saturating_add(modeled.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.push_event(&mut inner, task, t);
        let next = self.hand_off(inner, task);
        self.switch(task, next);
    }

    /// Mark `task` runnable at the current virtual time. Called by the
    /// running task when it makes another task's predicate true (message
    /// delivered, rendezvous published, rank killed). Running tasks get a
    /// pending-wake flag, sleeping tasks ignore wakes (their timer event
    /// stands), done tasks are never rescheduled.
    pub fn wake(&self, task: usize) {
        let mut inner = self.inner.lock();
        match inner.state_of(task) {
            TaskState::Running => inner.set_pending_wake(task),
            TaskState::Blocked | TaskState::NotStarted => {
                let now = self.clock.now_ns();
                self.push_event(&mut inner, task, now);
            }
            TaskState::Sleeping | TaskState::Done => {}
        }
    }

    /// Wake every blocked task (abort, revoke, kill fan-out). Tasks are
    /// pushed in ascending task order; the seeded tiebreak then fixes the
    /// wake order deterministically.
    pub fn wake_all(&self) {
        let mut inner = self.inner.lock();
        inner.stats.wake_all_calls += 1;
        let now = self.clock.now_ns();
        for task in 0..self.tasks() {
            match inner.state_of(task) {
                TaskState::Running => inner.set_pending_wake(task),
                TaskState::Blocked | TaskState::NotStarted => {
                    self.push_event(&mut inner, task, now);
                }
                TaskState::Sleeping | TaskState::Done => {}
            }
        }
    }

    /// Task exit: dispatch the next event and switch away for good.
    fn finish(&self, task: usize) -> ! {
        let mut inner = self.inner.lock();
        inner.set_state(task, TaskState::Done);
        inner.take_pending_wake(task);
        let next = self.hand_off(inner, task);
        self.switch(task, next);
        // Nothing switches back to a finished task.
        std::process::abort()
    }

    /// `from` yields: decide the next task under `inner` and return the
    /// context to switch to — the thread that called [`Self::run`] when no
    /// task can run. If the heap is dry but tasks are still blocked, fire
    /// the deadlock hook (which wakes them with the abort flag set) and
    /// decide again.
    fn hand_off(&self, mut inner: MutexGuard<'_, Inner>, from: usize) -> usize {
        let mut next = self.dispatch_next(&mut inner, Some(from));
        let deadlocked = next.is_none()
            && inner.state.iter().any(|s| {
                matches!(
                    s,
                    TaskState::Blocked | TaskState::Sleeping | TaskState::NotStarted
                )
            });
        drop(inner);
        if deadlocked {
            {
                // Scoped so the hook lock is released before `inner` is
                // retaken: the hook itself re-enters the scheduler
                // (router.abort → wake_all → inner), so `deadlock_hook`
                // must never be held around an `inner` acquisition.
                let hook = self.deadlock_hook.lock();
                if let Some(hook) = hook.as_ref() {
                    hook();
                }
            }
            // The hook's wakes (router.abort → wake_all) refilled the heap,
            // and the probe now sees the abort flag.
            next = self.dispatch_next(&mut self.inner.lock(), Some(from));
        }
        next.unwrap_or(self.tasks())
    }

    /// Pop the earliest event whose task can run, advance the clock to it
    /// and mark the task `Running` (`from` is the task yielding, if any).
    /// The caller switches to the returned task once it has dropped
    /// `inner`. `None` when the heap is empty.
    fn dispatch_next(&self, inner: &mut Inner, from: Option<usize>) -> Option<usize> {
        while let Some(Reverse(ev)) = inner.heap.pop() {
            if let Some(q) = inner.queued.get_mut(ev.task) {
                *q = false;
            }
            match inner.state_of(ev.task) {
                TaskState::Done => {
                    inner.stats.stale_skipped += 1;
                    continue; // stale wake for a task that exited meanwhile
                }
                // The wake was for another tag, source or communicator: the
                // task stays `Blocked` and the next wake re-queues it.
                TaskState::Blocked if !self.ready(ev.task) => {
                    inner.stats.unready_skipped += 1;
                    continue;
                }
                _ => {}
            }
            if from == Some(ev.task) {
                inner.stats.self_dispatches += 1;
            } else {
                inner.stats.handoffs += 1;
            }
            let now = self.clock.now_ns();
            if ev.t_ns > now {
                self.clock.advance(ev.t_ns - now);
            }
            inner.set_state(ev.task, TaskState::Running);
            return Some(ev.task);
        }
        None
    }

    /// Whether a `Blocked` task would do anything but yield again (true
    /// without a probe, and for every wait that registers nothing).
    fn ready(&self, task: usize) -> bool {
        self.ready_probe.read().as_ref().is_none_or(|p| p(task))
    }

    fn push_event(&self, inner: &mut Inner, task: usize, t_ns: u64) {
        // An unknown task id is unreachable (ids are rank numbers below
        // `tasks`), but treated as already-queued rather than a panic: the
        // scheduler runs on recovery paths, where a panic would turn a
        // survivable fault into an unsurvivable one.
        if inner.queued.get(task).copied().unwrap_or(true) {
            return;
        }
        let seq = inner.seq;
        inner.seq += 1;
        inner.heap.push(Reverse(Event {
            t_ns,
            key: tiebreak(self.seed, seq, task as u64),
            seq,
            task,
        }));
        if let Some(q) = inner.queued.get_mut(task) {
            *q = true;
        }
        inner.stats.peak_heap_depth = inner.stats.peak_heap_depth.max(inner.heap.len() as u64);
    }

    /// Switch from context `from` to context `to` (task ids, or
    /// [`Self::tasks`] for the thread that called [`Self::run`]), carrying
    /// each side's task-locals; returns when something switches back to
    /// `from`. Called with no lock held, which the witness checks.
    fn switch(&self, from: usize, to: usize) {
        if from == to {
            return;
        }
        parking_lot::assert_no_locks_held();
        let (Some(save), Some(target)) = (self.contexts.get(from), self.contexts.get(to)) else {
            return;
        };
        // Read only by a task's first switch-in: its start record.
        let start = self.starts.load(Ordering::Relaxed).wrapping_add(to);
        let locals = TaskLocals::take();
        // SAFETY: `target` holds the context `to` left when it last
        // switched away, or its entry context (`run` prepared it); either
        // way it has not been resumed since, because only the running
        // context switches and each switch stores the switcher's own slot.
        // Its stack stays mapped until `run` returns, which is after every
        // task is done. `save` is this context's own slot.
        unsafe { task::switch(save.as_ptr(), target.load(Ordering::Relaxed), start.cast()) };
        locals.restore();
    }
}

/// Where every task starts: run the body, then finish.
///
/// # Safety
///
/// `start` is the task's [`Start`] record, alive until the task is done.
unsafe extern "C" fn task_entry(start: *const u8) -> ! {
    // SAFETY: `Scheduler::switch` passes the start record of the task it
    // enters, and `run` holds every record, its scheduler and its body
    // until all tasks are done, which includes this one.
    let (sched, body, task) = unsafe {
        let start = &*start.cast::<Start>();
        (
            &*start.sched,
            *start.body.cast::<&dyn Fn(usize)>(),
            start.task,
        )
    };
    // The body handles its own panics; this one keeps any other from
    // unwinding off the top of the stack.
    let _ = std::panic::catch_unwind(AssertUnwindSafe(|| body(task)));
    sched.finish(task)
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("tasks", &self.tasks())
            .field("seed", &self.seed)
            .finish()
    }
}

/// Threads-backend predicate wait: park on `cv` with a bounded timeout so
/// missed wakeups degrade to a re-check instead of a hang. This is the one
/// blocking site shared by the mailbox and rendezvous waits; under the DES
/// backend those call sites yield to the scheduler instead and this
/// function is never reached.
#[expect(
    clippy::disallowed_methods,
    reason = "the threads engine's mailbox and rendezvous wait"
)]
pub fn park_on<T>(cv: &Condvar, guard: &mut MutexGuard<'_, T>) {
    cv.wait_for(guard, Duration::from_millis(250));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    fn sched(tasks: usize, seed: u64) -> Arc<Scheduler> {
        Scheduler::new(tasks, seed, Arc::new(Clock::virtual_at(0)))
    }

    #[test]
    fn tiebreak_is_pure() {
        assert_eq!(tiebreak(1, 2, 3), tiebreak(1, 2, 3));
        assert_ne!(tiebreak(1, 2, 3), tiebreak(2, 2, 3));
        assert_ne!(tiebreak(1, 2, 3), tiebreak(1, 3, 3));
    }

    #[test]
    fn event_order_is_time_then_key_then_seq() {
        let a = Event {
            t_ns: 5,
            key: 9,
            seq: 0,
            task: 0,
        };
        let b = Event {
            t_ns: 6,
            key: 0,
            seq: 1,
            task: 1,
        };
        let c = Event {
            t_ns: 5,
            key: 3,
            seq: 2,
            task: 2,
        };
        let mut h = BinaryHeap::new();
        for e in [a, b, c] {
            h.push(Reverse(e));
        }
        assert_eq!(h.pop().unwrap().0.task, 2); // t=5, key=3
        assert_eq!(h.pop().unwrap().0.task, 0); // t=5, key=9
        assert_eq!(h.pop().unwrap().0.task, 1); // t=6
    }

    #[test]
    fn single_task_runs_and_sleeps_in_virtual_time() {
        let s = sched(1, 42);
        let seen = Cell::new(0);
        s.run(&|task| {
            s.sleep(task, Duration::from_millis(7));
            seen.set(s.clock().now_ns());
        })
        .unwrap();
        assert_eq!(seen.get(), 7_000_000);
        assert_eq!(s.clock().now_ns(), 7_000_000);
    }

    #[test]
    fn two_tasks_ping_pong_deterministically() {
        // Task 0 blocks until task 1 wakes it; both finish; the final
        // schedule is a pure function of the seed.
        for _ in 0..8 {
            let s = sched(2, 7);
            let flag = Cell::new(false);
            let order = RefCell::new(Vec::new());
            s.run(&|task| {
                if task == 0 {
                    while !flag.get() {
                        s.yield_blocked(0);
                    }
                } else {
                    s.sleep(1, Duration::from_millis(3));
                    flag.set(true);
                    s.wake(0);
                }
                order.borrow_mut().push(task);
            })
            .unwrap();
            assert_eq!(s.clock().now_ns(), 3_000_000);
            assert_eq!(*order.borrow(), [1, 0]);
        }
    }

    #[test]
    fn deadlock_hook_fires_when_heap_drains() {
        let s = sched(2, 1);
        let released = Arc::new(Mutex::new(false));
        {
            let (s2, released) = (Arc::clone(&s), Arc::clone(&released));
            s.set_deadlock_hook(move || {
                *released.lock() = true;
                s2.wake_all();
            });
        }
        let finished = Cell::new(0);
        s.run(&|task| {
            while !*released.lock() {
                s.yield_blocked(task);
            }
            finished.set(finished.get() + 1);
        })
        .unwrap();
        assert!(*released.lock(), "deadlock hook must fire");
        assert_eq!(finished.get(), 2);
        s.clear_hooks();
    }

    #[test]
    fn a_deadlock_nothing_resolves_is_an_error() {
        let s = sched(2, 1);
        let err = s.run(&|task| s.yield_blocked(task)).unwrap_err();
        assert!(err.to_string().contains("blocked"), "{err}");
    }

    #[test]
    fn a_panicking_task_ends_alone() {
        let s = sched(3, 5);
        let finished = Cell::new(0);
        s.run(&|task| {
            s.sleep(task, Duration::from_millis(1));
            if task == 1 {
                panic!("task 1 fails");
            }
            s.sleep(task, Duration::from_millis(1));
            finished.set(finished.get() + 1);
        })
        .unwrap();
        assert_eq!(finished.get(), 2);
    }

    #[test]
    fn each_task_keeps_its_own_virtual_sleeper() {
        // Every task installs a sleeper that records its id, then sleeps
        // through the cluster's time scale after the others have installed
        // theirs: each call must reach the caller's own hook.
        let s = sched(4, 9);
        let calls = Arc::new(Mutex::new(Vec::new()));
        let driver = cluster::install_virtual_sleeper(Arc::new(|_| {}));
        s.run(&|task| {
            let (s2, calls2) = (Arc::clone(&s), Arc::clone(&calls));
            let _guard = cluster::install_virtual_sleeper(Arc::new(move |d| {
                calls2.lock().push(task);
                s2.sleep(task, d);
            }));
            s.sleep(task, Duration::from_nanos(1));
            cluster::TimeScale::instant().sleep(Duration::from_millis(1 + task as u64));
        })
        .unwrap();
        // The launching thread's own hook was out of the way, and is back.
        let back = cluster::take_virtual_sleeper();
        assert!(back.is_some());
        cluster::put_virtual_sleeper(back);
        drop(driver);
        let mut calls = calls.lock().clone();
        calls.sort_unstable();
        assert_eq!(calls, [0, 1, 2, 3]);
    }
}
