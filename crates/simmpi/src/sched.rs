//! Deterministic discrete-event scheduler: virtual-time ranks as
//! cooperative tasks.
//!
//! The thread-per-rank backend runs every rank on a free-running OS thread
//! and burns modeled time as scaled real sleeps; schedules depend on the
//! host's thread interleaving. This module replaces that with a
//! discrete-event simulation (DES) while keeping the rank code — and the
//! whole `Comm`/mailbox API — untouched:
//!
//! * Every rank still runs on its own OS thread, but the threads pass a
//!   **baton**: exactly one task is `Running` at any instant, and control
//!   transfers only at *yield points* (a mailbox wait, a rendezvous wait,
//!   or a modeled sleep routed through [`cluster::install_virtual_sleeper`]).
//!   Rank bodies are therefore resumable state machines whose suspension
//!   points are exactly the sanctioned blocking sites the effects
//!   inventory enumerated.
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
//! clock advance, the next task marked `Running`) and *granted* with no
//! lock held: the granter is the only running thread and is about to park
//! on its own cell, so nothing else can run in between, and the grantee
//! wakes to locks nobody holds — one context switch per hand-off.
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
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use cluster::Clock;

/// Scheduling state of one task (one simulated rank).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Spawned but not yet granted the baton for the first time.
    NotStarted,
    /// Holds the baton.
    Running,
    /// Parked at a predicate wait (mailbox/rendezvous); runnable only once
    /// another task wakes it.
    Blocked,
    /// Parked on a timed event (modeled sleep); wakes are ignored, the
    /// timer event stands.
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

/// Baton hand-off cell for one task: a token the dispatcher grants and the
/// task consumes. Token-based (not bare notify) so a grant that races
/// ahead of the park is never lost.
struct TaskSlot {
    token: Mutex<bool>,
    cv: Condvar,
}

/// What a launch's scheduler did, as plain counts kept under the scheduler
/// lock and read once when the launch ends (`Universe::launch` flushes them
/// into the telemetry registry when a hub is installed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Dispatches that passed the baton to another task's thread: each is
    /// a condvar grant plus a park, i.e. a context switch.
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
    /// A wake arrived while the task held the baton (e.g. a self-send);
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

/// The discrete-event scheduler. One instance per DES launch, shared by
/// the router, the rendezvous table, and every rank thread.
pub struct Scheduler {
    inner: Mutex<Inner>,
    slots: Vec<TaskSlot>,
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
            slots: (0..tasks)
                .map(|_| TaskSlot {
                    token: Mutex::new(false),
                    cv: Condvar::new(),
                })
                .collect(),
            clock,
            seed,
            deadlock_hook: Mutex::new(None),
            ready_probe: RwLock::new(None),
        })
    }

    /// Number of tasks this scheduler drives.
    pub fn tasks(&self) -> usize {
        self.slots.len()
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

    /// Install the question the dispatcher asks before it hands the baton
    /// to a `Blocked` task (the universe installs `Router::would_run`). The
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

    /// Seed a start event for every task at the current virtual time and
    /// dispatch the first one. Called once by the launching thread after
    /// the rank threads are spawned; the token cells make the inherent
    /// grant/park race benign.
    pub fn start(&self) {
        let mut inner = self.inner.lock();
        let now = self.clock.now_ns();
        for task in 0..self.slots.len() {
            self.push_event(&mut inner, task, now);
        }
        let first = self.dispatch_next(&mut inner, None);
        drop(inner);
        self.grant(first);
    }

    /// Rank-thread entry: park until the scheduler grants this task the
    /// baton for the first time.
    pub fn wait_for_start(&self, task: usize) {
        self.park(task);
    }

    /// Yield at a predicate wait (mailbox or rendezvous): release the
    /// baton, dispatch the next event, park until woken. The caller must
    /// re-check its predicate on return — wakes are level-triggered hints,
    /// exactly like condvar wakeups.
    pub fn yield_blocked(&self, task: usize) {
        let mut inner = self.inner.lock();
        inner.set_state(task, TaskState::Blocked);
        if inner.take_pending_wake(task) {
            // A wake landed while we were running (self-send, same-task
            // rendezvous publication): convert it into an immediate event
            // so the baton comes back after any same-time peers.
            let now = self.clock.now_ns();
            self.push_event(&mut inner, task, now);
        }
        self.hand_off(inner, task);
        self.park(task);
    }

    /// Yield for `modeled` of virtual time: schedule our own resumption at
    /// `now + modeled`, dispatch, park. This is the [`cluster`] virtual
    /// sleeper for rank threads — every modeled transfer/startup charge on
    /// a rank path lands here.
    pub fn sleep(&self, task: usize, modeled: Duration) {
        let mut inner = self.inner.lock();
        inner.set_state(task, TaskState::Sleeping);
        let t = self
            .clock
            .now_ns()
            .saturating_add(modeled.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.push_event(&mut inner, task, t);
        self.hand_off(inner, task);
        self.park(task);
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
        for task in 0..self.slots.len() {
            match inner.state_of(task) {
                TaskState::Running => inner.set_pending_wake(task),
                TaskState::Blocked | TaskState::NotStarted => {
                    self.push_event(&mut inner, task, now);
                }
                TaskState::Sleeping | TaskState::Done => {}
            }
        }
    }

    /// Task exit: release the baton for good and dispatch the next event.
    pub fn finish(&self, task: usize) {
        let mut inner = self.inner.lock();
        inner.set_state(task, TaskState::Done);
        inner.take_pending_wake(task);
        self.hand_off(inner, task);
    }

    /// `from` releases the baton: decide the next task under `inner`, grant
    /// it with no lock held. If the heap is dry but tasks are still blocked,
    /// fire the deadlock hook (which wakes them with the abort flag set) and
    /// decide again.
    fn hand_off(&self, mut inner: MutexGuard<'_, Inner>, from: usize) {
        let mut next = self.dispatch_next(&mut inner, Some(from));
        let deadlocked = next.is_none()
            && inner.state.iter().any(|s| {
                matches!(
                    s,
                    TaskState::Blocked | TaskState::Sleeping | TaskState::NotStarted
                )
            });
        // Nobody else can run between this unlock and the grant: `from` is
        // the only running thread and parks (or exits) right after.
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
        self.grant(next);
    }

    /// Pop the earliest event whose task can run, advance the clock to it
    /// and mark the task `Running` (`from` is the task giving the baton up,
    /// if any). The caller grants the returned task once it has dropped
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

    /// Hand the baton to `task` (`None`: every task is done). Called with no
    /// lock held, and the cell's own lock is dropped before the notify, so
    /// the woken thread finds both free. The cell has one waiter by
    /// construction: the task's own thread.
    fn grant(&self, task: Option<usize>) {
        let Some(slot) = task.and_then(|t| self.slots.get(t)) else {
            return;
        };
        *slot.token.lock() = true;
        slot.cv.notify_one();
    }

    /// Wait for the baton.
    fn park(&self, task: usize) {
        let Some(slot) = self.slots.get(task) else {
            return;
        };
        let mut tok = slot.token.lock();
        while !*tok {
            // lint: sanction(blocks): the scheduler baton hand-off — the
            // one place a DES rank thread parks; woken only by a grant
            // from the dispatcher, token-guarded against lost wakeups.
            // audited 2026-08.
            slot.cv.wait(&mut tok);
        }
        *tok = false;
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("tasks", &self.slots.len())
            .field("seed", &self.seed)
            .finish()
    }
}

/// Threads-backend predicate wait: park on `cv` with a bounded timeout so
/// missed wakeups degrade to a re-check instead of a hang. This is the one
/// sanctioned blocking site shared by the mailbox and rendezvous waits;
/// under the DES backend those call sites yield to the scheduler instead
/// and this function is never reached.
pub fn park_on<T>(cv: &Condvar, guard: &mut MutexGuard<'_, T>) {
    // lint: sanction(blocks): bounded condvar wait backing every
    // threads-backend mailbox/rendezvous wait; the DES backend replaces
    // these waits with scheduler yields. audited 2026-08.
    cv.wait_for(guard, Duration::from_millis(250));
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let s2 = Arc::clone(&s);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                s2.wait_for_start(0);
                s2.sleep(0, Duration::from_millis(7));
                assert_eq!(s2.clock().now_ns(), 7_000_000);
                s2.finish(0);
            });
            s.start();
        });
        assert_eq!(s.clock().now_ns(), 7_000_000);
    }

    #[test]
    fn two_tasks_ping_pong_deterministically() {
        // Task 0 blocks until task 1 wakes it; both finish; the final
        // schedule is a pure function of the seed.
        for _ in 0..8 {
            let s = sched(2, 7);
            let flag = Arc::new(Mutex::new(false));
            let (s0, s1) = (Arc::clone(&s), Arc::clone(&s));
            let (f0, f1) = (Arc::clone(&flag), Arc::clone(&flag));
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    s0.wait_for_start(0);
                    while !*f0.lock() {
                        s0.yield_blocked(0);
                    }
                    s0.finish(0);
                });
                scope.spawn(move || {
                    s1.wait_for_start(1);
                    s1.sleep(1, Duration::from_millis(3));
                    *f1.lock() = true;
                    s1.wake(0);
                    s1.finish(1);
                });
                s.start();
            });
            assert_eq!(s.clock().now_ns(), 3_000_000);
        }
    }

    #[test]
    fn deadlock_hook_fires_when_heap_drains() {
        let s = sched(2, 1);
        let fired = Arc::new(Mutex::new(false));
        let released = Arc::new(Mutex::new(false));
        {
            let (s2, fired, released) = (Arc::clone(&s), Arc::clone(&fired), Arc::clone(&released));
            s.set_deadlock_hook(move || {
                *fired.lock() = true;
                *released.lock() = true;
                s2.wake_all();
            });
        }
        let (s0, s1) = (Arc::clone(&s), Arc::clone(&s));
        let (r0, r1) = (Arc::clone(&released), Arc::clone(&released));
        std::thread::scope(|scope| {
            scope.spawn(move || {
                s0.wait_for_start(0);
                while !*r0.lock() {
                    s0.yield_blocked(0);
                }
                s0.finish(0);
            });
            scope.spawn(move || {
                s1.wait_for_start(1);
                while !*r1.lock() {
                    s1.yield_blocked(1);
                }
                s1.finish(1);
            });
            s.start();
        });
        assert!(*fired.lock(), "deadlock hook must fire");
    }
}
