//! Exploration of the DES scheduler's baton (`simmpi::sched`): a hand-off is
//! decided under the scheduler lock and granted with no lock held — the
//! token set, its cell unlocked, then the notify. That opens two windows
//! the old "notify under both locks" grant did not have: the grantee can
//! run (and hand the baton straight back) before the granter has parked on
//! its own cell, and a grant can land before its grantee has parked at all
//! (`wait_for_start` relies on that one at every launch). The token cells
//! must make both benign: under every in-bound interleaving no grant is
//! lost, the two tasks are never both parked, and rank code never runs on
//! two threads at once. A lost token shows as the model runtime's deadlock
//! report, an extra one as the `running` assertion.
//!
//! Two tasks — the main task is task 0, a spawned one is task 1 — drive the
//! real `Scheduler`; every lock acquisition, condvar wait and notify in it
//! is a schedule point.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cluster::Clock;
use modelcheck::Explorer;
use simmpi::Scheduler;

/// Rounds of wake-the-peer-then-yield each task plays before it exits.
const ROUNDS: usize = 2;

/// What the two tasks of one launch share beside the scheduler. Plain std
/// atomics: observations, not schedule points.
struct Watch {
    /// Threads in rank code.
    running: AtomicUsize,
    /// The task `start` granted first.
    first: AtomicUsize,
}

/// The body of one task: take the first baton, bounce it `ROUNDS` times,
/// hand it over for good.
fn play(s: &Scheduler, watch: &Watch, me: usize) {
    let enter = || {
        assert_eq!(
            watch.running.fetch_add(1, Ordering::SeqCst),
            0,
            "two batons"
        )
    };
    let leave = || watch.running.fetch_sub(1, Ordering::SeqCst);
    s.wait_for_start(me);
    enter();
    let _ = watch
        .first
        .compare_exchange(usize::MAX, me, Ordering::SeqCst, Ordering::SeqCst);
    for _ in 0..ROUNDS {
        // The peer's grant of our next turn can land while we are still
        // between our own grant and our own park.
        s.wake(1 - me);
        leave();
        s.yield_blocked(me);
        enter();
    }
    s.wake(1 - me);
    leave();
    s.finish(me);
}

/// One launch under the model; returns the task granted first (a pure
/// function of the seed).
fn launch(seed: u64) -> usize {
    let s = Scheduler::new(2, seed, Arc::new(Clock::virtual_at(0)));
    let watch = Arc::new(Watch {
        running: AtomicUsize::new(0),
        first: AtomicUsize::new(usize::MAX),
    });
    let (s1, watch1) = (Arc::clone(&s), Arc::clone(&watch));
    let peer = loom::thread::spawn(move || play(&s1, &watch1, 1));
    // The first grant races task 1's first park, and always runs ahead of
    // task 0's (this thread parks only after `start` returns).
    s.start();
    play(&s, &watch, 0);
    peer.join().unwrap();
    let st = s.stats();
    assert_eq!(st.handoffs + st.self_dispatches, 2 * (ROUNDS as u64 + 1));
    assert_eq!(st.stale_skipped + st.unready_skipped, 0);
    watch.first.load(Ordering::SeqCst)
}

#[test]
fn grant_outside_the_locks_never_loses_or_doubles_the_baton() {
    // Enough seeds that `start` grants each task first at least once: the
    // grant that races a spawned task's park, and the one that precedes the
    // launching thread's own.
    let mut firsts = BTreeSet::new();
    for seed in 0..3 {
        let first = AtomicUsize::new(usize::MAX);
        let report = Explorer::with_bound(2)
            .from_env()
            .check("baton hand-off", || {
                first.store(launch(seed), Ordering::SeqCst)
            });
        assert!(report.exhaustive, "expected exhaustive DFS: {report:?}");
        assert_eq!(report.truncated, 0);
        assert!(report.executions > 1, "must explore more than one schedule");
        firsts.insert(first.into_inner());
    }
    assert_eq!(firsts, BTreeSet::from([0, 1]));
}
