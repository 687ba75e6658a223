//! Self-tests of the exploration machinery itself: known-racy and
//! known-deadlocking programs must be caught, clean programs must pass
//! exhaustively, and everything must be deterministic for a fixed seed.

use std::sync::Arc;

use loom::sync::atomic::{AtomicU64, Ordering};
use modelcheck::Explorer;
use parking_lot::Mutex;

/// Classic lost update: two tasks do a non-atomic read-modify-write. A
/// single preemption between the load and the store loses one increment.
#[test]
fn finds_lost_update_with_one_preemption() {
    let failure = Explorer::with_bound(1).explore_expect_failure("lost update", || {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let t = loom::thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = counter.load(Ordering::SeqCst);
        counter.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
    });
    assert!(
        failure.message.contains("lost update"),
        "got: {}",
        failure.message
    );
    assert!(!failure.schedule.is_empty());
}

/// The same program with an atomic RMW is correct — and the exploration
/// must prove it exhaustively within the bound.
#[test]
fn atomic_increment_is_clean_and_exhaustive() {
    let report = Explorer::with_bound(2).check("atomic increment", || {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let t = loom::thread::spawn(move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        counter.fetch_add(1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    });
    assert!(report.exhaustive, "expected exhaustive DFS, got {report:?}");
    assert!(report.executions > 1, "must explore more than one schedule");
    assert_eq!(report.truncated, 0);
}

/// ABBA lock ordering: one preemption between the two acquires deadlocks.
/// The runtime must detect it (no runnable task) rather than hang. Both
/// locks are built at one site, so the parking_lot shim's lock-order
/// witness sees one class and leaves the deadlock to the explorer.
#[test]
fn detects_abba_deadlock() {
    let failure = Explorer::with_bound(1).explore_expect_failure("ABBA deadlock", || {
        let [a, b] = [(); 2].map(|()| Arc::new(Mutex::new(0u32)));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = loom::thread::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock();
        });
        let _ga = a.lock();
        let _gb = b.lock();
        drop(_gb);
        drop(_ga);
        t.join().unwrap();
    });
    assert!(
        failure.message.contains("deadlock"),
        "expected deadlock report, got: {}",
        failure.message
    );
}

/// A condvar consumer with a timed retry loop must terminate: the timeout
/// is promoted only when nothing else can run, and the notify wakes it.
#[test]
fn condvar_handoff_is_clean() {
    let report = Explorer::with_bound(2).check("condvar handoff", || {
        let state = Arc::new((Mutex::new(false), parking_lot::Condvar::new()));
        let s2 = Arc::clone(&state);
        let t = loom::thread::spawn(move || {
            let (m, cv) = &*s2;
            *m.lock() = true;
            cv.notify_all();
        });
        let (m, cv) = &*state;
        let mut done = m.lock();
        while !*done {
            cv.wait_for(&mut done, std::time::Duration::from_millis(250));
        }
        drop(done);
        t.join().unwrap();
    });
    assert!(report.exhaustive);
    assert_eq!(report.truncated, 0);
}

/// Exploration is deterministic: same program, same knobs, same seed →
/// identical execution counts and failure schedule.
#[test]
fn exploration_is_deterministic_for_a_seed() {
    let run = || {
        let mut ex = Explorer::with_bound(1);
        ex.seed = 42;
        ex.explore(|| {
            let counter = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&counter);
            let t = loom::thread::spawn(move || {
                let v = c2.load(Ordering::SeqCst);
                c2.store(v + 1, Ordering::SeqCst);
            });
            let v = counter.load(Ordering::SeqCst);
            counter.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(counter.load(Ordering::SeqCst), 2, "lost update");
        })
    };
    let (r1, r2) = (run(), run());
    assert_eq!(r1.executions, r2.executions);
    let (f1, f2) = (r1.failure.unwrap(), r2.failure.unwrap());
    assert_eq!(f1.execution, f2.execution);
    assert_eq!(f1.schedule.len(), f2.schedule.len());
    for (c1, c2) in f1.schedule.iter().zip(f2.schedule.iter()) {
        assert_eq!(c1.chosen, c2.chosen);
        assert_eq!(c1.runnable, c2.runnable);
    }
}
