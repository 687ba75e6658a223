//! Offline stand-in for the `loom` model-checking facade.
//!
//! The real `loom` crate re-executes a closure under an exhaustively
//! enumerated scheduler, with shimmed `loom::sync` / `loom::thread` types
//! standing in for `std`'s. The container that grows this repo has no
//! registry access, so this shim rebuilds the part of that idea the
//! workspace needs, in the same shape:
//!
//! - [`sync::atomic`] and [`thread`] export drop-in facades over `std` that
//!   production crates (veloc, simmpi) use directly. Outside a
//!   model run every operation costs one extra thread-local read.
//! - [`rt`] is the deterministic-execution runtime: one token, one runnable
//!   task at a time, a pluggable [`rt::Scheduler`] consulted at every
//!   intercepted operation. The workspace's `parking_lot` shim hooks into
//!   it too, so locks and condvars are modeled without the production
//!   crates changing at all.
//! - `crates/modelcheck` drives [`rt::run_one`] with bounded-DFS and
//!   seeded-random schedulers to explore interleavings; see that crate for
//!   the exploration logic and the protocol test suites.
//!
//! Unlike the real loom this shim does not model weak memory (interleavings
//! are explored under sequential consistency) and does not checkpoint
//! `UnsafeCell` accesses; see DESIGN.md §9 for how the gap is covered.

pub mod rt;
pub mod thread;

pub mod sync {
    //! `loom::sync`: atomics (modeled) and `Arc` (passthrough).
    pub mod atomic {
        pub use crate::atomic::*;
    }
    pub use std::sync::Arc;
}

mod atomic;

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};

    // Passthrough behavior: outside a model run the facades are plain std.
    #[test]
    fn atomics_pass_through_outside_model() {
        let a = AtomicU64::new(1);
        assert_eq!(a.fetch_add(2, Ordering::SeqCst), 1);
        assert_eq!(a.load(Ordering::SeqCst), 3);
        assert_eq!(a.swap(9, Ordering::SeqCst), 3);
        assert_eq!(
            a.compare_exchange(9, 11, Ordering::SeqCst, Ordering::SeqCst),
            Ok(9)
        );
    }

    #[test]
    fn threads_pass_through_outside_model() {
        let h = crate::thread::spawn(|| 41 + 1);
        assert_eq!(h.join().unwrap(), 42);
    }

    #[test]
    fn fail_next_spawn_injects_error_once() {
        crate::thread::fail_next_spawn();
        assert!(crate::thread::Builder::new().spawn(|| ()).is_err());
        assert!(crate::thread::Builder::new().spawn(|| ()).is_ok());
    }

    // A minimal in-model smoke test with a trivial scheduler: always run the
    // lowest-id runnable task. The full exploration machinery lives in
    // crates/modelcheck; this just proves the token machine turns over.
    struct Fifo;
    impl crate::rt::Scheduler for Fifo {
        fn pick(
            &mut self,
            runnable: &[crate::rt::TaskId],
            _c: Option<crate::rt::TaskId>,
        ) -> crate::rt::TaskId {
            runnable[0]
        }
    }

    #[test]
    fn model_run_serializes_spawned_tasks() {
        let report = crate::rt::run_one(Box::new(Fifo), 10_000, || {
            let a = std::sync::Arc::new(AtomicU64::new(0));
            let a2 = std::sync::Arc::clone(&a);
            let h = crate::thread::spawn(move || {
                a2.fetch_add(1, Ordering::SeqCst);
            });
            a.fetch_add(1, Ordering::SeqCst);
            h.join().unwrap();
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
        assert!(
            report.failure.is_none(),
            "unexpected failure: {:?}",
            report.failure
        );
        assert!(!report.truncated);
        assert!(report.steps > 0);
        assert_eq!(report.task_names.len(), 2);
    }

    #[test]
    fn model_run_reports_task_panic_as_failure() {
        let report = crate::rt::run_one(Box::new(Fifo), 10_000, || {
            let h = crate::thread::spawn(|| panic!("boom in task"));
            let _ = h.join();
        });
        let msg = report.failure.expect("panic must surface as failure");
        assert!(msg.contains("boom in task"), "got: {msg}");
    }
}
