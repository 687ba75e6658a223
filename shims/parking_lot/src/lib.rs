//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to a crates.io registry, so the
//! workspace vendors the tiny API subset it actually uses, implemented on
//! `std::sync`. Semantics match parking_lot where the codebase relies on
//! them: locks are non-poisoning (a panicked holder does not wedge peers)
//! and `Condvar::wait` takes the guard by `&mut`.
//!
//! # Lock-order witness
//!
//! Under `debug_assertions` (every `cargo test`, never `--release`) the
//! locks keep a run-time witness of their acquisition order, after the
//! Linux kernel's lockdep. A lock's class is the line that built it
//! (`#[track_caller]` on `new` and `default`). Taking a lock while the
//! thread holds another class records that order in one global graph; an
//! order that closes a cycle panics with the acquisition sites of both.
//! Nesting within a class, `try_lock` and `Condvar::wait` add no order. A
//! call that blocks until a peer acts first calls [`assert_no_locks_held`];
//! a condvar wait panics if the thread holds a lock of any class but its
//! guard's.
//!
//! Code that must never block (bandwidth-governor reservation math, the
//! telemetry exporters) enters a no-blocking scope, [`no_blocking`]. Until
//! its guard drops, a condvar wait, [`assert_no_locks_held`] or
//! [`assert_may_block`] on that thread panics, naming the scope's entry
//! site. Its messages start `lock-order witness:` like the witness's own.

// No host clock, threads or blocking waits (clippy.toml) and no hash-order
// iteration on a rank's path (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

use std::fmt;
use std::ops::{Deref, DerefMut};

mod witness;
pub use witness::{assert_may_block, assert_no_locks_held, no_blocking, NoBlocking};

/// Non-poisoning mutex with the parking_lot API.
pub struct Mutex<T: ?Sized> {
    class: witness::Class,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        Mutex {
            class: witness::Class::here(),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = self.class.lock(true);
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            _held: held,
        }
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            lock: self,
            inner: Some(inner),
            _held: self.class.lock(false),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

/// Guard for [`Mutex`]. The inner `Option` lets [`Condvar::wait`] move the
/// std guard out and back through a `&mut` borrow.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    _held: witness::Held,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// Non-poisoning reader-writer lock with the parking_lot API.
pub struct RwLock<T: ?Sized> {
    class: witness::Class,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    pub const fn new(value: T) -> Self {
        RwLock {
            class: witness::Class::here(),
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = self.class.lock(true);
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
            _held: held,
        }
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = self.class.lock(true);
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
            _held: held,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    #[cfg_attr(debug_assertions, track_caller)]
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RwLock").field(&&*self.read()).finish()
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockReadGuard<'a, T>,
    _held: witness::Held,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: std::sync::RwLockWriteGuard<'a, T>,
    _held: witness::Held,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Condition variable whose `wait` reacquires through a `&mut` guard,
/// parking_lot style.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Shared wait body; returns whether the wait timed out.
    #[cfg_attr(debug_assertions, track_caller)]
    fn wait_inner<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Option<std::time::Duration>,
    ) -> bool {
        guard.lock.class.assert_waits_holding_only_this();
        let inner = guard.inner.take().expect("guard present");
        match timeout {
            None => {
                #[expect(clippy::disallowed_methods, reason = "this type's wait")]
                let woken = self.inner.wait(inner);
                guard.inner = Some(woken.unwrap_or_else(|e| e.into_inner()));
                false
            }
            Some(t) => {
                #[expect(clippy::disallowed_methods, reason = "this type's timed wait")]
                let (inner, result) = self
                    .inner
                    .wait_timeout(inner, t)
                    .unwrap_or_else(|e| e.into_inner());
                guard.inner = Some(inner);
                result.timed_out()
            }
        }
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_inner(guard, None);
    }

    #[cfg_attr(debug_assertions, track_caller)]
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        WaitTimeoutResult(self.wait_inner(guard, Some(timeout)))
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

/// Result of a timed wait.
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockReadGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLockWriteGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        assert_eq!(*m.lock(), 7, "non-poisoning semantics");
    }

    #[test]
    fn try_lock_contended_returns_none() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
