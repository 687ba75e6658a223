//! Offline stand-in for the `parking_lot` crate.
//!
//! The build environment has no access to a crates.io registry, so the
//! workspace vendors the tiny API subset it actually uses, implemented on
//! `std::sync`. Semantics match parking_lot where the codebase relies on
//! them: locks are non-poisoning (a panicked holder does not wedge peers)
//! and `Condvar::wait` takes the guard by `&mut`.
//!
//! # Model-awareness
//!
//! These primitives double as the interception layer for the workspace's
//! deterministic model checker (`shims/loom` + `crates/modelcheck`). Inside
//! a model run ([`loom::rt::is_modeled`]), acquisition is decided by a
//! *model gate* — a lazily allocated atomic owned by the lock — through
//! [`loom::rt::block_until`], so every acquire and every condvar wait is a
//! schedule point the explorer controls, and blocked tasks are visible to
//! its deadlock detector. The `std` primitive underneath is still taken
//! (uncontended, since the gate serializes model tasks), which keeps the
//! data protected even if uncontrolled threads coexist with a model run.
//! Outside a model run, the gate is never allocated and each operation adds
//! one thread-local read to the plain `std` path.
//!
//! Model condvars use an *epoch* counter instead of real parking: `notify_*`
//! bumps the epoch and a modeled `wait` blocks until the epoch moves. A
//! notify is itself a schedule point, so one issued after its mutex was
//! unlocked can be overtaken in that window, as on a real machine. Both
//! `notify_one` and `notify_all` wake every modeled waiter — a legal
//! spurious wakeup under the condvar contract, and one the explorer
//! exploits to exercise waiter re-check loops.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use loom::rt;

/// Acquire a mutex-style model gate. Returns `None` when the calling thread
/// is not (or no longer) part of a model run.
fn gate_acquire(gate: &Arc<AtomicBool>) -> Option<Arc<AtomicBool>> {
    loop {
        let g = Arc::clone(gate);
        match rt::block_until(Box::new(move || !g.load(Ordering::Relaxed)), false) {
            rt::Wake::Detached => return None,
            _ => {
                // We hold the token here, and this swap performs no model
                // yield, so gate checks are atomic w.r.t. other tasks.
                if !gate.swap(true, Ordering::Relaxed) {
                    return Some(Arc::clone(gate));
                }
            }
        }
    }
}

/// Non-poisoning mutex with the parking_lot API.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    gate: OnceLock<Arc<AtomicBool>>,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            gate: OnceLock::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    fn gate(&self) -> &Arc<AtomicBool> {
        self.gate.get_or_init(|| Arc::new(AtomicBool::new(false)))
    }

    fn model_acquire(&self) -> Option<Arc<AtomicBool>> {
        if !rt::is_modeled() {
            return None;
        }
        gate_acquire(self.gate())
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let gate = self.model_acquire();
        MutexGuard {
            lock: self,
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            gate,
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let gate = if rt::is_modeled() {
            rt::yield_point();
            let gate = self.gate();
            if gate.swap(true, Ordering::Relaxed) {
                return None; // a model task holds it
            }
            Some(Arc::clone(gate))
        } else {
            None
        };
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard {
                lock: self,
                inner: Some(g),
                gate,
            }),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                lock: self,
                inner: Some(e.into_inner()),
                gate,
            }),
            Err(std::sync::TryLockError::WouldBlock) => {
                if let Some(g) = gate {
                    g.store(false, Ordering::Relaxed);
                }
                None
            }
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
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
/// std guard out and back through a `&mut` borrow; `gate` records model
/// ownership so drop and condvar release go through the scheduler.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
    gate: Option<Arc<AtomicBool>>,
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the std lock before the model gate so a promoted model
        // waiter finds both free.
        drop(self.inner.take());
        if let Some(g) = self.gate.take() {
            g.store(false, Ordering::Relaxed);
        }
    }
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

/// Reader/writer model gate: at most one writer, else any number of readers.
#[derive(Default)]
struct RwGate {
    writer: AtomicBool,
    readers: AtomicUsize,
}

/// Non-poisoning reader-writer lock with the parking_lot API.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    gate: OnceLock<Arc<RwGate>>,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    pub const fn new(value: T) -> Self {
        RwLock {
            gate: OnceLock::new(),
            inner: std::sync::RwLock::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    fn gate(&self) -> &Arc<RwGate> {
        self.gate.get_or_init(|| Arc::new(RwGate::default()))
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let mut model = None;
        if rt::is_modeled() {
            let gate = Arc::clone(self.gate());
            loop {
                let g = Arc::clone(&gate);
                match rt::block_until(Box::new(move || !g.writer.load(Ordering::Relaxed)), false) {
                    rt::Wake::Detached => break,
                    _ => {
                        if !gate.writer.load(Ordering::Relaxed) {
                            gate.readers.fetch_add(1, Ordering::Relaxed);
                            model = Some(gate);
                            break;
                        }
                    }
                }
            }
        }
        RwLockReadGuard {
            inner: Some(self.inner.read().unwrap_or_else(|e| e.into_inner())),
            gate: model,
        }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let mut model = None;
        if rt::is_modeled() {
            let gate = Arc::clone(self.gate());
            loop {
                let g = Arc::clone(&gate);
                match rt::block_until(
                    Box::new(move || {
                        !g.writer.load(Ordering::Relaxed) && g.readers.load(Ordering::Relaxed) == 0
                    }),
                    false,
                ) {
                    rt::Wake::Detached => break,
                    _ => {
                        if !gate.writer.load(Ordering::Relaxed)
                            && gate.readers.load(Ordering::Relaxed) == 0
                        {
                            gate.writer.store(true, Ordering::Relaxed);
                            model = Some(gate);
                            break;
                        }
                    }
                }
            }
        }
        RwLockWriteGuard {
            inner: Some(self.inner.write().unwrap_or_else(|e| e.into_inner())),
            gate: model,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RwLock").field(&&*self.read()).finish()
    }
}

pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockReadGuard<'a, T>>,
    gate: Option<Arc<RwGate>>,
}

impl<T: ?Sized> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some(g) = self.gate.take() {
            g.readers.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: Option<std::sync::RwLockWriteGuard<'a, T>>,
    gate: Option<Arc<RwGate>>,
}

impl<T: ?Sized> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if let Some(g) = self.gate.take() {
            g.writer.store(false, Ordering::Relaxed);
        }
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

/// Condition variable whose `wait` reacquires through a `&mut` guard,
/// parking_lot style.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
    epoch: OnceLock<Arc<AtomicU64>>,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
            epoch: OnceLock::new(),
        }
    }

    fn epoch(&self) -> &Arc<AtomicU64> {
        self.epoch.get_or_init(|| Arc::new(AtomicU64::new(0)))
    }

    /// Shared wait body; returns whether the wait timed out.
    fn wait_inner<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Option<std::time::Duration>,
    ) -> bool {
        if guard.gate.is_some() && rt::is_modeled() {
            let lock = guard.lock;
            let epoch = Arc::clone(self.epoch());
            let e0 = epoch.load(Ordering::Relaxed);
            // Release: std lock first, then the model gate (mirrors drop).
            drop(guard.inner.take());
            if let Some(g) = guard.gate.take() {
                g.store(false, Ordering::Relaxed);
            }
            let ep = Arc::clone(&epoch);
            let wake = rt::block_until(
                Box::new(move || ep.load(Ordering::Relaxed) != e0),
                timeout.is_some(),
            );
            guard.gate = lock.model_acquire();
            guard.inner = Some(lock.inner.lock().unwrap_or_else(|e| e.into_inner()));
            return wake == rt::Wake::TimedOut;
        }
        let inner = guard.inner.take().expect("guard present");
        match timeout {
            None => {
                // lint: sanction(blocks): condvar wait is this shim's
                // contract; callers carry their own sanctions or fixes.
                // audited 2026-08.
                guard.inner = Some(self.inner.wait(inner).unwrap_or_else(|e| e.into_inner()));
                false
            }
            Some(t) => {
                // lint: sanction(blocks): bounded condvar wait; same shim
                // contract. audited 2026-08.
                let (inner, result) = self
                    .inner
                    .wait_timeout(inner, t)
                    .unwrap_or_else(|e| e.into_inner());
                guard.inner = Some(inner);
                result.timed_out()
            }
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        self.wait_inner(guard, None);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: std::time::Duration,
    ) -> WaitTimeoutResult {
        WaitTimeoutResult(self.wait_inner(guard, Some(timeout)))
    }

    pub fn notify_one(&self) {
        rt::yield_point();
        if let Some(e) = self.epoch.get() {
            e.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        rt::yield_point();
        if let Some(e) = self.epoch.get() {
            e.fetch_add(1, Ordering::Relaxed);
        }
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
