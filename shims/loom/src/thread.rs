//! Thread facade: `spawn`/`Builder`/`JoinHandle` that create controlled
//! tasks inside a model run and plain `std` threads outside one.
//!
//! Also hosts the [`fail_next_spawn`] test hook, which makes the next
//! `Builder::spawn` on this thread return an `io::Error` — the only portable
//! way to exercise spawn-failure degradation paths (veloc falls back to
//! synchronous flushing).

use std::cell::Cell;
use std::io;
use std::sync::{Arc, Condvar, Mutex};

use crate::rt;

thread_local! {
    static FAIL_NEXT_SPAWN: Cell<bool> = const { Cell::new(false) };
}

/// Make the next [`Builder::spawn`] (or [`spawn`]) on the calling thread
/// fail with an `io::Error` instead of creating a thread. Test hook for
/// spawn-failure degradation paths.
pub fn fail_next_spawn() {
    FAIL_NEXT_SPAWN.with(|f| f.set(true));
}

struct ResultCell<T> {
    slot: Mutex<Option<std::thread::Result<T>>>,
    cv: Condvar,
}

enum Inner<T> {
    Std(std::thread::JoinHandle<T>),
    Model(Arc<ResultCell<T>>),
}

pub struct JoinHandle<T>(Inner<T>);

impl<T: Send + 'static> JoinHandle<T> {
    /// Wait for the thread to finish, returning its result (`Err` carries
    /// the panic payload, as with `std`).
    pub fn join(self) -> std::thread::Result<T> {
        match self.0 {
            #[expect(clippy::disallowed_methods, reason = "join is this type's contract")]
            Inner::Std(h) => h.join(),
            Inner::Model(cell) => {
                let c = Arc::clone(&cell);
                // Modeled join: block until the result lands. On detach this
                // returns immediately and the real condvar below takes over.
                let _ = rt::block_until(Box::new(move || c.slot.lock().unwrap().is_some()), false);
                let mut slot = cell.slot.lock().unwrap();
                loop {
                    if let Some(r) = slot.take() {
                        return r;
                    }
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "the detached modeled join, bounded by task completion"
                    )]
                    let woken = cell.cv.wait(slot);
                    slot = woken.unwrap();
                }
            }
        }
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JoinHandle(..)")
    }
}

/// Mirror of `std::thread::Builder` (name only).
#[derive(Debug, Default)]
pub struct Builder {
    name: Option<String>,
}

impl Builder {
    #[must_use]
    pub fn new() -> Builder {
        Builder { name: None }
    }

    #[must_use]
    pub fn name(mut self, name: String) -> Builder {
        self.name = Some(name);
        self
    }

    pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if FAIL_NEXT_SPAWN.with(|x| x.replace(false)) {
            return Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                "thread spawn failure injected by loom::thread::fail_next_spawn",
            ));
        }
        if rt::is_modeled() {
            let cell = Arc::new(ResultCell {
                slot: Mutex::new(None),
                cv: Condvar::new(),
            });
            let cell2 = Arc::clone(&cell);
            let spawned = rt::spawn_controlled(
                self.name,
                Box::new(move || {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                        Ok(v) => {
                            *cell2.slot.lock().unwrap() = Some(Ok(v));
                            cell2.cv.notify_all();
                        }
                        Err(p) => {
                            // Publish a stringified payload so joiners never
                            // hang, then re-throw so the runtime records the
                            // task failure with its schedule.
                            let msg: Box<dyn std::any::Any + Send> =
                                Box::new(rt::panic_message(p.as_ref()));
                            *cell2.slot.lock().unwrap() = Some(Err(msg));
                            cell2.cv.notify_all();
                            std::panic::resume_unwind(p);
                        }
                    }
                }),
            );
            if spawned {
                return Ok(JoinHandle(Inner::Model(cell)));
            }
            // Raced with detach: fall through to a real thread.
            unreachable!("is_modeled() held but spawn_controlled refused");
        }
        let mut b = std::thread::Builder::new();
        if let Some(n) = &self.name {
            b = b.name(n.clone());
        }
        // The modeled branch consumed `f` in its closure; keep the two arms
        // exclusive so the plain branch still owns `f`.
        #[expect(
            clippy::disallowed_methods,
            reason = "this shim is the workspace's OS-thread seam"
        )]
        b.spawn(f).map(|h| JoinHandle(Inner::Std(h)))
    }
}

/// `std::thread::spawn`, routed through the model when one is active.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    Builder::new().spawn(f).expect("failed to spawn thread")
}

/// A schedule point with no memory effect (`std::thread::yield_now`).
pub fn yield_now() {
    rt::yield_point();
    std::thread::yield_now();
}
