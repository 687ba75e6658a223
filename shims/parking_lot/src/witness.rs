//! The lock-order witness and its no-blocking scopes (crate docs).
//! Without `debug_assertions` its types are zero-sized and its calls
//! no-ops.

#[cfg(debug_assertions)]
pub use on::*;

#[cfg(not(debug_assertions))]
pub use off::*;

#[cfg(not(debug_assertions))]
mod off {
    use std::marker::PhantomData;

    pub(crate) struct Class;
    pub(crate) struct Held;

    impl Class {
        pub(crate) const fn here() -> Class {
            Class
        }
        pub(crate) fn lock(&self, _waits: bool) -> Held {
            Held
        }
        pub(crate) fn assert_waits_holding_only_this(&self) {}
    }

    /// Checks nothing without `debug_assertions`.
    pub fn assert_no_locks_held() {}

    /// Checks nothing without `debug_assertions`.
    pub fn assert_may_block() {}

    /// Zero-sized without `debug_assertions`.
    #[must_use = "the scope ends when this guard drops"]
    pub struct NoBlocking(PhantomData<*const ()>);

    /// Enters nothing without `debug_assertions`.
    pub fn no_blocking() -> NoBlocking {
        NoBlocking(PhantomData)
    }
}

#[cfg(debug_assertions)]
mod on {
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::marker::PhantomData;
    use std::panic::Location;
    use std::sync::{LazyLock, Mutex as StdMutex, MutexGuard as StdGuard, OnceLock};

    type Site = &'static Location<'static>;

    /// A lock's class: the site that built it, interned on first use.
    pub(crate) struct Class {
        site: Site,
        id: OnceLock<u32>,
    }

    /// A held class, popped from the thread's stack when its guard drops.
    pub(crate) struct Held(u32);

    /// `to` was locked at `taken_at` while the source, locked at `held_at`, was held.
    struct Edge {
        to: u32,
        held_at: Site,
        taken_at: Site,
    }

    /// The class-order graph every thread adds its edges to.
    #[derive(Default)]
    struct Graph {
        ids: HashMap<Location<'static>, u32>,
        sites: Vec<Site>,
        after: Vec<Vec<Edge>>,
    }

    /// A thread's classes held, with where each was locked, the edges it
    /// has already put through the graph, and where each of its open
    /// no-blocking scopes was entered.
    #[derive(Default)]
    struct Thread {
        held: Vec<(u32, Site)>,
        seen: HashSet<(u32, u32)>,
        scopes: Vec<Site>,
    }

    static GRAPH: LazyLock<StdMutex<Graph>> = LazyLock::new(Default::default);

    thread_local! {
        static THREAD: RefCell<Thread> = RefCell::default();
    }

    fn graph() -> StdGuard<'static, Graph> {
        GRAPH.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `f` over this thread's state; `None` once the thread tore it down.
    fn thread<R>(f: impl FnOnce(&mut Thread) -> R) -> Option<R> {
        THREAD.try_with(|t| f(&mut t.borrow_mut())).ok()
    }

    impl Class {
        #[track_caller]
        pub(crate) const fn here() -> Class {
            Class {
                site: Location::caller(),
                id: OnceLock::new(),
            }
        }

        fn id(&self) -> u32 {
            *self.id.get_or_init(|| graph().intern(self.site))
        }

        /// Puts this lock on the thread's stack, first ordering every other
        /// held class before it if the thread `waits` (not a `try_lock`).
        #[track_caller]
        pub(crate) fn lock(&self, waits: bool) -> Held {
            let (to, taken_at) = (self.id(), Location::caller());
            loop {
                // One unseen order at a time, checked outside the borrow of
                // the thread's state: the guards a panic drops pop from it.
                let next = thread(|t| {
                    let unseen =
                        |h: &&(u32, Site)| waits && h.0 != to && !t.seen.contains(&(h.0, to));
                    let next = t.held.iter().find(unseen).copied();
                    if next.is_none() {
                        t.held.push((to, taken_at));
                    }
                    next
                });
                let Some(Some((from, held_at))) = next else {
                    return Held(to);
                };
                let ordered = graph().order(from, to, held_at, taken_at);
                ordered.unwrap_or_else(|cycle| panic!("{cycle}"));
                thread(|t| t.seen.insert((from, to)));
            }
        }

        /// A condvar wait on a guard of this class: the thread may hold
        /// nothing else, since the waker may need it to make progress.
        #[track_caller]
        pub(crate) fn assert_waits_holding_only_this(&self) {
            assert_may_block();
            let id = self.id();
            let other = thread(|t| t.held.iter().rfind(|h| h.0 != id).copied()).flatten();
            if let Some((other, held_at)) = other {
                let built = graph().sites[other as usize];
                panic!(
                    "lock-order witness: {} waits on a condvar while this thread holds \
                     the lock built at {built} (locked at {held_at})",
                    Location::caller(),
                );
            }
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            let top = |t: &mut Thread| t.held.iter().rposition(|&(id, _)| id == self.0);
            thread(|t| top(t).map(|i| t.held.remove(i)));
        }
    }

    impl Graph {
        fn intern(&mut self, site: Site) -> u32 {
            let next = self.sites.len() as u32;
            let id = *self.ids.entry(*site).or_insert(next);
            if id == next {
                self.sites.push(site);
                self.after.push(Vec::new());
            }
            id
        }

        /// Record `from → to` unless it closes a cycle; else describe that.
        fn order(
            &mut self,
            from: u32,
            to: u32,
            held_at: Site,
            taken_at: Site,
        ) -> Result<(), String> {
            if self.after[from as usize].iter().any(|e| e.to == to) {
                return Ok(());
            }
            let edge = Edge {
                to,
                held_at,
                taken_at,
            };
            let Some(back) = self.path(to, from, &mut HashSet::new()) else {
                self.after[from as usize].push(edge);
                return Ok(());
            };
            let mut msg = format!(
                "lock-order witness: cycle between lock classes\n  this thread {}\n  \
                 the opposite order is on record:",
                self.describe(from, &edge)
            );
            for (src, e) in back {
                msg += &format!("\n    {}", self.describe(src, e));
            }
            Err(msg)
        }

        fn describe(&self, from: u32, e: &Edge) -> String {
            format!(
                "holds the lock built at {} (locked at {}), takes the lock built at {} at {}",
                self.sites[from as usize], e.held_at, self.sites[e.to as usize], e.taken_at
            )
        }

        /// The edges of a path `from → … → to`, each with its source class.
        fn path(&self, from: u32, to: u32, seen: &mut HashSet<u32>) -> Option<Vec<(u32, &Edge)>> {
            for e in &self.after[from as usize] {
                if e.to == to {
                    return Some(vec![(from, e)]);
                }
                if seen.insert(e.to) {
                    if let Some(mut rest) = self.path(e.to, to, seen) {
                        rest.insert(0, (from, e));
                        return Some(rest);
                    }
                }
            }
            None
        }
    }

    /// Panics if the calling thread holds any lock or is inside a
    /// no-blocking scope. A call that blocks until a peer acts calls this
    /// first: the peer may need that lock.
    #[track_caller]
    pub fn assert_no_locks_held() {
        assert_may_block();
        if let Some((id, held_at)) = thread(|t| t.held.last().copied()).flatten() {
            let built = graph().sites[id as usize];
            panic!(
                "lock-order witness: {} blocks on a peer while this thread holds \
                 the lock built at {built} (locked at {held_at})",
                Location::caller(),
            );
        }
    }

    /// A no-blocking scope: until the guard drops (on unwind too), every
    /// wait on this thread panics, naming where the scope was entered.
    #[must_use = "the scope ends when this guard drops"]
    pub struct NoBlocking(PhantomData<*const ()>);

    /// Enters a no-blocking scope on this thread. Scopes nest.
    #[track_caller]
    pub fn no_blocking() -> NoBlocking {
        let entered = Location::caller();
        thread(|t| t.scopes.push(entered));
        NoBlocking(PhantomData)
    }

    impl Drop for NoBlocking {
        fn drop(&mut self) {
            thread(|t| t.scopes.pop());
        }
    }

    /// Panics inside a no-blocking scope, naming the innermost scope's
    /// entry site. Every condvar wait and every modeled sleep calls this.
    #[track_caller]
    pub fn assert_may_block() {
        if let Some(entered) = thread(|t| t.scopes.last().copied()).flatten() {
            panic!(
                "lock-order witness: {} blocks inside the no-blocking scope entered at {entered}",
                Location::caller(),
            );
        }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::{assert_may_block, assert_no_locks_held, no_blocking};
    use crate::{Condvar, Mutex, RwLock};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    fn panic_message(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn two_construction_lines_are_two_classes() {
        let a = Mutex::new(0);
        let b = Mutex::new(0);
        drop((a.lock(), b.lock()));
        assert!(panic_message(|| drop((b.lock(), a.lock()))).contains("cycle"));
        // What a hand-written `Default` is for: `#[derive(Default)]`
        // reports its own line for every field, so two locks built by one
        // derive are one class, and nesting them either way is no cycle.
        #[derive(Default)]
        struct Two {
            x: Mutex<u8>,
            y: Mutex<u8>,
        }
        let two = Two::default();
        drop((two.x.lock(), two.y.lock()));
        drop((two.y.lock(), two.x.lock()));
        // Read and write locks of one `RwLock` are one class.
        let rw = RwLock::new(0);
        drop((rw.read(), two.x.lock()));
        assert!(panic_message(|| drop((two.x.lock(), rw.write()))).contains("cycle"));
    }

    #[test]
    fn opposite_orders_on_one_thread_panic_naming_both_sites() {
        let alpha = Mutex::new(0);
        let beta = Mutex::new(0);
        let (ab, ba) = (line!() + 3, line!() + 7);
        {
            let _a = alpha.lock();
            let _b = beta.lock();
        }
        let msg = panic_message(|| {
            let _b = beta.lock();
            let _a = alpha.lock();
        });
        assert!(msg.contains("cycle between lock classes"), "{msg}");
        for line in [ab, ba] {
            assert!(
                msg.contains(&format!("witness.rs:{line}:")),
                "{line}: {msg}"
            );
        }
        // The rejected edge was not recorded: the first order still holds.
        let _a = alpha.lock();
        let _b = beta.lock();
    }

    #[test]
    fn a_held_guard_fails_the_no_lock_assert() {
        let m = Mutex::new(0);
        let held_at = line!() + 2;
        let msg = panic_message(|| {
            let _g = m.lock();
            assert_no_locks_held();
        });
        assert!(msg.contains("blocks on a peer"), "{msg}");
        assert!(msg.contains(&format!("witness.rs:{held_at}:")), "{msg}");
        assert_no_locks_held();
    }

    #[test]
    fn condvar_wait_under_its_own_guard_does_not_panic() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut g = m.lock();
        cv.wait_for(&mut g, Duration::from_millis(1));
        drop(g);
        assert_no_locks_held();
    }

    #[test]
    fn nesting_two_instances_of_one_class_does_not_panic() {
        let locks: Vec<Mutex<u8>> = (0..2).map(|_| Mutex::new(0)).collect();
        {
            let _a = locks[0].lock();
            let _b = locks[1].lock();
        }
        let _b = locks[1].lock();
        let _a = locks[0].lock();
    }

    #[test]
    fn try_lock_adds_no_edge_into_its_class() {
        let outer = Mutex::new(0);
        let inner = Mutex::new(0);
        {
            let _i = inner.lock();
            let _o = outer.try_lock().expect("uncontended");
        }
        let _o = outer.lock();
        let _i = inner.lock();
    }

    #[test]
    fn a_condvar_wait_holding_another_class_panics() {
        let other = Mutex::new(0);
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let (held_at, waits_at) = (line!() + 2, line!() + 4);
        let msg = panic_message(|| {
            let _o = other.lock();
            let mut g = m.lock();
            cv.wait_for(&mut g, Duration::from_millis(1));
        });
        assert!(
            msg.contains("waits on a condvar while this thread holds"),
            "{msg}"
        );
        assert!(msg.contains(&format!("witness.rs:{held_at}:")), "{msg}");
        assert!(msg.contains(&format!("witness.rs:{waits_at}:")), "{msg}");
    }

    #[test]
    fn a_condvar_wait_inside_a_scope_panics_naming_its_entry() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let entered = line!() + 2;
        let msg = panic_message(|| {
            let _scope = no_blocking();
            let mut g = m.lock();
            cv.wait_for(&mut g, Duration::from_millis(1));
        });
        assert!(msg.starts_with("lock-order witness:"), "{msg}");
        assert!(msg.contains("inside the no-blocking scope"), "{msg}");
        assert!(msg.contains(&format!("witness.rs:{entered}:")), "{msg}");
    }

    #[test]
    fn the_no_lock_assert_inside_a_scope_panics() {
        let entered = line!() + 2;
        let msg = panic_message(|| {
            let _scope = no_blocking();
            assert_no_locks_held();
        });
        assert!(
            msg.contains(&format!("scope entered at {}", file!())),
            "{msg}"
        );
        assert!(msg.contains(&format!("witness.rs:{entered}:")), "{msg}");
    }

    #[test]
    fn scopes_nest_and_end_on_drop_and_on_unwind() {
        let outer = no_blocking();
        let inner_at = line!() + 2;
        {
            let _inner = no_blocking();
            let msg = panic_message(assert_may_block);
            assert!(
                msg.contains(&format!("witness.rs:{inner_at}:")),
                "innermost: {msg}"
            );
        }
        // The inner scope ended; the outer one still holds.
        assert!(panic_message(assert_may_block).contains("no-blocking scope"));
        drop(outer);
        assert_may_block();
        // A scope a panic unwinds through ends with it.
        let _ = panic_message(|| {
            let _scope = no_blocking();
            panic!("unwinding");
        });
        assert_may_block();
        assert_no_locks_held();
    }
}

/// Without `debug_assertions` the scope is zero-sized and checks nothing.
#[cfg(all(test, not(debug_assertions)))]
mod release_tests {
    use super::{assert_may_block, assert_no_locks_held, no_blocking, NoBlocking};

    #[test]
    fn a_release_build_checks_nothing() {
        assert_eq!(std::mem::size_of::<NoBlocking>(), 0);
        let _scope = no_blocking();
        let m = crate::Mutex::new(false);
        let mut g = m.lock();
        assert_may_block();
        crate::Condvar::new().wait_for(&mut g, std::time::Duration::from_millis(1));
        drop(g);
        let _held = m.lock();
        assert_no_locks_held();
    }
}
