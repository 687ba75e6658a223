//! Atomic facade: `std::sync::atomic` types whose every access is a model
//! schedule point.
//!
//! Outside a model run each operation is the real `std` atomic op plus one
//! thread-local read — cheap enough to leave in production paths. Inside a
//! model run the runtime serializes tasks, so the op itself executes
//! data-race-free; the yield *before* it is what lets the scheduler
//! interleave other tasks around it. Orderings are passed through verbatim
//! (they are meaningful in production and to Miri; the model itself explores
//! sequentially consistent interleavings only — see DESIGN.md §9).

pub use std::sync::atomic::Ordering;

use crate::rt;

macro_rules! atomic_int {
    ($name:ident, $std:ident, $int:ty) => {
        #[derive(Debug, Default)]
        pub struct $name(std::sync::atomic::$std);

        impl $name {
            #[must_use]
            pub const fn new(v: $int) -> Self {
                Self(std::sync::atomic::$std::new(v))
            }

            pub fn load(&self, order: Ordering) -> $int {
                rt::yield_point();
                self.0.load(order)
            }

            pub fn store(&self, v: $int, order: Ordering) {
                rt::yield_point();
                self.0.store(v, order);
            }

            pub fn swap(&self, v: $int, order: Ordering) -> $int {
                rt::yield_point();
                self.0.swap(v, order)
            }

            pub fn fetch_add(&self, v: $int, order: Ordering) -> $int {
                rt::yield_point();
                self.0.fetch_add(v, order)
            }

            pub fn fetch_sub(&self, v: $int, order: Ordering) -> $int {
                rt::yield_point();
                self.0.fetch_sub(v, order)
            }

            pub fn fetch_or(&self, v: $int, order: Ordering) -> $int {
                rt::yield_point();
                self.0.fetch_or(v, order)
            }

            pub fn fetch_max(&self, v: $int, order: Ordering) -> $int {
                rt::yield_point();
                self.0.fetch_max(v, order)
            }

            pub fn compare_exchange(
                &self,
                current: $int,
                new: $int,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$int, $int> {
                rt::yield_point();
                self.0.compare_exchange(current, new, success, failure)
            }

            pub fn get_mut(&mut self) -> &mut $int {
                self.0.get_mut()
            }

            pub fn into_inner(self) -> $int {
                self.0.into_inner()
            }
        }
    };
}

atomic_int!(AtomicU32, AtomicU32, u32);
atomic_int!(AtomicU64, AtomicU64, u64);
atomic_int!(AtomicUsize, AtomicUsize, usize);
atomic_int!(AtomicI64, AtomicI64, i64);

#[derive(Debug, Default)]
pub struct AtomicBool(std::sync::atomic::AtomicBool);

impl AtomicBool {
    #[must_use]
    pub const fn new(v: bool) -> Self {
        Self(std::sync::atomic::AtomicBool::new(v))
    }

    pub fn load(&self, order: Ordering) -> bool {
        rt::yield_point();
        self.0.load(order)
    }

    pub fn store(&self, v: bool, order: Ordering) {
        rt::yield_point();
        self.0.store(v, order);
    }

    pub fn swap(&self, v: bool, order: Ordering) -> bool {
        rt::yield_point();
        self.0.swap(v, order)
    }

    pub fn fetch_or(&self, v: bool, order: Ordering) -> bool {
        rt::yield_point();
        self.0.fetch_or(v, order)
    }

    pub fn compare_exchange(
        &self,
        current: bool,
        new: bool,
        success: Ordering,
        failure: Ordering,
    ) -> Result<bool, bool> {
        rt::yield_point();
        self.0.compare_exchange(current, new, success, failure)
    }

    pub fn get_mut(&mut self) -> &mut bool {
        self.0.get_mut()
    }

    pub fn into_inner(self) -> bool {
        self.0.into_inner()
    }
}
