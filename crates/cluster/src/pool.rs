//! The cluster's buffer pool: the one allocation path of every large
//! checkpoint buffer, recycled within one run.
//!
//! A peer-memory checkpoint builds a frame and its wire shards at every
//! version, and drops the previous version's once the next one commits; a
//! recovering rank decodes its payload into one more. [`Pool::take`] always
//! returns a [`PoolBuf`]: one that has come back, holding its previous
//! user's bytes, or on a miss a fresh one the pool allocates itself. A
//! fresh buffer of at least [`HUGE_PAGE`] bytes is 2 MiB-aligned, and every
//! whole 2 MiB span inside it is advised onto transparent huge pages
//! ([`fresh_plan`]) before its first byte is written, so it faults in one
//! page per 2 MiB instead of one per 4 KiB; a smaller one is a plain
//! allocation. A recycled buffer is memory that is already mapped, and it
//! is not zeroed again, because every writer writes every byte it shares (a
//! frame's meta and payloads, a shard's padding, a decoded row). Debug
//! builds fill every buffer the pool hands out, fresh or recycled, with
//! [`POISON`] instead, so in every debug-build suite a byte a writer leaves
//! unwritten is not a zero that happens to be right. [`Pool::share`]
//! freezes a filled buffer into [`Bytes`] whose owner hands it back when
//! the last handle drops. Only buffers of at least [`MIN_POOLED`] bytes
//! come back; smaller ones cost less to allocate than to lock the pool for.
//!
//! The pool has one owner, the [`crate::Cluster`], and no setting. A lent
//! buffer reaches its pool through a `Weak`, so a buffer is recycled only
//! inside the run that allocated it, and one that outlives its cluster is
//! freed. It never retains more bytes than are outstanding (lent and still
//! held): a buffer coming back past that bound evicts the oldest it
//! retains, so when a run lets go of everything the pool is empty, and
//! when frame sizes drift between versions the stale sizes age out.

use std::alloc::{self, Layout};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut, Range};
use std::ptr::NonNull;
use std::sync::{Arc, Weak};

use bytes::Bytes;
use parking_lot::Mutex;

/// The smallest buffer the pool recycles, in bytes.
const MIN_POOLED: usize = 64 << 10;

/// A transparent huge page on x86-64 and arm64 Linux, in bytes: the
/// alignment of every fresh buffer at least this long.
const HUGE_PAGE: usize = 2 << 20;

/// What every buffer the pool hands out holds in a debug build: every
/// byte a writer fails to overwrite reads `0xA5` rather than a zero or a
/// stale payload byte.
const POISON: u8 = 0xA5;

/// How a fresh buffer of `len` bytes is allocated: its layout, and the
/// prefix advised onto huge pages. At least [`HUGE_PAGE`] bytes, it is
/// aligned to one and the advice covers every whole span inside `[0, len)`
/// and not a byte past it, so nothing is reserved that the writer does not
/// write. Under that it is a plain byte allocation, advised nowhere.
fn fresh_plan(len: usize) -> (Layout, Range<usize>) {
    let align = if len >= HUGE_PAGE { HUGE_PAGE } else { 1 };
    let layout = Layout::from_size_align(len, align).unwrap_or_else(|_| {
        panic!("a pool buffer of {len} bytes exceeds the address space");
    });
    (layout, 0..len / HUGE_PAGE * HUGE_PAGE)
}

/// Ask the kernel to back the whole 2 MiB-aligned spans of `buf`, an
/// allocation nothing has written yet, with transparent huge pages
/// (`madvise(2)`, `MADV_HUGEPAGE`). It is advice only: the bytes are the
/// same either way. The kernel may decline (its THP mode is `never`, or no
/// huge page is free), and a failed call changes nothing, so its result is
/// ignored. Linux only; elsewhere, and under Miri, a no-op.
fn advise_huge_pages(buf: &mut [MaybeUninit<u8>]) {
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        use std::ffi::{c_int, c_void};
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }
        const MADV_HUGEPAGE: c_int = 14;
        let start = buf.as_mut_ptr() as usize;
        let first = start.next_multiple_of(HUGE_PAGE);
        let end = (start + buf.len()) / HUGE_PAGE * HUGE_PAGE;
        if first < end {
            // SAFETY: `[first, end)` lies inside `buf`, which this function
            // borrows mutably, and both ends are page-aligned, as madvise
            // requires. MADV_HUGEPAGE only changes how the kernel backs the
            // range: it neither unmaps it nor reads or writes a byte of it.
            unsafe { madvise(first as *mut c_void, end - first, MADV_HUGEPAGE) };
        }
    }
    #[cfg(not(all(target_os = "linux", not(miri))))]
    let _ = buf;
}

#[cfg(test)]
thread_local! {
    /// Bytes this thread has allocated for pool buffers and not yet freed,
    /// `[plain, 2 MiB-aligned]`, each counted by the layout it was
    /// allocated and freed with.
    static LIVE: std::cell::Cell<[usize; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// Count `layout`'s bytes into or out of [`LIVE`]; nothing outside tests.
fn track(layout: Layout, alloc: bool) {
    #[cfg(test)]
    LIVE.with(|live| {
        let mut v = live.get();
        let class = &mut v[usize::from(layout.align() == HUGE_PAGE)];
        // Wrapping: a buffer another thread allocated may be freed here.
        *class = if alloc {
            class.wrapping_add(layout.size())
        } else {
            class.wrapping_sub(layout.size())
        };
        live.set(v);
    });
    #[cfg(not(test))]
    let _ = (layout, alloc);
}

/// A buffer from [`Pool::take`]: `len` bytes at the start of one
/// allocation, which it frees with the [`Layout`] it was allocated with —
/// a `Vec<u8>` would free a 2 MiB-aligned block as a byte-aligned one.
/// Every byte of the allocation is initialised from the moment it exists.
pub struct PoolBuf {
    /// The allocation; dangling when the layout's size is zero.
    ptr: NonNull<u8>,
    len: usize,
    layout: Layout,
}

// SAFETY: a `PoolBuf` owns its allocation outright, as a `Vec<u8>` does,
// and no other handle to it exists; moving it to another thread moves that
// ownership, and the global allocator frees from any thread.
unsafe impl Send for PoolBuf {}

// SAFETY: through `&PoolBuf` only `&[u8]` is reachable, and a shared byte
// slice may be read from any number of threads.
unsafe impl Sync for PoolBuf {}

impl PoolBuf {
    /// A new allocation of `len` bytes by [`fresh_plan`], advised before
    /// its first write, then filled: zero in a release build, [`POISON`]
    /// in a debug one.
    fn fresh(len: usize) -> PoolBuf {
        let (layout, advised) = fresh_plan(len);
        if len == 0 {
            return PoolBuf::default();
        }
        track(layout, true);
        let fill = if cfg!(debug_assertions) { POISON } else { 0 };
        // A plain zeroed buffer is the allocator's to zero: `calloc` knows
        // when its memory already is. An advised one is zeroed after the
        // advice, which must come before the first write.
        let zeroed = fill == 0 && advised.is_empty();
        // SAFETY: `len` is not zero, so neither is the layout's size.
        let raw = unsafe {
            if zeroed {
                alloc::alloc_zeroed(layout)
            } else {
                alloc::alloc(layout)
            }
        };
        let Some(ptr) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        if !advised.is_empty() {
            // SAFETY: the allocation is valid for `len >= advised.end` bytes
            // and nothing else refers to it; `MaybeUninit` makes no claim
            // about the bytes, which are not written yet.
            let spans = unsafe {
                std::slice::from_raw_parts_mut(ptr.as_ptr().cast::<MaybeUninit<u8>>(), advised.end)
            };
            advise_huge_pages(spans);
        }
        if !zeroed {
            // SAFETY: the allocation is valid for writes of `len` bytes.
            unsafe { std::ptr::write_bytes(ptr.as_ptr(), fill, len) };
        }
        PoolBuf { ptr, len, layout }
    }

    /// The bytes of its allocation: the most it can be taken for again.
    fn capacity(&self) -> usize {
        self.layout.size()
    }
}

/// The empty buffer: no allocation.
impl Default for PoolBuf {
    fn default() -> Self {
        PoolBuf {
            ptr: NonNull::dangling(),
            len: 0,
            layout: Layout::new::<()>(),
        }
    }
}

impl Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `layout.size() >= len` initialised
        // bytes (or dangling, aligned and `len == 0`), and `&self` keeps
        // them from being written.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if self.layout.size() == 0 {
            return;
        }
        track(self.layout, false);
        // SAFETY: `ptr` was allocated by the global allocator with exactly
        // `layout` (`PoolBuf::fresh`) and is freed only here, once.
        unsafe { alloc::dealloc(self.ptr.as_ptr(), self.layout) };
    }
}

/// What the pool has done so far ([`Pool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a recycled buffer.
    pub hits: u64,
    /// Requests of a pooled size that found none.
    pub misses: u64,
    /// Capacity of the buffers waiting to be reused.
    pub retained_bytes: usize,
    /// Capacity of the buffers [`Pool::share`] lent that are still held.
    pub outstanding_bytes: usize,
}

#[derive(Default)]
struct State {
    /// Returned buffers, oldest first.
    free: VecDeque<PoolBuf>,
    stats: PoolStats,
}

impl State {
    /// Take `buf` back, then evict the oldest buffers until the retained
    /// bytes are no more than the outstanding ones. Returns the evicted
    /// buffers, for the caller to free outside the lock.
    fn give_back(&mut self, buf: PoolBuf) -> Vec<PoolBuf> {
        let stats = &mut self.stats;
        stats.outstanding_bytes = stats.outstanding_bytes.saturating_sub(buf.capacity());
        stats.retained_bytes += buf.capacity();
        self.free.push_back(buf);
        let mut evicted = Vec::new();
        while self.stats.retained_bytes > self.stats.outstanding_bytes {
            let Some(old) = self.free.pop_front() else {
                break;
            };
            self.stats.retained_bytes -= old.capacity();
            evicted.push(old);
        }
        evicted
    }

    /// The smallest retained buffer that fits `len`, removed: its capacity
    /// is at least `len` and under twice it.
    fn reuse(&mut self, len: usize) -> Option<PoolBuf> {
        let fits = |b: &PoolBuf| b.capacity() >= len && b.capacity() / 2 < len;
        let best = (self.free.iter().enumerate())
            .filter(|(_, b)| fits(b))
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let Some(buf) = best.and_then(|i| self.free.remove(i)) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        self.stats.retained_bytes -= buf.capacity();
        Some(buf)
    }
}

/// The buffer pool of one cluster ([`crate::Cluster::pool`]).
pub struct Pool {
    state: Arc<Mutex<State>>,
}

impl Pool {
    pub(crate) fn new() -> Self {
        Pool {
            state: Arc::new(Mutex::new(State::default())),
        }
    }

    /// A buffer of `len` bytes. At least [`MIN_POOLED`] long, it is the
    /// smallest retained one that fits (capacity at least `len` and under
    /// twice it), holding what its previous user wrote; failing that, and
    /// for any shorter request, it is fresh ([`fresh_plan`]), zeroed. In a
    /// debug build its bytes are all [`POISON`] either way. The caller
    /// writes every byte it shares.
    pub fn take(&self, len: usize) -> PoolBuf {
        let reused = (len >= MIN_POOLED)
            .then(|| self.state.lock().reuse(len))
            .flatten();
        let Some(mut buf) = reused else {
            return PoolBuf::fresh(len);
        };
        buf.len = len;
        if cfg!(debug_assertions) {
            buf.fill(POISON);
        }
        buf
    }

    /// Freeze `buf` into [`Bytes`] that hand it back to this pool when the
    /// last handle drops. A buffer under [`MIN_POOLED`] is frozen as it is
    /// and freed with its last handle.
    pub fn share(&self, buf: PoolBuf) -> Bytes {
        if buf.capacity() < MIN_POOLED {
            return Bytes::from_owner(buf);
        }
        self.state.lock().stats.outstanding_bytes += buf.capacity();
        Bytes::from_owner(Lent {
            buf,
            pool: Arc::downgrade(&self.state),
        })
    }

    /// Hits, misses, and the bytes retained and outstanding right now.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().stats
    }
}

/// The owner behind a lent buffer's [`Bytes`].
struct Lent {
    buf: PoolBuf,
    pool: Weak<Mutex<State>>,
}

impl AsRef<[u8]> for Lent {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for Lent {
    fn drop(&mut self) {
        // A cluster that is gone takes its pool with it: the buffer is
        // simply freed.
        if let Some(state) = self.pool.upgrade() {
            // Bound to a name, the evicted buffers outlive the guard and are
            // freed after the lock is released.
            let evicted = state.lock().give_back(std::mem::take(&mut self.buf));
            drop(evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};

    const MIB: usize = 1 << 20;

    /// What a buffer from the pool holds before its user writes it, fresh
    /// or recycled from a user that filled it with `byte`: the poison in a
    /// debug build, else zero or that user's bytes.
    fn unwritten(byte: u8) -> u8 {
        if cfg!(debug_assertions) {
            POISON
        } else {
            byte
        }
    }

    fn filled(pool: &Pool, len: usize, byte: u8) -> Bytes {
        let mut buf = pool.take(len);
        assert_eq!(buf.len(), len, "a taken buffer is as long as asked");
        buf.fill(byte);
        pool.share(buf)
    }

    fn live() -> [usize; 2] {
        LIVE.with(|live| live.get())
    }

    #[test]
    fn a_dropped_buffer_serves_the_next_request_unzeroed() {
        let pool = Pool::new();
        // The next version is lent before the previous one is dropped, so
        // the returned buffer is within the retention bound.
        let first = filled(&pool, MIB, 0xAA);
        let at = first.as_ptr();
        let next = filled(&pool, MIB, 0xBB);
        drop(first);
        let again = pool.take(MIB);
        assert_eq!(again.as_ptr(), at, "the returned buffer is reused");
        assert_eq!(again.len(), MIB);
        assert!(again.iter().all(|b| *b == unwritten(0xAA)));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        drop(next);
        // With nothing outstanding, nothing is retained.
        assert_eq!(pool.stats().retained_bytes, 0);
    }

    #[test]
    fn small_buffers_stay_out_of_the_pool() {
        let pool = Pool::new();
        let small = pool.take(MIN_POOLED - 1);
        assert_eq!(small.len(), MIN_POOLED - 1);
        assert!(small.iter().all(|b| *b == unwritten(0)));
        drop(pool.share(small));
        drop(pool.share(pool.take(2048)));
        assert!(pool.take(0).is_empty());
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn only_a_buffer_under_twice_the_request_fits() {
        let pool = Pool::new();
        // A retained buffer is bounded by what is outstanding, so keep one
        // of the same size lent while the other waits.
        let held = filled(&pool, 4 * MIB, 2);
        drop(filled(&pool, 4 * MIB, 3));
        drop(pool.take(MIB));
        assert_eq!(pool.stats().misses, 3, "4 MiB is too large for 1 MiB");
        let taken = pool.take(3 * MIB);
        // Shorter than its previous user: the request's length, and only
        // bytes that user wrote.
        assert_eq!(taken.len(), 3 * MIB);
        assert!(taken.iter().all(|b| *b == unwritten(3)));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.retained_bytes), (1, 3, 0), "{s:?}");
        drop(held);
    }

    #[test]
    fn the_advice_covers_every_whole_huge_page_and_no_byte_past_len() {
        for (len, align, advised) in [
            (0, 1, 0),
            (HUGE_PAGE - 1, 1, 0),
            (HUGE_PAGE, HUGE_PAGE, HUGE_PAGE),
            (HUGE_PAGE + 17, HUGE_PAGE, HUGE_PAGE),
            (16 * MIB + 40, HUGE_PAGE, 16 * MIB),
        ] {
            let (layout, range) = fresh_plan(len);
            assert_eq!((layout.size(), layout.align()), (len, align), "{len}");
            assert_eq!(range, 0..advised, "{len}");
        }
    }

    #[test]
    fn a_fresh_buffer_of_a_huge_page_or_more_is_aligned_to_one() {
        let pool = Pool::new();
        for len in [HUGE_PAGE, HUGE_PAGE + 17, 16 * MIB + 40] {
            let before = live();
            let buf = pool.take(len);
            assert_eq!(buf.as_ptr() as usize % HUGE_PAGE, 0, "{len}");
            assert_eq!((buf.len(), buf.capacity()), (len, len));
            assert_eq!(buf.layout.align(), HUGE_PAGE);
            assert_eq!(live(), [before[0], before[1] + len]);
            assert!(buf.iter().all(|b| *b == unwritten(0)), "{len}");
            drop(buf);
            assert_eq!(live(), before);
        }
    }

    #[test]
    fn a_fresh_buffer_under_a_huge_page_is_plain() {
        let pool = Pool::new();
        for len in [1, MIN_POOLED, MIB, HUGE_PAGE - 1] {
            let before = live();
            let buf = pool.take(len);
            assert_eq!((buf.layout.align(), buf.capacity()), (1, len), "{len}");
            assert!(fresh_plan(len).1.is_empty(), "{len} is advised nowhere");
            assert_eq!(live(), [before[0] + len, before[1]]);
            assert!(buf.iter().all(|b| *b == unwritten(0)), "{len}");
        }
    }

    #[test]
    fn bytes_that_outlive_their_cluster_drop_cleanly() {
        let before = live();
        let cluster = Cluster::new(ClusterConfig::default());
        let lent = filled(cluster.pool(), MIB, 7);
        let huge = filled(cluster.pool(), HUGE_PAGE + 17, 8);
        assert_eq!(huge.as_ptr() as usize % HUGE_PAGE, 0);
        let weak = Arc::downgrade(&cluster.pool().state);
        drop(cluster);
        assert!(weak.upgrade().is_none(), "the pool went with the cluster");
        assert_eq!((lent.len(), huge.len()), (MIB, HUGE_PAGE + 17));
        assert!(lent.iter().all(|b| *b == 7));
        assert!(huge.iter().all(|b| *b == 8));
        assert_eq!(live(), [before[0] + MIB, before[1] + HUGE_PAGE + 17]);
        // Each is freed, by the layout it was allocated with, with its
        // last handle.
        drop(huge);
        assert_eq!(live(), [before[0] + MIB, before[1]]);
        drop(lent);
        assert_eq!(live(), before);
    }

    /// The retention bound, over a run whose frame sizes drift between
    /// versions (MiniMD's do: atoms migrate between ranks). Each version
    /// lends a few buffers, holds them while the next version is built,
    /// then drops them; whatever the interleaving, the pool retains no
    /// more than is outstanding, and nothing once the run lets go.
    #[test]
    fn retained_never_exceeds_outstanding_as_sizes_drift() {
        let pool = Pool::new();
        let mut x = 0x9e37_79b9_u64;
        let mut draw = |below: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % below
        };
        let mut live: VecDeque<Vec<Bytes>> = VecDeque::new();
        for _version in 0..200 {
            let base = MIN_POOLED + draw(3 * MIB as u64) as usize;
            let frames = (0..1 + draw(4))
                .map(|_| filled(&pool, base + draw(4096) as usize, 1))
                .collect();
            live.push_back(frames);
            while live.len() > 1 + draw(3) as usize {
                let mut old = live.pop_front().unwrap_or_default();
                while let Some(frame) = old.pop() {
                    drop(frame);
                    let s = pool.stats();
                    assert!(s.retained_bytes <= s.outstanding_bytes, "{s:?}");
                }
            }
        }
        let s = pool.stats();
        assert!(s.hits > 0, "drifting sizes still reuse: {s:?}");
        live.clear();
        let s = pool.stats();
        assert_eq!((s.retained_bytes, s.outstanding_bytes), (0, 0), "{s:?}");
    }
}
