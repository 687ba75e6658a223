//! The cluster's buffer pool: the one allocation path of every large
//! checkpoint buffer, recycled within one run.
//!
//! A peer-memory checkpoint builds a frame and its wire shards at every
//! version, and drops the previous version's once the next one commits; a
//! recovering rank decodes its payload into one more. [`Pool::take`] always
//! returns a [`PoolBuf`]: one that has come back, or on a miss a fresh one
//! the pool allocates itself. A fresh buffer of at least [`HUGE_PAGE`] bytes
//! is 2 MiB-aligned, and every whole 2 MiB span inside it is advised onto
//! transparent huge pages ([`fresh_plan`]) before its first byte is
//! written, so it faults in one page per 2 MiB, on the writer's first store
//! into each; a smaller one is a plain allocation. Neither is filled: a release build writes no byte of a fresh
//! or recycled buffer before its user does, so each checkpoint byte is
//! written once.
//!
//! A taken buffer is unwritten capacity. Writers see it as
//! `&mut [MaybeUninit<u8>]` ([`Unfilled::fill_with`], [`PoolBuf::fill_each`])
//! and hand back the `&mut [u8]` they wrote, which [`Cursor`] checks is the
//! next stretch of the buffer; only that written prefix reads as bytes, and
//! [`Pool::share`] freezes a buffer into [`Bytes`] only once every byte of
//! it is written ([`assert_all_written`]). Debug builds still fill every
//! buffer the pool hands out, fresh or recycled, with [`POISON`], so a
//! kernel that claims a byte it never stored reads `0xA5` in every
//! debug-build suite rather than a zero or a stale payload byte. The
//! owner behind a shared buffer hands it back when the last handle drops.
//! Only buffers of at least [`MIN_POOLED`] bytes come back; smaller ones
//! cost less to allocate than to lock the pool for.
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

/// Panics unless all `len` bytes of a buffer are written: the one check
/// between unwritten capacity and bytes a reader sees whole
/// ([`Cursor::finish`], [`Pool::share`]).
fn assert_all_written(written: usize, len: usize) {
    assert!(
        written == len,
        "{written} of {len} bytes written: a writer left part of a buffer unwritten"
    );
}

/// The bytes `pieces` cover, end to end from `start`, in at most `room`
/// bytes. Panics unless each non-empty piece starts where the one before
/// it ended (the first at `start`) and the last ends inside the room: a
/// writer hands back only what it wrote of the bytes it was lent, in order.
fn tiled<'p>(start: *const u8, room: usize, pieces: impl IntoIterator<Item = &'p [u8]>) -> usize {
    let mut n = 0;
    for piece in pieces.into_iter().filter(|p| !p.is_empty()) {
        assert!(
            piece.as_ptr() == start.wrapping_add(n) && piece.len() <= room - n,
            "a writer returned bytes other than the next ones it was lent"
        );
        n += piece.len();
    }
    n
}

/// Unwritten bytes, written front to back: the one place where memory no
/// byte of which is known to be initialised becomes `[u8]`.
///
/// A piece joins the written prefix either by a copy ([`Cursor::put`],
/// [`Cursor::put_bytes`]) or as the `&mut [u8]` a writer made of the
/// `&mut [MaybeUninit<u8>]` it was lent ([`Cursor::put_with`],
/// [`Cursor::put_pieces`]), which must start where the written bytes end
/// ([`tiled`]). [`Cursor::finish`] returns the whole buffer as bytes once
/// every byte is written. A writer that fills its output in several pieces
/// (a copy block by block, a shard and its padding, decoded rows) returns
/// its output through one.
pub struct Cursor<'a> {
    buf: &'a mut [MaybeUninit<u8>],
    /// Bytes `[0, written)` of `buf` are initialised.
    written: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`, nothing written.
    pub fn new(buf: &'a mut [MaybeUninit<u8>]) -> Self {
        Cursor { buf, written: 0 }
    }

    /// Bytes not yet written.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.written
    }

    /// Copy `src` into the next bytes and return them.
    ///
    /// # Panics
    /// If `src` is longer than what remains.
    pub fn put(&mut self, src: &[u8]) -> &mut [u8] {
        let (at, remaining) = (self.written, self.remaining());
        let Some(dst) = self.buf.get_mut(at..at + src.len()) else {
            panic!("{} bytes put where {remaining} remain", src.len());
        };
        self.written = at + src.len();
        dst.write_copy_of_slice(src)
    }

    /// Write `n` copies of `byte` next.
    ///
    /// # Panics
    /// If `n` is more than what remains.
    pub fn put_bytes(&mut self, byte: u8, n: usize) {
        let block = [byte; 256];
        let mut left = n;
        while left > 0 {
            let k = left.min(block.len());
            self.put(block.get(..k).unwrap_or_default());
            left -= k;
        }
    }

    /// Lend `write` the unwritten rest; the piece of it `write` returns,
    /// from its start, joins the written bytes. Returns `write`'s result.
    pub fn put_with<R>(
        &mut self,
        write: impl for<'b> FnOnce(&'b mut [MaybeUninit<u8>]) -> (&'b mut [u8], R),
    ) -> R {
        let rest = self.buf.get_mut(self.written..).unwrap_or_default();
        let (start, room) = (rest.as_ptr().cast::<u8>(), rest.len());
        let (piece, r) = write(rest);
        self.written += tiled(start, room, [&*piece]);
        r
    }

    /// [`Cursor::put_with`] for a writer that returns what it wrote in
    /// pieces, in order: each must start where the one before ended.
    pub fn put_pieces<R>(
        &mut self,
        write: impl for<'b> FnOnce(&'b mut [MaybeUninit<u8>]) -> (Vec<&'b mut [u8]>, R),
    ) -> R {
        let rest = self.buf.get_mut(self.written..).unwrap_or_default();
        let (start, room) = (rest.as_ptr().cast::<u8>(), rest.len());
        let (pieces, r) = write(rest);
        self.written += tiled(start, room, pieces.iter().map(|p| &**p));
        r
    }

    /// The whole buffer, as bytes.
    ///
    /// # Panics
    /// Unless every byte is written.
    pub fn finish(self) -> &'a mut [u8] {
        assert_all_written(self.written, self.buf.len());
        // SAFETY: `assert_all_written` just held: `written` is the whole
        // length. `written` grows only by a piece `put` copied in or by the
        // pieces a writer returned as `&mut [u8]` (initialised bytes), each
        // checked by `tiled` to start where the written bytes ended, and
        // nothing hands out the written prefix as `MaybeUninit` again. So
        // every byte is initialised.
        unsafe { self.buf.assume_init_mut() }
    }
}

/// A buffer with unwritten capacity after its written bytes, written
/// front to back: a [`PoolBuf`], or a `Vec<u8>`'s spare capacity.
pub trait Unfilled {
    /// Lend `write` the unwritten capacity; the piece of it `write`
    /// returns, from its start, joins the written bytes ([`Cursor`]).
    /// Returns `write`'s result.
    fn fill_with<R>(
        &mut self,
        write: impl for<'b> FnOnce(&'b mut [MaybeUninit<u8>]) -> (&'b mut [u8], R),
    ) -> R;
}

impl Unfilled for Vec<u8> {
    fn fill_with<R>(
        &mut self,
        write: impl for<'b> FnOnce(&'b mut [MaybeUninit<u8>]) -> (&'b mut [u8], R),
    ) -> R {
        let mut spare = Cursor::new(self.spare_capacity_mut());
        let r = spare.put_with(write);
        let n = spare.written;
        // SAFETY: the cursor holds the first `n` bytes of the spare
        // capacity, the bytes right after the vector's length, written
        // (`Cursor::put_with` checks the piece by `tiled`), and `n` is at
        // most the spare capacity.
        unsafe { self.set_len(self.len() + n) };
        r
    }
}

/// A buffer from [`Pool::take`]: `len` bytes at the start of one
/// allocation, which it frees with the [`Layout`] it was allocated with —
/// a `Vec<u8>` would free a 2 MiB-aligned block as a byte-aligned one.
/// Its bytes are unwritten capacity ([`Unfilled`]) until a writer writes
/// them, front to back; it reads as the bytes written so far.
pub struct PoolBuf {
    /// The allocation; dangling when the layout's size is zero.
    ptr: NonNull<u8>,
    len: usize,
    /// Bytes `[0, written)` are initialised: `written` grows only by what
    /// a [`Cursor`] holds written.
    written: usize,
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
    /// its first write. A release build writes nothing into it; a debug
    /// one fills it with [`POISON`].
    fn fresh(len: usize) -> PoolBuf {
        let (layout, advised) = fresh_plan(len);
        if len == 0 {
            return PoolBuf::default();
        }
        track(layout, true);
        // SAFETY: `len` is not zero, so neither is the layout's size.
        let raw = unsafe { alloc::alloc(layout) };
        let Some(ptr) = NonNull::new(raw) else {
            alloc::handle_alloc_error(layout)
        };
        let mut buf = PoolBuf {
            ptr,
            len,
            written: 0,
            layout,
        };
        if let Some(spans) = buf.unwritten().get_mut(advised) {
            advise_huge_pages(spans);
        }
        buf.poison();
        buf
    }

    /// The bytes of its allocation: the most it can be taken for again.
    fn capacity(&self) -> usize {
        self.layout.size()
    }

    /// Bytes `[written, len)`.
    fn unwritten(&mut self) -> &mut [MaybeUninit<u8>] {
        // SAFETY: the allocation is valid for `layout.size() >= len` bytes
        // (or `ptr` is dangling and aligned and `len` is zero), `written <=
        // len`, `&mut self` makes the borrow unique, and `MaybeUninit`
        // claims nothing about the bytes.
        unsafe {
            let at = self.ptr.as_ptr().add(self.written);
            std::slice::from_raw_parts_mut(at.cast(), self.len - self.written)
        }
    }

    /// In a debug build, fill the unwritten bytes with [`POISON`].
    fn poison(&mut self) {
        if cfg!(debug_assertions) {
            for chunk in self.unwritten().chunks_mut(4096) {
                chunk.write_copy_of_slice(&[POISON; 4096][..chunk.len()]);
            }
        }
    }

    /// Copy `src` into the next bytes.
    ///
    /// # Panics
    /// If `src` is longer than what is left unwritten.
    pub fn put(&mut self, src: &[u8]) {
        self.fill_with(|rest| {
            let remaining = rest.len();
            let Some(dst) = rest.get_mut(..src.len()) else {
                panic!("{} bytes put where {remaining} remain", src.len());
            };
            (dst.write_copy_of_slice(src), ())
        });
    }

    /// [`Unfilled::fill_with`] over several buffers at once, for a writer
    /// that writes them in one pass: `write` is lent each buffer's
    /// unwritten capacity, in order, and returns, per buffer in the same
    /// order, the piece of it that it wrote (a buffer past the last piece
    /// returned has nothing written).
    pub fn fill_each<R>(
        bufs: &mut [PoolBuf],
        write: impl for<'b> FnOnce(Vec<&'b mut [MaybeUninit<u8>]>) -> (Vec<&'b mut [u8]>, R),
    ) -> R {
        let rests: Vec<&mut [MaybeUninit<u8>]> = bufs.iter_mut().map(PoolBuf::unwritten).collect();
        let lent: Vec<(*const u8, usize)> = (rests.iter())
            .map(|r| (r.as_ptr().cast(), r.len()))
            .collect();
        let (pieces, r) = write(rests);
        let grown: Vec<usize> = (lent.iter().zip(&pieces))
            .map(|(&(start, room), piece)| tiled(start, room, [&**piece]))
            .collect();
        for (buf, n) in bufs.iter_mut().zip(grown) {
            buf.written += n;
        }
        r
    }
}

impl Unfilled for PoolBuf {
    fn fill_with<R>(
        &mut self,
        write: impl for<'b> FnOnce(&'b mut [MaybeUninit<u8>]) -> (&'b mut [u8], R),
    ) -> R {
        let mut rest = Cursor::new(self.unwritten());
        let r = rest.put_with(write);
        self.written += rest.written;
        r
    }
}

/// The empty buffer: no allocation.
impl Default for PoolBuf {
    fn default() -> Self {
        PoolBuf {
            ptr: NonNull::dangling(),
            len: 0,
            written: 0,
            layout: Layout::new::<()>(),
        }
    }
}

impl Deref for PoolBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `layout.size() >= len >= written`
        // bytes (or dangling, aligned and `written == 0`), the first
        // `written` of them initialised (`PoolBuf::written`), and `&self`
        // keeps them from being written.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.written) }
    }
}

impl DerefMut for PoolBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`, and `&mut self` makes the borrow unique.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.written) }
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

    /// A buffer of `len` bytes, none of them written. At least
    /// [`MIN_POOLED`] long, it is the smallest retained one that fits
    /// (capacity at least `len` and under twice it); failing that, and for
    /// any shorter request, it is fresh ([`fresh_plan`]). A release build
    /// writes no byte of it; a debug one fills it with [`POISON`]. The
    /// caller writes every byte before it shares the buffer.
    pub fn take(&self, len: usize) -> PoolBuf {
        let reused = (len >= MIN_POOLED)
            .then(|| self.state.lock().reuse(len))
            .flatten();
        let Some(mut buf) = reused else {
            return PoolBuf::fresh(len);
        };
        buf.len = len;
        buf.written = 0;
        buf.poison();
        buf
    }

    /// Freeze `buf` into [`Bytes`] that hand it back to this pool when the
    /// last handle drops. A buffer under [`MIN_POOLED`] is frozen as it is
    /// and freed with its last handle.
    ///
    /// # Panics
    /// Unless every byte of `buf` is written ([`assert_all_written`]).
    pub fn share(&self, buf: PoolBuf) -> Bytes {
        assert_all_written(buf.written, buf.len);
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

    /// What a buffer from the pool holds before its user writes it,
    /// recycled from a user that filled it with `byte`: the poison in a
    /// debug build, else that user's bytes.
    fn unwritten(byte: u8) -> u8 {
        if cfg!(debug_assertions) {
            POISON
        } else {
            byte
        }
    }

    /// The unwritten bytes of `buf` as they lie in memory. Only for a
    /// buffer whose every byte something wrote: a recycled one, or any
    /// buffer in a debug build, which the pool poisons.
    fn leftover(buf: &mut PoolBuf) -> Vec<u8> {
        // SAFETY: each caller passes a buffer recycled from a user that
        // wrote every byte of it, or a poisoned one in a debug build.
        unsafe { buf.unwritten().assume_init_ref().to_vec() }
    }

    fn filled(pool: &Pool, len: usize, byte: u8) -> Bytes {
        let mut buf = pool.take(len);
        assert_eq!(
            (buf.len, buf.len()),
            (len, 0),
            "taken: `len` bytes, none written"
        );
        buf.put(&vec![byte; len]);
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
        let mut again = pool.take(MIB);
        assert_eq!(
            again.ptr.as_ptr().cast_const(),
            at,
            "the returned buffer is reused"
        );
        assert_eq!((again.len, again.len()), (MIB, 0));
        assert!(leftover(&mut again).iter().all(|b| *b == unwritten(0xAA)));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        drop(next);
        // With nothing outstanding, nothing is retained.
        assert_eq!(pool.stats().retained_bytes, 0);
    }

    #[test]
    fn small_buffers_stay_out_of_the_pool() {
        let pool = Pool::new();
        let small = filled(&pool, MIN_POOLED - 1, 0);
        assert_eq!(small.len(), MIN_POOLED - 1);
        drop(small);
        drop(filled(&pool, 2048, 1));
        assert!(pool.take(0).is_empty());
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    // Megabytes written and read a byte at a time are minutes under Miri.
    #[cfg_attr(miri, ignore)]
    fn only_a_buffer_under_twice_the_request_fits() {
        let pool = Pool::new();
        // A retained buffer is bounded by what is outstanding, so keep one
        // of the same size lent while the other waits.
        let held = filled(&pool, 4 * MIB, 2);
        drop(filled(&pool, 4 * MIB, 3));
        drop(pool.take(MIB));
        assert_eq!(pool.stats().misses, 3, "4 MiB is too large for 1 MiB");
        let mut taken = pool.take(3 * MIB);
        // Shorter than its previous user: the request's length, and only
        // bytes that user wrote.
        assert_eq!(taken.len, 3 * MIB);
        assert!(leftover(&mut taken).iter().all(|b| *b == unwritten(3)));
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
    // Megabytes written and read a byte at a time are minutes under Miri.
    #[cfg_attr(miri, ignore)]
    fn a_fresh_buffer_of_a_huge_page_or_more_is_aligned_to_one() {
        let pool = Pool::new();
        for len in [HUGE_PAGE, HUGE_PAGE + 17, 16 * MIB + 40] {
            let before = live();
            let mut buf = pool.take(len);
            assert_eq!(buf.ptr.as_ptr() as usize % HUGE_PAGE, 0, "{len}");
            assert_eq!((buf.len, buf.capacity()), (len, len));
            assert_eq!(buf.layout.align(), HUGE_PAGE);
            assert_eq!(live(), [before[0], before[1] + len]);
            if cfg!(debug_assertions) {
                assert!(leftover(&mut buf).iter().all(|b| *b == POISON), "{len}");
            }
            drop(buf);
            assert_eq!(live(), before);
        }
    }

    #[test]
    fn a_fresh_buffer_under_a_huge_page_is_plain() {
        let pool = Pool::new();
        for len in [1, MIN_POOLED, MIB, HUGE_PAGE - 1] {
            let before = live();
            let mut buf = pool.take(len);
            assert_eq!((buf.layout.align(), buf.capacity()), (1, len), "{len}");
            assert!(fresh_plan(len).1.is_empty(), "{len} is advised nowhere");
            assert_eq!(live(), [before[0] + len, before[1]]);
            if cfg!(debug_assertions) {
                assert!(leftover(&mut buf).iter().all(|b| *b == POISON), "{len}");
            }
        }
    }

    /// This thread's minor page faults so far (`getrusage(2)`,
    /// `RUSAGE_THREAD`: the other test threads do not count).
    #[cfg(all(target_os = "linux", not(debug_assertions), not(miri)))]
    fn minor_faults() -> i64 {
        #[repr(C)]
        struct RUsage {
            /// `ru_utime` and `ru_stime`, two `timeval`s.
            times: [i64; 4],
            /// `ru_maxrss` … `ru_nivcsw`; `ru_minflt` is the fifth.
            counts: [i64; 14],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut RUsage) -> i32;
        }
        const RUSAGE_THREAD: i32 = 1;
        let mut usage = RUsage {
            times: [0; 4],
            counts: [0; 14],
        };
        // SAFETY: `usage` has the layout of x86-64 and arm64 Linux's `struct
        // rusage` (two timevals, then fourteen longs), which is all
        // `getrusage` writes.
        let rc = unsafe { getrusage(RUSAGE_THREAD, &mut usage) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_THREAD)");
        usage.counts[4]
    }

    /// A release build writes no byte of a fresh buffer: taking 64 MiB
    /// (which glibc always maps fresh, far above its mmap threshold) faults
    /// in a handful of pages at most, the allocator's header. Writing it
    /// then faults it in, one huge page per 2 MiB where the kernel honours
    /// the advice.
    #[test]
    #[cfg(all(target_os = "linux", not(debug_assertions), not(miri)))]
    fn taking_a_fresh_buffer_faults_in_nothing_until_it_is_written() {
        let pool = Pool::new();
        let len = 64 * MIB;
        let block = vec![7u8; MIB];
        let before = minor_faults();
        let mut buf = pool.take(len);
        let taken = minor_faults() - before;
        assert!(taken <= 4, "taking {len} bytes faulted {taken} pages");
        let before = minor_faults();
        for _ in 0..len / MIB {
            buf.put(&block);
        }
        let written = minor_faults() - before;
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        if thp.is_ok_and(|mode| !mode.contains("[never]")) {
            let huge = (len / HUGE_PAGE) as i64;
            assert!(
                (huge..=huge + 4).contains(&written),
                "writing {len} bytes faulted {written} pages, not {huge} huge ones"
            );
        }
        assert_eq!(pool.share(buf).len(), len);
    }

    #[test]
    #[should_panic(expected = "65535 of 65536 bytes written")]
    fn a_buffer_is_shared_only_once_every_byte_is_written() {
        let pool = Pool::new();
        let mut buf = pool.take(MIN_POOLED);
        buf.put(&[1; MIN_POOLED - 1]);
        drop(pool.share(buf));
    }

    #[test]
    fn a_cursor_joins_the_pieces_written_in_order() {
        let mut out = [MaybeUninit::<u8>::uninit(); 600];
        let mut cursor = Cursor::new(&mut out);
        assert_eq!(cursor.put(&[1, 2, 3]), [1, 2, 3]);
        cursor.put_bytes(0, 300);
        let r = cursor.put_with(|rest| (rest[..2].write_copy_of_slice(&[4, 5]), 'r'));
        assert_eq!((r, cursor.remaining()), ('r', 295));
        cursor.put_pieces(|rest| {
            let (a, b) = rest.split_at_mut(200);
            let pieces = vec![
                a.write_copy_of_slice(&[6; 200]),
                &mut [][..],
                b.write_copy_of_slice(&[8; 95]),
            ];
            (pieces, ())
        });
        let whole = cursor.finish();
        let want = [&[1, 2, 3][..], &[0; 300], &[4, 5], &[6; 200], &[8; 95]].concat();
        assert_eq!(whole, want);
    }

    #[test]
    #[should_panic(expected = "other than the next ones it was lent")]
    fn a_writer_that_skips_a_byte_is_caught() {
        let mut out = [MaybeUninit::<u8>::uninit(); 8];
        let mut cursor = Cursor::new(&mut out);
        cursor.put_with(|rest| (rest[1..].write_copy_of_slice(&[9; 7]), ()));
    }

    #[test]
    #[should_panic(expected = "7 of 8 bytes written")]
    fn a_cursor_finishes_only_once_every_byte_is_written() {
        let mut out = [MaybeUninit::<u8>::uninit(); 8];
        let mut cursor = Cursor::new(&mut out);
        cursor.put(&[9; 7]);
        cursor.finish();
    }

    #[test]
    fn a_vec_and_a_pool_buffer_fill_front_to_back() {
        let mut v = Vec::with_capacity(8);
        v.push(1u8);
        let n = v.fill_with(|rest| (rest[..3].write_copy_of_slice(&[2, 3, 4]), 3));
        assert_eq!((n, &v[..]), (3, &[1, 2, 3, 4][..]));

        let pool = Pool::new();
        let mut bufs = vec![pool.take(MIN_POOLED), pool.take(4)];
        bufs[1].put(&[5]);
        PoolBuf::fill_each(&mut bufs, |rests| {
            let pieces = (rests.into_iter().zip([7u8, 6]))
                .map(|(rest, byte)| rest.write_copy_of_slice(&vec![byte; rest.len()]))
                .collect();
            (pieces, ())
        });
        assert_eq!(&bufs[1][..], [5, 6, 6, 6]);
        let shared: Vec<Bytes> = bufs.into_iter().map(|b| pool.share(b)).collect();
        assert!(shared[0].iter().all(|b| *b == 7));
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
    // Megabytes written and read a byte at a time are minutes under Miri.
    #[cfg_attr(miri, ignore)]
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
