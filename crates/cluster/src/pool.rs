//! The process's buffer pool: the one allocation path of every large
//! checkpoint buffer and of every view's storage, recycled across runs.
//!
//! A peer-memory checkpoint builds a frame and its wire shards at every
//! version, and drops the previous version's once the next one commits; a
//! recovering rank decodes its payload into one more; every `kokkos::View`
//! keeps its elements in one. [`Pool::take`] always returns a [`PoolBuf`]:
//! one that has come back, or on a miss a fresh one the pool allocates
//! itself. A fresh buffer of at least [`HUGE_PAGE`] bytes is 2 MiB-aligned,
//! and every whole 2 MiB span inside it is advised onto transparent huge
//! pages ([`fresh_plan`]) before its first byte is written, so it faults in
//! one page per 2 MiB, on the writer's first store into each; a smaller one
//! is aligned to [`MIN_ALIGN`], enough for any element type a view holds.
//! Neither is filled: a release build writes no byte of a fresh
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
//! debug-build suite rather than a zero or a stale payload byte.
//!
//! There is one pool per process, [`POOL`], and no setting. A buffer of at
//! least [`MIN_POOLED`] bytes is outstanding from its `take` until its last
//! owner (the `PoolBuf`, or its last [`Bytes`] handle) drops it, and then
//! comes back, so the next run's frames and grids are the last run's and
//! fault in no page again; smaller ones are freed. Retained plus
//! outstanding bytes never pass the most ever outstanding at once: a miss
//! that would first evicts the oldest retained, so stale sizes age out.

use std::alloc::{self, Layout};
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut, Range};
use std::ptr::NonNull;
use std::sync::LazyLock;

use bytes::Bytes;
use parking_lot::Mutex;

/// The smallest buffer the pool recycles, in bytes.
const MIN_POOLED: usize = 64 << 10;

/// A transparent huge page on x86-64 and arm64 Linux, in bytes: the
/// alignment of every fresh buffer at least this long.
const HUGE_PAGE: usize = 2 << 20;

/// The alignment of every shorter buffer, in bytes: any view element
/// type's, and the C heap's own, so a small buffer is a plain `malloc` (64
/// made each 2 KiB `heatdis_scale` frame a `posix_memalign`: 3 % a pass).
pub const MIN_ALIGN: usize = 16;

/// What every buffer the pool hands out holds in a debug build: every
/// byte a writer fails to overwrite reads `0xA5` rather than a zero or a
/// stale payload byte.
const POISON: u8 = 0xA5;

/// How a fresh buffer of `len` bytes is allocated: its layout, and the
/// prefix advised onto huge pages. At least [`HUGE_PAGE`] bytes, it is
/// aligned to one and the advice covers every whole span inside `[0, len)`
/// and not a byte past it, so nothing is reserved that the writer does not
/// write. Under that it is aligned to [`MIN_ALIGN`] and advised nowhere.
fn fresh_plan(len: usize) -> (Layout, Range<usize>) {
    let align = if len >= HUGE_PAGE {
        HUGE_PAGE
    } else {
        MIN_ALIGN
    };
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
/// A piece joins the written prefix either by a copy or fill
/// ([`Cursor::put`], [`Cursor::put_bytes`]) or as the `&mut [u8]` a writer made of the
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

    /// Write `n` copies of `byte` next, in one fill.
    ///
    /// # Panics
    /// If `n` is more than what remains.
    pub fn put_bytes(&mut self, byte: u8, n: usize) {
        let (at, remaining) = (self.written, self.remaining());
        let Some(dst) = self.buf.get_mut(at..at + n) else {
            panic!("{n} bytes put where {remaining} remain");
        };
        dst.fill(MaybeUninit::new(byte));
        self.written = at + n;
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
        // length. `written` grows only by a piece `put` copied in, a run
        // `put_bytes` filled, or the pieces a writer returned as `&mut
        // [u8]` (initialised bytes), each checked by `tiled` to start where
        // the written bytes ended, and nothing hands out the written prefix
        // as `MaybeUninit` again. So every byte is initialised.
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
/// them, front to back; it reads as the bytes written so far. Taken at
/// [`MIN_POOLED`] bytes or more, it goes back to its pool when it drops.
pub struct PoolBuf {
    /// The allocation; dangling (and [`MIN_ALIGN`]-aligned) when the
    /// layout's size is zero.
    ptr: NonNull<u8>,
    len: usize,
    /// Bytes `[0, written)` are initialised: `written` grows only by what
    /// a [`Cursor`] holds written.
    written: usize,
    layout: Layout,
    /// Where it goes when it drops; none (freed) if small or in the pool.
    pool: Option<&'static Pool>,
}

// SAFETY: a `PoolBuf` owns its allocation outright, as a `Vec<u8>` does,
// and no other handle to it exists; moving it to another thread moves that
// ownership, and the global allocator frees from any thread. `pool` is a
// shared reference to a `Sync` pool.
unsafe impl Send for PoolBuf {}

// SAFETY: through `&PoolBuf` only `&[u8]` is reachable, and a shared byte
// slice may be read from any number of threads.
unsafe impl Sync for PoolBuf {}

impl PoolBuf {
    /// A new allocation of `len` bytes by [`fresh_plan`], advised before
    /// its first write, in no pool. Nothing is written into it.
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
            pool: None,
        };
        if let Some(spans) = buf.unwritten().get_mut(advised) {
            advise_huge_pages(spans);
        }
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
            self.unwritten().fill(MaybeUninit::new(POISON));
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

/// The empty buffer: no allocation, in no pool.
impl Default for PoolBuf {
    fn default() -> Self {
        #[repr(align(16))]
        struct Aligned;
        const _: () = assert!(std::mem::align_of::<Aligned>() == MIN_ALIGN);
        PoolBuf {
            ptr: NonNull::<Aligned>::dangling().cast(),
            len: 0,
            written: 0,
            layout: Layout::new::<[Aligned; 0]>(),
            pool: None,
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
        if let Some(pool) = self.pool.take() {
            // Moved whole, in no pool, into the pool; `self` is left empty.
            return pool.give_back(std::mem::take(self));
        }
        if self.layout.size() == 0 {
            return;
        }
        track(self.layout, false);
        // SAFETY: `ptr` was allocated by the global allocator with exactly
        // `layout` (`PoolBuf::fresh`) and is freed only here, once.
        unsafe { alloc::dealloc(self.ptr.as_ptr(), self.layout) };
    }
}

/// What a pool has done so far ([`Pool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a recycled buffer.
    pub hits: u64,
    /// Requests of a pooled size that found none.
    pub misses: u64,
    /// Capacity of the buffers waiting to be reused.
    pub retained_bytes: usize,
    /// Capacity of the pooled buffers taken and not yet back.
    pub outstanding_bytes: usize,
    /// The most bytes ever outstanding at once: retained plus outstanding.
    pub high_water_bytes: usize,
}

#[derive(Default)]
struct State {
    /// Returned buffers, oldest first, in no pool.
    free: VecDeque<PoolBuf>,
    stats: PoolStats,
}

impl State {
    /// Take back an outstanding buffer: retained plus outstanding holds.
    fn give_back(&mut self, buf: PoolBuf) {
        self.stats.outstanding_bytes -= buf.capacity();
        self.stats.retained_bytes += buf.capacity();
        self.free.push_back(buf);
    }

    /// Lend the smallest retained buffer that fits `len` (capacity at
    /// least `len` and under twice it). On a miss, count `len` fresh bytes
    /// outstanding and evict the oldest buffers until retained plus
    /// outstanding is within the high water, for the caller to free.
    fn lend(&mut self, len: usize) -> Result<PoolBuf, Vec<PoolBuf>> {
        let fits = |b: &PoolBuf| b.capacity() >= len && b.capacity() / 2 < len;
        let best = (self.free.iter().enumerate())
            .filter(|(_, b)| fits(b))
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let stats = &mut self.stats;
        if let Some(buf) = best.and_then(|i| self.free.remove(i)) {
            stats.hits += 1;
            stats.retained_bytes -= buf.capacity();
            stats.outstanding_bytes += buf.capacity();
            return Ok(buf);
        }
        stats.misses += 1;
        stats.outstanding_bytes += len;
        stats.high_water_bytes = stats.high_water_bytes.max(stats.outstanding_bytes);
        let mut evicted = Vec::new();
        while stats.retained_bytes + stats.outstanding_bytes > stats.high_water_bytes {
            let Some(old) = self.free.pop_front() else {
                break;
            };
            stats.retained_bytes -= old.capacity();
            evicted.push(old);
        }
        Err(evicted)
    }
}

/// A buffer pool: the process's one is [`POOL`]. A test that counts its
/// requests exactly keeps a `static` one of its own.
#[derive(Default)]
pub struct Pool {
    state: Mutex<State>,
}

/// The process's buffer pool ([`crate::Cluster::pool`]).
pub static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);

impl Pool {
    /// A buffer of `len` bytes, none of them written. At least
    /// [`MIN_POOLED`] long, it is the smallest retained one that fits
    /// (capacity at least `len` and under twice it); failing that, and for
    /// any shorter request, it is fresh ([`fresh_plan`]). A release build
    /// writes no byte of it; a debug one fills it with [`POISON`]. The
    /// caller writes every byte before it shares the buffer.
    pub fn take(&'static self, len: usize) -> PoolBuf {
        let mut buf = if len < MIN_POOLED {
            PoolBuf::fresh(len)
        } else {
            // Bound to a name, the evicted buffers are freed after the
            // lock is released, and before the fresh one is allocated.
            let lent = self.state.lock().lend(len);
            let mut buf = lent.unwrap_or_else(|evicted| {
                drop(evicted);
                PoolBuf::fresh(len)
            });
            (buf.len, buf.written, buf.pool) = (len, 0, Some(self));
            buf
        };
        buf.poison();
        buf
    }

    /// Freeze `buf` into [`Bytes`] that own it: it goes back to its pool
    /// (or, under [`MIN_POOLED`], is freed) when the last handle drops.
    ///
    /// # Panics
    /// Unless every byte of `buf` is written ([`assert_all_written`]).
    pub fn share(&self, buf: PoolBuf) -> Bytes {
        assert_all_written(buf.written, buf.len);
        Bytes::from_owner(buf)
    }

    /// Hits, misses, the bytes retained and outstanding right now, and the
    /// high water.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().stats
    }

    fn give_back(&self, buf: PoolBuf) {
        self.state.lock().give_back(buf);
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

    /// A buffer taken from `pool`, checked unwritten (poisoned, in a debug
    /// build, fresh or recycled), filled with `byte` and shared.
    fn filled(pool: &'static Pool, len: usize, byte: u8) -> Bytes {
        let mut buf = pool.take(len);
        assert_eq!((buf.len, buf.len()), (len, 0), "`len` bytes, none written");
        if cfg!(debug_assertions) {
            assert!(leftover(&mut buf).iter().all(|b| *b == POISON));
        }
        buf.put(&vec![byte; len]);
        pool.share(buf)
    }

    /// The pool's bound: what it holds never passes its high water.
    fn assert_bounded(s: PoolStats) {
        assert!(
            s.retained_bytes + s.outstanding_bytes <= s.high_water_bytes,
            "{s:?}"
        );
    }

    fn live() -> [usize; 2] {
        LIVE.with(|live| live.get())
    }

    #[test]
    fn a_dropped_buffer_serves_the_next_request_unzeroed() {
        static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);
        let first = filled(&POOL, MIB, 0xAA);
        let at = first.as_ptr();
        drop(first);
        let mut again = POOL.take(MIB);
        assert_eq!(again.ptr.as_ptr().cast_const(), at, "reused");
        assert_eq!((again.len, again.len()), (MIB, 0));
        assert!(leftover(&mut again).iter().all(|b| *b == unwritten(0xAA)));
        // A buffer never shared comes back too.
        drop(again);
        let s = POOL.stats();
        assert_eq!((s.hits, s.misses, s.high_water_bytes), (1, 1, MIB));
        assert_eq!((s.retained_bytes, s.outstanding_bytes), (MIB, 0));
    }

    #[test]
    fn small_buffers_stay_out_of_the_pool() {
        static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);
        let small = filled(&POOL, MIN_POOLED - 1, 0);
        assert_eq!(small.len(), MIN_POOLED - 1);
        drop(small);
        drop(filled(&POOL, 2048, 1));
        assert!(POOL.take(0).is_empty());
        assert_eq!(POOL.stats(), PoolStats::default());
    }

    #[test]
    // Megabytes written and read a byte at a time are minutes under Miri.
    #[cfg_attr(miri, ignore)]
    fn only_a_buffer_under_twice_the_request_fits() {
        static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);
        // Three 4 MiB buffers out at once set the high water at 12 MiB.
        let held = filled(&POOL, 4 * MIB, 2);
        drop((filled(&POOL, 4 * MIB, 3), filled(&POOL, 4 * MIB, 4)));
        // 4 MiB is too large for 1 MiB: a miss, and 5 MiB outstanding
        // beside 8 retained passes the bound, so the older 4 MiB goes.
        drop(POOL.take(MIB));
        let s = POOL.stats();
        assert_eq!((s.misses, s.retained_bytes), (4, 4 * MIB + MIB), "{s:?}");
        let mut taken = POOL.take(3 * MIB);
        // Shorter than its previous user: the request's length, and only
        // bytes that user wrote.
        assert_eq!(taken.len, 3 * MIB);
        assert!(leftover(&mut taken).iter().all(|b| *b == unwritten(4)));
        let s = POOL.stats();
        assert_eq!((s.hits, s.misses, s.retained_bytes), (1, 4, MIB), "{s:?}");
        assert_bounded(s);
        drop(held);
    }

    #[test]
    fn the_advice_covers_every_whole_huge_page_and_no_byte_past_len() {
        for (len, align, advised) in [
            (0, MIN_ALIGN, 0),
            (HUGE_PAGE - 1, MIN_ALIGN, 0),
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
        for len in [HUGE_PAGE, HUGE_PAGE + 17, 16 * MIB + 40] {
            let before = live();
            let buf = PoolBuf::fresh(len);
            assert_eq!(buf.ptr.as_ptr() as usize % HUGE_PAGE, 0, "{len}");
            assert_eq!((buf.capacity(), buf.layout.align()), (len, HUGE_PAGE));
            assert_eq!(live(), [before[0], before[1] + len]);
            drop(buf);
            assert_eq!(live(), before, "freed by the layout it was allocated with");
        }
    }

    #[test]
    fn a_fresh_buffer_under_a_huge_page_is_plain() {
        for len in [0, 1, 8, MIN_POOLED, MIB, HUGE_PAGE - 1] {
            let before = live();
            let buf = PoolBuf::fresh(len);
            assert_eq!(buf.ptr.as_ptr() as usize % MIN_ALIGN, 0, "{len}");
            assert_eq!((buf.layout.align(), buf.capacity()), (MIN_ALIGN, len));
            assert!(fresh_plan(len).1.is_empty(), "{len} is advised nowhere");
            assert_eq!(live(), [before[0] + len, before[1]]);
            drop(buf);
            assert_eq!(live(), before);
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
    /// the advice; taken again, it faults in nothing more.
    #[test]
    #[cfg(all(target_os = "linux", not(debug_assertions), not(miri)))]
    fn taking_a_fresh_buffer_faults_in_nothing_until_it_is_written() {
        static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);
        let len = 64 * MIB;
        let block = vec![7u8; MIB];
        let before = minor_faults();
        let mut buf = POOL.take(len);
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
        assert_eq!(POOL.share(buf).len(), len);
        let before = minor_faults();
        let mut again = POOL.take(len);
        for _ in 0..len / MIB {
            again.put(&block);
        }
        let rewritten = minor_faults() - before;
        assert!(
            rewritten <= 4,
            "rewriting a recycled buffer faulted {rewritten}"
        );
    }

    #[test]
    #[should_panic(expected = "65535 of 65536 bytes written")]
    fn a_buffer_is_shared_only_once_every_byte_is_written() {
        static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);
        let mut buf = POOL.take(MIN_POOLED);
        buf.put(&[1; MIN_POOLED - 1]);
        drop(POOL.share(buf));
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
        static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);
        let mut v = Vec::with_capacity(8);
        v.push(1u8);
        let n = v.fill_with(|rest| (rest[..3].write_copy_of_slice(&[2, 3, 4]), 3));
        assert_eq!((n, &v[..]), (3, &[1, 2, 3, 4][..]));

        let mut bufs = vec![POOL.take(MIN_POOLED), POOL.take(4)];
        bufs[1].put(&[5]);
        PoolBuf::fill_each(&mut bufs, |rests| {
            let pieces = (rests.into_iter().zip([7u8, 6]))
                .map(|(rest, byte)| rest.write_copy_of_slice(&vec![byte; rest.len()]))
                .collect();
            (pieces, ())
        });
        assert_eq!(&bufs[1][..], [5, 6, 6, 6]);
        let shared: Vec<Bytes> = bufs.into_iter().map(|b| POOL.share(b)).collect();
        assert!(shared[0].iter().all(|b| *b == 7));
    }

    #[test]
    fn bytes_that_outlive_their_cluster_drop_cleanly() {
        let cluster = Cluster::new(ClusterConfig::default());
        assert!(std::ptr::eq(cluster.pool(), &*POOL));
        let other = Cluster::new(ClusterConfig::default());
        assert!(std::ptr::eq(other.pool(), cluster.pool()));
        // Bytes outlive the cluster they were taken through.
        let lent = filled(cluster.pool(), HUGE_PAGE + 17, 8);
        drop((cluster, other));
        assert_eq!(lent.as_ptr() as usize % HUGE_PAGE, 0);
        assert!(lent.iter().all(|b| *b == 8));
    }

    /// The retention bound, over runs whose frame sizes drift between
    /// versions (MiniMD's do: atoms migrate between ranks). Each version
    /// lends a few buffers, holds them while the next version is built,
    /// then drops them; whatever the interleaving, retained plus
    /// outstanding never passes the most ever outstanding at once, and
    /// once a run lets go nothing is outstanding.
    #[test]
    // Megabytes written and read a byte at a time are minutes under Miri.
    #[cfg_attr(miri, ignore)]
    fn pooled_bytes_never_pass_the_high_water_as_sizes_drift() {
        static POOL: LazyLock<Pool> = LazyLock::new(Pool::default);
        let mut x = 0x9e37_79b9_u64;
        let mut draw = |below: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % below
        };
        let mut peak = 0;
        for _run in 0..3 {
            let mut live: VecDeque<Vec<Bytes>> = VecDeque::new();
            for _version in 0..70 {
                let base = MIN_POOLED + draw(3 * MIB as u64) as usize;
                let frames = (0..1 + draw(4))
                    .map(|_| filled(&POOL, base + draw(4096) as usize, 1))
                    .collect();
                live.push_back(frames);
                let s = POOL.stats();
                assert_bounded(s);
                peak = peak.max(s.outstanding_bytes);
                while live.len() > 1 + draw(3) as usize {
                    let mut old = live.pop_front().unwrap_or_default();
                    while let Some(frame) = old.pop() {
                        drop(frame);
                        assert_bounded(POOL.stats());
                    }
                }
            }
            live.clear();
            let s = POOL.stats();
            assert_eq!(s.outstanding_bytes, 0, "{s:?}");
            assert_eq!(s.high_water_bytes, peak, "the most ever outstanding");
        }
        let s = POOL.stats();
        assert!(s.hits > s.misses, "drifting sizes still reuse: {s:?}");
    }
}
