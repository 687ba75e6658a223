//! Labelled, reference-counted, shape-aware data views.
//!
//! A [`View`] is the unit of application data the resilience layers reason
//! about. Like a Kokkos view it has a human-readable label, up to three
//! dimensions, and shared ownership of its allocation: cloning a `View`
//! yields another handle to the *same* view object, while
//! [`View::duplicate_handle`] creates a *distinct view object over the same
//! allocation* — the situation Kokkos Resilience must detect to avoid
//! checkpointing one buffer twice (the "skipped" views in the paper's
//! Figure 7).
//!
//! A view's elements live in one buffer of the process's pool
//! (`cluster::pool::POOL`), at every size: it is zeroed (or copied into)
//! when the view is built, and goes back to the pool when the view's last
//! clone and last duplicate handle drop, so the next run's views of the
//! same size reuse it without faulting a page in again.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use cluster::{pool::POOL, Cursor, PoolBuf, Unfilled};
use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use simmpi::pod::{self, Pod};

use crate::capture::{self, Checkpointable};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Globally-unique generation stamps for dirty-region tracking.
///
/// Every mutable access re-stamps the allocation with a fresh value from
/// this counter, so stamp *equality* across two observations means "same
/// allocation, no writes in between" — there is no per-allocation
/// wraparound or reuse to reason about. Stamps from this counter keep the
/// top bit clear; `veloc`'s own region stamps set it, so the two
/// namespaces can never collide even though the crates share no code.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

// Allocation-order only; stamps are compared for equality, never used to
// publish data (snapshots synchronize through the storage RwLock).
fn fresh_gen() -> u64 {
    NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// Identity and shape of a view, carried into capture records and
/// checkpoint metadata.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewMeta {
    /// Unique per view *object*.
    pub view_id: u64,
    /// Shared by every view object over the same allocation.
    pub alloc_id: u64,
    /// Shared: a copy of the metadata copies a reference count.
    pub label: Arc<str>,
    /// Extents; unused trailing dimensions are 1.
    pub extents: [usize; 3],
    /// Number of meaningful dimensions (1..=3).
    pub rank: usize,
    /// Size of the allocation in bytes.
    pub bytes: usize,
}

impl ViewMeta {
    pub fn len(&self) -> usize {
        self.extents.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Storage<T> {
    /// The elements' bytes, every one written: a pool buffer aligned for
    /// any `Pod` element type.
    data: RwLock<PoolBuf>,
    /// Last write stamp. Re-stamped *before* the write lock is acquired,
    /// so a concurrent checkpoint that reads the stamp first and the data
    /// second can only err toward "dirty" (it re-sends an unchanged
    /// region), never toward "clean" (skipping a changed one).
    generation: AtomicU64,
    elems: PhantomData<T>,
}

impl<T: Pod> Storage<T> {
    /// Storage for `len` elements, written by `init` into a pool buffer.
    fn new(len: usize, init: impl FnOnce(&mut Cursor<'_>)) -> Self {
        let mut buf = POOL.take(std::mem::size_of::<T>() * len);
        buf.fill_with(|rest| {
            let mut out = Cursor::new(rest);
            init(&mut out);
            (out.finish(), ())
        });
        Storage {
            data: RwLock::new(buf),
            generation: AtomicU64::new(fresh_gen()),
            elems: PhantomData,
        }
    }
}

/// Read access to a view's elements ([`View::read`]).
pub struct ViewRead<'a, T> {
    guard: RwLockReadGuard<'a, PoolBuf>,
    elems: PhantomData<&'a [T]>,
}

impl<T: Pod> Deref for ViewRead<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        pod::cast_slice(&self.guard)
    }
}

/// Write access to a view's elements ([`View::write`]).
pub struct ViewWrite<'a, T> {
    guard: RwLockWriteGuard<'a, PoolBuf>,
    elems: PhantomData<&'a mut [T]>,
}

impl<T: Pod> Deref for ViewWrite<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        pod::cast_slice(&self.guard)
    }
}

impl<T: Pod> DerefMut for ViewWrite<'_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        pod::cast_slice_mut(&mut self.guard)
    }
}

/// A view object: what every clone of a [`View`] shares, and what a
/// capture hands out as the view's [`Checkpointable`](crate::capture::Checkpointable)
/// handle ([`View::handle`]) without a box of its own.
pub(crate) struct Inner<T: Pod> {
    pub(crate) meta: ViewMeta,
    storage: Arc<Storage<T>>,
}

impl<T: Pod> Inner<T> {
    pub(crate) fn read_uncaptured(&self) -> ViewRead<'_, T> {
        ViewRead {
            guard: self.storage.data.read(),
            elems: PhantomData,
        }
    }

    pub(crate) fn write_uncaptured(&self) -> ViewWrite<'_, T> {
        self.storage
            .generation
            .store(fresh_gen(), Ordering::Relaxed);
        ViewWrite {
            guard: self.storage.data.write(),
            elems: PhantomData,
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.storage.generation.load(Ordering::Relaxed)
    }
}

/// A labelled, shared, shape-aware array of POD elements.
///
/// `clone()` produces another handle to the same view object (same
/// `view_id`); use [`View::duplicate_handle`] for a new view object over the
/// same data.
pub struct View<T: Pod> {
    inner: Arc<Inner<T>>,
}

impl<T: Pod> Clone for View<T> {
    fn clone(&self) -> Self {
        View {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Pod> View<T> {
    /// A zero-initialized 1-D view.
    pub fn new_1d(label: impl Into<Arc<str>>, n: usize) -> Self {
        Self::with_extents(label, [n, 1, 1], 1)
    }

    /// A zero-initialized 2-D view (row-major: index `i * ny + j`).
    pub fn new_2d(label: impl Into<Arc<str>>, nx: usize, ny: usize) -> Self {
        Self::with_extents(label, [nx, ny, 1], 2)
    }

    /// A view of `extents` (zero: every element's bytes are zero, one
    /// fill pass).
    fn with_extents(label: impl Into<Arc<str>>, extents: [usize; 3], rank: usize) -> Self {
        let len = extents.iter().product();
        let storage = Storage::new(len, |out| out.put_bytes(0, out.remaining()));
        Self::over(label, storage, extents, rank)
    }

    /// A 1-D view holding a copy of `data`.
    pub fn from_vec(label: impl Into<Arc<str>>, data: Vec<T>) -> Self {
        let n = data.len();
        let storage = Storage::new(n, |out| {
            out.put(pod::as_bytes(&data));
        });
        Self::over(label, storage, [n, 1, 1], 1)
    }

    fn over(
        label: impl Into<Arc<str>>,
        storage: Storage<T>,
        extents: [usize; 3],
        rank: usize,
    ) -> Self {
        let alloc_id = fresh_id();
        let bytes = std::mem::size_of::<T>() * extents.iter().product::<usize>();
        View {
            inner: Arc::new(Inner {
                meta: ViewMeta {
                    view_id: fresh_id(),
                    alloc_id,
                    label: label.into(),
                    extents,
                    rank,
                    bytes,
                },
                storage: Arc::new(storage),
            }),
        }
    }

    /// A new view *object* (fresh `view_id`, same `alloc_id`) over this
    /// view's allocation — the stand-in for a Kokkos view copied into
    /// another lambda or struct.
    pub fn duplicate_handle(&self, label: impl Into<Arc<str>>) -> Self {
        let mut meta = self.inner.meta.clone();
        meta.view_id = fresh_id();
        meta.label = label.into();
        View {
            inner: Arc::new(Inner {
                meta,
                storage: Arc::clone(&self.inner.storage),
            }),
        }
    }

    pub fn meta(&self) -> &ViewMeta {
        &self.inner.meta
    }

    pub fn label(&self) -> &str {
        &self.inner.meta.label
    }

    pub fn view_id(&self) -> u64 {
        self.inner.meta.view_id
    }

    pub fn alloc_id(&self) -> u64 {
        self.inner.meta.alloc_id
    }

    pub fn len(&self) -> usize {
        self.inner.meta.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn extent(&self, dim: usize) -> usize {
        self.inner.meta.extents[dim]
    }

    /// Size of the underlying allocation in bytes.
    pub fn byte_len(&self) -> usize {
        self.inner.meta.bytes
    }

    /// Lock the data for reading. If a capture session is active on this
    /// thread, the access is recorded (read mode).
    pub fn read(&self) -> ViewRead<'_, T> {
        capture::record_access(self, false);
        self.read_uncaptured()
    }

    /// Lock the data for writing. If a capture session is active on this
    /// thread, the access is recorded (write mode).
    pub fn write(&self) -> ViewWrite<'_, T> {
        capture::record_access(self, true);
        self.write_uncaptured()
    }

    /// Read access that bypasses capture recording (used by checkpoint
    /// internals so snapshotting does not record itself).
    pub fn read_uncaptured(&self) -> ViewRead<'_, T> {
        self.inner.read_uncaptured()
    }

    /// Write access that bypasses capture recording (still re-stamps the
    /// generation — `restore_bytes` and `fill` mutate the allocation, so a
    /// checkpoint after a rollback must treat the region as dirty).
    pub fn write_uncaptured(&self) -> ViewWrite<'_, T> {
        self.inner.write_uncaptured()
    }

    /// Current dirty-tracking stamp of the allocation (shared by every
    /// view object over it). Equal stamps across two checkpoints mean no
    /// write path touched the data in between; see [`fresh_gen`]'s
    /// uniqueness note for why equality is sufficient.
    pub fn generation(&self) -> u64 {
        self.inner.generation()
    }

    /// This view object as a type-erased checkpoint handle: the shared
    /// state every clone holds, so taking one allocates nothing, and every
    /// handle of one view object is the same pointer.
    pub fn handle(&self) -> Arc<dyn Checkpointable> {
        Arc::clone(&self.inner) as Arc<dyn Checkpointable>
    }

    /// Serialize the current contents (no capture recording).
    pub fn snapshot_bytes(&self) -> Bytes {
        pod::to_bytes(&self.read_uncaptured())
    }

    /// Overwrite contents from serialized bytes (no capture recording).
    /// Panics if the payload size does not match the allocation.
    pub fn restore_bytes(&self, data: &[u8]) {
        let mut guard = self.write_uncaptured();
        pod::copy_from_bytes(&mut guard, data);
    }

    /// Fill with a value.
    pub fn fill(&self, value: T) {
        for x in self.write_uncaptured().iter_mut() {
            *x = value;
        }
    }
}

impl<T: Pod> std::fmt::Debug for View<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("View")
            .field("label", &self.label())
            .field("extents", &self.inner.meta.extents)
            .field("view_id", &self.view_id())
            .field("alloc_id", &self.alloc_id())
            .finish()
    }
}

/// Copy `src`'s contents into `dst` (Kokkos `deep_copy`). Panics if lengths
/// differ.
pub fn deep_copy<T: Pod>(dst: &View<T>, src: &View<T>) {
    if dst.alloc_id() == src.alloc_id() {
        return; // same allocation: nothing to do
    }
    let s = src.read();
    let mut d = dst.write();
    assert_eq!(d.len(), s.len(), "deep_copy length mismatch");
    d.copy_from_slice(&s);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_views_are_zeroed() {
        let v: View<f64> = View::new_2d("t", 3, 4);
        assert_eq!(v.len(), 12);
        assert!(v.read().iter().all(|&x| x == 0.0));
        assert_eq!(v.extent(0), 3);
        assert_eq!(v.extent(1), 4);
        assert_eq!(v.byte_len(), 12 * 8);
    }

    #[test]
    fn clone_is_same_view_object() {
        let v: View<u32> = View::new_1d("a", 4);
        let c = v.clone();
        assert_eq!(v.view_id(), c.view_id());
        assert_eq!(v.alloc_id(), c.alloc_id());
        c.write()[0] = 9;
        assert_eq!(v.read()[0], 9);
    }

    #[test]
    fn duplicate_handle_shares_data_not_identity() {
        let v: View<u32> = View::new_1d("orig", 4);
        let d = v.duplicate_handle("copy");
        assert_ne!(v.view_id(), d.view_id());
        assert_eq!(v.alloc_id(), d.alloc_id());
        d.write()[2] = 5;
        assert_eq!(v.read()[2], 5);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let v: View<f64> = View::new_1d("x", 5);
        {
            let mut w = v.write();
            for (i, x) in w.iter_mut().enumerate() {
                *x = i as f64 * 1.5;
            }
        }
        let snap = v.snapshot_bytes();
        v.fill(0.0);
        assert!(v.read().iter().all(|&x| x == 0.0));
        v.restore_bytes(&snap);
        for (i, &x) in v.read().iter().enumerate() {
            assert_eq!(x, i as f64 * 1.5);
        }
    }

    #[test]
    fn deep_copy_copies() {
        let a: View<u64> = View::from_vec("a", vec![1, 2, 3]);
        let b: View<u64> = View::new_1d("b", 3);
        deep_copy(&b, &a);
        assert_eq!(*b.read(), vec![1, 2, 3]);
    }

    #[test]
    fn deep_copy_same_alloc_is_noop() {
        let a: View<u64> = View::from_vec("a", vec![1, 2, 3]);
        let d = a.duplicate_handle("dup");
        deep_copy(&d, &a); // must not deadlock or panic
        assert_eq!(*a.read(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn deep_copy_length_mismatch_panics() {
        let a: View<u64> = View::new_1d("a", 3);
        let b: View<u64> = View::new_1d("b", 4);
        deep_copy(&b, &a);
    }

    #[test]
    fn generation_moves_only_on_writes() {
        let v: View<u64> = View::new_1d("g", 4);
        let g0 = v.generation();
        let _ = v.read();
        let _ = v.read_uncaptured();
        let _ = v.snapshot_bytes();
        assert_eq!(v.generation(), g0, "reads must not dirty the view");
        v.write()[0] = 1;
        let g1 = v.generation();
        assert_ne!(g1, g0);
        v.fill(0);
        let g2 = v.generation();
        assert_ne!(g2, g1, "uncaptured writes must also re-stamp");
        v.restore_bytes(&v.snapshot_bytes());
        assert_ne!(v.generation(), g2, "restore must dirty the view");
    }

    #[test]
    fn generation_is_per_allocation() {
        let a: View<u64> = View::new_1d("a", 4);
        let dup = a.duplicate_handle("dup");
        let other: View<u64> = View::new_1d("other", 4);
        assert_eq!(a.generation(), dup.generation());
        assert_ne!(a.generation(), other.generation());
        dup.write()[0] = 7;
        assert_eq!(
            a.generation(),
            dup.generation(),
            "duplicate handles share the allocation stamp"
        );
    }

    /// The address of a view's first element.
    fn at<T: Pod>(v: &View<T>) -> usize {
        v.read_uncaptured().as_ptr() as usize
    }

    /// Held by each test that takes pooled buffers: one's miss could evict
    /// the buffer another has just given back.
    static POOLED: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn pooled() -> std::sync::MutexGuard<'static, ()> {
        POOLED.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Take a pool buffer of `len` bytes, fill it with `byte` and give it
    /// back; returns its address. No other test's buffer fits a length
    /// the caller passes here, so the next request of it takes this one.
    fn recycle(len: usize, byte: u8) -> usize {
        let mut buf = POOL.take(len);
        buf.put(&vec![byte; len]);
        let shared = POOL.share(buf);
        shared.as_ptr() as usize
    }

    #[test]
    fn a_view_over_a_recycled_buffer_reads_zero() {
        let _pooled = pooled();
        let n = (11 << 20) / 8 + 5;
        let was = recycle(8 * n, 0xFF);
        let v: View<f64> = View::new_1d("z", n);
        assert_eq!(at(&v), was, "the view took the recycled buffer");
        assert!(v.read().iter().all(|x| x.to_bits() == 0));
        let w = View::from_vec("w", vec![7u64; n]);
        assert!(w.read().iter().all(|&x| x == 7));
    }

    #[test]
    fn views_are_aligned_at_every_size() {
        let _pooled = pooled();
        let below = cluster::pool::MIN_ALIGN;
        for n in [0, 1, 3, 7, 100, 8191, 8193, (2 << 20) / 8 + 1] {
            let f: View<f64> = View::new_2d("f", n, 1);
            let u = View::from_vec("u", vec![1u64; n]);
            for addr in [at(&f), at(&u)] {
                assert_eq!(addr % below, 0, "{n} elements at {addr:#x}");
            }
            assert_eq!((f.read().len(), u.read().len()), (n, n));
        }
    }

    #[test]
    fn a_duplicate_handle_keeps_the_buffer_until_it_drops_too() {
        let _pooled = pooled();
        let len = (5 << 20) + 24;
        let v: View<u64> = View::new_1d("v", len / 8);
        let d = v.duplicate_handle("d");
        let was = at(&v);
        drop(v);
        // Still held by `d`: a buffer of the same size is another one.
        let other = POOL.take(len);
        assert_ne!(other.as_ptr() as usize, was);
        d.write()[0] = 3;
        drop(d);
        let again = POOL.take(len);
        assert_eq!(again.as_ptr() as usize, was, "back with its last handle");
    }

    #[test]
    fn from_vec_preserves_contents() {
        let v = View::from_vec("v", vec![9u8, 8, 7]);
        assert_eq!(*v.read(), vec![9, 8, 7]);
        assert_eq!(v.meta().rank, 1);
    }
}
