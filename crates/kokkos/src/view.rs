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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;
use simmpi::pod::{self, Pod};

use crate::capture;

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
    pub label: String,
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
    data: RwLock<Vec<T>>,
    /// Last write stamp. Re-stamped *before* the write lock is acquired,
    /// so a concurrent checkpoint that reads the stamp first and the data
    /// second can only err toward "dirty" (it re-sends an unchanged
    /// region), never toward "clean" (skipping a changed one).
    generation: AtomicU64,
}

struct Inner<T: Pod> {
    meta: ViewMeta,
    storage: Arc<Storage<T>>,
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

impl<T: Pod + Default> View<T> {
    /// A zero-initialized 1-D view.
    pub fn new_1d(label: impl Into<String>, n: usize) -> Self {
        Self::with_extents(label, [n, 1, 1], 1)
    }

    /// A zero-initialized 2-D view (row-major: index `i * ny + j`).
    pub fn new_2d(label: impl Into<String>, nx: usize, ny: usize) -> Self {
        Self::with_extents(label, [nx, ny, 1], 2)
    }

    fn with_extents(label: impl Into<String>, extents: [usize; 3], rank: usize) -> Self {
        let len: usize = extents.iter().product();
        Self::from_vec_extents(label, vec![T::default(); len], extents, rank)
    }
}

impl<T: Pod> View<T> {
    /// Wrap an existing vector as a 1-D view.
    pub fn from_vec(label: impl Into<String>, data: Vec<T>) -> Self {
        let n = data.len();
        Self::from_vec_extents(label, data, [n, 1, 1], 1)
    }

    fn from_vec_extents(
        label: impl Into<String>,
        data: Vec<T>,
        extents: [usize; 3],
        rank: usize,
    ) -> Self {
        assert_eq!(
            data.len(),
            extents.iter().product::<usize>(),
            "data length must match extents"
        );
        let alloc_id = fresh_id();
        let bytes = std::mem::size_of::<T>() * data.len();
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
                storage: Arc::new(Storage {
                    data: RwLock::new(data),
                    generation: AtomicU64::new(fresh_gen()),
                }),
            }),
        }
    }

    /// A new view *object* (fresh `view_id`, same `alloc_id`) over this
    /// view's allocation — the stand-in for a Kokkos view copied into
    /// another lambda or struct.
    pub fn duplicate_handle(&self, label: impl Into<String>) -> Self {
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
    pub fn read(&self) -> parking_lot::RwLockReadGuard<'_, Vec<T>> {
        capture::record_access(self, false);
        self.inner.storage.data.read()
    }

    /// Lock the data for writing. If a capture session is active on this
    /// thread, the access is recorded (write mode).
    pub fn write(&self) -> parking_lot::RwLockWriteGuard<'_, Vec<T>> {
        capture::record_access(self, true);
        self.inner
            .storage
            .generation
            .store(fresh_gen(), Ordering::Relaxed);
        self.inner.storage.data.write()
    }

    /// Read access that bypasses capture recording (used by checkpoint
    /// internals so snapshotting does not record itself).
    pub fn read_uncaptured(&self) -> parking_lot::RwLockReadGuard<'_, Vec<T>> {
        self.inner.storage.data.read()
    }

    /// Write access that bypasses capture recording (still re-stamps the
    /// generation — `restore_bytes` and `fill` mutate the allocation, so a
    /// checkpoint after a rollback must treat the region as dirty).
    pub fn write_uncaptured(&self) -> parking_lot::RwLockWriteGuard<'_, Vec<T>> {
        self.inner
            .storage
            .generation
            .store(fresh_gen(), Ordering::Relaxed);
        self.inner.storage.data.write()
    }

    /// Current dirty-tracking stamp of the allocation (shared by every
    /// view object over it). Equal stamps across two checkpoints mean no
    /// write path touched the data in between; see [`fresh_gen`]'s
    /// uniqueness note for why equality is sufficient.
    pub fn generation(&self) -> u64 {
        self.inner.storage.generation.load(Ordering::Relaxed)
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

    #[test]
    fn from_vec_preserves_contents() {
        let v = View::from_vec("v", vec![9u8, 8, 7]);
        assert_eq!(*v.read(), vec![9, 8, 7]);
        assert_eq!(v.meta().rank, 1);
    }
}
