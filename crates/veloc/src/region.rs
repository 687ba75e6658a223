//! Protected memory regions.
//!
//! VeloC's `VELOC_Mem_protect` registers raw memory with the runtime. The
//! Rust equivalent is a trait object: anything that can serialize itself and
//! restore from bytes can be protected. Kokkos Resilience adapts its views;
//! plain applications can use [`VecRegion`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use simmpi::pod::{self, Pod};

/// Globally-unique dirty-tracking stamps for [`VecRegion`]s. The top bit is
/// set on every stamp so a `VecRegion` stamp can never equal a stamp from
/// `kokkos`'s counter (which keeps the top bit clear) — the two crates share
/// no code, but their stamps meet in [`crate::Client`]'s delta bookkeeping.
static NEXT_GEN: AtomicU64 = AtomicU64::new(1);

// Allocation-order only; stamps are compared for equality, never used to
// publish data (region contents synchronize through the `Mutex`).
fn fresh_gen() -> u64 {
    (1 << 63) | NEXT_GEN.fetch_add(1, Ordering::Relaxed)
}

/// A registered checkpoint region.
pub trait Protected: Send + Sync {
    /// Serialize the current contents.
    fn snapshot(&self) -> Bytes;
    /// Overwrite the contents from a serialized snapshot.
    fn restore(&self, data: &[u8]);
    /// Size in bytes of a snapshot.
    fn byte_len(&self) -> usize;
    /// Dirty-tracking stamp, if the region supports one. Two `Some` stamps
    /// comparing equal across checkpoints means the region was not written
    /// in between; `None` means "assume dirty every checkpoint" — the safe
    /// default for regions without write-path instrumentation.
    fn generation(&self) -> Option<u64> {
        None
    }

    /// Lend the current contents to `f`, as the bytes [`Self::snapshot`]
    /// would return, without an owned copy: the pack copies them straight
    /// into the region's payload slot, checksumming as it copies, and
    /// checks the length against its plan (a region resized between
    /// planning and this call sends it back to [`Self::snapshot`]). The
    /// default lends a snapshot, so implementors only override when they
    /// can lend their storage in place.
    fn with_bytes(&self, f: &mut dyn FnMut(&[u8])) {
        f(&self.snapshot());
    }
}

/// A shared, lockable vector usable directly as a protected region —
/// the no-Kokkos path (the paper's Fenix+VeloC-without-Kokkos-Resilience
/// configuration).
pub struct VecRegion<T: Pod> {
    data: Arc<Mutex<Vec<T>>>,
    generation: Arc<AtomicU64>,
}

impl<T: Pod> Clone for VecRegion<T> {
    fn clone(&self) -> Self {
        VecRegion {
            data: Arc::clone(&self.data),
            generation: Arc::clone(&self.generation),
        }
    }
}

impl<T: Pod> VecRegion<T> {
    pub fn new(data: Vec<T>) -> Self {
        VecRegion {
            data: Arc::new(Mutex::new(data)),
            generation: Arc::new(AtomicU64::new(fresh_gen())),
        }
    }

    /// Lock for access. Conservatively re-stamps the generation — the
    /// guard is mutable, so the caller may write (stamping *before* the
    /// lock means a racing checkpoint can only over-report dirtiness,
    /// never miss a write).
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, Vec<T>> {
        self.generation.store(fresh_gen(), Ordering::Relaxed);
        self.data.lock()
    }
}

impl<T: Pod> Protected for VecRegion<T> {
    fn snapshot(&self) -> Bytes {
        pod::to_bytes(&self.data.lock())
    }

    fn restore(&self, data: &[u8]) {
        self.generation.store(fresh_gen(), Ordering::Relaxed);
        let mut guard = self.data.lock();
        pod::copy_from_bytes(&mut guard, data);
    }

    fn byte_len(&self) -> usize {
        std::mem::size_of::<T>() * self.data.lock().len()
    }

    fn generation(&self) -> Option<u64> {
        Some(self.generation.load(Ordering::Relaxed))
    }

    fn with_bytes(&self, f: &mut dyn FnMut(&[u8])) {
        // The locked vector itself: the caller's copy is the only one.
        f(pod::as_bytes(&self.data.lock()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_region_roundtrip() {
        let r = VecRegion::new(vec![1.0f64, 2.0, 3.0]);
        let snap = r.snapshot();
        r.lock().iter_mut().for_each(|x| *x = 0.0);
        r.restore(&snap);
        assert_eq!(*r.lock(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn byte_len_matches() {
        let r = VecRegion::new(vec![0u32; 10]);
        assert_eq!(r.byte_len(), 40);
        assert_eq!(r.snapshot().len(), 40);
    }

    #[test]
    fn clone_shares_data() {
        let r = VecRegion::new(vec![1u8]);
        let c = r.clone();
        c.lock()[0] = 9;
        assert_eq!(r.lock()[0], 9);
    }

    #[test]
    fn generation_moves_on_lock_and_restore_not_snapshot() {
        let r = VecRegion::new(vec![1u8, 2, 3]);
        let g0 = r.generation().expect("VecRegion always stamps");
        assert_ne!(g0 & (1 << 63), 0, "VecRegion stamps carry the top bit");
        let snap = r.snapshot();
        assert_eq!(r.byte_len(), 3);
        assert_eq!(r.generation(), Some(g0), "reads must not dirty the region");
        let _ = r.lock();
        let g1 = r.generation().expect("stamped");
        assert_ne!(g1, g0, "lock() must re-stamp (guard may write)");
        r.restore(&snap);
        assert_ne!(r.generation(), Some(g1), "restore must re-stamp");
    }

    #[test]
    fn with_bytes_lends_the_snapshot_in_place() {
        let r = VecRegion::new(vec![1u32, 2, 3]);
        let at = r.lock().as_ptr() as usize;
        let mut lent = None;
        r.with_bytes(&mut |b| lent = Some((b.as_ptr() as usize, Bytes::copy_from_slice(b))));
        // The vector's own storage, holding exactly the snapshot's bytes.
        assert_eq!(lent, Some((at, r.snapshot())));
    }

    #[test]
    fn clone_shares_generation() {
        let r = VecRegion::new(vec![1u8]);
        let c = r.clone();
        let _ = c.lock();
        assert_eq!(r.generation(), c.generation());
    }
}
