//! Storage/backend fault injection hooks.
//!
//! The chaos engine (`crates/chaos`) needs to corrupt checkpoint blobs and
//! kill flush workers *inside* the storage path, deterministically and
//! without the storage layers knowing who is doing the injecting. This
//! module defines the seam: a [`FaultInjector`] installed on the
//! [`crate::Cluster`] (shared by every clone) that the VeloC client and its
//! flush backend consult at each write and at each worker lifecycle point.
//!
//! Every hook has a no-op default, so a plain `FaultPlan` — kills only —
//! implements the trait for free and production runs pay nothing beyond an
//! `RwLock` read of an empty slot.

use bytes::Bytes;

use crate::Key;

/// Which checkpoint storage tier a write is headed for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageTier {
    /// Node-local scratch (lost with the node).
    Scratch,
    /// The parallel filesystem (survives node failures).
    Pfs,
}

impl std::fmt::Display for StorageTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageTier::Scratch => f.write_str("scratch"),
            StorageTier::Pfs => f.write_str("pfs"),
        }
    }
}

/// Deterministic fault hooks consulted by the storage path.
///
/// Implementations must be idempotent-safe: the same hook may be consulted
/// from relaunched jobs, so "fire at most once" bookkeeping belongs to the
/// implementor (the pattern `simmpi`'s kill plan already uses).
pub trait FaultInjector: Send + Sync {
    /// Offered the blob about to be written at `key` on `tier`. Return
    /// `Some(corrupted)` to replace it, `None` to leave it untouched.
    fn corrupt_write(&self, tier: StorageTier, key: Key, blob: &Bytes) -> Option<Bytes> {
        let _ = (tier, key, blob);
        None
    }

    /// Whether the asynchronous flush backend of `rank` should fail to
    /// spawn its worker thread.
    fn backend_spawn_fails(&self, rank: usize) -> bool {
        let _ = rank;
        false
    }

    /// Whether `rank`'s flush worker should die now, having completed
    /// `completed` flushes. Consulted between jobs, never mid-flush — an
    /// acknowledged checkpoint is still flushed by the caller inline.
    fn flush_worker_dies(&self, rank: usize, completed: u64) -> bool {
        let _ = (rank, completed);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Noop;
    impl FaultInjector for Noop {}

    #[test]
    fn default_hooks_are_inert() {
        let n = Noop;
        let key = crate::Names::default().key("ck/v1/r0");
        assert!(n
            .corrupt_write(StorageTier::Scratch, key, &Bytes::from_static(b"x"))
            .is_none());
        assert!(!n.backend_spawn_fails(0));
        assert!(!n.flush_worker_dies(0, 3));
        assert_eq!(StorageTier::Scratch.to_string(), "scratch");
        assert_eq!(StorageTier::Pfs.to_string(), "pfs");
    }
}
