//! Peer-memory data backend for Kokkos Resilience — the paper's Future
//! Work §VII.A: "Further integration of Fenix and Kokkos Resilience in the
//! form of a data-resiliency backend."
//!
//! With this backend a Kokkos Resilience context drives the redundancy
//! store directly: checkpoint regions detected by automatic capture are
//! packed into one blob per rank and handed to a [`RedundancyGroup`] — k
//! replicas (k = 2 is Fenix's buddy-rank IMR) or erasure-coded shards
//! spread over a topology-aware placement group — with no filesystem
//! involvement at all.
//!
//! The best-version agreement is a *max* reduction: committed versions are
//! consistent across survivors (two-phase store) and replacement ranks,
//! contributing "nothing", restore from the surviving shards.
//!
//! Requirements: the context must run under Fenix (restores need the
//! recovered-rank hint, see [`kokkos_resilience::Context::set_recovering_ranks`])
//! and with `RecoveryScope::All` (store and restore are collective).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use kokkos_resilience::backend::{pack_views, unpack_views};
use kokkos_resilience::{DataBackend, RegionViews};
use redstore::{RedError, RedStore, RedundancyGroup, RedundancyMode};
use simmpi::{Comm, MpiError, MpiResult, ReduceOp};

/// Kokkos Resilience data backend storing checkpoints in the redundancy
/// tier.
pub struct RedstoreBackend {
    store: Arc<RedStore>,
    mode: Option<RedundancyMode>,
}

impl RedstoreBackend {
    /// `store` must outlive Fenix repairs (create it outside the run loop);
    /// `mode = None` selects the strongest placement-feasible mode for the
    /// communicator's node layout (RS(4,2) → XOR(3) → 2-replica).
    pub fn new(store: Arc<RedStore>, mode: Option<RedundancyMode>) -> Self {
        RedstoreBackend { store, mode }
    }

    pub fn store(&self) -> &Arc<RedStore> {
        &self.store
    }

    /// Stable member id per region name.
    fn member_of(name: &str) -> u32 {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        (h.finish() & 0x7fff_ffff) as u32
    }
}

/// Route a store error to the layer that can claim it.
pub(crate) fn red_err(e: RedError) -> MpiError {
    match e {
        RedError::Mpi(m) => m,
        // Beyond the code's tolerance (or no feasible placement): no layer
        // below can recover, so the job aborts — through the error channel,
        // keeping survivors' collectives matched.
        RedError::DataLost { .. } | RedError::Placement(_) | RedError::Codec(_) => {
            MpiError::Aborted
        }
    }
}

impl DataBackend for RedstoreBackend {
    fn set_rank(&self, _rank: usize) {
        // Group storage is keyed by communicator position; nothing cached.
    }

    fn checkpoint(
        &self,
        comm: &Comm,
        name: &str,
        version: u64,
        views: &RegionViews,
    ) -> MpiResult<()> {
        let group = RedundancyGroup::new(Arc::clone(&self.store), comm, self.mode);
        group
            .store(Self::member_of(name), version, pack_views(views))
            .map_err(red_err)
    }

    fn latest_local(&self, name: &str) -> Option<u64> {
        self.store.latest_version(Self::member_of(name))
    }

    fn latest_agreed(&self, comm: &Comm, name: &str) -> MpiResult<Option<u64>> {
        let local = self.latest_local(name).map_or(-1i64, |v| v as i64);
        let max = comm.allreduce_scalar(local, ReduceOp::Max)?;
        Ok((max >= 0).then_some(max as u64))
    }

    fn restore(
        &self,
        comm: &Comm,
        name: &str,
        version: u64,
        views: &RegionViews,
        recovering_ranks: &[usize],
    ) -> MpiResult<()> {
        let group = RedundancyGroup::new(Arc::clone(&self.store), comm, self.mode);
        let (got, blob) = group
            .restore(Self::member_of(name), recovering_ranks)
            .map_err(red_err)?;
        debug_assert_eq!(got, version, "commit protocol keeps versions consistent");
        unpack_views(views, &blob)
    }

    fn clear(&self) {
        // Survivor copies must persist across context resets — clearing the
        // group store would defeat recovery.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_ids_are_stable_and_distinct() {
        assert_eq!(
            RedstoreBackend::member_of("app.loop"),
            RedstoreBackend::member_of("app.loop")
        );
        assert_ne!(
            RedstoreBackend::member_of("app.loop"),
            RedstoreBackend::member_of("app.other")
        );
    }

    #[test]
    fn unrecoverable_losses_abort_through_the_error_channel() {
        assert!(matches!(
            red_err(RedError::DataLost { member: 1, rank: 2 }),
            MpiError::Aborted
        ));
        assert!(matches!(
            red_err(RedError::Mpi(MpiError::Revoked)),
            MpiError::Revoked
        ));
    }
}
