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
//! The restart agreement is the store's own, by possession
//! ([`RedundancyGroup::possession`]): committed versions are consistent
//! across survivors (two-phase store), and every rank that does not hold the
//! committed version — each replacement, however many repairs ago — is
//! restored from the surviving shards. The same collective therefore
//! answers "which version" for the context and "who lacks it" for the
//! restore that follows; no hint from the process layer is involved.
//!
//! Requirement: `RecoveryScope::All` (store and restore are collective).

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use kokkos_resilience::backend::{pack_views, unpack_views};
use kokkos_resilience::{DataBackend, RegionViews};
use redstore::{RedError, RedStore, RedundancyGroup, RedundancyMode};
use simmpi::{Comm, MpiError, MpiResult};

/// Kokkos Resilience data backend storing checkpoints in the redundancy
/// tier.
pub struct RedstoreBackend {
    store: Arc<RedStore>,
    mode: Option<RedundancyMode>,
    /// Who lacked the committed version at the last agreement, per member:
    /// what the restore that agreement arms hands the store.
    recovering: RefCell<HashMap<u32, Vec<usize>>>,
}

impl RedstoreBackend {
    /// `store` must outlive Fenix repairs (create it outside the run loop);
    /// `mode = None` selects the strongest placement-feasible mode for the
    /// communicator's node layout (RS(4,2) → XOR(3) → 2-replica).
    pub fn new(store: Arc<RedStore>, mode: Option<RedundancyMode>) -> Self {
        RedstoreBackend {
            store,
            mode,
            recovering: RefCell::default(),
        }
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
fn red_err(e: RedError) -> MpiError {
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
        let frame = pack_views(comm.router().cluster().pool(), views);
        group
            .store(Self::member_of(name), version, frame)
            .map_err(red_err)
    }

    fn latest_agreed_below(&self, comm: &Comm, name: &str, bound: u64) -> MpiResult<Option<u64>> {
        let member = Self::member_of(name);
        let group = RedundancyGroup::new(Arc::clone(&self.store), comm, self.mode);
        let Some((committed, recovering)) = group.possession(member).map_err(red_err)? else {
            return Ok(None);
        };
        // Peer memory holds one version. When it is above the bound (the
        // final iteration's commit, which leaves no region execution to
        // carry the restore) there is nothing older to fall back to: a
        // cold restart, by design.
        if committed > bound {
            return Ok(None);
        }
        self.recovering.borrow_mut().insert(member, recovering);
        Ok(Some(committed))
    }

    fn restore(&self, comm: &Comm, name: &str, version: u64, views: &RegionViews) -> MpiResult<()> {
        let member = Self::member_of(name);
        // The list the agreement that armed this restore gathered; a
        // restore nothing armed is a protocol violation.
        let recovering = self.recovering.borrow_mut().remove(&member);
        let recovering = recovering.ok_or(MpiError::Aborted)?;
        let group = RedundancyGroup::new(Arc::clone(&self.store), comm, self.mode);
        let (got, blob) = group.restore(member, &recovering).map_err(red_err)?;
        debug_assert_eq!(got, version, "commit protocol keeps versions consistent");
        unpack_views(views, &blob)
    }

    fn clear(&self) {
        // Survivor copies must persist across context resets — clearing the
        // group store would defeat recovery. What a reset voids is the last
        // agreement, and with it the list it gathered.
        self.recovering.borrow_mut().clear();
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
