//! Pluggable data backends — the paper's Future Work §VII.A realized:
//! "adding a new backend tier to Kokkos Resilience … would enable even more
//! simplification and open the door for more process resilience strategies."
//!
//! A [`DataBackend`] stores and restores the classified views of a
//! checkpoint region. The built-in [`VelocBackend`] wraps the VeloC client
//! in either agreement mode; the `resilience` crate provides an in-memory
//! redundancy backend on top of Fenix data groups. Each backend owns its
//! best-version agreement (`latest_agreed`); the default is the manual
//! min-reduction of the paper's single-mode pattern.

use std::sync::Arc;

use cluster::Cluster;
use kokkos::capture::Checkpointable;
use simmpi::{Comm, MpiError, MpiResult};
use telemetry::Recorder;
use veloc::{Client, Config as VelocConfig, Mode, Protected, VelocError};

/// A classified region's checkpointed views, in stable detection order.
pub type RegionViews = [(u32, Arc<dyn Checkpointable>)];

/// Storage driver for checkpoint regions.
pub trait DataBackend: Send {
    /// Update the logical rank used for checkpoint naming/placement
    /// (called on context creation and after every reset).
    fn set_rank(&self, rank: usize);

    /// Store `views` as version `version` of region `name`. `comm` is the
    /// current resilient communicator (peer-storage backends communicate).
    fn checkpoint(
        &self,
        comm: &Comm,
        name: &str,
        version: u64,
        views: &RegionViews,
    ) -> MpiResult<()>;

    /// Newest version of `name` reachable with local knowledge only.
    fn latest_local(&self, name: &str) -> Option<u64>;

    /// Collective best-version agreement. The default is the paper's
    /// manual reduction for non-collective storage: the newest version
    /// available on *every* rank (min over each rank's newest). Backends
    /// with different reachability rules override it — collective VeloC
    /// agrees internally; peer-memory IMR takes the max, because a
    /// replacement rank (with no local copy) restores from its buddy.
    fn latest_agreed(&self, comm: &Comm, name: &str) -> MpiResult<Option<u64>> {
        self.latest_agreed_below(comm, name, u64::MAX)
    }

    /// [`Self::latest_agreed`] restricted to versions `<= bound`. Restart
    /// logic uses this when the newest agreed version leaves no iterations
    /// to replay (a kill at the final commit), so the lazy region-scoped
    /// restore would never fire: re-agreeing below the final version lands
    /// recovery inside the iteration space. The default bounds the
    /// min-reduction; backends with richer version indexes override it.
    fn latest_agreed_below(&self, comm: &Comm, name: &str, bound: u64) -> MpiResult<Option<u64>> {
        let local = self
            .latest_local(name)
            .filter(|&v| v <= bound)
            .map_or(-1i64, |v| v as i64);
        let min = comm.allreduce_scalar(local, simmpi::ReduceOp::Min)?;
        Ok((min >= 0).then_some(min as u64))
    }

    /// Restore `views` from version `version` of region `name`.
    /// `recovering_ranks` lists the communicator ranks that lost their
    /// state (peer-storage backends serve them from surviving copies).
    fn restore(
        &self,
        comm: &Comm,
        name: &str,
        version: u64,
        views: &RegionViews,
        recovering_ranks: &[usize],
    ) -> MpiResult<()>;

    /// Block until asynchronous operations complete.
    fn wait(&self) {}

    /// Clear cached protection state (context reset).
    fn clear(&self) {}

    /// Attach a telemetry recorder for storage-layer lifecycle events.
    /// Backends with nothing to trace keep the default no-op.
    fn set_recorder(&self, rec: Recorder) {
        let _ = rec;
    }
}

/// Adapter: a captured view as a VeloC protected region.
struct ViewRegion(Arc<dyn Checkpointable>);

impl Protected for ViewRegion {
    fn snapshot(&self) -> bytes::Bytes {
        self.0.snapshot()
    }

    fn restore(&self, data: &[u8]) {
        self.0.restore(data);
    }

    fn byte_len(&self) -> usize {
        self.0.meta().bytes
    }

    fn generation(&self) -> Option<u64> {
        // Forwarding the view's allocation stamp (rather than minting one
        // per wrapper) is what lets delta chains survive the re-wrap that
        // every checkpoint's `protect` performs.
        self.0.generation()
    }

    fn snapshot_into(&self, out: &mut [u8]) -> bool {
        // Forward so the view's direct-copy path (no intermediate `Bytes`)
        // survives the trait-object hop into the zero-copy pack.
        self.0.snapshot_into(out)
    }
}

/// The VeloC-based backend (both agreement modes).
pub struct VelocBackend {
    client: Client,
}

impl VelocBackend {
    pub fn new(cluster: &Cluster, physical_rank: usize, mode: Mode) -> Self {
        VelocBackend {
            client: Client::init(
                cluster.clone(),
                physical_rank,
                VelocConfig {
                    mode,
                    async_flush: true,
                },
            ),
        }
    }

    fn protect(&self, views: &RegionViews) {
        // Replace the whole protection table atomically; the fresh wrappers
        // still forward each view's allocation stamp, so re-registering the
        // same views keeps their delta chains alive.
        self.client.protect_exact(
            views
                .iter()
                .map(|(id, handle)| {
                    (
                        *id,
                        Arc::new(ViewRegion(Arc::clone(handle))) as Arc<dyn Protected>,
                    )
                })
                .collect(),
        );
    }

    fn unwrap_veloc<T>(r: Result<T, VelocError>) -> MpiResult<T> {
        r.map_err(|e| match e {
            VelocError::Mpi(m) => m,
            // Local, non-MPI failures: no recovery layer can claim these, so
            // the job aborts — through the error channel, not a panic that
            // would strand the surviving ranks in their collectives.
            VelocError::NotFound { .. }
            | VelocError::Corrupt { .. }
            | VelocError::UnknownRegion { .. }
            | VelocError::NoCommunicator
            | VelocError::BackendSpawn { .. } => MpiError::Aborted,
        })
    }
}

impl DataBackend for VelocBackend {
    fn set_rank(&self, rank: usize) {
        self.client.set_rank(rank);
    }

    fn checkpoint(
        &self,
        _comm: &Comm,
        name: &str,
        version: u64,
        views: &RegionViews,
    ) -> MpiResult<()> {
        self.protect(views);
        Self::unwrap_veloc(self.client.checkpoint(name, version))
    }

    fn latest_local(&self, name: &str) -> Option<u64> {
        self.client.latest_version(name)
    }

    fn latest_agreed_below(&self, comm: &Comm, name: &str, bound: u64) -> MpiResult<Option<u64>> {
        // Both modes agree on the newest *intact* version: the paper's
        // manual min-reduction picks the newest version available
        // everywhere, but an agreed-and-corrupt blob would wedge restart —
        // the hardened agreement degrades to an older verified version.
        Self::unwrap_veloc(
            self.client
                .agree_intact_version_below(name, bound, Some(comm)),
        )
    }

    fn restore(
        &self,
        _comm: &Comm,
        name: &str,
        version: u64,
        views: &RegionViews,
        _recovering_ranks: &[usize],
    ) -> MpiResult<()> {
        self.protect(views);
        Self::unwrap_veloc(self.client.restart(name, version)).map(|_| ())
    }

    fn wait(&self) {
        self.client.checkpoint_wait();
    }

    fn clear(&self) {
        self.client.checkpoint_wait();
        self.client.clear_protected();
        // A context reset means recovery may roll this rank back; any
        // remembered delta base is a base it can no longer assume it holds.
        self.client.invalidate_deltas();
    }

    fn set_recorder(&self, rec: Recorder) {
        self.client.set_recorder(rec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, TimeScale};
    use kokkos::View;

    fn cluster() -> Cluster {
        let cfg = ClusterConfig {
            nodes: 1,
            time_scale: TimeScale::instant(),
            ..ClusterConfig::default()
        };
        Cluster::new(cfg)
    }

    fn views(v: &View<u64>) -> Vec<(u32, Arc<dyn Checkpointable>)> {
        vec![(0, Arc::new(v.clone()))]
    }

    #[test]
    fn unwrap_veloc_forwards_mpi_and_aborts_local_failures() {
        assert!(matches!(
            VelocBackend::unwrap_veloc::<()>(Err(VelocError::Mpi(MpiError::Revoked))),
            Err(MpiError::Revoked)
        ));
        assert!(matches!(
            VelocBackend::unwrap_veloc::<()>(Err(VelocError::Corrupt { path: "p".into() })),
            Err(MpiError::Aborted)
        ));
        assert_eq!(VelocBackend::unwrap_veloc(Ok(1)).unwrap(), 1);
    }

    #[test]
    fn veloc_backend_roundtrip_without_comm() {
        // Single-rank smoke test: store, clobber, restore.
        let c = cluster();
        let backend = VelocBackend::new(&c, 0, Mode::Single);
        let v: View<u64> = View::from_vec("data", vec![5, 6, 7]);
        let region = views(&v);
        // A dummy single-rank comm for the API.
        let router = simmpi::router::Router::new(c.clone());
        let comm = simmpi::Comm::from_group(router, 1, 0, vec![0], 0);
        backend.checkpoint(&comm, "bk", 3, &region).unwrap();
        backend.wait();
        assert_eq!(backend.latest_local("bk"), Some(3));
        v.fill(0);
        backend.restore(&comm, "bk", 3, &region, &[]).unwrap();
        assert_eq!(*v.read_uncaptured(), vec![5, 6, 7]);
    }

    #[test]
    fn default_agreement_is_min_reduction() {
        // On a single-rank comm the default agreement is just latest_local.
        let c = cluster();
        let backend = VelocBackend::new(&c, 0, Mode::Single);
        let router = simmpi::router::Router::new(c.clone());
        let comm = simmpi::Comm::from_group(router, 1, 0, vec![0], 0);
        assert_eq!(backend.latest_agreed(&comm, "none").unwrap(), None);
    }
}
