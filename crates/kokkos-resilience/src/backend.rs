//! Pluggable data backends — the paper's Future Work §VII.A realized:
//! "adding a new backend tier to Kokkos Resilience … would enable even more
//! simplification and open the door for more process resilience strategies."
//!
//! A [`DataBackend`] stores and restores the classified views of a
//! checkpoint region. The built-in [`VelocBackend`] wraps the VeloC
//! client; the `resilience` crate provides a peer-memory backend on top of
//! the redundancy store. Each backend owns its restart agreement
//! ([`DataBackend::latest_agreed_below`]) — which reduction is right
//! depends on who can reach a version, so the trait has no default.

use std::sync::Arc;

use bytes::Bytes;
use cluster::{Cluster, Pool};
use kokkos::capture::Checkpointable;
use parking_lot::Mutex;
use simmpi::{Comm, MpiError, MpiResult};
use telemetry::Recorder;
use veloc::{Client, Config as VelocConfig, Protected, VelocError};

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

    /// The backend's restart agreement: the newest version of `name`, at or
    /// below `bound`, that every rank of `comm` can be restored to.
    /// Collective, and required — which reduction is right depends on who
    /// can reach a version. Per-rank storage (VeloC) takes the newest
    /// version intact on *every* rank; peer memory agrees by possession,
    /// because a replacement rank, holding nothing, is restored from the
    /// survivors' copies.
    ///
    /// `bound` is `u64::MAX` for "the newest". Restart logic lowers it when
    /// the newest agreed version leaves no iterations to replay (a kill at
    /// the final commit), so the lazy region-scoped restore would never
    /// fire: re-agreeing below the final version lands recovery inside the
    /// iteration space.
    fn latest_agreed_below(&self, comm: &Comm, name: &str, bound: u64) -> MpiResult<Option<u64>>;

    /// Restore `views` from version `version` of region `name` — the
    /// version the last [`Self::latest_agreed_below`] returned.
    fn restore(&self, comm: &Comm, name: &str, version: u64, views: &RegionViews) -> MpiResult<()>;

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

/// Adapter: a captured view as a VeloC protected region — the one place a
/// [`Checkpointable`] becomes a [`Protected`], for every strategy.
struct ViewRegion(Arc<dyn Checkpointable>);

impl Protected for ViewRegion {
    fn snapshot(&self) -> Bytes {
        self.0.snapshot()
    }

    fn restore(&self, data: &[u8]) {
        self.0.restore(data);
    }

    fn byte_len(&self) -> usize {
        self.0.byte_len()
    }

    fn generation(&self) -> Option<u64> {
        // Forwarding the view's allocation stamp (rather than minting one
        // per wrapper) is what lets delta chains survive the re-wrap that
        // every checkpoint's `protect` performs.
        self.0.generation()
    }

    fn with_bytes(&self, f: &mut dyn FnMut(&[u8])) {
        // Forward so the view lends its storage (no intermediate `Bytes`)
        // across the trait-object hop into the zero-copy pack.
        self.0.with_bytes(f);
    }
}

fn protected(views: &RegionViews) -> Vec<(u32, Arc<dyn Protected>)> {
    views
        .iter()
        .map(|(id, view)| {
            let region: Arc<dyn Protected> = Arc::new(ViewRegion(Arc::clone(view)));
            (*id, region)
        })
        .collect()
}

/// Pack `views` into one self-contained checkpoint frame — what the
/// peer-memory tiers store (they keep whole versions, never delta chains) —
/// in a buffer from the cluster's `pool`.
pub fn pack_views(pool: &'static Pool, views: &RegionViews) -> Bytes {
    veloc::serial::pack(pool, None, &protected(views), &[])
}

/// Restore `views` from a peer-memory frame. A blob that fails its
/// integrity checks (a bit-rotted peer copy), is a delta, or whose region
/// ids are not exactly the ids of `views` is a data loss: rejected before
/// any view is touched, and reported through the error channel like every
/// other unrecoverable outcome instead of panicking one rank under its
/// peers.
pub fn unpack_views(views: &RegionViews, blob: &Bytes) -> MpiResult<()> {
    let frame = veloc::serial::unpack(blob).ok_or(MpiError::Aborted)?;
    let mut payloads = frame.changed;
    payloads.sort_unstable_by_key(|(id, _)| *id);
    let mut targets: Vec<&(u32, Arc<dyn Checkpointable>)> = views.iter().collect();
    targets.sort_unstable_by_key(|(id, _)| *id);
    let ids_match = payloads.iter().map(|p| p.0).eq(targets.iter().map(|t| t.0));
    if frame.base_version.is_some() || !ids_match {
        return Err(MpiError::Aborted);
    }
    for ((_, view), (_, payload)) in targets.iter().zip(&payloads) {
        view.restore(payload);
    }
    Ok(())
}

/// Route a VeloC error to the layer that can claim it.
fn veloc_err(e: VelocError) -> MpiError {
    match e {
        VelocError::Mpi(m) => m,
        // Local, non-MPI failures: no recovery layer can claim these, so
        // the job aborts — through the error channel, not a panic that
        // would strand the surviving ranks in their collectives.
        VelocError::NotFound { .. }
        | VelocError::Corrupt { .. }
        | VelocError::UnknownRegion { .. }
        | VelocError::BackendSpawn { .. } => MpiError::Aborted,
    }
}

/// One protected view: its id, the view, and its VeloC adapter.
type Adapter = (u32, Arc<dyn Checkpointable>, Arc<dyn Protected>);

/// The views a [`VelocBackend`] protected last.
#[derive(Default)]
struct Adapters {
    /// Each view with its adapter, as VeloC holds them.
    held: Vec<Adapter>,
    /// Whether VeloC's protection table is `held` (a reset clears it).
    registered: bool,
}

/// The VeloC-based backend.
pub struct VelocBackend {
    client: Client,
    /// A region protects the same views at every checkpoint: when they are
    /// the ones held, VeloC's table already is right and nothing is done.
    /// A reset keeps them, so a survivor's re-detected views, the same
    /// objects, are registered again without new adapters.
    adapters: Mutex<Adapters>,
}

impl VelocBackend {
    pub fn new(cluster: &Cluster, physical_rank: usize) -> Self {
        VelocBackend {
            client: Client::init(cluster.clone(), physical_rank, VelocConfig::default()),
            adapters: Mutex::default(),
        }
    }

    fn protect(&self, views: &RegionViews) {
        let mut adapters = self.adapters.lock();
        let Adapters { held, registered } = &mut *adapters;
        let same = held.len() == views.len()
            && (held.iter().zip(views))
                .all(|((a, held, _), (id, view))| a == id && Arc::ptr_eq(held, view));
        if same && *registered {
            return;
        }
        if !same {
            held.clear();
            held.extend(views.iter().map(|(id, view)| {
                let region: Arc<dyn Protected> = Arc::new(ViewRegion(Arc::clone(view)));
                (*id, Arc::clone(view), region)
            }));
        }
        // Replace the whole protection table atomically; the adapters
        // forward each view's allocation stamp, so re-registering the same
        // views keeps their delta chains alive.
        self.client
            .protect_exact(held.iter().map(|(id, _, region)| (*id, Arc::clone(region))));
        *registered = true;
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
        self.client.checkpoint(name, version).map_err(veloc_err)
    }

    fn latest_agreed_below(&self, comm: &Comm, name: &str, bound: u64) -> MpiResult<Option<u64>> {
        // The newest *intact* version: the paper's manual min-reduction
        // picks the newest version available everywhere, but an
        // agreed-and-corrupt blob would wedge restart — the hardened
        // agreement degrades to an older verified version.
        self.client
            .agree_intact_version(name, bound, Some(comm))
            .map_err(veloc_err)
    }

    fn restore(
        &self,
        _comm: &Comm,
        name: &str,
        version: u64,
        views: &RegionViews,
    ) -> MpiResult<()> {
        self.protect(views);
        self.client
            .restart(name, version)
            .map(drop)
            .map_err(veloc_err)
    }

    fn wait(&self) {
        self.client.checkpoint_wait();
    }

    fn clear(&self) {
        self.client.checkpoint_wait();
        self.adapters.lock().registered = false;
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
    fn veloc_err_forwards_mpi_and_aborts_local_failures() {
        assert_eq!(
            veloc_err(VelocError::Mpi(MpiError::Revoked)),
            MpiError::Revoked
        );
        assert_eq!(
            veloc_err(VelocError::Corrupt {
                name: "p".into(),
                version: 1
            }),
            MpiError::Aborted
        );
    }

    #[test]
    fn damaged_or_foreign_blobs_abort_instead_of_panicking() {
        let a: View<u64> = View::from_vec("a", vec![1, 2, 3]);
        let b: View<u64> = View::from_vec("b", vec![4, 5]);
        let views: Vec<(u32, Arc<dyn Checkpointable>)> =
            vec![(7, Arc::new(a.clone())), (9, Arc::new(b.clone()))];
        let c = cluster();
        let blob = pack_views(c.pool(), &views);
        a.fill(0);
        b.fill(0);
        let nothing_restored = |case: &str| {
            assert_eq!(*a.read_uncaptured(), vec![0, 0, 0], "{case}");
            assert_eq!(*b.read_uncaptured(), vec![0, 0], "{case}");
        };

        // A bit-rotted peer copy: the payload CRC rejects it.
        let mut rotted = blob.to_vec();
        *rotted.last_mut().expect("non-empty blob") ^= 0xFF;
        assert_eq!(
            unpack_views(&views, &Bytes::from(rotted)),
            Err(MpiError::Aborted)
        );
        nothing_restored("rotted");

        // An intact delta frame: peer memory holds no chain to resolve it.
        let delta = veloc::serial::pack(c.pool(), Some(3), &protected(&views[..1]), &[9]);
        assert_eq!(unpack_views(&views, &delta), Err(MpiError::Aborted));
        nothing_restored("delta");

        // Intact full frames whose id set is not the views': one region
        // short, one region foreign (its first id matches — and must still
        // not be restored).
        let short = pack_views(c.pool(), &views[..1]);
        assert_eq!(unpack_views(&views, &short), Err(MpiError::Aborted));
        let foreign: Vec<(u32, Arc<dyn Checkpointable>)> =
            vec![(7, Arc::new(a.clone())), (8, Arc::new(b.clone()))];
        assert_eq!(unpack_views(&foreign, &blob), Err(MpiError::Aborted));
        nothing_restored("id-set mismatch");

        unpack_views(&views, &blob).expect("the intact blob still restores");
        assert_eq!(*b.read_uncaptured(), vec![4, 5]);
    }

    #[test]
    fn view_adapter_never_takes_an_owned_snapshot() {
        // The adapter forwards `with_bytes`, so both writers — the VeloC
        // client and the peer-memory `pack_views` — copy a view once, from
        // the storage it lends into the frame, and never ask it for an
        // owned snapshot. The frame then *is* the blob: the pool buffer a
        // dropped blob hands back is where the next blob's bytes live.
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        struct Counted(View<u64>, AtomicUsize, AtomicUsize);
        impl Checkpointable for Counted {
            fn meta(&self) -> kokkos::ViewMeta {
                Checkpointable::meta(&self.0)
            }
            fn snapshot(&self) -> Bytes {
                self.1.fetch_add(1, Relaxed);
                self.0.snapshot()
            }
            fn restore(&self, data: &[u8]) {
                self.0.restore(data);
            }
            fn with_bytes(&self, f: &mut dyn FnMut(&[u8])) {
                self.2.fetch_add(1, Relaxed);
                self.0.with_bytes(f);
            }
        }
        let c = cluster();
        // 128 KiB: a frame the pool recycles.
        let data: Vec<u64> = (0..16 << 10).collect();
        let counted = Arc::new(Counted(
            View::from_vec("data", data.clone()),
            0.into(),
            0.into(),
        ));
        let region: Vec<(u32, Arc<dyn Checkpointable>)> = vec![(0, counted.clone())];
        let backend = VelocBackend::new(&c, 0);
        let router = simmpi::router::Router::new(c.clone());
        let comm = simmpi::Comm::from_group(router, 1, 0, vec![0], 0);
        backend.checkpoint(&comm, "bk", 1, &region).unwrap();
        backend.wait();
        // A pool of this test's own: the tests beside it take from the
        // process's.
        static POOL: std::sync::LazyLock<Pool> = std::sync::LazyLock::new(Pool::default);
        let blob = pack_views(&POOL, &region);
        assert_eq!(counted.1.load(Relaxed), 0);
        assert_eq!(counted.2.load(Relaxed), 2, "one lend per writer");
        let at = blob.as_ptr();
        drop(blob);
        let again = pack_views(&POOL, &region);
        assert_eq!((POOL.stats().hits, again.as_ptr()), (1, at));
        assert_eq!(counted.1.load(Relaxed), 0);
        counted.0.fill(0);
        unpack_views(&region, &again).unwrap();
        assert_eq!(*counted.0.read_uncaptured(), data);
    }

    #[test]
    fn veloc_backend_roundtrip_without_comm() {
        // Single-rank smoke test: store, clobber, restore.
        let c = cluster();
        let backend = VelocBackend::new(&c, 0);
        let v: View<u64> = View::from_vec("data", vec![5, 6, 7]);
        let region = views(&v);
        // A dummy single-rank comm for the API.
        let router = simmpi::router::Router::new(c.clone());
        let comm = simmpi::Comm::from_group(router, 1, 0, vec![0], 0);
        let agreed = |bound| backend.latest_agreed_below(&comm, "bk", bound).unwrap();
        assert_eq!(agreed(u64::MAX), None);
        backend.checkpoint(&comm, "bk", 3, &region).unwrap();
        backend.wait();
        assert_eq!(agreed(u64::MAX), Some(3));
        assert_eq!(agreed(2), None);
        v.fill(0);
        backend.restore(&comm, "bk", 3, &region).unwrap();
        assert_eq!(*v.read_uncaptured(), vec![5, 6, 7]);
    }
}
