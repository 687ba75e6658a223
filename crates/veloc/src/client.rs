//! The VeloC client API.
//!
//! One [`Client`] per rank. The client distinguishes two rank identities:
//!
//! * the **physical rank** — the global rank whose NIC and node-local
//!   scratch this client uses; and
//! * the **logical rank** — the id used in checkpoint file names.
//!
//! Under Fenix, a spare that replaces a failed rank keeps its own physical
//! placement but assumes the victim's *logical* rank ([`Client::set_rank`],
//! the paper's "update cached information … on the current rank ID"). Its
//! checkpoints-by-name are on the parallel filesystem (flushed there by the
//! victim before dying) but not in its own scratch — so a recovered rank
//! pays a remote read while survivors restore from scratch. This asymmetry
//! is central to the paper's recovery-cost results.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use bytes::Bytes;
use cluster::Cluster;
use parking_lot::Mutex;
use simmpi::{Comm, MpiError, ReduceOp};
use telemetry::{Event, Recorder};

use crate::backend::{self, ActiveBackend, FlushJob};
use crate::region::Protected;
use crate::serial;

/// Longest delta chain the client will emit before forcing a full frame.
/// Bounds both restart's chain walk and the blast radius of a lost base.
pub const MAX_DELTA_DEPTH: usize = 8;

/// Delta bookkeeping for one checkpoint name: what the last *committed*
/// (acknowledged to the application) version looked like.
#[derive(Clone, Debug)]
struct ChainState {
    /// Version the stamps below were committed under.
    version: u64,
    /// Region id → dirty-tracking stamp at commit time. `None` stamps mean
    /// the region does not support tracking and is re-sent every time.
    gens: BTreeMap<u32, Option<u64>>,
    /// Delta-chain length ending at `version` (0 = full frame).
    depth: usize,
}

/// Client configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Flush scratch→PFS asynchronously on the backend thread (VeloC's
    /// async mode, used throughout the paper). When false the flush happens
    /// inside `checkpoint` (VeloC sync mode).
    pub async_flush: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config { async_flush: true }
    }
}

/// Per-stage accounting of one restart — the numbers behind the paper's
/// recovery-cost claim. `read_ns` covers the chain walk (tier reads + meta
/// parse), `verify_ns` the payload checksumming, `apply_ns` the
/// in-order restore into protected regions. All three are modeled-clock
/// durations under a virtual clock and wall durations otherwise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Regions restored.
    pub regions: usize,
    /// Payload bytes written back into protected memory.
    pub bytes_restored: u64,
    /// Frames the delta-chain walk visited (1 = full frame).
    pub frames_walked: usize,
    pub read_ns: u64,
    pub verify_ns: u64,
    pub apply_ns: u64,
}

/// Errors from checkpoint/restart operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VelocError {
    /// No checkpoint with the requested name/version is reachable.
    NotFound { name: String, version: u64 },
    /// The stored blob failed to deserialize.
    Corrupt { path: String },
    /// A stored region id has no matching protected region.
    UnknownRegion { id: u32 },
    /// An MPI error during collective agreement.
    Mpi(MpiError),
    /// The asynchronous flush backend thread could not be spawned. This is
    /// recoverable: the client degrades to synchronous flushing.
    BackendSpawn { reason: String },
}

impl std::fmt::Display for VelocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VelocError::NotFound { name, version } => {
                write!(f, "checkpoint {name} v{version} not found")
            }
            VelocError::Corrupt { path } => write!(f, "corrupt checkpoint blob at {path}"),
            VelocError::UnknownRegion { id } => write!(f, "no protected region with id {id}"),
            VelocError::Mpi(e) => write!(f, "MPI error during restart agreement: {e}"),
            VelocError::BackendSpawn { reason } => {
                write!(
                    f,
                    "could not spawn flush backend ({reason}); flushing synchronously"
                )
            }
        }
    }
}

impl std::error::Error for VelocError {}

impl From<MpiError> for VelocError {
    fn from(e: MpiError) -> Self {
        VelocError::Mpi(e)
    }
}

/// The per-rank checkpoint/restart client.
pub struct Client {
    cluster: Cluster,
    /// Physical (global) rank: placement of NIC and scratch.
    physical_rank: usize,
    /// Logical rank: checkpoint naming. Mutable across Fenix repairs.
    logical_rank: Mutex<usize>,
    regions: Mutex<BTreeMap<u32, Arc<dyn Protected>>>,
    /// Per-name delta bookkeeping ([`ChainState`]). Cleared by
    /// [`Client::invalidate_deltas`] whenever the rank can no longer vouch
    /// for the base a delta would reference (logical-rank change, context
    /// reset).
    chains: Mutex<HashMap<String, ChainState>>,
    /// `None` when flushing synchronously — either by configuration or
    /// because the backend thread could not be spawned (see `spawn_error`).
    backend: Option<ActiveBackend>,
    /// Why async flushing was degraded to synchronous, if it was.
    spawn_error: Option<VelocError>,
    recorder: Mutex<Recorder>,
}

impl Client {
    /// Initialize a client for `physical_rank` (which is also the initial
    /// logical rank).
    ///
    /// If the asynchronous flush backend cannot be spawned the client does
    /// not fail: it degrades to synchronous flushing (every checkpoint pays
    /// the scratch→PFS transfer inline) and records the reason, observable
    /// via [`Client::spawn_error`] / [`Client::async_flush_active`].
    pub fn init(cluster: Cluster, physical_rank: usize, config: Config) -> Self {
        // Under a virtual-time cluster (the DES backend) there is no
        // free-running worker to overlap with: flushes run synchronously
        // on the rank task so the schedule stays a pure function of the
        // seed. This is a backend choice, not a degradation — spawn_error
        // stays clear.
        let async_flush = config.async_flush && !cluster.clock().is_virtual();
        let (backend, spawn_error) = if async_flush {
            match ActiveBackend::spawn(cluster.clone(), physical_rank) {
                Ok(b) => (Some(b), None),
                Err(e) => (None, Some(e)),
            }
        } else {
            (None, None)
        };
        Client {
            cluster,
            physical_rank,
            logical_rank: Mutex::new(physical_rank),
            regions: Mutex::new(BTreeMap::new()),
            chains: Mutex::new(HashMap::new()),
            backend,
            spawn_error,
            recorder: Mutex::new(Recorder::disabled()),
        }
    }

    /// Whether flushes actually run on the background thread. False in sync
    /// mode and when async mode degraded because the backend failed to spawn.
    pub fn async_flush_active(&self) -> bool {
        self.backend.is_some()
    }

    /// The spawn failure that degraded async flushing, if any.
    pub fn spawn_error(&self) -> Option<&VelocError> {
        self.spawn_error.as_ref()
    }

    /// Attach a telemetry recorder; checkpoint/restart lifecycle events go
    /// through it (including [`Event::FlushDone`] from the backend thread).
    pub fn set_recorder(&self, rec: Recorder) {
        *self.recorder.lock() = rec;
    }

    fn recorder(&self) -> Recorder {
        self.recorder.lock().clone()
    }

    pub fn physical_rank(&self) -> usize {
        self.physical_rank
    }

    pub fn logical_rank(&self) -> usize {
        *self.logical_rank.lock()
    }

    /// Update the logical rank after a process-pool change (Fenix repair or
    /// shrunk-communicator continuation).
    ///
    /// Also invalidates delta bookkeeping: checkpoint paths embed the
    /// logical rank, so any base version committed under the old identity
    /// is not the file a delta written under the new identity would chain
    /// to. A recovered rank must never emit a delta against a base it no
    /// longer possesses — its first checkpoint after this call is a full
    /// frame.
    pub fn set_rank(&self, logical_rank: usize) {
        self.invalidate_deltas();
        *self.logical_rank.lock() = logical_rank;
    }

    /// Forget every committed delta base, forcing the next checkpoint of
    /// every name to be a self-contained full frame. Called on any event
    /// after which this rank can no longer vouch for its bases: a Fenix
    /// repair / context reset ([`Self::set_rank`] calls this internally),
    /// or an explicit backend clear.
    pub fn invalidate_deltas(&self) {
        self.chains.lock().clear();
    }

    fn node(&self) -> usize {
        self.cluster.topology().node_of(self.physical_rank)
    }

    fn path(&self, name: &str, version: u64) -> String {
        format!("{name}/v{version}/r{}", self.logical_rank())
    }

    // ---- protection -------------------------------------------------------

    /// Register a memory region under `id` (VeloC `mem_protect`). Replaces
    /// any previous region with the same id.
    pub fn protect(&self, id: u32, region: Arc<dyn Protected>) {
        self.recorder().emit_with(|| Event::Protect {
            name: id.to_string(),
            bytes: region.byte_len() as u64,
        });
        self.regions.lock().insert(id, region);
    }

    /// Drop every protected region (used by a Kokkos Resilience context
    /// reset, which re-registers views after a repair).
    ///
    /// Does *not* invalidate delta bookkeeping: generation stamps are
    /// globally unique, so re-registering the same allocations later still
    /// matches the committed stamps (delta resumes), while registering
    /// different allocations under the same ids can never collide with
    /// them (full frame follows). Reset paths that also lose the *files* a
    /// delta would chain to call [`Self::invalidate_deltas`] explicitly.
    pub fn clear_protected(&self) {
        self.regions.lock().clear();
    }

    /// Replace the whole protection table in one call — equivalent to
    /// [`Self::clear_protected`] followed by [`Self::protect`] for each
    /// entry, in one lock acquisition. Kokkos Resilience re-registers
    /// every captured view before each checkpoint; routing that through
    /// here keeps re-registration cheap and delta-friendly.
    pub fn protect_exact(&self, entries: Vec<(u32, Arc<dyn Protected>)>) {
        let rec = self.recorder();
        for (id, region) in &entries {
            rec.emit_with(|| Event::Protect {
                name: id.to_string(),
                bytes: region.byte_len() as u64,
            });
        }
        let mut regions = self.regions.lock();
        regions.clear();
        regions.extend(entries);
    }

    /// Number of protected regions.
    pub fn protected_count(&self) -> usize {
        self.regions.lock().len()
    }

    // ---- checkpoint -------------------------------------------------------

    /// Take checkpoint `version` under `name`.
    ///
    /// Blocks on any previous outstanding flush (`checkpoint_wait`), then
    /// serializes the protected regions to node-local scratch; the flush to
    /// the parallel filesystem proceeds asynchronously unless the client is
    /// configured for synchronous flushing. The synchronous part — what the
    /// paper books as "Checkpoint Function" — is everything this method does
    /// before returning.
    ///
    /// The frame written is incremental where the dirty tracking allows:
    /// regions whose generation stamp did not move since the last committed
    /// version of `name` are referenced by id only (VCF2 delta), so the
    /// synchronous cost scales with *changed* bytes, not protected bytes.
    pub fn checkpoint(&self, name: &str, version: u64) -> Result<(), VelocError> {
        let rec = self.recorder();
        rec.emit_with(|| Event::CheckpointBegin {
            name: name.to_owned(),
            version,
        });
        self.checkpoint_wait();
        // Snapshot the region *handles* under the lock and pack outside
        // it, so a concurrent `protect` from another thread never stalls
        // behind a large pack.
        let handles: Vec<(u32, Arc<dyn Protected>)> = {
            let regions = self.regions.lock();
            regions.iter().map(|(&id, r)| (id, Arc::clone(r))).collect()
        };
        // Read stamps *before* snapshotting. Writers re-stamp before
        // taking their data lock, so this order means a racing write is
        // either fully visible in the snapshot or re-stamps afterwards and
        // dirties the next checkpoint — never silently skipped.
        let gens: Vec<(u32, Option<u64>)> = handles
            .iter()
            .map(|(id, r)| (*id, r.generation()))
            .collect();
        let (base, depth, unchanged) = self.plan_delta(name, version, &gens);
        let unchanged_set: BTreeSet<u32> = unchanged.iter().copied().collect();
        let changed: Vec<(u32, Arc<dyn Protected>)> = handles
            .iter()
            .filter(|(id, _)| !unchanged_set.contains(id))
            .map(|(id, r)| (*id, Arc::clone(r)))
            .collect();
        let blob = serial::pack(base, &changed, &unchanged);
        if let Some(metrics) = rec.metrics() {
            let protected: usize = handles.iter().map(|(_, r)| r.byte_len()).sum();
            metrics
                .counter(telemetry::names::VELOC_BYTES_PROTECTED)
                .add(protected as u64);
            metrics
                .counter(telemetry::names::VELOC_BYTES_WRITTEN)
                .add(blob.len() as u64);
            if base.is_some() {
                metrics.counter(telemetry::names::VELOC_DELTA_FRAMES).inc();
            }
        }
        let path = self.path(name, version);
        // Chaos corruption hook: the scratch copy may be damaged on its way
        // down. Borrows the blob, so the common path never copies.
        let scratch_blob = self
            .cluster
            .injector()
            .and_then(|inj| inj.corrupt_write(cluster::StorageTier::Scratch, &path, &blob))
            .unwrap_or_else(|| blob.clone());
        self.cluster
            .scratch()
            .write(self.node(), &path, scratch_blob);
        // Commit the stamps only after the blob exists on scratch: this
        // version is now a legitimate base for the next delta.
        self.chains.lock().insert(
            name.to_owned(),
            ChainState {
                version,
                gens: gens.into_iter().collect(),
                depth,
            },
        );
        rec.emit_with(|| Event::CheckpointLocal {
            name: name.to_owned(),
            version,
            bytes: blob.len() as u64,
        });
        if let Some(backend) = &self.backend {
            rec.emit_with(|| Event::FlushEnqueued {
                name: name.to_owned(),
                version,
            });
            backend.enqueue_flush(path, blob, name.to_owned(), version, rec);
        } else {
            let job = FlushJob {
                path,
                blob,
                name: name.to_owned(),
                version,
                rec,
            };
            backend::flush(&self.cluster, self.physical_rank, job);
        }
        Ok(())
    }

    /// Decide the delta plan for the next checkpoint of `name`: the base
    /// version to reference (`None` = full frame), the resulting chain
    /// depth, and the ids to carry as unchanged.
    ///
    /// A region counts as unchanged only under the strictest reading: the
    /// committed state is for an older version of the same name, the region
    /// id sets match exactly, and both stamps are `Some` and equal. Any
    /// doubt — missing state, version reuse, membership drift, a `None`
    /// stamp, chain at [`MAX_DELTA_DEPTH`] — degrades to a full frame.
    fn plan_delta(
        &self,
        name: &str,
        version: u64,
        gens: &[(u32, Option<u64>)],
    ) -> (Option<u64>, usize, Vec<u32>) {
        let chains = self.chains.lock();
        let Some(committed) = chains.get(name) else {
            return (None, 0, Vec::new());
        };
        let ids_match = committed.gens.len() == gens.len()
            && gens.iter().all(|(id, _)| committed.gens.contains_key(id));
        if committed.version >= version || committed.depth >= MAX_DELTA_DEPTH || !ids_match {
            return (None, 0, Vec::new());
        }
        let unchanged: Vec<u32> = gens
            .iter()
            .filter(|(id, g)| {
                g.is_some() && committed.gens.get(id).map(|c| *c == *g).unwrap_or(false)
            })
            .map(|(id, _)| *id)
            .collect();
        if unchanged.is_empty() {
            // Nothing to reference: a delta frame would only add a chain
            // dependency without saving a byte.
            return (None, 0, Vec::new());
        }
        (Some(committed.version), committed.depth + 1, unchanged)
    }

    /// Block until all asynchronous flushes complete. A no-op when flushing
    /// synchronously (nothing is ever outstanding).
    pub fn checkpoint_wait(&self) {
        if let Some(backend) = &self.backend {
            // lint: sanction(blocks): delegates to the backend drain
            // barrier; same DES yield point. audited 2026-08.
            backend.wait();
        }
    }

    // ---- restart ----------------------------------------------------------

    /// Versions of `name` reachable *by this rank* (scratch or PFS),
    /// ascending, each once. Reads each tier's `"{name}/"` directory — one
    /// seek per stored version — and keeps the versions whose
    /// `"{name}/v{version}/r{rank}"` path exists, so the cost does not depend
    /// on how many other ranks checkpointed under the same name.
    fn versions(&self, name: &str) -> Vec<u64> {
        let dir = format!("{name}/");
        let mut versions: Vec<u64> = self
            .cluster
            .scratch()
            .children(self.node(), &dir)
            .into_iter()
            .chain(self.cluster.pfs().children(&dir))
            .filter_map(|child| child.strip_prefix('v')?.parse().ok())
            .collect();
        versions.sort_unstable();
        versions.dedup();
        versions.retain(|&v| self.version_available(name, v));
        versions
    }

    /// Latest version of `name` reachable *by this rank* (scratch or PFS).
    /// This is the local half of the paper's manual best-version reduction.
    pub fn latest_version(&self, name: &str) -> Option<u64> {
        self.versions(name).last().copied()
    }

    /// Whether checkpoint `name`/`version` is reachable by this rank.
    pub fn version_available(&self, name: &str, version: u64) -> bool {
        let path = self.path(name, version);
        self.cluster.scratch().exists(self.node(), &path) || self.cluster.pfs().exists(&path)
    }

    /// Book `bytes` of payload as submitted to read-side checksum
    /// verification (`veloc.bytes_verified`).
    fn note_verified(&self, bytes: usize) {
        if let Some(metrics) = self.recorder().metrics() {
            metrics
                .counter(telemetry::names::VELOC_BYTES_VERIFIED)
                .add(bytes as u64);
        }
    }

    /// Read `name`/`version` and return the meta of a well-formed copy,
    /// preferring node-local scratch and degrading to the PFS — a corrupted
    /// scratch copy must not mask an intact PFS copy of the same version.
    /// With `checksum` the copy's payloads must verify too (an *intact*
    /// copy); without, shape and meta CRC alone decide.
    fn read_meta(&self, name: &str, version: u64, checksum: bool) -> Option<serial::FrameMeta> {
        let path = self.path(name, version);
        let accept = |blob: Bytes| {
            let meta = serial::parse_meta(&blob)?;
            if checksum {
                self.note_verified(meta.payload_bytes());
                if !meta.verify_payloads(&blob) {
                    return None;
                }
            }
            Some(meta)
        };
        let scratch = self.cluster.scratch().read(self.node(), &path);
        if let Some(meta) = scratch.and_then(|(blob, _)| accept(blob)) {
            return Some(meta);
        }
        let (blob, _) = self.cluster.pfs().read(&path)?;
        accept(blob)
    }

    /// Walk `version`'s base chain down to its full frame through
    /// [`Self::read_meta`]. Base references must strictly decrease, so a
    /// corrupt forward/self reference ends the walk as `false` instead of
    /// looping.
    fn chain_reads(&self, name: &str, version: u64, checksum: bool) -> bool {
        let mut v = version;
        loop {
            let Some(meta) = self.read_meta(name, v, checksum) else {
                return false;
            };
            match meta.base_version {
                None => return true,
                Some(base) if base < v => v = base,
                Some(_) => return false,
            }
        }
    }

    /// Whether this rank holds an *intact* (checksum-verified) copy of
    /// checkpoint `name`/`version` on either tier. A corrupted scratch copy
    /// with an intact PFS copy counts — restart falls back tier by tier.
    ///
    /// For an incremental (VCF2 delta) frame this walks the whole base
    /// chain: a delta is only as restorable as every frame beneath it, on
    /// whichever tier each happens to survive.
    pub fn version_intact(&self, name: &str, version: u64) -> bool {
        self.chain_reads(name, version, true)
    }

    /// Newest version of `name` at or below `bound` for which this rank
    /// holds an intact copy. This is the local half of the degraded
    /// agreement: a corrupt newest version must not wedge restart.
    pub fn latest_intact_version(&self, name: &str, bound: u64) -> Option<u64> {
        self.versions(name)
            .into_iter()
            .rev()
            .filter(|&v| v <= bound)
            .find(|&v| self.version_intact(name, v))
    }

    /// Agree on the newest version of `name`, at or below `bound`, that is
    /// intact on *every* rank of `comm` — the client's one restart
    /// agreement, and the degraded-but-correct replacement for the paper's
    /// plain min-reduction, which fails on an agreed-but-corrupt version.
    ///
    /// The client is always the paper's non-collective one: it owns no
    /// communicator, the caller passes the one that is current. Over the
    /// resilient communicator of a Fenix run that is the paper's manual
    /// reduction; over the world communicator of a relaunched job it is what
    /// stock collective VeloC does internally.
    ///
    /// The agreement is iterative: each round proposes the min over ranks of
    /// each rank's newest intact version below the current bound, then every
    /// rank whose own proposal lost verifies it holds that exact version
    /// intact (the winners have just checksummed it); on any miss the bound
    /// drops below the proposal and the loop repeats. Rounds strictly
    /// decrease the bound, so the loop terminates within the version count.
    /// With `comm == None` the answer is local-only (a sole rank, tests).
    ///
    /// `bound` is `u64::MAX` for "the newest". Restart logic lowers it when
    /// the newest agreed version leaves no work to replay (a kill at the
    /// final commit): the job re-agrees on an older version so recovery
    /// lands inside the iteration space.
    pub fn agree_intact_version(
        &self,
        name: &str,
        bound: u64,
        comm: Option<&Comm>,
    ) -> Result<Option<u64>, VelocError> {
        let Some(comm) = comm else {
            return Ok(self.latest_intact_version(name, bound));
        };
        let mut bound = bound;
        loop {
            let local = self.latest_intact_version(name, bound);
            let proposed =
                comm.allreduce_scalar(local.map_or(-1i64, |v| v as i64), ReduceOp::Min)?;
            if proposed < 0 {
                return Ok(None);
            }
            let v = proposed as u64;
            // A rank whose own proposal won has just checksummed `v` down its
            // whole chain in `latest_intact_version`; a second checksum pass
            // would tell nothing new (and restart's verify stage still
            // guards the apply). Its re-read of the chain by meta is
            // redundant too — the verdict is known — and stays only because
            // the cluster model charges the tier reads: without them the
            // modelled recovery time moves (`heatdis_ckpt`: −0.36 %), which
            // is a change for a PR that claims it (ROADMAP item 1), and the
            // `checksum` parameter goes with it. The re-read is not what the
            // losing ranks pay where a scratch copy has a sound meta over
            // bad payloads: they fall back to the PFS, this rank does not.
            let ok_here = self.chain_reads(name, v, local != Some(v));
            let all_ok = comm.allreduce_scalar(ok_here as i64, ReduceOp::Min)?;
            if all_ok == 1 {
                return Ok(Some(v));
            }
            // Some rank's copy of `v` is corrupt or missing: every rank
            // lowers the bound identically and proposes again.
            if v == 0 {
                return Ok(None);
            }
            bound = v - 1;
        }
    }

    /// Restore every protected region from checkpoint `name`/`version`.
    ///
    /// Reads node-local scratch when available (survivors), falling back to
    /// the parallel filesystem (recovered replacement ranks). Returns the
    /// number of regions restored.
    pub fn restart(&self, name: &str, version: u64) -> Result<usize, VelocError> {
        self.restart_report(name, version).map(|r| r.regions)
    }

    /// The name [`Client::restart_report`] had while payload verification
    /// fanned out over `workers` threads. The count is ignored; the name
    /// stays because `benchmark/` is compiled against it.
    pub fn restart_with_workers(
        &self,
        name: &str,
        version: u64,
        _workers: usize,
    ) -> Result<RestartReport, VelocError> {
        self.restart_report(name, version)
    }

    /// [`Client::restart`] with the full per-stage accounting.
    pub fn restart_report(&self, name: &str, version: u64) -> Result<RestartReport, VelocError> {
        let rec = self.recorder();
        rec.emit_with(|| Event::RestartBegin {
            name: name.to_owned(),
            version,
        });
        let out = self.restart_inner(name, version);
        rec.emit_with(|| Event::RestartEnd {
            name: name.to_owned(),
            version,
            ok: out.is_ok(),
        });
        out
    }

    fn restart_inner(&self, name: &str, version: u64) -> Result<RestartReport, VelocError> {
        struct WalkedFrame {
            path: String,
            blob: Bytes,
            meta: serial::FrameMeta,
            /// Whether `blob` came from scratch (a PFS copy may still exist
            /// as a verification-failure fallback) or already from PFS (no
            /// further tier to fall back to).
            from_scratch: bool,
        }

        let clock = self.cluster.clock();
        let t0 = clock.now_ns();

        // Stage 1 — chain walk by meta only. Each frame's *shape* (magic,
        // counts, extents, meta CRC) is validated here, which is all the
        // walk needs to follow base references; the expensive payload
        // checksums are deferred to stage 2. Every frame degrades tier by
        // tier independently: a corrupt scratch copy must not mask an
        // intact PFS copy of the same version.
        let mut frames: Vec<WalkedFrame> = Vec::new();
        let mut v = version;
        loop {
            let path = self.path(name, v);
            let mut present = false;
            let mut picked: Option<(Bytes, serial::FrameMeta, bool)> = None;
            if let Some((blob, _)) = self.cluster.scratch().read(self.node(), &path) {
                present = true;
                if let Some(meta) = serial::parse_meta(&blob) {
                    picked = Some((blob, meta, true));
                }
            }
            if picked.is_none() {
                if let Some((blob, _)) = self.cluster.pfs().read(&path) {
                    present = true;
                    if let Some(meta) = serial::parse_meta(&blob) {
                        picked = Some((blob, meta, false));
                    }
                }
            }
            if !present && frames.is_empty() {
                return Err(VelocError::NotFound {
                    name: name.to_owned(),
                    version,
                });
            }
            // A missing *base* of a chain already entered is corruption of
            // the chain, not absence of the checkpoint.
            let Some((blob, meta, from_scratch)) = picked else {
                return Err(VelocError::Corrupt { path });
            };
            let base = meta.base_version;
            frames.push(WalkedFrame {
                path,
                blob,
                meta,
                from_scratch,
            });
            match base {
                None => break,
                Some(base) if base < v => v = base,
                // A forward/self reference can only come from corruption;
                // refuse rather than loop.
                Some(_) => {
                    return Err(VelocError::Corrupt {
                        path: self.path(name, v),
                    })
                }
            }
        }
        let t_read = clock.now_ns();

        // Stage 2 — payload verification, in chain order (newest first).
        for f in frames.iter_mut() {
            self.note_verified(f.meta.payload_bytes());
            if f.meta.verify_payloads(&f.blob) {
                continue;
            }
            // The scratch copy carries corrupt payloads; the PFS copy of
            // the same version may still be intact. Read lazily — only
            // frames that actually fail pay the remote read, preserving
            // the modeled cost of the common path.
            if !f.from_scratch {
                return Err(VelocError::Corrupt {
                    path: f.path.clone(),
                });
            }
            let fallback = self.cluster.pfs().read(&f.path).and_then(|(blob, _)| {
                let meta = serial::parse_meta(&blob)?;
                // The replacement must describe the same frame: same chain
                // reference and same region sets, else the walk above (and
                // any newer frame's first-occurrence claims) would not hold.
                let same_shape = meta.base_version == f.meta.base_version
                    && meta.unchanged == f.meta.unchanged
                    && meta.changed_ids().eq(f.meta.changed_ids());
                if !same_shape {
                    return None;
                }
                self.note_verified(meta.payload_bytes());
                meta.verify_payloads(&blob).then_some((blob, meta))
            });
            match fallback {
                Some((blob, meta)) => {
                    f.blob = blob;
                    f.meta = meta;
                    f.from_scratch = false;
                }
                None => {
                    return Err(VelocError::Corrupt {
                        path: f.path.clone(),
                    })
                }
            }
        }
        let t_verify = clock.now_ns();

        // Stage 3 — sequential apply. Collect each region's *newest*
        // payload (first occurrence along the newest→oldest walk wins) as
        // zero-copy slices of the frame blobs, then restore in id order.
        // The requested version's frame defines which regions restart
        // restores; older frames only supply payloads for them.
        let Some(newest) = frames.first() else {
            // Unreachable — stage 1 errors out before leaving `frames`
            // empty — but the recovery path must stay panic-free.
            return Err(VelocError::Corrupt {
                path: self.path(name, version),
            });
        };
        let expected: BTreeSet<u32> = newest
            .meta
            .changed_ids()
            .chain(newest.meta.unchanged.iter().copied())
            .collect();
        let mut payloads: BTreeMap<u32, Bytes> = BTreeMap::new();
        for f in &frames {
            for (id, payload) in f.meta.payloads(&f.blob) {
                if expected.contains(&id) {
                    payloads.entry(id).or_insert(payload);
                }
            }
        }
        if payloads.len() != expected.len() {
            // An unchanged id whose payload never appeared anywhere down
            // the chain: the chain is inconsistent.
            return Err(VelocError::Corrupt {
                path: self.path(name, version),
            });
        }
        let regions = self.regions.lock();
        let mut report = RestartReport {
            frames_walked: frames.len(),
            ..RestartReport::default()
        };
        for (id, payload) in payloads {
            let region = regions.get(&id).ok_or(VelocError::UnknownRegion { id })?;
            region.restore(&payload);
            report.regions += 1;
            report.bytes_restored += payload.len() as u64;
        }
        let t_apply = clock.now_ns();
        report.read_ns = t_read.saturating_sub(t0);
        report.verify_ns = t_verify.saturating_sub(t_read);
        report.apply_ns = t_apply.saturating_sub(t_verify);
        Ok(report)
    }

    /// Drop all but the newest `keep_last` versions of `name` reachable by
    /// this rank, from both storage tiers (VeloC's bounded checkpoint
    /// history). Returns how many versions were removed.
    ///
    /// Chain-aware: a version an incremental frame (transitively) chains to
    /// is kept even when it falls below the cutoff — removing a base makes
    /// every delta above it unrestorable. [`MAX_DELTA_DEPTH`] bounds how far
    /// a kept version can pin history.
    pub fn prune(&self, name: &str, keep_last: usize) -> usize {
        self.checkpoint_wait();
        let versions = self.versions(name);
        if versions.len() <= keep_last {
            return 0;
        }
        let cutoff = versions.len() - keep_last;
        // Transitive bases of every kept version must survive the prune.
        let mut needed: BTreeSet<u64> = versions[cutoff..].iter().copied().collect();
        for &kept in &versions[cutoff..] {
            let mut v = kept;
            // Meta alone: its CRC covers `base_version`, and a damaged
            // payload must not cut the walk short and orphan the bases.
            while let Some(meta) = self.read_meta(name, v, false) {
                match meta.base_version {
                    Some(base) if base < v => {
                        needed.insert(base);
                        v = base;
                    }
                    _ => break,
                }
            }
        }
        let mut removed = 0;
        for &v in &versions[..cutoff] {
            if needed.contains(&v) {
                continue;
            }
            let path = self.path(name, v);
            let s = self.cluster.scratch().remove(self.node(), &path);
            let p = self.cluster.pfs().remove(&path);
            if s || p {
                removed += 1;
            }
        }
        removed
    }

    /// Finalize: drain outstanding flushes. (Also happens on drop.)
    pub fn finalize(&self) {
        self.checkpoint_wait();
    }
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("physical_rank", &self.physical_rank)
            .field("logical_rank", &self.logical_rank())
            .field("regions", &self.protected_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::VecRegion;
    use cluster::{ClusterConfig, TimeScale};

    fn cluster(n: usize) -> Cluster {
        let cfg = ClusterConfig {
            nodes: n,
            ranks_per_node: 1,
            time_scale: TimeScale::instant(),
            ..ClusterConfig::default()
        };
        Cluster::new(cfg)
    }

    fn client(c: &Cluster, rank: usize) -> Client {
        Client::init(c.clone(), rank, Config::default())
    }

    #[test]
    fn agreement_checksums_the_agreed_version_once() {
        // One intact 1 MiB version on two ranks. Agreeing on it reads and
        // checksums it once (each rank's own proposal wins, so no second
        // intactness pass), the restart's verify stage once more: 2 MiB of
        // `veloc.bytes_verified` per rank, where verifying the winner again
        // made it 3.
        const MIB: usize = 1 << 20;
        let c = cluster(2);
        let report = simmpi::Universe::launch(
            &c,
            simmpi::UniverseConfig::default(),
            Arc::new(simmpi::FaultPlan::none()),
            |ctx| {
                // A hub per rank, so the registry counts this rank alone.
                let tel = telemetry::Telemetry::new(telemetry::TelemetryConfig::default());
                let cl = client(ctx.cluster(), ctx.rank());
                cl.set_recorder(tel.recorder(ctx.rank()));
                let r = VecRegion::new(vec![ctx.rank() as u8 + 1; MIB]);
                cl.protect(0, Arc::new(r.clone()));
                cl.checkpoint("ck", 1).expect("checkpoint");
                cl.checkpoint_wait();
                r.lock().fill(0);

                let agreed = cl
                    .agree_intact_version("ck", u64::MAX, Some(ctx.world()))
                    .expect("agreement");
                assert_eq!(agreed, Some(1));
                let verified = tel
                    .metrics()
                    .counter(telemetry::names::VELOC_BYTES_VERIFIED);
                assert_eq!(verified.get(), MIB as u64, "agreement: one pass");
                assert_eq!(cl.restart("ck", 1).expect("restart"), 1);
                assert_eq!(verified.get(), 2 * MIB as u64, "restart: one more");
                assert_eq!(*r.lock(), vec![ctx.rank() as u8 + 1; MIB]);
                Ok(())
            },
        );
        assert!(report.all_ok());
    }

    #[cfg(not(feature = "chaos-mutants"))]
    #[test]
    fn a_rank_whose_proposal_lost_still_verifies_the_agreed_version() {
        // Rank 1 holds versions 1 and 2, rank 0 only 1: the agreement lands
        // on 1, which rank 1 has not checksummed yet (its proposal was 2) and
        // must — a corrupt copy there has to lower the bound for everyone.
        let c = cluster(2);
        let report = simmpi::Universe::launch(
            &c,
            simmpi::UniverseConfig::default(),
            Arc::new(simmpi::FaultPlan::none()),
            |ctx| {
                let cl = client(ctx.cluster(), ctx.rank());
                cl.protect(0, Arc::new(VecRegion::new(vec![9u8; 64])));
                cl.invalidate_deltas();
                cl.checkpoint("ck", 1).expect("checkpoint");
                if ctx.rank() == 1 {
                    cl.invalidate_deltas();
                    cl.checkpoint("ck", 2).expect("checkpoint");
                }
                cl.checkpoint_wait();
                ctx.world().barrier()?;
                if ctx.rank() == 1 {
                    // Damage rank 1's only copies of version 1.
                    let path = cl.path("ck", 1);
                    let (blob, _) = ctx.cluster().pfs().read(&path).expect("flushed");
                    let mut raw = blob.to_vec();
                    let last = raw.len() - 1;
                    raw[last] ^= 0xFF;
                    let bad = Bytes::from(raw);
                    ctx.cluster().scratch().write(cl.node(), &path, bad.clone());
                    ctx.cluster().pfs().write(&path, bad);
                }
                ctx.world().barrier()?;
                let agreed = cl
                    .agree_intact_version("ck", u64::MAX, Some(ctx.world()))
                    .expect("agreement");
                assert_eq!(agreed, None, "no version is intact on both ranks");
                Ok(())
            },
        );
        assert!(report.all_ok());
    }

    #[test]
    fn checkpoint_restart_roundtrip() {
        let c = cluster(1);
        let cl = client(&c, 0);
        let r = VecRegion::new(vec![1.0f64, 2.0, 3.0]);
        cl.protect(0, Arc::new(r.clone()));
        cl.checkpoint("heat", 1).unwrap();
        r.lock().iter_mut().for_each(|x| *x = 0.0);
        assert_eq!(cl.restart("heat", 1).unwrap(), 1);
        assert_eq!(*r.lock(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn latest_version_scans_both_tiers() {
        let c = cluster(1);
        let cl = client(&c, 0);
        cl.protect(0, Arc::new(VecRegion::new(vec![0u8; 8])));
        assert_eq!(cl.latest_version("ck"), None);
        cl.checkpoint("ck", 1).unwrap();
        cl.checkpoint("ck", 4).unwrap();
        cl.checkpoint("ck", 2).unwrap();
        cl.checkpoint_wait();
        assert_eq!(cl.latest_version("ck"), Some(4));
        // Scratch lost (node reboot): PFS copy still found.
        c.scratch().purge_node(0);
        assert_eq!(cl.latest_version("ck"), Some(4));
    }

    #[test]
    fn restart_falls_back_to_pfs() {
        let c = cluster(1);
        let cl = client(&c, 0);
        let r = VecRegion::new(vec![7u32; 4]);
        cl.protect(3, Arc::new(r.clone()));
        cl.checkpoint("ck", 1).unwrap();
        cl.checkpoint_wait();
        c.scratch().purge_node(0);
        r.lock().iter_mut().for_each(|x| *x = 0);
        assert_eq!(cl.restart("ck", 1).unwrap(), 1);
        assert_eq!(*r.lock(), vec![7u32; 4]);
    }

    #[test]
    fn restart_missing_version_errors() {
        let c = cluster(1);
        let cl = client(&c, 0);
        assert_eq!(
            cl.restart("nope", 9),
            Err(VelocError::NotFound {
                name: "nope".into(),
                version: 9
            })
        );
    }

    #[test]
    fn set_rank_redirects_naming() {
        let c = cluster(2);
        // Rank 0 checkpoints as logical rank 0 and flushes to PFS.
        let cl0 = client(&c, 0);
        let r0 = VecRegion::new(vec![42u64]);
        cl0.protect(0, Arc::new(r0.clone()));
        cl0.checkpoint("ck", 1).unwrap();
        cl0.checkpoint_wait();
        // Rank 1 (a spare replacing rank 0) assumes logical rank 0 and can
        // restore rank 0's checkpoint — from the PFS, since its own scratch
        // never saw it.
        let cl1 = client(&c, 1);
        let r1 = VecRegion::new(vec![0u64]);
        cl1.protect(0, Arc::new(r1.clone()));
        cl1.set_rank(0);
        assert_eq!(cl1.latest_version("ck"), Some(1));
        cl1.restart("ck", 1).unwrap();
        assert_eq!(*r1.lock(), vec![42]);
    }

    #[test]
    fn unknown_region_id_errors() {
        let c = cluster(1);
        let cl = client(&c, 0);
        cl.protect(5, Arc::new(VecRegion::new(vec![1u8])));
        cl.checkpoint("ck", 1).unwrap();
        cl.clear_protected();
        cl.protect(6, Arc::new(VecRegion::new(vec![1u8])));
        assert_eq!(
            cl.restart("ck", 1),
            Err(VelocError::UnknownRegion { id: 5 })
        );
    }

    #[test]
    fn multiple_regions_restore_by_id() {
        let c = cluster(1);
        let cl = client(&c, 0);
        let a = VecRegion::new(vec![1u8, 2]);
        let b = VecRegion::new(vec![9.0f64]);
        cl.protect(1, Arc::new(a.clone()));
        cl.protect(2, Arc::new(b.clone()));
        cl.checkpoint("ck", 1).unwrap();
        // Re-register in the opposite order; ids still match.
        cl.clear_protected();
        cl.protect(2, Arc::new(b.clone()));
        cl.protect(1, Arc::new(a.clone()));
        a.lock().iter_mut().for_each(|x| *x = 0);
        b.lock().iter_mut().for_each(|x| *x = 0.0);
        assert_eq!(cl.restart("ck", 1).unwrap(), 2);
        assert_eq!(*a.lock(), vec![1, 2]);
        assert_eq!(*b.lock(), vec![9.0]);
    }

    #[test]
    fn prune_keeps_newest_versions() {
        let c = cluster(1);
        let cl = client(&c, 0);
        let r = VecRegion::new(vec![1u8; 4]);
        cl.protect(0, Arc::new(r.clone()));
        for v in [1u64, 3, 5, 9] {
            // Dirty the region so every frame is full and self-contained;
            // chain-aware retention is covered separately below.
            r.lock()[0] = v as u8;
            cl.checkpoint("pr", v).unwrap();
        }
        cl.checkpoint_wait();
        assert_eq!(cl.prune("pr", 2), 2);
        assert!(!cl.version_available("pr", 1));
        assert!(!cl.version_available("pr", 3));
        assert!(cl.version_available("pr", 5));
        assert!(cl.version_available("pr", 9));
        assert_eq!(cl.latest_version("pr"), Some(9));
        // Pruning again removes nothing.
        assert_eq!(cl.prune("pr", 2), 0);
    }

    #[test]
    fn prune_preserves_delta_bases() {
        let c = cluster(1);
        let cl = client(&c, 0);
        let hot = VecRegion::new(vec![0u8; 8]);
        cl.protect(0, Arc::new(hot.clone()));
        cl.protect(1, Arc::new(VecRegion::new(vec![7u8; 8]))); // never written
        for v in [1u64, 2, 3] {
            hot.lock()[0] = v as u8;
            cl.checkpoint("pr", v).unwrap();
        }
        cl.checkpoint_wait();
        // v2 and v3 are deltas chaining back to the full frame at v1, so a
        // keep-last-1 prune must keep the whole chain alive.
        assert_eq!(cl.prune("pr", 1), 0);
        assert!(cl.version_available("pr", 1));
        hot.lock().iter_mut().for_each(|x| *x = 0);
        assert_eq!(cl.restart("pr", 3).unwrap(), 2);
        assert_eq!(hot.lock()[0], 3);
    }

    #[test]
    fn prune_walks_chains_by_meta_alone() {
        // A full frame at v1 and deltas at v2 and v3; v3's payload is then
        // damaged on both tiers. Keeping v3 keeps both its bases, and the
        // walk that finds them checksums no payload.
        let c = cluster(1);
        let cl = Client::init(c.clone(), 0, Config { async_flush: false });
        let tel = telemetry::Telemetry::new(telemetry::TelemetryConfig::default());
        cl.set_recorder(tel.recorder(0));
        let hot = VecRegion::new(vec![0u8; 8]);
        cl.protect(0, Arc::new(hot.clone()));
        cl.protect(1, Arc::new(VecRegion::new(vec![7u8; 8])));
        for v in [1u64, 2, 3] {
            hot.lock()[0] = v as u8;
            cl.checkpoint("pr", v).unwrap();
        }
        let path = "pr/v3/r0";
        let mut raw = c.pfs().read(path).unwrap().0.to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        c.scratch().write(0, path, Bytes::from(raw.clone()));
        c.pfs().write(path, Bytes::from(raw));
        assert_eq!(cl.prune("pr", 1), 0);
        assert!((1..=3).all(|v| cl.version_available("pr", v)));
        let verified = tel
            .metrics()
            .counter(telemetry::names::VELOC_BYTES_VERIFIED);
        assert_eq!(verified.get(), 0, "prune needs no payload checksum");
    }

    #[test]
    fn a_returned_checkpoint_means_the_previous_flush_landed() {
        // Wall clock and a 20 ms PFS: a flush is in flight long after its
        // checkpoint returned. The next checkpoint first waits for it, so
        // the client never hands the worker a second flush.
        let c = Cluster::new(ClusterConfig {
            nodes: 1,
            ranks_per_node: 1,
            pfs_latency: std::time::Duration::from_millis(20),
            time_scale: TimeScale::realtime(),
            ..ClusterConfig::default()
        });
        let cl = client(&c, 0);
        assert!(cl.async_flush_active());
        cl.protect(0, Arc::new(VecRegion::new(vec![1u8; 64])));
        cl.checkpoint("ck", 1).unwrap();
        cl.checkpoint("ck", 2).unwrap();
        assert!(c.pfs().exists("ck/v1/r0"));
        cl.checkpoint_wait();
        assert!(c.pfs().exists("ck/v2/r0"));
    }

    /// Decode the frame this rank's scratch holds for `name`/`version`.
    fn scratch_frame(c: &Cluster, name: &str, version: u64) -> serial::Frame {
        let (blob, _) = c
            .scratch()
            .read(0, &format!("{name}/v{version}/r0"))
            .expect("scratch blob present");
        serial::unpack(&blob).expect("intact frame")
    }

    #[test]
    fn unwritten_regions_become_deltas() {
        let c = cluster(1);
        let cl = client(&c, 0);
        let hot = VecRegion::new(vec![1u64; 64]);
        let cold = VecRegion::new(vec![2u64; 1024]);
        cl.protect(0, Arc::new(hot.clone()));
        cl.protect(1, Arc::new(cold.clone()));
        cl.checkpoint("inc", 1).unwrap();
        assert!(scratch_frame(&c, "inc", 1).is_full());
        hot.lock()[0] = 99;
        cl.checkpoint("inc", 2).unwrap();
        let f2 = scratch_frame(&c, "inc", 2);
        assert_eq!(f2.base_version, Some(1));
        assert_eq!(f2.unchanged, vec![1]);
        assert_eq!(f2.changed.len(), 1);
        cl.checkpoint_wait();
        // The delta is materially smaller than the full frame.
        let full = c.scratch().read(0, "inc/v1/r0").unwrap().0.len();
        let delta = c.scratch().read(0, "inc/v2/r0").unwrap().0.len();
        assert!(delta * 2 < full, "delta {delta} vs full {full}");
        // And restores to the exact state.
        hot.lock().iter_mut().for_each(|x| *x = 0);
        cold.lock().iter_mut().for_each(|x| *x = 0);
        assert_eq!(cl.restart("inc", 2).unwrap(), 2);
        assert_eq!(hot.lock()[0], 99);
        assert_eq!(*cold.lock(), vec![2u64; 1024]);
    }

    #[test]
    fn invalidate_deltas_forces_full_frame() {
        let c = cluster(1);
        let cl = client(&c, 0);
        let r = VecRegion::new(vec![5u8; 16]);
        cl.protect(0, Arc::new(r.clone()));
        cl.protect(1, Arc::new(VecRegion::new(vec![6u8; 16])));
        cl.checkpoint("inv", 1).unwrap();
        r.lock()[0] = 1;
        cl.checkpoint("inv", 2).unwrap();
        assert!(!scratch_frame(&c, "inv", 2).is_full());
        cl.invalidate_deltas();
        r.lock()[0] = 2;
        cl.checkpoint("inv", 3).unwrap();
        assert!(
            scratch_frame(&c, "inv", 3).is_full(),
            "first frame after invalidation must be self-contained"
        );
    }

    #[test]
    fn set_rank_invalidates_deltas() {
        let c = cluster(1);
        let cl = client(&c, 0);
        cl.protect(0, Arc::new(VecRegion::new(vec![1u8; 8])));
        cl.protect(1, Arc::new(VecRegion::new(vec![2u8; 8])));
        cl.checkpoint("sr", 1).unwrap();
        // Same logical rank re-asserted still counts as an identity event.
        cl.set_rank(0);
        cl.checkpoint("sr", 2).unwrap();
        assert!(scratch_frame(&c, "sr", 2).is_full());
    }

    #[test]
    fn delta_chain_depth_is_bounded() {
        let c = cluster(1);
        let cl = client(&c, 0);
        let hot = VecRegion::new(vec![0u8; 8]);
        cl.protect(0, Arc::new(hot.clone()));
        cl.protect(1, Arc::new(VecRegion::new(vec![9u8; 8])));
        let mut fulls = 0;
        let n = 2 * MAX_DELTA_DEPTH as u64 + 3;
        for v in 1..=n {
            hot.lock()[0] = v as u8;
            cl.checkpoint("cap", v).unwrap();
            if scratch_frame(&c, "cap", v).is_full() {
                fulls += 1;
            }
        }
        assert!(
            fulls >= 3,
            "a full frame must recur at least every MAX_DELTA_DEPTH checkpoints (got {fulls})"
        );
        assert!(fulls < n, "deltas must still dominate the cadence");
    }

    #[test]
    fn corrupt_base_breaks_the_chain() {
        let c = cluster(1);
        let cl = Client::init(c.clone(), 0, Config { async_flush: false });
        let hot = VecRegion::new(vec![1u8; 32]);
        cl.protect(0, Arc::new(hot.clone()));
        cl.protect(1, Arc::new(VecRegion::new(vec![2u8; 32])));
        cl.checkpoint("cb", 1).unwrap();
        hot.lock()[0] = 9;
        cl.checkpoint("cb", 2).unwrap();
        assert!(cl.version_intact("cb", 2));
        // Destroy the base on both tiers: the delta at v2 is now worthless
        // even though its own bytes are pristine.
        let path = "cb/v1/r0";
        let (mut raw, _) = c.pfs().read(path).map(|(b, t)| (b.to_vec(), t)).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        c.scratch().write(0, path, bytes::Bytes::from(raw.clone()));
        c.pfs().write(path, bytes::Bytes::from(raw));
        assert!(!cl.version_intact("cb", 1));
        assert!(
            !cl.version_intact("cb", 2),
            "intactness must consider the whole chain"
        );
        assert_eq!(cl.latest_intact_version("cb", u64::MAX), None);
        assert!(matches!(
            cl.restart("cb", 2),
            Err(VelocError::Corrupt { .. })
        ));
    }

    #[test]
    fn protect_exact_replaces_table_and_keeps_deltas() {
        let c = cluster(1);
        let cl = client(&c, 0);
        let a = VecRegion::new(vec![1u8; 16]);
        let b = VecRegion::new(vec![2u8; 16]);
        let table: Vec<(u32, Arc<dyn Protected>)> =
            vec![(0, Arc::new(a.clone())), (1, Arc::new(b.clone()))];
        cl.protect_exact(table.clone());
        assert_eq!(cl.protected_count(), 2);
        cl.checkpoint("pe", 1).unwrap();
        a.lock()[0] = 7;
        // Re-registering the same allocations (what Kokkos Resilience does
        // before every checkpoint) must not break the delta chain.
        cl.protect_exact(table);
        cl.checkpoint("pe", 2).unwrap();
        let f2 = scratch_frame(&c, "pe", 2);
        assert_eq!(f2.base_version, Some(1));
        assert_eq!(f2.unchanged, vec![1]);
    }

    #[test]
    fn prune_is_per_name() {
        let c = cluster(1);
        let cl = client(&c, 0);
        cl.protect(0, Arc::new(VecRegion::new(vec![1u8; 4])));
        cl.checkpoint("a", 1).unwrap();
        cl.checkpoint("b", 1).unwrap();
        cl.checkpoint_wait();
        assert_eq!(cl.prune("a", 0), 1);
        assert!(cl.version_available("b", 1));
    }

    /// The answer `versions` replaced, kept as its oracle: list every rank's
    /// path under `"{name}/"` on both tiers and keep this rank's by suffix.
    fn versions_by_listing(cl: &Client, name: &str) -> Vec<u64> {
        let suffix = format!("/r{}", cl.logical_rank());
        let prefix = format!("{name}/");
        let mut versions: Vec<u64> = cl
            .cluster
            .scratch()
            .list(cl.node(), &prefix)
            .iter()
            .chain(cl.cluster.pfs().list(&prefix).iter())
            .filter_map(|p| {
                p.strip_prefix(name)?
                    .strip_prefix("/v")?
                    .strip_suffix(&suffix)?
                    .parse()
                    .ok()
            })
            .collect();
        versions.sort_unstable();
        versions.dedup();
        versions
    }

    /// Look-alikes on every path component: one name is a prefix of another,
    /// `r1` is a suffix-prefix of `r11`, and versions 1 and 11 both occur.
    const NAMES: [&str; 3] = ["heat", "heat2", "hea"];
    const RANKS: [usize; 4] = [1, 11, 0, 10];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        #[test]
        fn versions_equals_list_and_filter(
            writes in proptest::collection::vec((0usize..3, 0u64..25, 0usize..4, 0usize..4), 0..48),
            removals in proptest::collection::vec((0usize..3, 0u64..25, 0usize..4, 0usize..5), 0..12),
        ) {
            let c = cluster(2);
            let path = |(name, version, rank): (usize, u64, usize)| {
                format!("{}/v{version}/r{}", NAMES[name], RANKS[rank])
            };
            for (name, version, rank, tier) in writes {
                let p = path((name, version, rank));
                match tier {
                    0 => drop(c.scratch().write(0, &p, Bytes::new())),
                    // Another node's scratch is not reachable from node 0.
                    1 => drop(c.scratch().write(1, &p, Bytes::new())),
                    2 => drop(c.pfs().write(&p, Bytes::new())),
                    _ => {
                        c.scratch().write(0, &p, Bytes::new());
                        c.pfs().write(&p, Bytes::new());
                    }
                }
            }
            for (name, version, rank, how) in removals {
                let p = path((name, version, rank));
                match how {
                    0 => drop(c.scratch().remove(0, &p)),
                    1 => drop(c.pfs().remove(&p)),
                    2 => {
                        c.scratch().remove(0, &p);
                        c.pfs().remove(&p);
                    }
                    3 => c.scratch().purge_node(0),
                    _ => c.scratch().purge_node(1),
                }
            }
            let cl = client(&c, 0);
            for rank in RANKS {
                cl.set_rank(rank);
                for name in NAMES {
                    let expected = versions_by_listing(&cl, name);
                    proptest::prop_assert_eq!(cl.versions(name), expected.clone(), "{} r{}", name, rank);
                    proptest::prop_assert_eq!(cl.latest_version(name), expected.last().copied());
                }
            }
        }
    }

    #[test]
    fn sync_mode_flushes_inline() {
        let c = cluster(1);
        let cl = Client::init(c.clone(), 0, Config { async_flush: false });
        cl.protect(0, Arc::new(VecRegion::new(vec![5u8])));
        assert!(!cl.async_flush_active());
        assert!(cl.spawn_error().is_none());
        cl.checkpoint("ck", 1).unwrap();
        // No wait needed: already on the PFS.
        assert!(c.pfs().exists("ck/v1/r0"));
    }

    #[test]
    fn backend_spawn_failure_degrades_to_sync_flush() {
        let c = cluster(1);
        loom::thread::fail_next_spawn();
        let cl = client(&c, 0);
        // Async was requested but the backend could not start: the client
        // comes up anyway, reports why, and flushes inline from now on.
        assert!(!cl.async_flush_active());
        assert!(matches!(
            cl.spawn_error(),
            Some(VelocError::BackendSpawn { .. })
        ));
        let r = VecRegion::new(vec![3.5f32; 8]);
        cl.protect(0, Arc::new(r.clone()));
        cl.checkpoint("deg", 1).unwrap();
        // Synchronous semantics: on the PFS before any wait.
        assert!(c.pfs().exists("deg/v1/r0"));
        r.lock().iter_mut().for_each(|x| *x = 0.0);
        assert_eq!(cl.restart("deg", 1).unwrap(), 1);
        assert_eq!(*r.lock(), vec![3.5f32; 8]);
        cl.finalize();
    }
}
