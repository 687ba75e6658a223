//! The asynchronous flush backend — the co-located "VeloC server" thread.
//!
//! One backend serves one client (the paper runs one rank, and hence one
//! server, per node). A flush moves a checkpoint blob from node-local
//! scratch to the parallel filesystem, paying the modeled network egress and
//! filesystem ingest costs while the application keeps computing. The
//! application only blocks on the backend in `checkpoint_wait` (at the next
//! checkpoint call) and at finalize — exactly VeloC's contract. So a client
//! never has more than one flush in flight, and the hand-off between client
//! and worker is one slot under one lock.
//!
//! Failure posture: the backend is an *optimization*, never a correctness
//! dependency. If the worker thread cannot be spawned, [`ActiveBackend::spawn`]
//! reports a recoverable [`VelocError::BackendSpawn`] and the client degrades
//! to synchronous flushing; once the worker stops taking jobs, an enqueued
//! flush is performed inline on the caller. A checkpoint acknowledged to the
//! application is flushed eventually in every one of those paths — and by
//! the same routine, [`flush`], whoever calls it.
//!
//! Concurrency: thread creation goes through `loom::thread` and the slot's
//! mutex and condvar through the model-aware shims, so the whole
//! enqueue → flush → wait → drop lifecycle, worker death included, is
//! explored by `crates/modelcheck/tests/veloc_flush.rs`.

use std::sync::Arc;

use bytes::Bytes;
use cluster::{Cluster, StorageTier};
use loom::thread::JoinHandle;
use parking_lot::{Condvar, Mutex, MutexGuard};
use telemetry::{Event, Recorder};

use crate::client::VelocError;

/// One checkpoint blob on its way scratch→PFS.
pub(crate) struct FlushJob {
    pub(crate) path: String,
    pub(crate) blob: Bytes,
    pub(crate) name: String,
    pub(crate) version: u64,
    /// Stamps the completion ([`Event::FlushDone`]) when the blob lands.
    pub(crate) rec: Recorder,
}

/// Move `job` scratch→PFS — the only routine that writes a checkpoint to
/// the PFS, shared by the worker thread, its inline fallback and the
/// synchronous client, so every flush pays the same modeled costs and emits
/// the same completion event. The blob is first offered to the chaos
/// injector (it may be damaged on its way to the PFS); then it pays the
/// network egress — the traffic that congests application MPI — and the
/// PFS write.
pub(crate) fn flush(cluster: &Cluster, rank: usize, job: FlushJob) {
    let bytes = job.blob.len();
    let blob = cluster
        .injector()
        .and_then(|inj| inj.corrupt_write(StorageTier::Pfs, &job.path, &job.blob))
        .unwrap_or(job.blob);
    cluster.network().egress(rank, bytes);
    cluster.pfs().write(&job.path, blob);
    job.rec.emit(Event::FlushDone {
        name: job.name,
        version: job.version,
        bytes: bytes as u64,
    });
}

/// Where the worker is in its life.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Worker {
    /// Takes each job handed to the slot.
    Running,
    /// Lands the job still in the slot, if any, then exits; told so by
    /// `Drop`, or by its own scheduled death. Later enqueues flush inline.
    Stopping,
    /// Exited.
    Dead,
}

/// Everything the client and the worker share, under one lock.
struct Slot {
    /// The next flush, handed from `enqueue_flush` to the worker.
    queued: Option<FlushJob>,
    /// The worker holds a job it has taken and not yet landed.
    flushing: bool,
    worker: Worker,
}

struct Shared {
    slot: Mutex<Slot>,
    /// Signalled on every change of the slot.
    changed: Condvar,
}

impl Shared {
    /// Hold `slot` until `ready` is true of it.
    fn wait_until<'a>(
        &self,
        mut slot: MutexGuard<'a, Slot>,
        ready: impl Fn(&Slot) -> bool,
    ) -> MutexGuard<'a, Slot> {
        while !ready(&slot) {
            // lint: sanction(blocks): the checkpoint drain barrier (VeloC
            // checkpoint_wait semantics) and the one-slot hand-off; the DES
            // scheduler parks the rank task here instead of the thread.
            // audited 2026-08.
            self.changed.wait(&mut slot);
        }
        slot
    }
}

/// The worker thread: take the queued job, land it, repeat until stopped.
/// A scheduled death is consulted between jobs only, and it stops the
/// worker in the same critical section that clears `flushing` — so no
/// `wait` can see the worker idle and still running once it has died, and
/// a job handed over before that section is still landed.
fn work(cluster: &Cluster, rank: usize, shared: &Shared) {
    let mut completed = 0u64;
    let mut slot = shared.slot.lock();
    loop {
        slot = shared.wait_until(slot, |s| s.queued.is_some() || s.worker != Worker::Running);
        let Some(job) = slot.queued.take() else {
            // Nobody waits on this: the worker was already not `Running`.
            slot.worker = Worker::Dead;
            return;
        };
        slot.flushing = true;
        shared.changed.notify_all();
        drop(slot);
        flush(cluster, rank, job);
        completed += 1;
        let dies = cluster
            .injector()
            .is_some_and(|inj| inj.flush_worker_dies(rank, completed));
        slot = shared.slot.lock();
        slot.flushing = false;
        if dies {
            slot.worker = Worker::Stopping;
        }
        shared.changed.notify_all();
    }
}

/// Handle to the background flush thread.
pub struct ActiveBackend {
    cluster: Cluster,
    rank: usize,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl ActiveBackend {
    /// Spawn a backend for the client of global rank `rank`.
    ///
    /// Thread creation can fail (resource exhaustion — exactly the regime a
    /// resilience stack operates in, and a fault the chaos injector
    /// schedules deliberately); the error is recoverable and the caller is
    /// expected to fall back to synchronous flushing.
    pub fn spawn(cluster: Cluster, rank: usize) -> Result<Self, VelocError> {
        if let Some(inj) = cluster.injector() {
            if inj.backend_spawn_fails(rank) {
                return Err(VelocError::BackendSpawn {
                    reason: "spawn failure injected by fault schedule".to_owned(),
                });
            }
        }
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                queued: None,
                flushing: false,
                worker: Worker::Running,
            }),
            changed: Condvar::new(),
        });
        let (cluster2, shared2) = (cluster.clone(), Arc::clone(&shared));
        let handle = loom::thread::Builder::new()
            .name(format!("veloc-backend-{rank}"))
            .spawn(move || work(&cluster2, rank, &shared2))
            .map_err(|e| VelocError::BackendSpawn {
                reason: e.to_string(),
            })?;
        Ok(ActiveBackend {
            cluster,
            rank,
            shared,
            handle: Some(handle),
        })
    }

    /// Hand an asynchronous flush of `blob` to `path` on the PFS to the
    /// worker, once the slot is free. `rec` lets the worker stamp the
    /// completion ([`Event::FlushDone`]) at the time the blob actually lands
    /// on the PFS.
    ///
    /// If the worker no longer takes jobs, the flush runs inline here
    /// instead — degraded latency, never a lost checkpoint.
    pub fn enqueue_flush(
        &self,
        path: String,
        blob: Bytes,
        name: String,
        version: u64,
        rec: Recorder,
    ) {
        let job = FlushJob {
            path,
            blob,
            name,
            version,
            rec,
        };
        let mut slot = self.shared.wait_until(self.shared.slot.lock(), |s| {
            s.queued.is_none() || s.worker != Worker::Running
        });
        if slot.worker == Worker::Running {
            slot.queued = Some(job);
            self.shared.changed.notify_all();
        } else {
            drop(slot);
            flush(&self.cluster, self.rank, job);
        }
    }

    /// Number of flushes not yet completed: at most the queued one plus the
    /// one the worker holds.
    pub fn outstanding(&self) -> usize {
        let slot = self.shared.slot.lock();
        usize::from(slot.queued.is_some()) + usize::from(slot.flushing)
    }

    /// Block until every handed-over flush has landed (VeloC
    /// `checkpoint_wait`).
    pub fn wait(&self) {
        let idle = self.shared.wait_until(self.shared.slot.lock(), |s| {
            s.queued.is_none() && !s.flushing
        });
        drop(idle);
    }
}

impl Drop for ActiveBackend {
    fn drop(&mut self) {
        // Stop the worker; it lands whatever is still in the slot first, so
        // a dropped client never loses an acknowledged checkpoint.
        {
            let mut slot = self.shared.slot.lock();
            if slot.worker == Worker::Running {
                slot.worker = Worker::Stopping;
            }
            self.shared.changed.notify_all();
        }
        // The worker exits only as `Dead`, with nothing left in the slot; a
        // panic or any other exit is a bug, stated as an invariant instead
        // of silently swallowed.
        let joined = self.handle.take().is_none_or(|h| h.join().is_ok());
        let slot = self.shared.slot.lock();
        debug_assert!(
            joined && slot.worker == Worker::Dead && slot.queued.is_none(),
            "flush worker died abnormally (panic or early exit)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, TimeScale};
    use simmpi::fault::{BackendFault, CorruptKind, CorruptTier, FaultSchedule};
    use std::time::Duration;

    fn cluster() -> Cluster {
        let cfg = ClusterConfig {
            nodes: 2,
            time_scale: TimeScale::instant(),
            ..ClusterConfig::default()
        };
        Cluster::new(cfg)
    }

    #[test]
    fn drop_stops_worker_cleanly_when_idle() {
        let c = cluster();
        let b = ActiveBackend::spawn(c, 0).unwrap();
        b.wait();
        // Drop stops and joins; the in-drop invariant (worker alive until
        // told to stop) is checked under debug assertions here.
        drop(b);
    }

    #[test]
    fn flush_lands_on_pfs() {
        let c = cluster();
        let b = ActiveBackend::spawn(c.clone(), 0).unwrap();
        b.enqueue_flush(
            "ck/v1/r0".into(),
            Bytes::from_static(b"data"),
            "ck".into(),
            1,
            Recorder::disabled(),
        );
        b.wait();
        assert_eq!(&c.pfs().read("ck/v1/r0").unwrap().0[..], b"data");
    }

    #[test]
    fn wait_blocks_until_drained() {
        let c = cluster();
        let b = ActiveBackend::spawn(c.clone(), 0).unwrap();
        for v in 0..10 {
            b.enqueue_flush(
                format!("ck/v{v}/r0"),
                Bytes::from(vec![0u8; 100]),
                "ck".into(),
                v,
                Recorder::disabled(),
            );
        }
        b.wait();
        assert_eq!(b.outstanding(), 0);
        assert_eq!(c.pfs().list("ck/").len(), 10);
    }

    #[test]
    fn drop_drains_outstanding_flushes() {
        let c = cluster();
        {
            let b = ActiveBackend::spawn(c.clone(), 1).unwrap();
            b.enqueue_flush(
                "ck/v1/r1".into(),
                Bytes::from_static(b"x"),
                "ck".into(),
                1,
                Recorder::disabled(),
            );
        }
        assert!(c.pfs().exists("ck/v1/r1"), "drop must drain, not discard");
    }

    fn job(path: &str, blob: Bytes, version: u64) -> FlushJob {
        FlushJob {
            path: path.to_owned(),
            blob,
            name: "ck".into(),
            version,
            rec: Recorder::disabled(),
        }
    }

    #[test]
    fn one_job_flush_costs_exactly_egress_plus_write() {
        // The sync path's modelled cost: under a virtual clock a flush
        // advances time by what `egress` then `Pfs::write` advance it,
        // including the queueing a second flush inherits from the first.
        let virtual_cluster = || {
            let c = Cluster::new(ClusterConfig {
                nodes: 2,
                virtual_time: true,
                ..ClusterConfig::default()
            });
            let clock = Arc::clone(c.clock());
            let guard = cluster::install_virtual_sleeper(Arc::new(move |d: Duration| {
                clock.advance(d.as_nanos() as u64);
            }));
            (c, guard)
        };
        let blobs = [Bytes::from(vec![1u8; 300_000]), Bytes::from(vec![2u8; 7])];
        let by_hand = {
            let (c, _guard) = virtual_cluster();
            for (v, blob) in blobs.iter().enumerate() {
                c.network().egress(1, blob.len());
                c.pfs().write(&format!("ck/v{v}/r1"), blob.clone());
            }
            c.clock().now_ns()
        };
        let (c, _guard) = virtual_cluster();
        for (v, blob) in blobs.iter().enumerate() {
            flush(&c, 1, job(&format!("ck/v{v}/r1"), blob.clone(), v as u64));
        }
        assert!(by_hand > 0);
        assert_eq!(c.clock().now_ns(), by_hand);
        assert_eq!(c.pfs().read("ck/v1/r1").unwrap().0, blobs[1]);
    }

    #[test]
    fn an_injector_corrupts_only_the_matching_flush() {
        let c = cluster();
        let schedule = FaultSchedule::none().and_corrupt(
            CorruptTier::Pfs,
            3,
            0,
            CorruptKind::Truncate { keep: 2 },
        );
        c.set_injector(Some(Arc::new(schedule)));
        for v in 1..=5u64 {
            flush(
                &c,
                0,
                job(&format!("ck/v{v}/r0"), Bytes::from(vec![v as u8; 32]), v),
            );
        }
        for v in 1..=5u64 {
            let (blob, _) = c.pfs().read(&format!("ck/v{v}/r0")).expect("all five land");
            let expect = if v == 3 { 2 } else { 32 };
            assert_eq!(&blob[..], &vec![v as u8; expect][..], "version {v}");
        }
    }

    #[test]
    fn worker_death_lands_the_backlog_then_degrades_to_inline() {
        let c = cluster();
        let schedule = FaultSchedule::none().and_backend(BackendFault::worker_death(0, 1));
        c.set_injector(Some(Arc::new(schedule)));
        let b = ActiveBackend::spawn(c.clone(), 0).unwrap();
        let enqueue = |v: u64| {
            b.enqueue_flush(
                format!("ck/v{v}/r0"),
                Bytes::from(vec![v as u8; 16]),
                "ck".into(),
                v,
                Recorder::disabled(),
            )
        };
        enqueue(1);
        b.wait();
        assert!(c.pfs().exists("ck/v1/r0"), "the dying worker lost nothing");
        // `wait` saw the worker idle after its one flush, and the worker
        // stops in the section that makes it idle: this flush runs here.
        enqueue(2);
        assert_eq!(b.outstanding(), 0, "a post-death enqueue flushes inline");
        assert!(c.pfs().exists("ck/v2/r0"));
        drop(b); // the teardown invariant accepts the scheduled death
    }

    #[test]
    fn spawn_failure_is_recoverable() {
        loom::thread::fail_next_spawn();
        match ActiveBackend::spawn(cluster(), 0) {
            Err(VelocError::BackendSpawn { reason }) => {
                assert!(reason.contains("injected"), "got: {reason}");
            }
            other => panic!("expected BackendSpawn error, got {:?}", other.map(|_| ())),
        }
    }
}
