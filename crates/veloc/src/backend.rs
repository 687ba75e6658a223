//! The asynchronous flush backend — the co-located "VeloC server" thread.
//!
//! One backend serves one client (the paper runs one rank, and hence one
//! server, per node). Flush jobs move a checkpoint blob from node-local
//! scratch to the parallel filesystem, paying the modeled network egress and
//! filesystem ingest costs while the application keeps computing. The
//! application only blocks on the backend in `checkpoint_wait` (at the next
//! checkpoint call) and at finalize — exactly VeloC's contract.
//!
//! Failure posture: the backend is an *optimization*, never a correctness
//! dependency. If the worker thread cannot be spawned, [`ActiveBackend::spawn`]
//! reports a recoverable [`VelocError::BackendSpawn`] and the client degrades
//! to synchronous flushing; if the worker disappears mid-run, an enqueued
//! flush is performed inline on the caller. A checkpoint acknowledged to the
//! application is flushed eventually in every one of those paths — and by
//! the same routine, [`flush`], whoever calls it.
//!
//! Concurrency: thread creation goes through `loom::thread` and the queue /
//! pending-count / condvar through the model-aware shims, so the whole
//! enqueue → flush → wait → drop lifecycle is explored by
//! `crates/modelcheck/tests/veloc_flush.rs`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use cluster::{Cluster, StorageTier};
use crossbeam::channel::{unbounded, Sender};
use loom::thread::JoinHandle;
use parking_lot::{Condvar, Mutex};
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

enum Job {
    Flush(FlushJob),
    Stop,
}

struct PendingCount {
    count: Mutex<usize>,
    cv: Condvar,
}

/// Most flush jobs one worker wakeup will coalesce into a single batched
/// PFS write. Bounds both the drain loop and how long a `wait()`er can be
/// held behind jobs enqueued after it started waiting.
const MAX_FLUSH_BATCH: usize = 16;

/// Move `jobs` scratch→PFS as one coalesced operation — the only routine
/// that writes a checkpoint to the PFS, shared by the worker thread, its
/// inline fallback and the synchronous client, so every flush pays the same
/// modeled costs and emits the same completion event. Each blob is first
/// offered to the chaos injector (it may be damaged on its way to the PFS);
/// then the lot pays a single network egress reservation — the traffic that
/// congests application MPI — and a single [`write_batch`], so a storm of
/// small-region flushes pays the per-operation latencies once per batch
/// instead of once per blob. A batch of one costs exactly what a lone
/// `egress` + `write` would.
///
/// [`write_batch`]: cluster::ParallelFileSystem::write_batch
pub(crate) fn flush(cluster: &Cluster, rank: usize, jobs: Vec<FlushJob>) {
    if jobs.is_empty() {
        return;
    }
    let injector = cluster.injector();
    let mut total = 0usize;
    let mut items = Vec::with_capacity(jobs.len());
    let mut completions = Vec::with_capacity(jobs.len());
    for job in jobs {
        total += job.blob.len();
        completions.push((job.name, job.version, job.blob.len() as u64, job.rec));
        let blob = injector
            .as_ref()
            .and_then(|inj| inj.corrupt_write(StorageTier::Pfs, &job.path, &job.blob))
            .unwrap_or(job.blob);
        items.push((job.path, blob));
    }
    cluster.network().egress(rank, total);
    cluster.pfs().write_batch(items);
    for (name, version, bytes, rec) in completions {
        rec.emit(Event::FlushDone {
            name,
            version,
            bytes,
        });
    }
}

/// [`flush`] jobs an [`ActiveBackend`] counted as pending, then retire them.
fn flush_pending(cluster: &Cluster, rank: usize, jobs: Vec<FlushJob>, pending: &PendingCount) {
    let count = jobs.len();
    flush(cluster, rank, jobs);
    let mut c = pending.count.lock();
    *c -= count;
    pending.cv.notify_all();
}

/// Handle to the background flush thread.
pub struct ActiveBackend {
    cluster: Cluster,
    rank: usize,
    tx: Sender<Job>,
    pending: Arc<PendingCount>,
    handle: Option<JoinHandle<()>>,
    /// Set by the worker when an injected fault kills it mid-run; tells the
    /// teardown invariant that the early exit was scheduled, not a bug.
    worker_died: Arc<AtomicBool>,
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
        let (tx, rx) = unbounded::<Job>();
        let pending = Arc::new(PendingCount {
            count: Mutex::new(0),
            cv: Condvar::new(),
        });
        let worker_died = Arc::new(AtomicBool::new(false));
        let pending2 = Arc::clone(&pending);
        let died2 = Arc::clone(&worker_died);
        let cluster2 = cluster.clone();
        let handle = loom::thread::Builder::new()
            .name(format!("veloc-backend-{rank}"))
            .spawn(move || {
                let mut completed = 0u64;
                let mut stopped = false;
                while !stopped {
                    let Ok(Job::Flush(first)) = rx.recv() else {
                        break;
                    };
                    // Coalesce the backlog behind this job into one batch.
                    let mut batch = vec![first];
                    while batch.len() < MAX_FLUSH_BATCH {
                        match rx.try_recv() {
                            Ok(Job::Flush(job)) => batch.push(job),
                            Ok(Job::Stop) => {
                                stopped = true;
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                    completed += batch.len() as u64;
                    flush_pending(&cluster2, rank, batch, &pending2);
                    // Chaos worker-death hook, consulted between batches
                    // only: an acknowledged flush always completes. Any
                    // backlog is drained first and the queue closed in the
                    // same critical section — the worker "dies" having lost
                    // nothing, and later enqueues degrade to inline
                    // flushing.
                    let dies = cluster2
                        .injector()
                        .is_some_and(|inj| inj.flush_worker_dies(rank, completed));
                    if dies {
                        let mut backlog = Vec::new();
                        {
                            let _enqueuers_excluded = pending2.count.lock();
                            while let Ok(Job::Flush(job)) = rx.try_recv() {
                                backlog.push(job);
                            }
                            drop(rx);
                        }
                        flush_pending(&cluster2, rank, backlog, &pending2);
                        died2.store(true, Ordering::Release);
                        return;
                    }
                }
            })
            .map_err(|e| VelocError::BackendSpawn {
                reason: e.to_string(),
            })?;
        Ok(ActiveBackend {
            cluster,
            rank,
            tx,
            pending,
            handle: Some(handle),
            worker_died,
        })
    }

    /// Enqueue an asynchronous flush of `blob` to `path` on the PFS.
    /// `rec` lets the flush thread stamp the completion ([`Event::FlushDone`])
    /// at the time the blob actually lands on the PFS.
    ///
    /// If the worker thread is gone (it can only have exited; it is never
    /// detached), the flush runs inline here instead — degraded latency,
    /// never a lost checkpoint.
    pub fn enqueue_flush(
        &self,
        path: String,
        blob: Bytes,
        name: String,
        version: u64,
        rec: Recorder,
    ) {
        let sent = {
            // Counted and sent under one lock: a dying worker closes its
            // queue under the same lock, so it either receives this job or
            // refuses it — never strands it unflushed.
            let mut c = self.pending.count.lock();
            *c += 1;
            self.tx.send(Job::Flush(FlushJob {
                path,
                blob,
                name,
                version,
                rec,
            }))
        };
        if let Err(crossbeam::channel::SendError(Job::Flush(job))) = sent {
            flush_pending(&self.cluster, self.rank, vec![job], &self.pending);
        }
    }

    /// Number of flushes not yet completed.
    pub fn outstanding(&self) -> usize {
        *self.pending.count.lock()
    }

    /// Block until all enqueued flushes have completed (VeloC
    /// `checkpoint_wait`).
    pub fn wait(&self) {
        let mut c = self.pending.count.lock();
        while *c > 0 {
            // lint: sanction(blocks): the checkpoint drain barrier (VeloC
            // checkpoint_wait semantics); the DES scheduler parks the rank
            // task here instead of the thread. audited 2026-08.
            self.pending.cv.wait(&mut c);
        }
    }
}

impl Drop for ActiveBackend {
    fn drop(&mut self) {
        // Drain outstanding work, then stop the thread. A dropped client
        // must never lose an acknowledged checkpoint.
        self.wait();
        // The worker exits only when told to; a refused Stop or an Err from
        // join means it died abnormally. Past `wait()` the queue is drained,
        // so no acknowledged checkpoint is lost — but the abnormal exit is
        // still a bug, stated as an invariant instead of silently swallowed.
        let stop_received = self.tx.send(Job::Stop).is_ok();
        let join_ok = self.handle.take().is_none_or(|h| h.join().is_ok());
        let scheduled_death = self.worker_died.load(Ordering::Acquire);
        debug_assert!(
            (stop_received && join_ok) || scheduled_death,
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
        // Drop sends Stop and joins; the in-drop invariant (worker alive
        // until told to stop) is checked under debug assertions here.
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
    fn bursts_batch_and_still_land_completely() {
        // More jobs than MAX_FLUSH_BATCH: the worker coalesces the backlog
        // into several batched writes, and every blob still lands intact.
        let c = cluster();
        let b = ActiveBackend::spawn(c.clone(), 0).unwrap();
        for v in 0..40u64 {
            b.enqueue_flush(
                format!("burst/v{v}/r0"),
                Bytes::from(vec![v as u8; 64]),
                "burst".into(),
                v,
                Recorder::disabled(),
            );
        }
        b.wait();
        assert_eq!(b.outstanding(), 0);
        assert_eq!(c.pfs().list("burst/").len(), 40);
        assert_eq!(&c.pfs().read("burst/v7/r0").unwrap().0[..], &[7u8; 64][..]);
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
        // The sync path's modelled cost: under a virtual clock a batch of
        // one advances time by what `egress` then `Pfs::write` advance it,
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
            flush(
                &c,
                1,
                vec![job(&format!("ck/v{v}/r1"), blob.clone(), v as u64)],
            );
        }
        assert!(by_hand > 0);
        assert_eq!(c.clock().now_ns(), by_hand);
        assert_eq!(c.pfs().read("ck/v1/r1").unwrap().0, blobs[1]);
    }

    #[test]
    fn batch_under_an_injector_corrupts_only_the_matching_job() {
        let c = cluster();
        let schedule = FaultSchedule::none().and_corrupt(
            CorruptTier::Pfs,
            3,
            0,
            CorruptKind::Truncate { keep: 2 },
        );
        c.set_injector(Some(Arc::new(schedule)));
        let jobs = (1..=5u64)
            .map(|v| job(&format!("ck/v{v}/r0"), Bytes::from(vec![v as u8; 32]), v))
            .collect();
        flush(&c, 0, jobs);
        for v in 1..=5u64 {
            let (blob, _) = c.pfs().read(&format!("ck/v{v}/r0")).expect("all five land");
            let expect = if v == 3 { 2 } else { 32 };
            assert_eq!(&blob[..], &vec![v as u8; expect][..], "version {v}");
        }
    }

    #[test]
    fn worker_death_lands_the_backlog_then_degrades_to_inline() {
        let c = cluster();
        let schedule = FaultSchedule::none().and_backend(BackendFault::worker_death(0, 2));
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
        (1..=5).for_each(enqueue);
        b.wait();
        assert_eq!(
            c.pfs().list("ck/").len(),
            5,
            "the dying worker lost nothing"
        );
        // However the five were batched, `completed >= 2` held after some
        // batch with the backlog drained, so the worker has died by now or
        // is about to; the flag goes up only after its queue closed.
        while !b.worker_died.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        enqueue(6);
        assert_eq!(b.outstanding(), 0, "a post-death enqueue flushes inline");
        assert!(c.pfs().exists("ck/v6/r0"));
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
