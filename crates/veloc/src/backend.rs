//! The asynchronous flush backend — the co-located "VeloC server" thread.
//!
//! One backend serves one client (the paper runs one rank, and hence one
//! server, per node). A flush moves a checkpoint blob from node-local
//! scratch to the parallel filesystem, paying the modeled network egress and
//! filesystem ingest costs while the application keeps computing. The
//! application only blocks on the backend in `checkpoint_wait` (at the next
//! checkpoint call) and at finalize — exactly VeloC's contract. So a client
//! never has more than one flush in flight, and the hand-off between client
//! and worker is a zero-capacity channel.
//!
//! Failure posture: the backend is an *optimization*, never a correctness
//! dependency. If the worker thread cannot be spawned, [`ActiveBackend::spawn`]
//! reports a recoverable [`VelocError::BackendSpawn`] and the client degrades
//! to synchronous flushing; once the worker stops taking jobs, an enqueued
//! flush is performed inline on the caller. A checkpoint acknowledged to the
//! application is flushed eventually in every one of those paths — and by
//! the same routine, [`flush`], whoever calls it.

use std::cell::Cell;
use std::sync::mpsc::{self, Receiver, SendError, Sender, SyncSender};
use std::thread::JoinHandle;

use bytes::Bytes;
use cluster::{Cluster, Key, StorageTier};
use telemetry::{Event, Recorder};

use crate::client::VelocError;

/// One checkpoint blob on its way scratch→PFS.
pub(crate) struct FlushJob {
    /// The checkpoint's `(name, version, rank)`.
    pub(crate) key: Key,
    pub(crate) blob: Bytes,
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
        .and_then(|inj| inj.corrupt_write(StorageTier::Pfs, job.key, &job.blob))
        .unwrap_or(job.blob);
    cluster.network().egress(rank, bytes);
    cluster.pfs().write(job.key, blob);
    job.rec.emit_with(|| Event::FlushDone {
        name: cluster.names().name(job.key.name),
        version: job.key.at.map_or(0, |(v, _)| v),
        bytes: bytes as u64,
    });
}

/// The worker thread: land each job it receives, acknowledge it, repeat
/// until the sender is dropped or its scheduled death. The death is
/// consulted only after a received job has landed and been acknowledged,
/// and the worker then exits without receiving another: a job handed over
/// later finds the receiver gone and comes back to the caller.
fn work(cluster: &Cluster, rank: usize, jobs: Receiver<FlushJob>, acks: Sender<()>) {
    for (completed, job) in (1u64..).zip(jobs) {
        flush(cluster, rank, job);
        // `ActiveBackend` holds the receiver until it has joined this thread.
        if acks.send(()).is_err() {
            return;
        }
        let dies = cluster
            .injector()
            .is_some_and(|inj| inj.flush_worker_dies(rank, completed));
        if dies {
            return;
        }
    }
}

/// Handle to the background flush thread.
///
/// Jobs go to the worker over a zero-capacity channel: `send` returns only
/// once the worker has received the job, and hands it back if the worker has
/// exited. So a job is either held by the worker, which lands it before it
/// exits, or by the caller, which flushes it inline — never stranded in
/// between.
pub(crate) struct ActiveBackend {
    cluster: Cluster,
    rank: usize,
    /// `None` only while `Drop` runs: dropping it ends the worker's loop.
    jobs: Option<SyncSender<FlushJob>>,
    /// One acknowledgement per landed job.
    acks: Receiver<()>,
    /// Jobs handed to the worker whose acknowledgement `wait` has not taken.
    unacked: Cell<usize>,
    handle: Option<JoinHandle<()>>,
}

impl ActiveBackend {
    /// Spawn a backend for the client of global rank `rank`.
    ///
    /// Thread creation can fail (resource exhaustion — exactly the regime a
    /// resilience stack operates in, and a fault the chaos injector
    /// schedules deliberately); the error is recoverable and the caller is
    /// expected to fall back to synchronous flushing.
    pub(crate) fn spawn(cluster: Cluster, rank: usize) -> Result<Self, VelocError> {
        if let Some(inj) = cluster.injector() {
            if inj.backend_spawn_fails(rank) {
                return Err(VelocError::BackendSpawn {
                    reason: "spawn failure injected by fault schedule".to_owned(),
                });
            }
        }
        let (jobs, job_rx) = mpsc::sync_channel(0);
        let (ack_tx, acks) = mpsc::channel();
        let worker_cluster = cluster.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "the co-located flush worker is a host thread by design"
        )]
        let handle = std::thread::Builder::new()
            .name(format!("veloc-backend-{rank}"))
            .spawn(move || work(&worker_cluster, rank, job_rx, ack_tx))
            .map_err(|e| VelocError::BackendSpawn {
                reason: e.to_string(),
            })?;
        Ok(ActiveBackend {
            cluster,
            rank,
            jobs: Some(jobs),
            acks,
            unacked: Cell::new(0),
            handle: Some(handle),
        })
    }

    /// Hand an asynchronous flush of `blob` to `key` on the PFS to the
    /// worker, blocking until it takes the job. `rec` lets the worker stamp
    /// the completion ([`Event::FlushDone`]) at the time the blob actually
    /// lands on the PFS.
    ///
    /// If the worker has exited, the flush runs inline here instead —
    /// degraded latency, never a lost checkpoint.
    pub(crate) fn enqueue_flush(&self, key: Key, blob: Bytes, rec: Recorder) {
        parking_lot::assert_no_locks_held();
        let job = FlushJob { key, blob, rec };
        let Some(jobs) = &self.jobs else {
            return flush(&self.cluster, self.rank, job);
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "the zero-capacity hand-off to the flush worker"
        )]
        match jobs.send(job) {
            Ok(()) => self.unacked.set(self.unacked.get() + 1),
            Err(SendError(job)) => flush(&self.cluster, self.rank, job),
        }
    }

    /// Number of flushes handed over and not yet waited for.
    #[cfg(test)]
    pub(crate) fn outstanding(&self) -> usize {
        self.unacked.get()
    }

    /// Block until every handed-over flush has landed (VeloC
    /// `checkpoint_wait`).
    pub(crate) fn wait(&self) {
        parking_lot::assert_no_locks_held();
        while self.unacked.get() > 0 {
            #[expect(clippy::disallowed_methods, reason = "the checkpoint drain barrier")]
            let acked = self.acks.recv();
            // The worker acknowledges every job it receives before it can
            // exit, so a closed channel means it panicked.
            debug_assert!(acked.is_ok(), "flush worker exited with a job unlanded");
            self.unacked.set(self.unacked.get() - 1);
        }
    }
}

impl Drop for ActiveBackend {
    fn drop(&mut self) {
        // Closing the channel ends the worker's loop; it has landed every
        // job it received, so a dropped client loses no acknowledged
        // checkpoint. A worker panic is a bug, stated as an invariant.
        drop(self.jobs.take());
        #[expect(clippy::disallowed_methods, reason = "teardown joins the flush worker")]
        let joined = self.handle.take().is_none_or(|h| h.join().is_ok());
        debug_assert!(joined, "flush worker panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, FaultInjector, TimeScale};
    use simmpi::fault::{BackendFault, CorruptKind, CorruptTier, FaultSchedule};
    use std::sync::Arc;
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
        // Drop closes the channel and joins; a worker panic would fail the
        // debug assertion there.
        drop(b);
    }

    fn key(c: &Cluster, version: u64, rank: usize) -> Key {
        Key::new(c.names().intern("ck"), version, rank)
    }

    #[test]
    fn flush_lands_on_pfs() {
        let c = cluster();
        let b = ActiveBackend::spawn(c.clone(), 0).unwrap();
        let data = Bytes::from_static(b"data");
        b.enqueue_flush(key(&c, 1, 0), data, Recorder::disabled());
        b.wait();
        assert_eq!(&c.pfs().read("ck/v1/r0").unwrap().0[..], b"data");
    }

    #[test]
    fn wait_blocks_until_drained() {
        let c = cluster();
        let b = ActiveBackend::spawn(c.clone(), 0).unwrap();
        for v in 0..10 {
            let data = Bytes::from(vec![0u8; 100]);
            b.enqueue_flush(key(&c, v, 0), data, Recorder::disabled());
        }
        b.wait();
        assert_eq!(b.outstanding(), 0);
        assert!((0..10).all(|v| c.pfs().exists(key(&c, v, 0))));
    }

    /// How long a [`Hold`] keeps the worker when nobody opens it. The
    /// protocol never needs the opening, so this only bounds a test's time.
    const HOLD: Duration = Duration::from_millis(100);

    /// Holds the worker at one hook until the test opens it or [`HOLD`]
    /// passes, so a test can look at the backend while the worker is
    /// parked at a chosen point of its loop.
    struct Hold {
        /// Hold inside the PFS write, before the blob lands.
        mid_flush: bool,
        /// Hold inside the death check after this many flushes, then die.
        die_after: Option<u64>,
        open: std::sync::Mutex<mpsc::Receiver<()>>,
    }

    impl Hold {
        /// Install on `c`; the returned sender opens the hold.
        fn install(c: &Cluster, mid_flush: bool, die_after: Option<u64>) -> mpsc::Sender<()> {
            let (open, rx) = mpsc::channel();
            let rx = std::sync::Mutex::new(rx);
            let hold = Hold {
                mid_flush,
                die_after,
                open: rx,
            };
            c.set_injector(Some(Arc::new(hold)));
            open
        }

        fn hold(&self) {
            // Opened, timed out, or the test has ended: go on either way.
            self.open.lock().unwrap().recv_timeout(HOLD).unwrap_or(());
        }
    }

    impl FaultInjector for Hold {
        fn corrupt_write(&self, tier: StorageTier, _: Key, _: &Bytes) -> Option<Bytes> {
            if self.mid_flush && tier == StorageTier::Pfs {
                self.hold();
            }
            None
        }

        fn flush_worker_dies(&self, _: usize, completed: u64) -> bool {
            let dies = self.die_after == Some(completed);
            if dies {
                self.hold();
            }
            dies
        }
    }

    #[test]
    fn wait_returns_only_after_the_blob_lands() {
        // The worker is held inside the PFS write: a `wait` that returns
        // without its acknowledgement, or a worker that acknowledges before
        // the write, finds nothing on the PFS here.
        let c = cluster();
        let _open = Hold::install(&c, true, None);
        let b = ActiveBackend::spawn(c.clone(), 0).unwrap();
        b.enqueue_flush(
            key(&c, 1, 0),
            Bytes::from_static(b"x"),
            Recorder::disabled(),
        );
        b.wait();
        assert!(
            c.pfs().exists("ck/v1/r0"),
            "wait returned before the blob landed"
        );
    }

    #[test]
    fn drop_drains_outstanding_flushes() {
        // The worker is held inside the PFS write as the backend drops: only
        // a drop that joins it finds the blob landed afterwards.
        let c = cluster();
        let _open = Hold::install(&c, true, None);
        {
            let b = ActiveBackend::spawn(c.clone(), 1).unwrap();
            let data = Bytes::from_static(b"x");
            b.enqueue_flush(key(&c, 1, 1), data, Recorder::disabled());
        }
        assert!(c.pfs().exists("ck/v1/r1"), "drop must drain, not discard");
    }

    fn job(key: Key, blob: Bytes) -> FlushJob {
        let rec = Recorder::disabled();
        FlushJob { key, blob, rec }
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
                c.pfs().write(key(&c, v as u64, 1), blob.clone());
            }
            c.clock().now_ns()
        };
        let (c, _guard) = virtual_cluster();
        for (v, blob) in blobs.iter().enumerate() {
            flush(&c, 1, job(key(&c, v as u64, 1), blob.clone()));
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
            flush(&c, 0, job(key(&c, v, 0), Bytes::from(vec![v as u8; 32])));
        }
        for v in 1..=5u64 {
            let (blob, _) = c.pfs().read(key(&c, v, 0)).expect("all five land");
            let expect = if v == 3 { 2 } else { 32 };
            assert_eq!(&blob[..], &vec![v as u8; expect][..], "version {v}");
        }
    }

    #[test]
    fn worker_death_lands_the_backlog_then_degrades_to_inline() {
        // The worker dies after its first flush, held in its death check
        // until the second job's hand-off has returned (or `HOLD` passed).
        // A worker that consults its death before landing the job it
        // received, or a buffered hand-off that takes the job while the
        // worker dies, strands job 2 here.
        let c = cluster();
        let open = Hold::install(&c, false, Some(1));
        let b = ActiveBackend::spawn(c.clone(), 0).unwrap();
        let enqueue = |v: u64| {
            b.enqueue_flush(
                key(&c, v, 0),
                Bytes::from(vec![v as u8; 16]),
                Recorder::disabled(),
            )
        };
        enqueue(1);
        b.wait();
        assert!(c.pfs().exists("ck/v1/r0"), "the dying worker lost nothing");
        // The hand-off blocks until the held worker exits, then flushes here.
        enqueue(2);
        open.send(()).unwrap();
        b.wait();
        assert!(c.pfs().exists("ck/v2/r0"), "a job handed over at the death");
        enqueue(3);
        assert_eq!(b.outstanding(), 0, "a post-death enqueue flushes inline");
        assert!(c.pfs().exists("ck/v3/r0"));
        drop(b); // the join accepts the scheduled death
    }

    #[test]
    fn spawn_failure_is_recoverable() {
        let c = cluster();
        let schedule = FaultSchedule::none().and_backend(BackendFault::spawn_fail(0));
        c.set_injector(Some(Arc::new(schedule)));
        match ActiveBackend::spawn(c, 0) {
            Err(VelocError::BackendSpawn { reason }) => {
                assert!(reason.contains("injected"), "got: {reason}");
            }
            other => panic!("expected BackendSpawn error, got {:?}", other.map(|_| ())),
        }
    }
}
