//! The shared message fabric: per-rank mailboxes, death and revocation
//! registries, and the job-abort flag.
//!
//! The router is the only shared-memory component of the MPI simulation;
//! every property visible to application code (message ordering, failure
//! observability, revocation wake-ups) mirrors what a real ULFM MPI provides
//! over a network.
//!
//! Key semantics:
//!
//! * A message already enqueued is deliverable even if its sender has since
//!   died (in-flight data is not clawed back).
//! * A receive *from a specific rank* fails with `ProcFailed` once that rank
//!   is dead and no matching message is queued.
//! * A receive from `ANY` fails only when every other live member of the
//!   communicator's group is dead — otherwise it keeps waiting (exactly the
//!   ULFM situation that makes `revoke` necessary to avoid deadlock).
//! * Revoking a communicator wakes every rank blocked on it with `Revoked`.
//! * Killing a rank wakes all blocked ranks so they can re-evaluate.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use parking_lot::{Condvar, Mutex, RwLock};

use cluster::Cluster;
use telemetry::{Event, MpiOp, Recorder};

use crate::abort::AbortFlag;
use crate::comm::Group;
use crate::error::{MpiError, MpiResult};
use crate::rendezvous::RendezvousTable;
use crate::sched::{self, Scheduler};
#[cfg(debug_assertions)]
use crate::witness::Witness;

/// Identifies a communicator. Derived communicators get deterministic ids so
/// all ranks agree without communication.
pub type CommId = u64;

/// A message in flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    pub comm: CommId,
    pub epoch: u32,
    /// Global (world) rank of the sender.
    pub src: usize,
    pub tag: u64,
    pub payload: Bytes,
}

/// What a receive call is waiting for.
#[derive(Clone, Copy, Debug)]
pub struct MatchSpec<'a> {
    pub comm: CommId,
    pub epoch: u32,
    /// `None` = receive from any source in `group`.
    pub src: Option<usize>,
    pub tag: u64,
    /// Global ranks of the communicator's group (used for any-source
    /// deadlock detection).
    pub group: &'a [usize],
    /// Global rank of the receiver.
    pub me: usize,
}

impl MatchSpec<'_> {
    fn matches(&self, e: &Envelope) -> bool {
        e.comm == self.comm
            && e.epoch == self.epoch
            && e.tag == self.tag
            && self.src.is_none_or(|s| e.src == s)
    }
}

/// What a rank parked in [`Router::recv`] under the DES backend waits for:
/// its [`MatchSpec`], owned, left in its own mailbox so the dispatcher can
/// evaluate the receive's predicate without running the rank.
struct ParkedRecv {
    comm: CommId,
    epoch: u32,
    src: Option<usize>,
    tag: u64,
    /// Copied for an any-source wait only — the one that reads it.
    group: Vec<usize>,
}

#[derive(Default)]
struct Inbox {
    envelopes: VecDeque<Envelope>,
    parked: Option<ParkedRecv>,
}

#[derive(Default)]
struct Mailbox {
    queue: Mutex<Inbox>,
    cv: Condvar,
}

/// Work counts of the repair path, in units that do not depend on the host:
/// plain statistics (`Relaxed`), flushed into the telemetry registry once
/// per launch by `Universe::launch`.
#[derive(Default)]
pub(crate) struct RepairCounts {
    /// Mailboxes locked and filtered by [`Router::purge_mailbox`].
    pub(crate) purge_mailboxes: AtomicU64,
    /// Group members examined by rendezvous pick-ups to settle whether the
    /// entry can retire (one per pick-up: the caller's own).
    pub(crate) rendezvous_scanned: AtomicU64,
    /// Member lists [`Router::share_group`] built for the group it shares.
    pub(crate) groups_built: AtomicU64,
}

/// The shared fabric.
pub struct Router {
    mailboxes: Vec<Mailbox>,
    /// Groups handed out by [`Router::share_group`], while a handle lives.
    shared_groups: Mutex<HashMap<(CommId, u32), Weak<Group>>>,
    /// One flag per rank, set once when the rank dies: every send and
    /// receive asks, so the answer is one load.
    dead: Vec<AtomicBool>,
    /// Revoked communicator epochs: a handful per job, scanned.
    revoked: RwLock<Vec<(CommId, u32)>>,
    aborted: AbortFlag,
    cluster: Cluster,
    pub(crate) rendezvous: RendezvousTable,
    /// Per-rank telemetry recorders (disabled by default); set by
    /// `Universe::launch` so ULFM/fault paths can emit events without
    /// threading handles through every call signature.
    recorders: RwLock<Vec<Recorder>>,
    /// Discrete-event scheduler for this launch (DES backend only). When
    /// set, blocking waits become scheduler yields and every state change
    /// that can unblock a rank routes a wake through it.
    sched: RwLock<Option<Arc<Scheduler>>>,
    pub(crate) counts: RepairCounts,
    #[cfg(debug_assertions)]
    pub(crate) witness: Witness,
}

impl Router {
    pub fn new(cluster: Cluster) -> Arc<Self> {
        let n = cluster.topology().total_ranks();
        Arc::new(Router {
            mailboxes: (0..n).map(|_| Mailbox::default()).collect(),
            shared_groups: Mutex::new(HashMap::new()),
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
            revoked: RwLock::new(Vec::new()),
            aborted: AbortFlag::default(),
            cluster,
            rendezvous: RendezvousTable::new(),
            recorders: RwLock::new(vec![Recorder::disabled(); n]),
            sched: RwLock::new(None),
            counts: RepairCounts::default(),
            #[cfg(debug_assertions)]
            witness: Witness::new(n),
        })
    }

    /// One [`Group`] for all the ranks that build communicator `(comm,
    /// epoch)` from the same member list, where each of them derives that
    /// list on its own (Fenix's resilient communicator): the first caller
    /// runs `build` and its group is handed to every later one, whose
    /// `build` does not run, so a launch builds each list once and not once
    /// per rank. Debug builds run every later `build` too, and a caller
    /// whose list differs from the one on record — two communicators under
    /// one id — gets a group of its own, never the other's.
    pub fn share_group(
        &self,
        comm: CommId,
        epoch: u32,
        build: impl FnOnce() -> Vec<usize>,
    ) -> Arc<Group> {
        let mut shared = self.shared_groups.lock();
        if let Some(group) = shared.get(&(comm, epoch)).and_then(Weak::upgrade) {
            #[cfg(debug_assertions)]
            {
                let members = build();
                if group.as_slice() != members {
                    return Arc::new(Group::new(members));
                }
            }
            return group;
        }
        self.counts.groups_built.fetch_add(1, Ordering::Relaxed);
        let group = Arc::new(Group::new(build()));
        shared.insert((comm, epoch), Arc::downgrade(&group));
        group
    }

    /// Attach (or detach) the DES scheduler for this launch. Installed by
    /// `Universe::launch` before any rank runs and cleared afterwards so a
    /// reused router never wakes a dead scheduler.
    pub fn set_sched(&self, sched: Option<Arc<Scheduler>>) {
        *self.sched.write() = sched;
    }

    /// The attached DES scheduler, if this launch runs on the DES backend.
    pub(crate) fn sched(&self) -> Option<Arc<Scheduler>> {
        self.sched.read().clone()
    }

    /// Install `rank`'s telemetry recorder (see `UniverseConfig::telemetry`).
    pub fn set_recorder(&self, rank: usize, rec: Recorder) {
        if let Some(slot) = self.recorders.write().get_mut(rank) {
            *slot = rec;
        }
    }

    /// `rank`'s recorder (disabled when telemetry is off or out of range).
    pub fn recorder(&self, rank: usize) -> Recorder {
        self.recorders.read().get(rank).cloned().unwrap_or_default()
    }

    /// Record one simulated MPI entry point for `me`, if per-call events
    /// were requested (they are off by default — see
    /// `telemetry::TelemetryConfig::record_mpi_calls`).
    pub(crate) fn record_mpi(&self, me: usize, op: MpiOp, peer: Option<u32>, bytes: u64) {
        let recorders = self.recorders.read();
        if let Some(rec) = recorders.get(me) {
            if rec.wants_mpi_calls() {
                rec.emit(Event::MpiCall { op, peer, bytes });
            }
        }
    }

    pub fn ranks(&self) -> usize {
        self.mailboxes.len()
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    // ---- failure state ----------------------------------------------------

    pub fn is_dead(&self, rank: usize) -> bool {
        self.dead
            .get(rank)
            .is_some_and(|d| d.load(Ordering::Acquire))
    }

    /// Snapshot of all dead global ranks.
    pub fn dead_snapshot(&self) -> HashSet<usize> {
        (0..self.dead.len()).filter(|&r| self.is_dead(r)).collect()
    }

    /// Kill a rank: mark it dead, purge its node's scratch space, and wake
    /// every blocked rank so it can observe the failure.
    pub fn kill(&self, rank: usize) {
        let Some(dead) = self.dead.get(rank) else {
            return; // no such rank
        };
        if dead.swap(true, Ordering::AcqRel) {
            return; // already dead
        }
        self.recorder(rank).emit(Event::RankKilled);
        self.cluster.fail_node_of(rank);
        self.rendezvous.forget(rank);
        #[cfg(debug_assertions)]
        self.witness.forget(rank);
        self.wake_all();
    }

    pub fn is_revoked(&self, comm: CommId, epoch: u32) -> bool {
        self.revoked.read().contains(&(comm, epoch))
    }

    /// Revoke a communicator epoch; wakes all blocked ranks.
    pub fn revoke(&self, comm: CommId, epoch: u32) {
        {
            let mut rv = self.revoked.write();
            if rv.contains(&(comm, epoch)) {
                return;
            }
            rv.push((comm, epoch));
        }
        #[cfg(debug_assertions)]
        self.witness.revoke(comm, epoch);
        self.wake_all();
    }

    pub fn is_aborted(&self) -> bool {
        self.aborted.is_raised()
    }

    /// Abort the job (plain-MPI response to an unrecovered failure).
    pub fn abort(&self) {
        self.aborted.raise();
        #[cfg(debug_assertions)]
        self.witness.abort();
        self.wake_all();
    }

    /// Wake every rank blocked in a receive or a rendezvous. Under DES
    /// every wait is a scheduler yield and the condvars have no waiters.
    pub fn wake_all(&self) {
        if let Some(s) = self.sched() {
            s.wake_all();
            return;
        }
        for mb in &self.mailboxes {
            let _guard = mb.queue.lock();
            mb.cv.notify_all();
        }
        self.rendezvous.wake_all();
    }

    /// Discard the envelopes of a retired communicator epoch queued for
    /// `me` (every rank calls this for itself after a Fenix repair, so stale
    /// traffic cannot accumulate). Nothing is sent on a retired epoch after
    /// its repair rendezvous completed, so a rank's own purge is final.
    pub fn purge_mailbox(&self, me: usize, comm: CommId, epoch: u32) {
        if let Some(mb) = self.mailboxes.get(me) {
            self.counts.purge_mailboxes.fetch_add(1, Ordering::Relaxed);
            mb.queue
                .lock()
                .envelopes
                .retain(|e| !(e.comm == comm && e.epoch == epoch));
        }
    }

    /// Envelopes of `comm`/`epoch` queued for `rank` (observability for
    /// tests).
    pub fn queued_on(&self, rank: usize, comm: CommId, epoch: u32) -> usize {
        self.mailboxes.get(rank).map_or(0, |mb| {
            let queue = mb.queue.lock();
            queue
                .envelopes
                .iter()
                .filter(|e| e.comm == comm && e.epoch == epoch)
                .count()
        })
    }

    /// Deterministically derive a child communicator id, identically
    /// computable on every rank without communication.
    pub fn derive_comm_id(parent: CommId, salt: u64) -> CommId {
        // FNV-1a over the two words; collision-free enough for the handful
        // of communicators a resilience stack creates.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in parent.to_le_bytes().into_iter().chain(salt.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h | 0x8000_0000_0000_0000 // keep derived ids out of the small-id space
    }

    // ---- messaging --------------------------------------------------------

    fn preflight(&self, me: usize, comm: CommId, epoch: u32) -> MpiResult<()> {
        if self.is_aborted() {
            return Err(MpiError::Aborted);
        }
        if self.is_dead(me) {
            return Err(MpiError::Killed);
        }
        if self.is_revoked(comm, epoch) {
            return Err(MpiError::Revoked);
        }
        Ok(())
    }

    /// Send an envelope from global rank `src` to global rank `dst`,
    /// charging the modeled network (intra-node messages skip the NIC).
    pub fn send(&self, dst: usize, env: Envelope) -> MpiResult<()> {
        self.preflight(env.src, env.comm, env.epoch)?;
        // Validate before the topology/network model touches `dst`.
        let mb = self.mailboxes.get(dst).ok_or(MpiError::RankOutOfRange {
            rank: dst,
            size: self.mailboxes.len(),
        })?;
        if self.is_dead(dst) {
            return Err(MpiError::proc_failed(dst));
        }
        if !self.cluster.topology().same_node(env.src, dst) {
            self.cluster
                .network()
                .transfer(env.src, dst, env.payload.len());
        }
        // The destination may have died while the transfer was in flight.
        if self.is_dead(dst) {
            return Err(MpiError::proc_failed(dst));
        }
        mb.queue.lock().envelopes.push_back(env);
        match self.sched() {
            Some(s) => s.wake(dst),
            None => mb.cv.notify_all(),
        }
        Ok(())
    }

    /// Blocking receive. Returns the matched envelope.
    pub fn recv(&self, spec: MatchSpec<'_>) -> MpiResult<Envelope> {
        parking_lot::assert_no_locks_held();
        let mb = self
            .mailboxes
            .get(spec.me)
            .ok_or(MpiError::RankOutOfRange {
                rank: spec.me,
                size: self.mailboxes.len(),
            })?;
        let mut queue = mb.queue.lock();
        loop {
            match self.settled(&queue.envelopes, &spec) {
                Some(Ok(pos)) => {
                    if let Some(env) = queue.envelopes.remove(pos) {
                        return Ok(env);
                    }
                }
                Some(Err(e)) => return Err(e),
                None => {}
            }
            // Nothing deliverable: yield. Under the DES backend the rank
            // leaves what it waits for in its mailbox, yields to the
            // scheduler and resumes once a sender (or a failure
            // transition) has made `settled` hold; on the threads backend
            // it parks on the mailbox condvar with a bounded re-check
            // timeout. Either way the loop re-evaluates the predicate from
            // scratch on resume.
            match self.sched() {
                Some(s) => {
                    queue.parked = Some(ParkedRecv {
                        comm: spec.comm,
                        epoch: spec.epoch,
                        src: spec.src,
                        tag: spec.tag,
                        group: spec.src.map_or_else(|| spec.group.to_vec(), |_| Vec::new()),
                    });
                    drop(queue);
                    s.yield_blocked(spec.me);
                    queue = mb.queue.lock();
                    queue.parked = None;
                }
                None => sched::park_on(&mb.cv, &mut queue),
            }
        }
    }

    /// Why a receive stops waiting, if it does: the position of a matching
    /// envelope, or the error it returns. `None` means it would only park
    /// again. The one list of a receive's exit conditions — [`Router::recv`]
    /// loops on it and the DES dispatcher asks it through
    /// [`Router::would_run`] before waking a parked rank.
    fn settled(
        &self,
        envelopes: &VecDeque<Envelope>,
        spec: &MatchSpec<'_>,
    ) -> Option<MpiResult<usize>> {
        // Queued matches first: in-flight data from a now-dead sender is
        // still valid.
        if let Some(pos) = envelopes.iter().position(|e| spec.matches(e)) {
            return Some(Ok(pos));
        }
        if self.is_aborted() {
            return Some(Err(MpiError::Aborted));
        }
        if self.is_dead(spec.me) {
            return Some(Err(MpiError::Killed));
        }
        if self.is_revoked(spec.comm, spec.epoch) {
            return Some(Err(MpiError::Revoked));
        }
        match spec.src {
            Some(s) if self.is_dead(s) => Some(Err(MpiError::proc_failed(s))),
            Some(_) => None,
            None => {
                let others = || spec.group.iter().copied().filter(|&r| r != spec.me);
                if others().any(|r| !self.is_dead(r)) {
                    return None;
                }
                Some(Err(MpiError::ProcFailed {
                    ranks: others().collect(),
                }))
            }
        }
    }

    /// The DES dispatcher's question about a `Blocked` rank whose event it
    /// popped: would the rank do anything but yield again? True unless it
    /// is parked in a receive whose predicate does not hold — a wait that
    /// registers nothing (a rendezvous) is always run. Called under the
    /// scheduler lock; takes the mailbox lock and reads the death and
    /// revocation registries, none of which is ever held around a call
    /// into the scheduler.
    pub(crate) fn would_run(&self, rank: usize) -> bool {
        let Some(mb) = self.mailboxes.get(rank) else {
            return true;
        };
        let queue = mb.queue.lock();
        queue.parked.as_ref().is_none_or(|p| {
            let spec = MatchSpec {
                comm: p.comm,
                epoch: p.epoch,
                src: p.src,
                tag: p.tag,
                group: &p.group,
                me: rank,
            };
            self.settled(&queue.envelopes, &spec).is_some()
        })
    }

    /// Number of agreement operations currently in flight in the rendezvous
    /// table (observability for tests and the modelcheck suite).
    pub fn agreements_in_flight(&self) -> usize {
        self.rendezvous.in_flight()
    }

    /// Non-blocking probe: is a matching message queued? `false` for a
    /// receiver outside the fabric.
    pub fn probe(&self, spec: MatchSpec<'_>) -> bool {
        self.mailboxes
            .get(spec.me)
            .is_some_and(|mb| mb.queue.lock().envelopes.iter().any(|e| spec.matches(e)))
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("ranks", &self.mailboxes.len())
            .field("dead", &self.dead_snapshot())
            .field("aborted", &self.is_aborted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{ClusterConfig, TimeScale};
    use std::time::Duration;

    fn router(n: usize) -> Arc<Router> {
        let cfg = ClusterConfig {
            nodes: n,
            ranks_per_node: 1,
            time_scale: TimeScale::instant(),
            ..ClusterConfig::default()
        };
        Router::new(Cluster::new(cfg))
    }

    fn env(src: usize, tag: u64, payload: &'static [u8]) -> Envelope {
        Envelope {
            comm: 0,
            epoch: 0,
            src,
            tag,
            payload: Bytes::from_static(payload),
        }
    }

    fn spec<'a>(me: usize, src: Option<usize>, tag: u64, group: &'a [usize]) -> MatchSpec<'a> {
        MatchSpec {
            comm: 0,
            epoch: 0,
            src,
            tag,
            group,
            me,
        }
    }

    /// The peer that would satisfy a receive may need the lock the
    /// receiver holds: the shim's witness rejects the call at entry.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "blocks on a peer while this thread holds")]
    fn recv_under_a_held_lock_panics() {
        let r = router(2);
        r.send(0, env(1, 7, b"x")).unwrap();
        let lock = Mutex::new(());
        let _held = lock.lock();
        let _ = r.recv(spec(0, Some(1), 7, &[0, 1]));
    }

    #[test]
    fn out_of_range_ranks_error_instead_of_panicking() {
        let r = router(2);
        assert!(matches!(
            r.send(9, env(0, 7, b"hi")),
            Err(MpiError::RankOutOfRange { rank: 9, size: 2 })
        ));
        let group = [0, 1];
        assert!(matches!(
            r.recv(spec(9, None, 7, &group)),
            Err(MpiError::RankOutOfRange { rank: 9, size: 2 })
        ));
        assert!(!r.probe(spec(9, None, 7, &group)));
        r.purge_mailbox(9, 0, 0);
        assert_eq!(r.queued_on(9, 0, 0), 0);
    }

    #[test]
    fn send_recv_roundtrip() {
        let r = router(2);
        r.send(1, env(0, 7, b"hi")).unwrap();
        let group = [0, 1];
        let e = r.recv(spec(1, Some(0), 7, &group)).unwrap();
        assert_eq!(&e.payload[..], b"hi");
        assert_eq!(e.src, 0);
    }

    #[test]
    fn recv_filters_by_tag() {
        let r = router(2);
        r.send(1, env(0, 1, b"one")).unwrap();
        r.send(1, env(0, 2, b"two")).unwrap();
        let group = [0, 1];
        let e = r.recv(spec(1, Some(0), 2, &group)).unwrap();
        assert_eq!(&e.payload[..], b"two");
        let e = r.recv(spec(1, Some(0), 1, &group)).unwrap();
        assert_eq!(&e.payload[..], b"one");
    }

    #[test]
    fn send_to_dead_rank_fails() {
        let r = router(2);
        r.kill(1);
        assert_eq!(r.send(1, env(0, 0, b"")), Err(MpiError::proc_failed(1)));
    }

    #[test]
    fn dead_sender_cannot_send() {
        let r = router(2);
        r.kill(0);
        assert_eq!(r.send(1, env(0, 0, b"")), Err(MpiError::Killed));
    }

    #[test]
    fn recv_from_dead_rank_fails() {
        let r = router(2);
        r.kill(0);
        let group = [0, 1];
        assert_eq!(
            r.recv(spec(1, Some(0), 0, &group)),
            Err(MpiError::proc_failed(0))
        );
    }

    #[test]
    fn queued_message_from_dead_sender_still_delivers() {
        let r = router(2);
        r.send(1, env(0, 3, b"last words")).unwrap();
        r.kill(0);
        let group = [0, 1];
        let e = r.recv(spec(1, Some(0), 3, &group)).unwrap();
        assert_eq!(&e.payload[..], b"last words");
    }

    #[test]
    fn revoked_comm_fails_blocked_recv() {
        let r = router(2);
        let r2 = Arc::clone(&r);
        let h = std::thread::spawn(move || {
            let group = [0, 1];
            r2.recv(spec(1, Some(0), 0, &group))
        });
        std::thread::sleep(Duration::from_millis(20));
        r.revoke(0, 0);
        assert_eq!(h.join().unwrap(), Err(MpiError::Revoked));
    }

    #[test]
    fn any_source_recv_fails_when_all_peers_dead() {
        let r = router(3);
        r.kill(0);
        r.kill(2);
        let group = [0, 1, 2];
        match r.recv(spec(1, None, 0, &group)) {
            Err(MpiError::ProcFailed { ranks }) => assert_eq!(ranks, vec![0, 2]),
            other => panic!("expected ProcFailed, got {other:?}"),
        }
    }

    #[test]
    fn any_source_recv_wakes_on_late_message() {
        let r = router(2);
        let r2 = Arc::clone(&r);
        let h = std::thread::spawn(move || {
            let group = [0, 1];
            r2.recv(spec(1, None, 9, &group))
        });
        std::thread::sleep(Duration::from_millis(10));
        r.send(1, env(0, 9, b"late")).unwrap();
        let e = h.join().unwrap().unwrap();
        assert_eq!(&e.payload[..], b"late");
    }

    #[test]
    fn abort_wakes_blocked_recv() {
        let r = router(2);
        let r2 = Arc::clone(&r);
        let h = std::thread::spawn(move || {
            let group = [0, 1];
            r2.recv(spec(1, Some(0), 0, &group))
        });
        std::thread::sleep(Duration::from_millis(10));
        r.abort();
        assert_eq!(h.join().unwrap(), Err(MpiError::Aborted));
    }

    #[test]
    fn kill_purges_scratch() {
        let r = router(2);
        r.cluster()
            .scratch()
            .write(1, "ck", Bytes::from_static(b"x"));
        r.kill(1);
        assert!(r.cluster().scratch().read(1, "ck").is_none());
    }

    #[test]
    fn share_group_shares_equal_lists_and_nothing_else() {
        let r = router(4);
        let first = r.share_group(7, 0, || vec![0, 1, 2]);
        let same = r.share_group(7, 0, || vec![0, 1, 2]);
        assert!(Arc::ptr_eq(&first, &same));
        // The same id with other members is another communicator.
        let other = r.share_group(7, 0, || vec![0, 2, 3]);
        assert_eq!(*other.as_slice(), [0, 2, 3]);
        assert_eq!(*first.as_slice(), [0, 1, 2]);
        assert_eq!(other.rank_of(3), Some(2));
        // Nothing outlives its handles.
        drop((first, same));
        let again = r.share_group(7, 0, || vec![0, 2, 3]);
        assert!(!Arc::ptr_eq(&again, &other));
        assert_eq!(*again.as_slice(), [0, 2, 3]);
    }

    #[test]
    fn purge_mailbox_drops_only_that_epoch_of_that_rank() {
        let r = router(2);
        r.send(1, env(0, 1, b"old")).unwrap();
        r.send(0, env(1, 1, b"old")).unwrap();
        let mut e2 = env(0, 1, b"new");
        e2.epoch = 1;
        r.send(1, e2).unwrap();
        r.purge_mailbox(1, 0, 0);
        assert_eq!(r.queued_on(1, 0, 0), 0);
        assert_eq!(r.queued_on(0, 0, 0), 1, "another rank's mailbox is its own");
        let group = [0, 1];
        let s = MatchSpec {
            comm: 0,
            epoch: 1,
            src: Some(0),
            tag: 1,
            group: &group,
            me: 1,
        };
        let e = r.recv(s).unwrap();
        assert_eq!(&e.payload[..], b"new");
        assert!(!r.probe(spec(1, Some(0), 1, &group)));
    }

    #[test]
    fn derived_ids_are_deterministic_and_distinct() {
        let a = Router::derive_comm_id(0, 1);
        let b = Router::derive_comm_id(0, 1);
        let c = Router::derive_comm_id(0, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn double_kill_is_idempotent() {
        let r = router(2);
        r.kill(1);
        r.kill(1);
        assert!(r.is_dead(1));
        assert_eq!(r.dead_snapshot(), HashSet::from([1]));
    }
}
