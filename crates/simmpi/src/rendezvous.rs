//! Fault-tolerant agreement rendezvous.
//!
//! ULFM's `MPI_Comm_agree` and `MPI_Comm_shrink` must complete *despite*
//! process failures, including failures that happen mid-operation. Real
//! implementations run a fault-tolerant consensus protocol; the simulation
//! provides the same guarantees with a shared combiner table:
//!
//! * Every live participant deposits a contribution under a key that all
//!   callers of the same logical operation share.
//! * The operation completes once every group member has either contributed
//!   or died; the completing participant combines the contributions
//!   (deterministically, in group-rank order) and publishes the result.
//! * Participants learn, alongside the result, whether any group member was
//!   dead at completion time — ULFM's "agree acknowledges failures" flag.
//!
//! Entries are garbage collected when the last live participant picks up the
//! result: publication strikes the dead contributors, every pick-up strikes
//! its own, a kill strikes the victim's, and whoever empties the set retires
//! the entry — O(1) per participant, however large the group.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::error::{MpiError, MpiResult};
use crate::router::{CommId, Router};
use crate::sched;

/// Uniquely names one logical agreement operation. All participants must use
/// the same key; the `purpose`/`seq` pair orders successive operations on
/// the same communicator (e.g. Fenix repair #N).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RendezvousKey {
    pub comm: CommId,
    pub epoch: u32,
    pub purpose: u8,
    pub seq: u64,
}

/// Purposes used by the ULFM layer.
pub mod purpose {
    pub const AGREE: u8 = 1;
    pub const SHRINK: u8 = 2;
    pub const FENIX: u8 = 3;
}

/// Outcome of a rendezvous: combined payload plus whether any group member
/// was dead when the operation completed.
#[derive(Clone, Debug, PartialEq)]
pub struct RendezvousOutcome {
    pub value: Bytes,
    pub failures_observed: Vec<usize>,
}

struct Entry {
    state: Mutex<EntryState>,
    cv: Condvar,
}

#[derive(Default)]
struct EntryState {
    /// Before publication: every contribution so far. After: the live
    /// contributors that have not picked the result up yet.
    contribs: HashMap<usize, Bytes>,
    result: Option<RendezvousOutcome>,
}

/// Table of in-flight agreement operations.
pub struct RendezvousTable {
    entries: Mutex<HashMap<RendezvousKey, Arc<Entry>>>,
}

impl RendezvousTable {
    pub fn new() -> Self {
        RendezvousTable {
            entries: Mutex::new(HashMap::new()),
        }
    }

    fn entry(&self, key: RendezvousKey) -> Arc<Entry> {
        let mut map = self.entries.lock();
        Arc::clone(map.entry(key).or_insert_with(|| {
            Arc::new(Entry {
                state: Mutex::new(EntryState::default()),
                cv: Condvar::new(),
            })
        }))
    }

    fn retire(&self, key: RendezvousKey) {
        self.entries.lock().remove(&key);
    }

    /// Wake every participant so it re-evaluates completeness (called by the
    /// router whenever a rank dies or the job aborts).
    pub fn wake_all(&self) {
        let entries: Vec<Arc<Entry>> = self.entries.lock().values().cloned().collect();
        for e in entries {
            let _g = e.state.lock();
            e.cv.notify_all();
        }
    }

    /// `rank` died and will never pick a result up: strike it from every
    /// published entry, retiring the entries it was the last holder of.
    pub(crate) fn forget(&self, rank: usize) {
        let entries: Vec<(RendezvousKey, Arc<Entry>)> = self
            .entries
            .lock()
            .iter()
            .map(|(k, e)| (*k, Arc::clone(e)))
            .collect();
        for (key, e) in entries {
            let mut st = e.state.lock();
            let last = st.result.is_some()
                && st.contribs.remove(&rank).is_some()
                && st.contribs.is_empty();
            drop(st);
            if last {
                self.retire(key);
            }
        }
    }

    /// Number of in-flight operations (tests).
    pub fn in_flight(&self) -> usize {
        self.entries.lock().len()
    }
}

impl Default for RendezvousTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Router {
    /// Participate in a fault-tolerant agreement.
    ///
    /// `group` is the set of global ranks expected to participate; `combine`
    /// folds the contributions (presented in ascending rank order) into the
    /// agreed value. Completes when every group member has contributed or
    /// died. Returns `Killed`/`Aborted` if this rank dies or the job aborts
    /// while waiting.
    pub fn rendezvous(
        &self,
        key: RendezvousKey,
        me: usize,
        group: &[usize],
        contribution: Bytes,
        combine: impl Fn(&[(usize, Bytes)]) -> Bytes,
    ) -> MpiResult<RendezvousOutcome> {
        debug_assert!(group.contains(&me), "rank {me} not in rendezvous group");
        let entry = self.rendezvous.entry(key);
        let mut st = entry.state.lock();
        st.contribs.insert(me, contribution);

        loop {
            if let Some(result) = st.result.clone() {
                // The last live participant retires the entry. One member
                // examined per pick-up: its own.
                self.counts
                    .rendezvous_scanned
                    .fetch_add(1, Ordering::Relaxed);
                st.contribs.remove(&me);
                if st.contribs.is_empty() {
                    drop(st);
                    self.rendezvous.retire(key);
                }
                return Ok(result);
            }

            if self.is_aborted() {
                return Err(MpiError::Aborted);
            }
            if self.is_dead(me) {
                return Err(MpiError::Killed);
            }
            // A revoked communicator means some participants have abandoned
            // this operation for failure recovery and will never contribute;
            // waiting on would deadlock (observed with Fenix-IMR commits
            // racing a repair). Published results are still delivered — the
            // result check above runs first — so an agreement either
            // completes everywhere or aborts everywhere.
            if self.is_revoked(key.comm, key.epoch) {
                return Err(MpiError::Revoked);
            }

            // Complete if every group member contributed or died.
            let dead = self.dead_snapshot();
            let complete = group
                .iter()
                .all(|r| st.contribs.contains_key(r) || dead.contains(r));
            if complete {
                let mut parts: Vec<(usize, Bytes)> =
                    st.contribs.iter().map(|(&r, b)| (r, b.clone())).collect();
                parts.sort_by_key(|(r, _)| *r);
                let value = combine(&parts);
                let failures_observed =
                    group.iter().copied().filter(|r| dead.contains(r)).collect();
                st.result = Some(RendezvousOutcome {
                    value,
                    failures_observed,
                });
                // From here on the set holds who still has to pick up.
                st.contribs.retain(|r, _| !dead.contains(r));
                entry.cv.notify_all();
                if let Some(s) = self.sched() {
                    // Publication wakes the whole group; pushes are in
                    // ascending rank order so the seeded tiebreak alone
                    // decides who resumes first.
                    for &r in group {
                        if r != me {
                            s.wake(r);
                        }
                    }
                }
                continue; // next loop iteration picks the result up
            }

            // Not complete: yield. DES ranks hand the baton back to the
            // scheduler and resume when a contribution, publication, or
            // failure transition wakes them; threads-backend ranks park on
            // the entry condvar with a bounded re-check timeout.
            match self.sched() {
                Some(s) => {
                    drop(st);
                    s.yield_blocked(me);
                    st = entry.state.lock();
                }
                None => sched::park_on(&entry.cv, &mut st),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{Cluster, ClusterConfig, TimeScale};
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

    fn key(seq: u64) -> RendezvousKey {
        RendezvousKey {
            comm: 0,
            epoch: 0,
            purpose: purpose::AGREE,
            seq,
        }
    }

    fn sum_combine(parts: &[(usize, Bytes)]) -> Bytes {
        let s: u64 = parts
            .iter()
            .map(|(_, b)| u64::from_le_bytes(b[..8].try_into().unwrap()))
            .sum();
        Bytes::copy_from_slice(&s.to_le_bytes())
    }

    fn contrib(v: u64) -> Bytes {
        Bytes::copy_from_slice(&v.to_le_bytes())
    }

    #[test]
    fn all_participants_agree_on_combined_value() {
        let r = router(3);
        let group = vec![0usize, 1, 2];
        let handles: Vec<_> = (0..3)
            .map(|me| {
                let r = Arc::clone(&r);
                let group = group.clone();
                std::thread::spawn(move || {
                    r.rendezvous(key(1), me, &group, contrib(me as u64 + 1), sum_combine)
                })
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap().unwrap();
            assert_eq!(u64::from_le_bytes(out.value[..8].try_into().unwrap()), 6);
            assert!(out.failures_observed.is_empty());
        }
        assert_eq!(r.rendezvous.in_flight(), 0, "entry retired");
    }

    #[test]
    fn completes_when_member_dead_before_joining() {
        let r = router(3);
        r.kill(2);
        let group = vec![0usize, 1, 2];
        let handles: Vec<_> = (0..2)
            .map(|me| {
                let r = Arc::clone(&r);
                let group = group.clone();
                std::thread::spawn(move || {
                    r.rendezvous(key(2), me, &group, contrib(10), sum_combine)
                })
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap().unwrap();
            assert_eq!(u64::from_le_bytes(out.value[..8].try_into().unwrap()), 20);
            assert_eq!(out.failures_observed, vec![2]);
        }
        assert_eq!(r.rendezvous.in_flight(), 0, "entry retired");
    }

    #[test]
    fn completes_when_member_dies_while_waiting() {
        let r = router(3);
        let group = vec![0usize, 1, 2];
        let handles: Vec<_> = (0..2)
            .map(|me| {
                let r = Arc::clone(&r);
                let group = group.clone();
                std::thread::spawn(move || {
                    r.rendezvous(key(3), me, &group, contrib(5), sum_combine)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        r.kill(2); // the missing participant dies; waiters must complete
        for h in handles {
            let out = h.join().unwrap().unwrap();
            assert_eq!(out.failures_observed, vec![2]);
        }
        assert_eq!(r.rendezvous.in_flight(), 0, "entry retired");
    }

    #[test]
    fn own_death_while_waiting_returns_killed() {
        let r = router(2);
        let group = vec![0usize, 1];
        let r2 = Arc::clone(&r);
        let g2 = group.clone();
        let h = std::thread::spawn(move || r2.rendezvous(key(4), 0, &g2, contrib(1), sum_combine));
        std::thread::sleep(Duration::from_millis(20));
        r.kill(0);
        assert_eq!(h.join().unwrap(), Err(MpiError::Killed));
    }

    #[test]
    fn abort_unblocks_rendezvous() {
        let r = router(2);
        let group = vec![0usize, 1];
        let r2 = Arc::clone(&r);
        let g2 = group.clone();
        let h = std::thread::spawn(move || r2.rendezvous(key(5), 0, &g2, contrib(1), sum_combine));
        std::thread::sleep(Duration::from_millis(20));
        r.abort();
        assert_eq!(h.join().unwrap(), Err(MpiError::Aborted));
    }

    #[test]
    fn distinct_seqs_do_not_interfere() {
        let r = router(2);
        let group = vec![0usize, 1];
        let mut handles = Vec::new();
        for seq in [10u64, 11] {
            for me in 0..2usize {
                let r = Arc::clone(&r);
                let group = group.clone();
                handles.push(std::thread::spawn(move || {
                    r.rendezvous(key(seq), me, &group, contrib(seq), sum_combine)
                        .unwrap()
                }));
            }
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Each op sums its own contributions: 2*seq.
        let sums: Vec<u64> = results
            .iter()
            .map(|o| u64::from_le_bytes(o.value[..8].try_into().unwrap()))
            .collect();
        assert!(sums.contains(&20) && sums.contains(&22));
    }
}
