//! The collective-sequence witness: every rank of a communicator epoch
//! enters the same sequence of collective kinds.
//!
//! Under `debug_assertions` (every `cargo test`, never `--release`) each
//! rank counts the collectives it enters per (communicator, epoch); data
//! collectives and rendezvous (`agree`, `shrink`, Fenix's repair) share the
//! count. The first arrival at a count records its kind and call site
//! (`#[track_caller]`), and a rank arriving there with another kind panics,
//! naming both sites and both ranks. Kinds alone are compared, so `if root
//! { bcast(send) } else { bcast(recv) }` is one sequence. A count is
//! dropped once every member entered it or died. Revoked epochs, aborted
//! jobs and dead callers are not checked: every operation there fails at
//! once, and ranks leave for recovery at different counts.
//!
//! Under DES a drained event heap with no rank dead can only be a divergent
//! sequence: the deadlock hook lists each rank blocked in a collective, with
//! its site, and the launch re-raises the listing. The module, and every
//! call into it, is compiled only under `debug_assertions`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::Location;
use std::sync::{Mutex, MutexGuard};

use crate::router::CommId;

type Site = &'static Location<'static>;

/// The first arrival at a count, and how many live members have not
/// entered it yet.
struct Entry {
    kind: &'static str,
    site: Site,
    rank: usize,
    missing: usize,
}

struct Epoch {
    members: Vec<usize>,
    live: usize,
    /// Collectives each rank has entered.
    entered: HashMap<usize, u64>,
    open: BTreeMap<u64, Entry>,
}

#[derive(Default)]
struct State {
    epochs: BTreeMap<(CommId, u32), Epoch>,
    revoked: HashSet<(CommId, u32)>,
    /// Each rank's pending collective, while it is inside one.
    waiting: Vec<Option<(&'static str, Site)>>,
    dead: Vec<bool>,
    aborted: bool,
    deadlock: Option<String>,
}

/// The router's witness (module docs).
pub(crate) struct Witness(Mutex<State>);

/// A rank inside a collective; clears its pending entry when dropped.
pub(crate) struct Pending<'a> {
    witness: &'a Witness,
    rank: usize,
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        if let Some(w) = self.witness.state().waiting.get_mut(self.rank) {
            *w = None;
        }
    }
}

impl Witness {
    pub(crate) fn new(ranks: usize) -> Witness {
        Witness(Mutex::new(State {
            waiting: vec![None; ranks],
            dead: vec![false; ranks],
            ..State::default()
        }))
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `me` enters a collective of `kind` on `(comm, epoch)`, whose
    /// members are `group`. Panics when a peer entered this count with
    /// another kind.
    #[track_caller]
    pub(crate) fn enter(
        &self,
        comm: CommId,
        epoch: u32,
        group: &[usize],
        me: usize,
        kind: &'static str,
    ) -> Pending<'_> {
        let site = Location::caller();
        let mut st = self.state();
        let checked = !st.aborted
            && !st.revoked.contains(&(comm, epoch))
            && !st.dead.get(me).copied().unwrap_or(true);
        if checked {
            let State { epochs, dead, .. } = &mut *st;
            let ep = epochs.entry((comm, epoch)).or_insert_with(|| Epoch {
                members: group.to_vec(),
                live: group
                    .iter()
                    .filter(|&&r| dead.get(r) == Some(&false))
                    .count(),
                entered: HashMap::new(),
                open: BTreeMap::new(),
            });
            let count = ep.entered.entry(me).or_insert(0);
            let ordinal = *count;
            *count += 1;
            let first = ep.open.entry(ordinal).or_insert(Entry {
                kind,
                site,
                rank: me,
                missing: ep.live,
            });
            first.missing = first.missing.saturating_sub(1);
            let clash = (first.kind != kind).then_some((first.kind, first.site, first.rank));
            if first.missing == 0 {
                ep.open.remove(&ordinal);
            }
            if let Some((theirs, their_site, them)) = clash {
                drop(st);
                #[expect(
                    clippy::panic,
                    reason = "a divergent collective sequence is a bug the launch re-raises"
                )]
                {
                    panic!(
                        "collective witness: rank {me} entered {kind} at {site} as collective \
                         #{ordinal} on communicator {comm:#x} epoch {epoch}, where rank \
                         {them} entered {theirs} at {their_site}"
                    );
                }
            }
        }
        if let Some(w) = st.waiting.get_mut(me) {
            *w = Some((kind, site));
        }
        Pending {
            witness: self,
            rank: me,
        }
    }

    /// `rank` died: no count it has not entered waits for it.
    pub(crate) fn forget(&self, rank: usize) {
        let mut st = self.state();
        if let Some(d) = st.dead.get_mut(rank) {
            *d = true;
        }
        for ep in st.epochs.values_mut() {
            if ep.members.contains(&rank) {
                ep.live = ep.live.saturating_sub(1);
                let passed = ep.entered.get(&rank).copied().unwrap_or(0);
                for (_, e) in ep.open.range_mut(passed..) {
                    e.missing = e.missing.saturating_sub(1);
                }
                ep.open.retain(|_, e| e.missing > 0);
            }
        }
    }

    /// The job aborted: every operation fails at once from here on.
    pub(crate) fn abort(&self) {
        self.state().aborted = true;
    }

    /// `(comm, epoch)` was revoked: its ranks leave for recovery from
    /// wherever they were, so it is checked no more.
    pub(crate) fn revoke(&self, comm: CommId, epoch: u32) {
        let mut st = self.state();
        st.epochs.remove(&(comm, epoch));
        st.revoked.insert((comm, epoch));
    }

    /// The DES event heap drained: with no rank dead, keep the list of
    /// ranks blocked in a collective for [`Self::take_deadlock`].
    pub(crate) fn note_deadlock(&self) {
        let mut st = self.state();
        if st.dead.contains(&true) {
            return;
        }
        let listing: String = st
            .waiting
            .iter()
            .enumerate()
            .filter_map(|(rank, w)| w.map(|(kind, site)| (rank, kind, site)))
            .map(|(rank, kind, site)| format!("\n  rank {rank} waits in {kind} at {site}"))
            .collect();
        if !listing.is_empty() {
            st.deadlock.get_or_insert(format!(
                "collective witness: deadlock with no rank dead; blocked in collectives:{listing}"
            ));
        }
    }

    pub(crate) fn take_deadlock(&self) -> Option<String> {
        self.state().deadlock.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_count_is_dropped_once_every_member_entered_or_died() {
        let w = Witness::new(3);
        let open = |w: &Witness| w.state().epochs.get(&(0, 0)).map(|e| e.open.len());
        let group = [0, 1, 2];
        drop(w.enter(0, 0, &group, 0, "barrier"));
        drop(w.enter(0, 0, &group, 1, "barrier"));
        assert_eq!(open(&w), Some(1));
        drop(w.enter(0, 0, &group, 2, "barrier"));
        assert_eq!(open(&w), Some(0));
        drop(w.enter(0, 0, &group, 0, "bcast"));
        drop(w.enter(0, 0, &group, 1, "bcast"));
        w.forget(2);
        assert_eq!(open(&w), Some(0));
        // Later counts do not wait for the dead member.
        drop(w.enter(0, 0, &group, 0, "agree"));
        drop(w.enter(0, 0, &group, 1, "agree"));
        assert_eq!(open(&w), Some(0));
    }
}
