//! The Fenix run loop: spare-rank management, repair, and role tracking.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;
use simmpi::comm::Group;
use simmpi::rendezvous::{purpose, RendezvousKey};
use simmpi::router::{CommId, Router};
use simmpi::{Comm, MpiError, MpiResult};
use telemetry::{Event, Recorder};

/// What a rank is, as seen by the application on (re-)entry — the rank
/// states of the paper's Figure 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// First entry; no failure has been recovered yet.
    Initial,
    /// This rank was active when a failure occurred elsewhere; its memory
    /// (including in-progress data) is intact.
    Survivor,
    /// This rank was a spare and has just been substituted for a failed
    /// rank; it has no application state and must restore from a checkpoint.
    Recovered,
}

/// What to do when a failure occurs and no spares remain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExhaustPolicy {
    /// Abort the job (Fenix's default).
    Abort,
    /// Continue with a shrunk resilient communicator; rank ids are
    /// reassigned and the application must cope (paper §IV: requires
    /// updating cached rank ids in Kokkos Resilience and VeloC).
    Shrink,
}

/// Fenix initialization options.
#[derive(Clone, Copy, Debug)]
pub struct FenixConfig {
    /// Number of world ranks held out as spares (the highest ranks).
    pub spares: usize,
    pub on_exhaustion: ExhaustPolicy,
}

impl Default for FenixConfig {
    fn default() -> Self {
        FenixConfig {
            spares: 1,
            on_exhaustion: ExhaustPolicy::Abort,
        }
    }
}

/// Outcome of a completed [`run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunSummary {
    /// How many repairs this rank participated in.
    pub repairs: u64,
    /// Whether this rank ever executed the application body.
    pub executed_body: bool,
    /// The rank's final role (`None` if it remained an unused spare).
    pub final_role: Option<Role>,
}

/// Information handed to recovery callbacks after a repair.
#[derive(Clone, Debug)]
pub struct RepairInfo {
    /// Repairs completed so far (including this one).
    pub repair_count: u64,
    /// Global ranks known dead after this repair.
    pub failed_global: Vec<usize>,
    /// Resilient-communicator ranks replaced by spares in this repair.
    pub recovered_ranks: Vec<usize>,
    /// Size of the repaired resilient communicator.
    pub resilient_size: usize,
    /// Spares still available.
    pub spares_remaining: usize,
}

/// A recovery callback (paper §IV: Fenix "runs any application callbacks
/// before returning control to the application").
pub type RecoveryCallback = Box<dyn FnMut(&RepairInfo) + Send>;

/// Handle to the Fenix runtime state, passed to the application body.
pub struct Fenix {
    world: Comm,
    config: FenixConfig,
    repair_count: Cell<u64>,
    /// Global ranks currently filling the resilient communicator's slots:
    /// the group of the current resilient communicator, shared by all ranks.
    active_group: RefCell<Arc<Group>>,
    /// The first world rank that may still be an unconsumed spare: the
    /// spares are the world ranks from here on that are not known dead,
    /// lowest first, and a repair consumes them from the front.
    next_spare: Cell<usize>,
    /// The group before the most recent repair, and whether that repair
    /// found a spare for every dead slot: its dead members' slots are the
    /// ranks it replaced ([`Self::recovered_ranks`]).
    last_repair: RefCell<Option<(Arc<Group>, bool)>>,
    /// Failures already handled by earlier repairs. The rendezvous reports
    /// the *full* dead history; only previously unseen failures (or explicit
    /// repair votes) trigger another repair — otherwise a finalize after a
    /// recovery would re-repair forever. Updated only from agreed rendezvous
    /// outcomes, so it stays identical on every rank; the list itself is
    /// the outcome's, shared by every rank.
    known_dead: RefCell<Option<Arc<[usize]>>>,
    /// Application recovery callbacks (`Fenix_Callback_register`), invoked
    /// after every repair, before the body re-runs.
    callbacks: RefCell<Vec<RecoveryCallback>>,
}

/// Repair-rendezvous contributions.
const VOTE_FINALIZE: u8 = 0;
const VOTE_REPAIR: u8 = 1;
const VOTE_SPARE: u8 = 2;

/// A vote as a rendezvous payload: one shared buffer per vote, so a
/// rank's contribution allocates nothing.
fn vote_bytes(vote: u8) -> Bytes {
    static VOTES: OnceLock<[Bytes; 3]> = OnceLock::new();
    let votes = VOTES.get_or_init(|| {
        [VOTE_FINALIZE, VOTE_REPAIR, VOTE_SPARE].map(|v| Bytes::copy_from_slice(&[v]))
    });
    votes
        .get(usize::from(vote))
        .cloned()
        .unwrap_or_else(|| Bytes::copy_from_slice(&[vote]))
}

/// Base id for resilient communicators, shared by all ranks.
const FENIX_COMM_SALT: u64 = 0xFE21;

/// Id of the resilient communicator after `repairs` repairs.
fn resilient_comm_id(world: &Comm, repairs: u64) -> CommId {
    Router::derive_comm_id(world.id(), FENIX_COMM_SALT.wrapping_add(repairs))
}

impl Fenix {
    fn new(world: &Comm, config: FenixConfig) -> Self {
        let n = world.size();
        assert!(
            config.spares < n,
            "need at least one non-spare rank ({} spares of {} ranks)",
            config.spares,
            n
        );
        let n_active = n - config.spares;
        let active = world
            .router()
            .share_group(resilient_comm_id(world, 0), 0, || {
                (0..n_active).map(|r| world.global_of(r)).collect()
            });
        Fenix {
            world: world.clone(),
            config,
            repair_count: Cell::new(0),
            active_group: RefCell::new(active),
            next_spare: Cell::new(n_active),
            last_repair: RefCell::new(None),
            known_dead: RefCell::new(None),
            callbacks: RefCell::new(Vec::new()),
        }
    }

    /// The unconsumed spares not in `dead`, lowest first: `(world rank,
    /// global rank)`.
    fn spares<'a>(
        &'a self,
        dead: &'a [usize],
    ) -> impl Iterator<Item = (usize, usize)> + Clone + 'a {
        (self.next_spare.get()..self.world.size())
            .map(|r| (r, self.world.global_of(r)))
            .filter(|(_, g)| !dead.contains(g))
    }

    /// The dead ranks every repair so far agreed on.
    fn known_dead(&self) -> Arc<[usize]> {
        self.known_dead
            .borrow()
            .clone()
            .unwrap_or_else(|| Arc::new([]))
    }

    /// Register a recovery callback (`Fenix_Callback_register`): invoked on
    /// this rank after each repair completes, with the repair's facts,
    /// before the application body re-runs. Callbacks persist across
    /// repairs; registering the same logic twice runs it twice.
    pub fn register_callback(&self, cb: RecoveryCallback) {
        self.callbacks.borrow_mut().push(cb);
    }

    fn fire_callbacks(&self) {
        if self.callbacks.borrow().is_empty() {
            return;
        }
        let info = RepairInfo {
            repair_count: self.repair_count.get(),
            failed_global: {
                let mut v = self.known_dead().to_vec();
                v.sort_unstable();
                v
            },
            recovered_ranks: self.recovered_ranks(),
            resilient_size: self.active_group.borrow().len(),
            spares_remaining: self.spares_remaining(),
        };
        let rec = self.recorder();
        for (i, cb) in self.callbacks.borrow_mut().iter_mut().enumerate() {
            rec.emit_with(|| Event::CallbackFired {
                name: format!("callback{i}"),
            });
            cb(&info);
        }
    }

    /// Number of repairs performed so far.
    pub fn repair_count(&self) -> u64 {
        self.repair_count.get()
    }

    /// Spares not yet consumed.
    pub fn spares_remaining(&self) -> usize {
        self.spares(&self.known_dead()).count()
    }

    /// Resilient-communicator ranks that were replaced by spares in the most
    /// recent repair, ascending. Empty when that repair ran out of spares
    /// (rank ids shifted, so the replaced slots are stale).
    pub fn recovered_ranks(&self) -> Vec<usize> {
        let last = self.last_repair.borrow();
        let Some((old, true)) = last.as_ref() else {
            return Vec::new();
        };
        let mut slots: Vec<usize> = (self.known_dead().iter())
            .filter_map(|&g| old.rank_of(g))
            .collect();
        slots.sort_unstable();
        slots
    }

    /// The size of the current resilient communicator.
    pub fn resilient_size(&self) -> usize {
        self.active_group.borrow().len()
    }

    fn router(&self) -> &Arc<Router> {
        self.world.router()
    }

    fn recorder(&self) -> Recorder {
        self.router().recorder(self.world.my_global())
    }

    fn build_resilient_comm(&self) -> Comm {
        Comm::on_group(
            Arc::clone(self.router()),
            resilient_comm_id(&self.world, self.repair_count.get()),
            0,
            Arc::clone(&self.active_group.borrow()),
            self.world.my_global(),
        )
    }

    fn is_active(&self) -> bool {
        self.active_group
            .borrow()
            .rank_of(self.world.my_global())
            .is_some()
    }

    /// Join the repair rendezvous for the current epoch with a vote.
    /// Returns `Ok(None)` for normal completion (finalize), or
    /// `Ok(Some(dead))` when a repair must be applied.
    #[cfg_attr(debug_assertions, track_caller)]
    fn repair_rendezvous(&self, vote: u8) -> MpiResult<Option<Arc<[usize]>>> {
        let key = RendezvousKey {
            comm: self.world.id(),
            epoch: self.world.epoch(),
            purpose: purpose::FENIX,
            seq: self.repair_count.get(),
        };
        let outcome = self.router().rendezvous(
            key,
            self.world.my_global(),
            self.world.group(),
            vote_bytes(vote),
            |parts| {
                let any_repair = parts.iter().any(|(_, b)| b.first() == Some(&VOTE_REPAIR));
                vote_bytes(if any_repair {
                    VOTE_REPAIR
                } else {
                    VOTE_FINALIZE
                })
            },
        )?;
        // The rendezvous *is* the agreement step of the failure chain.
        self.recorder().emit_with(|| Event::Agree {
            seq: self.repair_count.get(),
            flags: outcome.value.first().copied().unwrap_or(0) as u64,
        });
        let repair_voted = outcome.value.first() == Some(&VOTE_REPAIR);
        let any_new_dead = {
            let known = self.known_dead.borrow();
            let known = known.as_deref().unwrap_or_default();
            outcome.failures_observed.iter().any(|r| !known.contains(r))
        };
        if repair_voted || any_new_dead {
            self.recorder().emit_with(|| Event::FailureDetected {
                scope: if repair_voted { "voted" } else { "observed" }.to_string(),
            });
            Ok(Some(outcome.failures_observed))
        } else {
            Ok(None)
        }
    }

    /// Apply a repair given the agreed dead set (full history of dead global
    /// ranks — deterministic and identical on every rank).
    fn apply_repair(&self, dead: &Arc<[usize]>) -> MpiResult<()> {
        let rec = self.recorder();
        rec.emit_with(|| Event::RepairBegin {
            epoch: self.repair_count.get(),
        });
        let old_id = resilient_comm_id(&self.world, self.repair_count.get());
        let new_id = resilient_comm_id(&self.world, self.repair_count.get() + 1);

        {
            let old = Arc::clone(&self.active_group.borrow());
            // Slots held by a dead rank, each taken by the next spare
            // (lowest slot first) while the spares last.
            let dead_slots = || dead.iter().filter_map(|&g| old.rank_of(g));
            let (slots, spares) = (dead_slots().count(), self.spares(dead));
            let exhausted = slots > spares.clone().count();
            if exhausted && self.config.on_exhaustion == ExhaustPolicy::Abort {
                self.router().abort();
                return Err(MpiError::Aborted);
            }
            // Every rank derives the same list from the agreed dead set, so
            // the first one builds it and all of them hold its copy.
            let group = self.router().share_group(new_id, 0, || {
                let mut members = old.to_vec();
                let mut slots: Vec<usize> = dead_slots().collect();
                slots.sort_unstable();
                for (slot, (_, spare)) in slots.into_iter().zip(spares.clone()) {
                    if let Some(member) = members.get_mut(slot) {
                        *member = spare;
                    }
                }
                if exhausted {
                    // Spares ran out under `Shrink`: drop the slots still dead.
                    members.retain(|g| !dead.contains(g));
                }
                members
            });
            if let Some((last, _)) = spares.take(slots).last() {
                self.next_spare.set(last + 1);
            }
            *self.last_repair.borrow_mut() = Some((old, !exhausted));
            *self.active_group.borrow_mut() = group;
        }

        *self.known_dead.borrow_mut() = Some(Arc::clone(dead));
        self.repair_count.set(self.repair_count.get() + 1);
        // Stale traffic on the retired communicator must not accumulate.
        self.router()
            .purge_mailbox(self.world.my_global(), old_id, 0);
        rec.emit_with(|| Event::RepairEnd {
            epoch: self.repair_count.get(),
            survivors: self.active_group.borrow().len() as u64,
            spares_left: self.spares_remaining() as u64,
        });
        Ok(())
    }
}

/// Run an application body under Fenix process resilience — the equivalent
/// of the paper's `Fenix_Init` … `Fenix_Finalize` bracket (Figure 2).
///
/// The world communicator is split into `world.size() - config.spares`
/// active ranks (which execute `body` on a resilient communicator) and
/// spares (which block inside this call until promoted or until the job
/// completes). On a recoverable failure, `body` unwinds with the error,
/// Fenix repairs the resilient communicator by substituting spares in place,
/// and `body` re-runs with `Role::Survivor` / `Role::Recovered`.
///
/// `body` receives the [`Fenix`] handle, the current resilient communicator,
/// and this rank's role. It must propagate MPI errors with `?` — swallowing
/// them defeats failure detection.
pub fn run<F>(world: &Comm, config: FenixConfig, mut body: F) -> MpiResult<RunSummary>
where
    F: FnMut(&Fenix, &Comm, Role) -> MpiResult<()>,
{
    let fenix = Fenix::new(world, config);
    let mut role = Role::Initial;
    let mut executed_body = false;
    let mut final_role = None;

    loop {
        if fenix.is_active() {
            let res_comm = fenix.build_resilient_comm();
            executed_body = true;
            final_role = Some(role);
            match body(&fenix, &res_comm, role) {
                Ok(()) => {
                    // Normal completion: vote to finalize. A concurrent
                    // failure turns this into a repair and the body re-runs
                    // (its work loop finds nothing left to do and returns).
                    match fenix.repair_rendezvous(VOTE_FINALIZE)? {
                        None => {
                            return Ok(RunSummary {
                                repairs: fenix.repair_count(),
                                executed_body,
                                final_role,
                            })
                        }
                        Some(dead) => {
                            fenix.apply_repair(&dead)?;
                            fenix.fire_callbacks();
                            role = Role::Survivor;
                            fenix.recorder().emit_with(|| Event::RoleChanged {
                                role: "survivor".to_string(),
                            });
                        }
                    }
                }
                Err(e) if e.is_recoverable() => {
                    // The single control-flow exit point: detect, propagate
                    // failure knowledge (revoke), agree, repair, re-enter.
                    fenix.recorder().emit_with(|| Event::FailureDetected {
                        scope: e.to_string(),
                    });
                    res_comm.revoke();
                    match fenix.repair_rendezvous(VOTE_REPAIR)? {
                        Some(dead) => {
                            fenix.apply_repair(&dead)?;
                            fenix.fire_callbacks();
                            role = Role::Survivor;
                            fenix.recorder().emit_with(|| Event::RoleChanged {
                                role: "survivor".to_string(),
                            });
                        }
                        None => unreachable!("a REPAIR vote cannot yield finalize"),
                    }
                }
                Err(e) => return Err(e),
            }
        } else {
            // Spare: park in the repair rendezvous. Wakes on failure (to be
            // promoted or keep waiting) or on normal completion.
            match fenix.repair_rendezvous(VOTE_SPARE)? {
                None => {
                    return Ok(RunSummary {
                        repairs: fenix.repair_count(),
                        executed_body,
                        final_role,
                    })
                }
                Some(dead) => {
                    fenix.apply_repair(&dead)?;
                    fenix.fire_callbacks();
                    if fenix.is_active() {
                        role = Role::Recovered;
                        fenix.recorder().emit_with(|| Event::RoleChanged {
                            role: "recovered".to_string(),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_default_has_one_spare() {
        let c = FenixConfig::default();
        assert_eq!(c.spares, 1);
        assert_eq!(c.on_exhaustion, ExhaustPolicy::Abort);
    }

    #[test]
    fn roles_are_distinct() {
        assert_ne!(Role::Initial, Role::Survivor);
        assert_ne!(Role::Survivor, Role::Recovered);
    }
}
