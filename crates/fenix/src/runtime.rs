//! The Fenix run loop: spare-rank management, repair, and role tracking.

use std::cell::{Cell, RefCell};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

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
    /// Unconsumed spares, lowest first.
    spare_pool: RefCell<VecDeque<usize>>,
    /// Resilient-communicator ranks replaced in the most recent repair
    /// (needed by IMR restore and partial-rollback logic).
    last_recovered: RefCell<Vec<usize>>,
    /// Failures already handled by earlier repairs. The rendezvous reports
    /// the *full* dead history; only previously unseen failures (or explicit
    /// repair votes) trigger another repair — otherwise a finalize after a
    /// recovery would re-repair forever. Updated only from agreed rendezvous
    /// outcomes, so it stays identical on every rank.
    known_dead: RefCell<HashSet<usize>>,
    /// Application recovery callbacks (`Fenix_Callback_register`), invoked
    /// after every repair, before the body re-runs.
    callbacks: RefCell<Vec<RecoveryCallback>>,
}

/// Repair-rendezvous contributions.
const VOTE_FINALIZE: u8 = 0;
const VOTE_REPAIR: u8 = 1;
const VOTE_SPARE: u8 = 2;

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
        let active = world.router().share_group(
            resilient_comm_id(world, 0),
            0,
            (0..n_active).map(|r| world.global_of(r)).collect(),
        );
        Fenix {
            world: world.clone(),
            config,
            repair_count: Cell::new(0),
            active_group: RefCell::new(active),
            spare_pool: RefCell::new((n_active..n).map(|r| world.global_of(r)).collect()),
            last_recovered: RefCell::new(Vec::new()),
            known_dead: RefCell::new(HashSet::new()),
            callbacks: RefCell::new(Vec::new()),
        }
    }

    /// Register a recovery callback (`Fenix_Callback_register`): invoked on
    /// this rank after each repair completes, with the repair's facts,
    /// before the application body re-runs. Callbacks persist across
    /// repairs; registering the same logic twice runs it twice.
    pub fn register_callback(&self, cb: RecoveryCallback) {
        self.callbacks.borrow_mut().push(cb);
    }

    fn fire_callbacks(&self) {
        let info = RepairInfo {
            repair_count: self.repair_count.get(),
            failed_global: {
                let mut v: Vec<usize> = self.known_dead.borrow().iter().copied().collect();
                v.sort_unstable();
                v
            },
            recovered_ranks: self.last_recovered.borrow().clone(),
            resilient_size: self.active_group.borrow().len(),
            spares_remaining: self.spare_pool.borrow().len(),
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
        self.spare_pool.borrow().len()
    }

    /// Resilient-communicator ranks that were replaced by spares in the most
    /// recent repair.
    pub fn recovered_ranks(&self) -> Vec<usize> {
        self.last_recovered.borrow().clone()
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
    fn repair_rendezvous(&self, vote: u8) -> MpiResult<Option<Vec<usize>>> {
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
            Bytes::copy_from_slice(&[vote]),
            |parts| {
                let any_repair = parts.iter().any(|(_, b)| b.first() == Some(&VOTE_REPAIR));
                Bytes::copy_from_slice(&[if any_repair {
                    VOTE_REPAIR
                } else {
                    VOTE_FINALIZE
                }])
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
    fn apply_repair(&self, dead: &[usize]) -> MpiResult<()> {
        let rec = self.recorder();
        rec.emit_with(|| Event::RepairBegin {
            epoch: self.repair_count.get(),
        });
        let old_id = resilient_comm_id(&self.world, self.repair_count.get());
        let new_id = resilient_comm_id(&self.world, self.repair_count.get() + 1);

        {
            let mut spares = self.spare_pool.borrow_mut();
            spares.retain(|g| !dead.contains(g));
            let old = Arc::clone(&self.active_group.borrow());
            // Slots held by a dead rank, lowest first, each paired with the
            // spare that takes it (`None` once the pool is dry).
            let mut dead_slots: Vec<usize> = dead.iter().filter_map(|&g| old.rank_of(g)).collect();
            dead_slots.sort_unstable();
            let swaps: Vec<(usize, Option<usize>)> = dead_slots
                .into_iter()
                .map(|slot| (slot, spares.pop_front()))
                .collect();
            let exhausted = swaps.iter().any(|(_, spare)| spare.is_none());
            if exhausted && self.config.on_exhaustion == ExhaustPolicy::Abort {
                self.router().abort();
                return Err(MpiError::Aborted);
            }
            let mut members = old.to_vec();
            for &(slot, spare) in &swaps {
                if let (Some(member), Some(spare)) = (members.get_mut(slot), spare) {
                    *member = spare;
                }
            }
            if exhausted {
                // Spares ran out under `Shrink`: drop the slots still dead.
                members.retain(|g| !dead.contains(g));
            }
            // Every rank derives the same list from the agreed dead set, so
            // all of them end up holding the first one's copy.
            let group = self.router().share_group(new_id, 0, members);
            *self.last_recovered.borrow_mut() = if exhausted {
                // Rank ids shifted; recovered slots are stale.
                Vec::new()
            } else {
                swaps.iter().map(|&(slot, _)| slot).collect()
            };
            *self.active_group.borrow_mut() = group;
        }

        self.known_dead.borrow_mut().extend(dead.iter().copied());
        self.repair_count.set(self.repair_count.get() + 1);
        // Stale traffic on the retired communicator must not accumulate.
        self.router()
            .purge_mailbox(self.world.my_global(), old_id, 0);
        rec.emit_with(|| Event::RepairEnd {
            epoch: self.repair_count.get(),
            survivors: self.active_group.borrow().len() as u64,
            spares_left: self.spare_pool.borrow().len() as u64,
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
