//! Per-rank execution of every resilience strategy.
//!
//! One family: [`run_rank`] dispatches a strategy to one of four bodies —
//! unprotected, VeloC with manual control flow, Kokkos Resilience, peer
//! memory — and the process layer only decides how the rank *arrives* at
//! its body. Under plain MPI (`role == None`) a failure aborts the job, the
//! driver relaunches it and the body resumes from the parallel filesystem;
//! under Fenix the body is re-entered in place with the repaired
//! communicator. The Fenix + Kokkos Resilience combinations are not written
//! here at all: they run through [`resilient_main`], the crate's single
//! Figure 4 loop (context creation on `Initial`, `ctx.reset(res_comm)` on
//! re-entry).

use std::cell::{RefCell, RefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fenix::{ExhaustPolicy, FenixConfig, Role};
use kokkos::capture::Checkpointable;
use kokkos_resilience::backend::{pack_views, unpack_views, veloc_err, ViewRegion};
use kokkos_resilience::{CheckpointFilter, Context, ContextConfig};
use redstore::{RedStore, RedundancyGroup, RedundancyMode};
use simmpi::{Comm, MpiResult, Phase, RankCtx, ReduceOp};
use veloc::{Client, Config as VelocConfig};

use crate::app::{IterativeApp, RankApp, RunMode};
use crate::bookkeeper::Bookkeeper;
use crate::integrated::{resilient_main, IntegratedBackend, IntegratedConfig};
use crate::redstore_backend::red_err;
use crate::strategy::Strategy;

/// Cross-rank experiment state shared between launches.
#[derive(Default)]
pub struct SharedState {
    /// Highest iteration count completed anywhere (for recompute booking).
    pub progress: AtomicU64,
    /// Fenix repairs observed.
    pub repairs: AtomicU64,
    /// Agreed application digest at completion.
    pub digest: AtomicU64,
    /// Iterations executed when the run completed.
    pub iterations: AtomicU64,
}

/// Region label used for the single checkpointed loop of every app.
const LOOP_LABEL: &str = "loop";
/// Peer-memory member id holding the packed application views.
const VIEWS_MEMBER: u32 = 0;

/// The application's checkpointed views under their stable region ids
/// (position in [`RankApp::checkpoint_views`]).
fn region_views(state: &dyn RankApp) -> Vec<(u32, Arc<dyn Checkpointable>)> {
    let views = state.checkpoint_views().into_iter();
    views.enumerate().map(|(i, v)| (i as u32, v)).collect()
}

fn protect_views(client: &Client, state: &dyn RankApp) {
    client.clear_protected();
    // Called once per body (re)entry: the rank may have just been rolled
    // back or replaced, so any delta base remembered from before is void.
    client.invalidate_deltas();
    for (id, view) in region_views(state) {
        client.protect(id, Arc::new(ViewRegion(view)));
    }
}

/// Did the rank come back into its body after a Fenix repair? (`None` is
/// a plain-MPI launch, which is never a re-entry.)
fn reentered(role: Option<Role>) -> bool {
    role.is_some_and(|r| r != Role::Initial)
}

/// One rank of an experiment: everything a strategy body needs on every
/// (re-)entry.
struct Run<'a> {
    ctx: &'a RankCtx,
    app: &'a dyn IterativeApp,
    shared: &'a SharedState,
    bk: Bookkeeper,
    name: String,
    mode: RunMode,
    filter: CheckpointFilter,
    /// Application state surviving Fenix re-entries (created lazily: spares
    /// have none until promoted).
    state: RefCell<Option<Box<dyn RankApp>>>,
}

/// Execute `strategy` on this rank. The driver launches the same function
/// for every strategy; whether a failure ends in a relaunch or an in-place
/// repair follows from the arm taken here.
pub fn run_rank(
    ctx: &mut RankCtx,
    app: &dyn IterativeApp,
    strategy: Strategy,
    spares: usize,
    checkpoints: u64,
    redundancy: Option<RedundancyMode>,
    shared: &SharedState,
) -> MpiResult<()> {
    let ctx = &*ctx;
    let run = Run {
        ctx,
        app,
        shared,
        bk: Bookkeeper::new(Arc::clone(ctx.profile())),
        name: app.name().to_owned(),
        mode: app.mode(),
        filter: app.checkpoint_filter(checkpoints),
        state: RefCell::new(None),
    };
    let world = ctx.world();
    match strategy {
        Strategy::Unprotected => run.unprotected(world),
        Strategy::VelocOnly => {
            // Stock VeloC: the agreement runs over the world, whole-job
            // relaunch.
            let client = RefCell::new(None);
            run.veloc_manual(world, None, &client)?;
            finalize(&client);
            Ok(())
        }
        Strategy::FenixVeloc => {
            let client = RefCell::new(None);
            run.under_fenix(spares, |comm, role| {
                run.veloc_manual(comm, Some(role), &client)
            })?;
            finalize(&client);
            Ok(())
        }
        Strategy::KokkosResilience => {
            // KR without Fenix: the context agrees over the world, as stock
            // collective VeloC does.
            let kr = run.bk.book(Phase::ResilienceInit, || {
                Context::new(
                    ctx.cluster(),
                    world.clone(),
                    ContextConfig {
                        name: run.name.clone(),
                        filter: run.filter.clone(),
                        aliases: app.alias_labels(),
                    },
                )
            });
            kr.set_recorder(ctx.recorder().clone());
            run.kr(world, None, &kr)?;
            kr.checkpoint_wait();
            Ok(())
        }
        Strategy::FenixKokkosResilience | Strategy::PartialRollback => {
            // The paper's integrated system, through the public entry point.
            let config = IntegratedConfig {
                name: run.name.clone(),
                spares,
                filter: run.filter.clone(),
                backend: IntegratedBackend::Veloc,
                aliases: app.alias_labels(),
                on_exhaustion: ExhaustPolicy::Abort,
                partial_rollback: strategy.partial_rollback(),
            };
            let summary = resilient_main(ctx, config, |scope| {
                run.entered(scope.repair_count(), scope.role())?;
                run.kr(scope.comm(), Some(scope.role()), scope.context())
            })?;
            shared.repairs.fetch_max(summary.repairs, Ordering::Relaxed);
            Ok(())
        }
        Strategy::FenixImr | Strategy::FenixRedstore => {
            // The paper's buddy-rank IMR is the redundancy store at two
            // replicas; `FenixRedstore` takes the experiment's dial instead.
            let redundancy = match strategy {
                Strategy::FenixImr => Some(RedundancyMode::Replicate { k: 2 }),
                _ => redundancy,
            };
            let store = RedStore::new();
            run.under_fenix(spares, |comm, role| {
                run.peer_memory(comm, role, &store, redundancy)
            })
        }
    }
}

fn finalize(client: &RefCell<Option<Client>>) {
    // A spare that was never promoted has no client.
    if let Some(client) = client.borrow().as_ref() {
        client.finalize();
    }
}

impl Run<'_> {
    fn init_state(&self, comm: &Comm) -> Box<dyn RankApp> {
        self.bk
            .book(Phase::AppInit, || self.app.init_rank(self.ctx, comm))
    }

    /// This rank's application state, built on first use.
    fn state(&self, comm: &Comm) -> RefMut<'_, Box<dyn RankApp>> {
        RefMut::map(self.state.borrow_mut(), |s| {
            s.get_or_insert_with(|| self.init_state(comm))
        })
    }

    /// Bookkeeping on every entry of a Fenix body.
    fn entered(&self, repairs: u64, role: Role) -> MpiResult<()> {
        self.shared.repairs.fetch_max(repairs, Ordering::Relaxed);
        // Chaos fault point *inside* recovery: a re-entered body can be
        // killed again before it restores, cascading failures into the
        // repair path itself (counted by recovery epoch).
        if role != Role::Initial {
            self.ctx.fault_point("recovery", repairs)?;
        }
        Ok(())
    }

    /// Run `body` under Fenix process recovery with manual data handling.
    fn under_fenix(
        &self,
        spares: usize,
        mut body: impl FnMut(&Comm, Role) -> MpiResult<()>,
    ) -> MpiResult<()> {
        let config = FenixConfig {
            spares,
            on_exhaustion: ExhaustPolicy::Abort,
        };
        let summary = fenix::run(self.ctx.world(), config, |fx, comm, role| {
            self.entered(fx.repair_count(), role)?;
            body(comm, role)
        })?;
        self.shared
            .repairs
            .fetch_max(summary.repairs, Ordering::Relaxed);
        Ok(())
    }

    /// The shared iteration loop. `step` runs one iteration (bare for manual
    /// strategies, inside a Kokkos Resilience region for KR strategies);
    /// `checkpoint_hook` runs after iterations `filter` selects.
    fn iterate(
        &self,
        comm: &Comm,
        state: &mut Box<dyn RankApp>,
        start: u64,
        filter: &CheckpointFilter,
        mut step: impl FnMut(&mut Box<dyn RankApp>, u64) -> MpiResult<()>,
        mut checkpoint_hook: impl FnMut(u64, &mut Box<dyn RankApp>) -> MpiResult<()>,
    ) -> MpiResult<u64> {
        let (ctx, bk, shared) = (self.ctx, &self.bk, self.shared);
        let max = self.mode.max_iterations();
        // Snapshot the recompute horizon at loop (re-)entry: iterations below
        // the globally reached mark are re-execution of lost work. Reading the
        // live counter instead would mis-book first-time work whenever another
        // rank runs slightly ahead.
        let recompute_until = shared.progress.load(Ordering::Relaxed);
        let mut i = start;
        while i < max {
            bk.set_recompute(i < recompute_until);
            ctx.fault_point("iter", i)?;
            step(state, i)?;
            if filter.should_checkpoint(i) {
                // Chaos fault points bracketing the checkpoint: a kill can land
                // right before the data is saved ("ckpt") or right after local
                // commit, while the flush is still in flight ("commit").
                ctx.fault_point("ckpt", i)?;
                checkpoint_hook(i, state)?;
                ctx.fault_point("commit", i)?;
            }
            shared.progress.fetch_max(i + 1, Ordering::Relaxed);
            i += 1;
            if let RunMode::Converge { check_every, .. } = self.mode {
                if i.is_multiple_of(check_every) && state.converged(comm, bk)? {
                    break;
                }
            }
        }
        bk.set_recompute(false);
        Ok(i)
    }

    fn finish(&self, comm: &Comm, state: &mut Box<dyn RankApp>, iterations: u64) -> MpiResult<()> {
        let digest = comm.allreduce_scalar(state.digest(), ReduceOp::Sum)?;
        self.shared.digest.store(digest, Ordering::Relaxed);
        self.shared.iterations.store(iterations, Ordering::Relaxed);
        Ok(())
    }

    /// No resilience layer: a relaunch recomputes everything.
    fn unprotected(&self, comm: &Comm) -> MpiResult<()> {
        let bk = &self.bk;
        let mut st = self.state(comm);
        let done = self.iterate(
            comm,
            &mut st,
            0,
            &CheckpointFilter::Never,
            |st, i| st.step(comm, i, bk),
            |_i, _st| Ok(()),
        )?;
        self.finish(comm, &mut st, done)
    }

    /// VeloC with manual control flow: the agreement runs over the world
    /// under plain MPI (`role == None`), over the resilient communicator
    /// inside Fenix.
    fn veloc_manual(
        &self,
        comm: &Comm,
        role: Option<Role>,
        client: &RefCell<Option<Client>>,
    ) -> MpiResult<()> {
        let (bk, name) = (&self.bk, self.name.as_str());
        let mut client = client.borrow_mut();
        let client = &*client.get_or_insert_with(|| {
            bk.book(Phase::ResilienceInit, || {
                let (cluster, rank) = (self.ctx.cluster().clone(), self.ctx.rank());
                Client::init(cluster, rank, VelocConfig::default())
            })
        });
        // Paper: update the cached rank id after a repair.
        client.set_rank(comm.rank());
        client.set_recorder(self.ctx.recorder().clone());

        let mut st = self.state(comm);
        protect_views(client, st.as_ref());

        // Manual best-version reduction (the paper's non-collective pattern),
        // hardened to agree only on versions intact everywhere: a corrupted
        // newest checkpoint degrades the restart instead of wedging it.
        let agreed = client
            .agree_intact_version(name, u64::MAX, Some(comm))
            .map_err(veloc_err)?;
        let start = match agreed {
            // A fresh job resumes from whatever the filesystem holds; inside
            // Fenix only a re-entry does.
            Some(v) if role != Some(Role::Initial) => {
                bk.book(Phase::DataRecovery, || client.restart(name, v))
                    .map_err(veloc_err)?;
                st.post_restore(comm, bk)?;
                v + 1
            }
            _ if reentered(role) => {
                // Failure before the first checkpoint: everyone restarts
                // cleanly.
                *st = self.init_state(comm);
                protect_views(client, st.as_ref());
                0
            }
            _ => 0,
        };

        let done = self.iterate(
            comm,
            &mut st,
            start,
            &self.filter,
            |st, i| st.step(comm, i, bk),
            |i, _st| {
                bk.book(Phase::CheckpointFn, || client.checkpoint(name, i))
                    .map_err(veloc_err)
            },
        )?;
        self.finish(comm, &mut st, done)
    }

    /// Kokkos Resilience control flow over the context handed in: the
    /// launch's world-communicator context under plain MPI, the
    /// [`resilient_main`] scope's inside Fenix.
    fn kr(&self, comm: &Comm, role: Option<Role>, kr: &Context) -> MpiResult<()> {
        let (ctx, bk) = (self.ctx, &self.bk);
        let mut st = self.state(comm);
        let start = match kr.restart_version(LOOP_LABEL, self.mode.max_iterations())? {
            Some(v) => v + 1,
            None if reentered(role) => {
                // Failure before the first checkpoint: consistent cold
                // restart.
                *st = self.init_state(comm);
                0
            }
            None => 0,
        };
        let done = self.iterate(
            comm,
            &mut st,
            start,
            // The KR context applies the filter itself.
            &CheckpointFilter::Never,
            |st, i| {
                // KR checkpoints every view the region touches, so a
                // restore reinstates *complete* state — no post_restore
                // (rebuilding derived state would be redundant work and
                // perturb float summation order).
                ctx.fault_point("ckpt", i)?;
                kr.checkpoint(LOOP_LABEL, i, || st.step(comm, i, bk))?;
                ctx.fault_point("commit", i)?;
                Ok(())
            },
            |_i, _st| Ok(()),
        )?;
        self.finish(comm, &mut st, done)
    }

    /// Fenix process recovery + checkpoints in peer memory: the one body
    /// behind both `FenixImr` (two replicas — the paper's buddy pairs) and
    /// `FenixRedstore` (any [`RedundancyMode`]). Checkpoints are replicated
    /// or erasure-coded across a topology-aware placement group, so recovery
    /// survives a whole-node loss, and with wider modes several concurrent
    /// rank losses per group.
    fn peer_memory(
        &self,
        comm: &Comm,
        role: Role,
        store: &Arc<RedStore>,
        redundancy: Option<RedundancyMode>,
    ) -> MpiResult<()> {
        let bk = &self.bk;
        let group = RedundancyGroup::new(Arc::clone(store), comm, redundancy);
        let mut st = self.state(comm);

        // Epoch-uniform predicate, not a rank-dependent one: after a repair,
        // *every* rank re-enters with a non-Initial role together, so all
        // ranks take the same arm of the branch below (and its agreement).
        let resuming = role != Role::Initial;
        let start = if resuming {
            // Who holds the committed version is the store's agreement, not
            // the last repair's replacement list (`Fenix::recovered_ranks`),
            // which misses an earlier replacement that never restored.
            match group.possession(VIEWS_MEMBER).map_err(red_err)? {
                Some((committed, recovering)) => {
                    let (version, blob) = bk
                        .book(Phase::DataRecovery, || {
                            group.restore(VIEWS_MEMBER, &recovering)
                        })
                        .map_err(red_err)?;
                    debug_assert_eq!(version, committed, "commit protocol consistency");
                    unpack_views(&region_views(st.as_ref()), &blob)?;
                    st.post_restore(comm, bk)?;
                    version + 1
                }
                None => {
                    // Failure before the first commit: consistent cold
                    // restart.
                    *st = self.init_state(comm);
                    0
                }
            }
        } else {
            0
        };

        let done = self.iterate(
            comm,
            &mut st,
            start,
            &self.filter,
            |st, i| st.step(comm, i, bk),
            |i, st| {
                let blob = pack_views(&region_views(st.as_ref()));
                bk.book(Phase::CheckpointFn, || {
                    group.store(VIEWS_MEMBER, i, blob).map_err(red_err)
                })
            },
        )?;
        self.finish(comm, &mut st, done)
    }
}
