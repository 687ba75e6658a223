//! Per-rank execution of every resilience strategy.
//!
//! One family: [`run_rank`] dispatches a strategy to one of three bodies,
//! one per control-flow layer — unprotected, manual, Kokkos Resilience. The
//! data layer is a [`DataBackend`] handed to the body (VeloC or peer
//! memory, each with the one caller per control flow), and the process
//! layer only decides how the rank *arrives* at its body. Under plain MPI
//! (`role == None`) a failure aborts the job, the driver relaunches it and
//! the body resumes from the parallel filesystem; under Fenix the body is
//! re-entered in place with the repaired communicator. Where a body resumes
//! is decided in one place, [`Run::start_after`]; where it must resume at
//! the least, given a fault schedule, in one pure function beside it,
//! [`resume_bounds`]. The Fenix + Kokkos
//! Resilience combinations are not written here at all: they run through
//! [`resilient_main`], the crate's single Figure 4 loop (context creation
//! on `Initial`, `ctx.reset(res_comm)` on re-entry).

use std::cell::{Cell, OnceCell, RefCell, RefMut};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cluster::Topology;
use fenix::{ExhaustPolicy, FenixConfig, Role};
use kokkos::capture::Checkpointable;
use kokkos_resilience::{CheckpointFilter, Context, ContextConfig, DataBackend};
use parking_lot::Mutex;
use redstore::RedundancyMode;
use simmpi::{Backend, Comm, CorruptTier, FaultSchedule, MpiResult, Phase, RankCtx, ReduceOp};
use telemetry::{Event, TraceSnapshot};

use crate::app::{IterativeApp, RankApp, RunMode};
use crate::bookkeeper::Bookkeeper;
use crate::driver::ExperimentConfig;
use crate::integrated::{resilient_main, IntegratedBackend, IntegratedConfig};
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
    /// Relaunches before the current launch.
    pub relaunches: AtomicU64,
    /// Recovery number → the lowest iteration any rank resumed at. A
    /// recovery is a relaunch or a Fenix re-entry, numbered from 1 by the
    /// relaunches plus the repairs before it.
    pub resumed_at: Mutex<BTreeMap<u64, u64>>,
}

/// Region label used for the single checkpointed loop of every app.
const LOOP_LABEL: &str = "loop";

/// The application's checkpointed views under their stable region ids
/// (position in [`RankApp::checkpoint_views`]).
fn region_views(state: &dyn RankApp) -> Vec<(u32, Arc<dyn Checkpointable>)> {
    let views = state.checkpoint_views().into_iter();
    views.enumerate().map(|(i, v)| (i as u32, v)).collect()
}

/// One rank of an experiment: everything a strategy body needs on every
/// (re-)entry.
struct Run<'a> {
    ctx: &'a RankCtx,
    app: &'a dyn IterativeApp,
    shared: &'a SharedState,
    bk: Bookkeeper,
    name: Arc<str>,
    mode: RunMode,
    filter: CheckpointFilter,
    /// Application state surviving Fenix re-entries (created lazily: spares
    /// have none until promoted).
    state: RefCell<Option<Box<dyn RankApp>>>,
    /// The recovery this entry belongs to (0 on the run's first entry).
    recovery: Cell<u64>,
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
    shared: &SharedState,
) -> MpiResult<()> {
    let ctx = &*ctx;
    let run = Run {
        ctx,
        app,
        shared,
        bk: Bookkeeper::new(Arc::clone(ctx.profile())),
        name: app.name().into(),
        mode: app.mode(),
        filter: app.checkpoint_filter(checkpoints),
        state: RefCell::new(None),
        recovery: Cell::new(shared.relaunches.load(Ordering::Relaxed)),
    };
    let world = ctx.world();
    match strategy {
        Strategy::Unprotected => run.unprotected(world),
        Strategy::VelocOnly
        | Strategy::FenixVeloc
        | Strategy::FenixImr
        | Strategy::FenixRedstore => {
            #[expect(
                clippy::wildcard_enum_match_arm,
                reason = "this arm admits four strategies; the outer match decides a new one"
            )]
            let backend = match strategy {
                // The paper's buddy-rank IMR is the redundancy store at two
                // replicas; `FenixRedstore` takes the strongest mode the
                // topology allows (`RedundancyMode::auto`).
                Strategy::FenixImr => IntegratedBackend::Redstore {
                    mode: Some(RedundancyMode::Replicate { k: 2 }),
                },
                Strategy::FenixRedstore => IntegratedBackend::Redstore { mode: None },
                _ => IntegratedBackend::Veloc,
            };
            // Built on the first entry (a spare that is never promoted has
            // no tier) and kept across re-entries: peer memory lives in it.
            let tier = OnceCell::new();
            let body = |comm: &Comm, role| {
                let tier = tier.get_or_init(|| {
                    let tier = run.bk.book(Phase::ResilienceInit, || backend.tier(ctx));
                    tier.set_recorder(ctx.recorder().clone());
                    tier
                });
                run.manual(comm, role, tier.as_ref())
            };
            if strategy.uses_fenix() {
                run.under_fenix(spares, |comm, role| body(comm, Some(role)))?;
            } else {
                // Stock VeloC: the agreement runs over the world, whole-job
                // relaunch.
                body(world, None)?;
            }
            if let Some(tier) = tier.get() {
                tier.wait();
            }
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
                        name: Arc::clone(&run.name),
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
                name: Arc::clone(&run.name),
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
        let relaunches = self.shared.relaunches.load(Ordering::Relaxed);
        self.recovery.set(relaunches + repairs);
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

    /// Record that this entry resumes at `start`, if it is a recovery.
    fn resumed(&self, start: u64) {
        let recovery = self.recovery.get();
        if recovery > 0 {
            let mut resumed_at = self.shared.resumed_at.lock();
            let lowest = resumed_at.entry(recovery).or_insert(start);
            *lowest = (*lowest).min(start);
        }
    }

    /// No resilience layer: a relaunch recomputes everything.
    fn unprotected(&self, comm: &Comm) -> MpiResult<()> {
        let bk = &self.bk;
        let mut st = self.state(comm);
        self.resumed(0);
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

    /// Where a body (re-)entered as `role` resumes, given its tier's restart
    /// agreement: after the agreed version, or from iteration 0 — on a Fenix
    /// re-entry with nothing agreed (a failure before the first checkpoint)
    /// over freshly initialized state, so every rank restarts cold together.
    /// The one resume decision of every checkpointing strategy, recorded
    /// in [`SharedState::resumed_at`].
    fn start_after(
        &self,
        comm: &Comm,
        role: Option<Role>,
        agreed: Option<u64>,
        state: &mut Box<dyn RankApp>,
    ) -> u64 {
        let start = match agreed {
            Some(version) => version + 1,
            None => {
                // `None` is a plain-MPI launch, which is never a re-entry.
                if role.is_some_and(|r| r != Role::Initial) {
                    *state = self.init_state(comm);
                }
                0
            }
        };
        self.resumed(start);
        start
    }

    /// Manual control flow over the storage tier handed in: VeloC (agreeing
    /// over the world under plain MPI, over the resilient communicator
    /// inside Fenix) or peer memory.
    fn manual(&self, comm: &Comm, role: Option<Role>, tier: &dyn DataBackend) -> MpiResult<()> {
        let (bk, name) = (&self.bk, &*self.name);
        // Paper: update the cached rank id after a repair. The rank may have
        // just been rolled back or replaced, so whatever the tier remembered
        // from before this entry is void.
        bk.book(Phase::ResilienceInit, || {
            tier.clear();
            tier.set_rank(comm.rank());
        });

        let mut st = self.state(comm);
        // A fresh job resumes from whatever the filesystem holds; inside
        // Fenix only a re-entry has anything to resume. An epoch-uniform
        // predicate, not a rank-dependent one: after a repair *every* rank
        // re-enters with a non-Initial role, so all of them reach the
        // agreement together.
        let resuming = role != Some(Role::Initial);
        let agreed = if resuming {
            tier.latest_agreed_below(comm, name, u64::MAX)?
        } else {
            None
        };
        if let Some(version) = agreed {
            // Manual recovery is eager, so the final version is as good a
            // resume point as any: zero iterations replay.
            bk.book(Phase::DataRecovery, || {
                tier.restore(comm, name, version, &region_views(st.as_ref()))
            })?;
            st.post_restore(comm, bk)?;
        }
        let start = self.start_after(comm, role, agreed, &mut st);

        let done = self.iterate(
            comm,
            &mut st,
            start,
            &self.filter,
            |st, i| st.step(comm, i, bk),
            |i, st| {
                bk.book(Phase::CheckpointFn, || {
                    tier.checkpoint(comm, name, i, &region_views(st.as_ref()))
                })
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
        let agreed = kr.restart_version(LOOP_LABEL, self.mode.max_iterations())?;
        let start = self.start_after(comm, role, agreed, &mut st);
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
}

/// The data tier a checkpointing strategy restores from.
#[derive(Clone, Copy)]
enum Tier {
    /// Node-local scratch, flushed to the PFS (inline under DES).
    Veloc,
    /// One committed version in peer memory.
    PeerMemory,
}

/// One kill of a run, as [`resume_bounds`] sees it.
struct Fired {
    rank: usize,
    /// Whether it landed inside a recovery (fault point `recovery`).
    in_recovery: bool,
    /// The newest iteration the job had checkpointed through when it fired.
    through: Option<u64>,
    /// When it fired, on the thread engine (the trace's stamp).
    at_ns: Option<u64>,
}

impl Fired {
    fn new(rank: usize, site: &str, count: u64, at_ns: Option<u64>) -> Fired {
        let in_recovery = site == "recovery";
        let through = stored_through(site, count);
        Fired {
            rank,
            in_recovery,
            through,
            at_ns,
        }
    }
}

/// The newest iteration a rank has checkpointed through when it is killed
/// at fault point `site` with counter `count`: `iter` and `ckpt` fire before
/// iteration `count` is stepped or saved, `commit` after it is saved.
fn stored_through(site: &str, count: u64) -> Option<u64> {
    if site == "commit" {
        Some(count)
    } else {
        count.checked_sub(1)
    }
}

/// Where each recovery of a run must resume at the least: one bound per
/// recovery, in [`RunRecord::resumed_at`](crate::RunRecord) order, for a run
/// of `app` under `cfg` on `topology` that made `recoveries` of them under
/// `schedule`. Pure: it reads the schedule as written and, on the thread
/// engine only, the run's `trace`.
///
/// The base rule: after a kill at iteration *k* the job resumes right after
/// the newest version ≤ *k* that the schedule did not corrupt on every tier
/// able to serve it. Fault points follow the bodies above: `iter` and `ckpt`
/// fire before iteration *k* is stepped or saved, `commit` after it is
/// saved; manual bodies pass `ckpt` and `commit` only on checkpoint
/// iterations, KR bodies on every one; only a Fenix re-entry passes
/// `recovery`. A kill there takes its node's scratch like any other, but
/// the recovery it lands in records no resume point (its agreement never
/// completes), so it bounds none. A scratch copy serves only on a node no
/// kill took (a replacement's own scratch is not credited), the PFS copy
/// always; a delta frame is only as servable as the frames beneath it, so
/// an unservable version voids every version above it. Under DES the
/// schedule's kills that the body passes are taken in checkpoint order, on
/// threads the kills the trace records in the order they fired. A recovery
/// can absorb several kills (two that fire together), so the j-th
/// recovery's kills lie among the j-th to (j + kills − recoveries)-th, and
/// it is held to the least of their bounds. The exceptions, one arm each:
///
/// * strategies that never checkpoint resume at 0;
/// * flush lag on threads: a VeloC version counts only once each active
///   world rank's `flush_done` for it precedes the kill (a replacement's
///   flushes are not credited to the rank it replaced). DES flushes inline,
///   so the arm is a no-op there;
/// * a kill on the final commit: KR over VeloC re-agrees one version lower
///   ([`Context::restart_version`]); KR over peer memory, which holds one
///   version, restarts cold ([`RedstoreBackend`](crate::RedstoreBackend));
/// * a recovery no kill accounts for is held to 0.
pub fn resume_bounds(
    app: &dyn IterativeApp,
    cfg: &ExperimentConfig,
    topology: &Topology,
    schedule: &FaultSchedule,
    trace: Option<&TraceSnapshot>,
    recoveries: usize,
) -> Vec<u64> {
    let (tier, kr) = match cfg.strategy {
        // Never checkpoints: every recovery starts over.
        Strategy::Unprotected => return vec![0; recoveries],
        Strategy::VelocOnly | Strategy::FenixVeloc => (Tier::Veloc, false),
        Strategy::FenixImr | Strategy::FenixRedstore => (Tier::PeerMemory, false),
        Strategy::KokkosResilience
        | Strategy::FenixKokkosResilience
        | Strategy::PartialRollback => (Tier::Veloc, true),
    };
    let fenix = cfg.strategy.uses_fenix();
    let filter = app.checkpoint_filter(cfg.checkpoints);
    let iterations = app.mode().max_iterations();
    #[expect(
        clippy::expect_used,
        reason = "the driver passes a threads run its trace"
    )]
    let trace = match cfg.backend {
        Backend::Threads => Some(trace.expect("a thread-engine bound reads the run's trace")),
        Backend::Des { .. } => None,
    };
    let kills = match trace {
        Some(trace) => fired_in(trace),
        None => passed_by(schedule, &filter, iterations, kr, fenix),
    };

    let lost: HashSet<usize> = kills.iter().map(|k| topology.node_of(k.rank)).collect();
    let corrupt = |version, rank, tier| {
        schedule.corruptions().iter().any(|c| {
            (c.version, c.rank) == (version, rank)
                && (c.tier == tier || c.tier == CorruptTier::Both)
        })
    };
    let intact = |version| {
        !schedule.corruptions().iter().any(|c| {
            let (v, rank) = (c.version, c.rank);
            let scratch_gone =
                corrupt(v, rank, CorruptTier::Scratch) || lost.contains(&topology.node_of(rank));
            v <= version && corrupt(v, rank, CorruptTier::Pfs) && scratch_gone
        })
    };
    let mut flushed = HashMap::new();
    for e in trace.iter().flat_map(|t| &t.events) {
        if let Event::FlushDone { version, .. } = e.event {
            flushed.entry((e.rank as usize, version)).or_insert(e.t_ns);
        }
    }
    let active = topology.total_ranks() - if fenix { cfg.spares } else { 0 };
    let usable = |version: u64, at_ns: Option<u64>| match (tier, at_ns) {
        (Tier::PeerMemory, _) => true,
        // DES: the flush is inline, so a stored version is on the PFS.
        (Tier::Veloc, None) => intact(version),
        // Flush lag: a copy still in flight, or not yet taken on a rank
        // running behind, is not credited.
        (Tier::Veloc, Some(t)) => {
            let landed = |rank| flushed.get(&(rank, version)).is_some_and(|&f| f < t);
            intact(version) && (0..active).all(landed)
        }
    };
    let versions: Vec<u64> = (0..iterations)
        .filter(|&i| filter.should_checkpoint(i))
        .collect();
    // What a recovery after kill `k` can agree on, newest first. Peer
    // memory holds one version, the newest committed.
    let held = |k: &Fired| -> Vec<u64> {
        let depth = match tier {
            Tier::Veloc => versions.len(),
            Tier::PeerMemory => 1,
        };
        let below = |v: &u64| k.through.is_some_and(|s| *v <= s);
        let stored = versions.iter().rev().copied().filter(below);
        stored.take(depth).filter(|&v| usable(v, k.at_ns)).collect()
    };
    let bounds: Vec<u64> = kills
        .iter()
        .filter(|k| !k.in_recovery)
        .map(|k| {
            let held = held(k);
            let agreed = match (kr, held.first()) {
                // A kill on the final commit: the final version leaves no
                // region execution to carry KR's lazy restore, so the
                // context re-agrees at or below `iterations - 2`. VeloC
                // holds an older version; peer memory restarts cold.
                (true, Some(&v)) if v + 1 >= iterations => {
                    held.iter().copied().find(|&v| v + 2 <= iterations)
                }
                (_, newest) => newest.copied(),
            };
            agreed.map_or(0, |v| v + 1)
        })
        .collect();

    let absorbed = bounds.len().saturating_sub(recoveries);
    (0..recoveries)
        .map(|j| match bounds.get(j..=j + absorbed) {
            Some(window) => window.iter().copied().min().unwrap_or(0),
            // More recoveries than kills: nothing the schedule says bounds it.
            None => 0,
        })
        .collect()
}

/// The kills a run's trace records, in the order they fired.
fn fired_in(trace: &TraceSnapshot) -> Vec<Fired> {
    let fired = trace.events.iter().filter_map(|e| {
        let Event::FaultInjected { site, count } = &e.event else {
            return None;
        };
        Some(Fired::new(e.rank as usize, site, *count, Some(e.t_ns)))
    });
    fired.collect()
}

/// The kills of `schedule` that a body passes, in checkpoint order.
fn passed_by(
    schedule: &FaultSchedule,
    filter: &CheckpointFilter,
    iterations: u64,
    kr: bool,
    fenix: bool,
) -> Vec<Fired> {
    let passes = |label: &str, at: u64| match label {
        "iter" => at < iterations,
        "ckpt" | "commit" => at < iterations && (kr || filter.should_checkpoint(at)),
        "recovery" => fenix,
        _ => false,
    };
    let kills = schedule.kills().iter().filter(|k| passes(&k.label, k.at));
    let mut fired: Vec<Fired> = kills
        .map(|k| Fired::new(k.rank, &k.label, k.at, None))
        .collect();
    fired.sort_by_key(|k| k.through);
    fired
}
