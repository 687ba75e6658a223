//! Per-rank execution of each resilience strategy.
//!
//! Two families:
//!
//! * [`relaunch_rank`] — plain-MPI strategies (Unprotected, VeloC-only,
//!   Kokkos Resilience without Fenix). A failure aborts the whole job; the
//!   driver relaunches it and recovery happens at startup from the
//!   parallel filesystem.
//! * [`fenix_rank`] — process-resilient strategies. The application body
//!   runs inside [`fenix::run`]; recovery happens in place, following the
//!   paper's Figure 4 pattern (context creation on `Initial`,
//!   `ctx.reset(res_comm)` on re-entry).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fenix::{ExhaustPolicy, Fenix, FenixConfig, Role};
use kokkos::capture::Checkpointable;
use kokkos_resilience::backend::{pack_views, unpack_views, veloc_err, ViewRegion};
use kokkos_resilience::{BackendKind, CheckpointFilter, Context, ContextConfig, RecoveryScope};
use redstore::{RedStore, RedundancyGroup, RedundancyMode};
use simmpi::{Comm, MpiResult, Phase, RankCtx, ReduceOp};
use veloc::{Client, Config as VelocConfig, Mode};

use crate::app::{IterativeApp, RankApp, RunMode};
use crate::bookkeeper::Bookkeeper;
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

/// The shared iteration loop. `checkpoint_hook` runs after iterations the
/// filter selects; `region_hook` wraps the step (identity for manual
/// strategies, a Kokkos Resilience region for KR strategies).
#[allow(clippy::too_many_arguments)]
fn iteration_loop(
    ctx: &RankCtx,
    comm: &Comm,
    state: &mut Box<dyn RankApp>,
    bk: &Bookkeeper,
    mode: RunMode,
    start: u64,
    filter: &CheckpointFilter,
    shared: &SharedState,
    mut step: impl FnMut(&RankCtx, &Comm, &mut Box<dyn RankApp>, u64, &Bookkeeper) -> MpiResult<()>,
    mut checkpoint_hook: impl FnMut(u64, &mut Box<dyn RankApp>) -> MpiResult<()>,
) -> MpiResult<u64> {
    let max = mode.max_iterations();
    // Snapshot the recompute horizon at loop (re-)entry: iterations below
    // the globally reached mark are re-execution of lost work. Reading the
    // live counter instead would mis-book first-time work whenever another
    // rank runs slightly ahead.
    let recompute_until = shared.progress.load(Ordering::Relaxed);
    let mut i = start;
    while i < max {
        bk.set_recompute(i < recompute_until);
        ctx.fault_point("iter", i)?;
        step(ctx, comm, state, i, bk)?;
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
        if let RunMode::Converge { check_every, .. } = mode {
            if i.is_multiple_of(check_every) && state.converged(comm, bk)? {
                break;
            }
        }
    }
    bk.set_recompute(false);
    Ok(i)
}

fn finish(
    comm: &Comm,
    state: &mut Box<dyn RankApp>,
    shared: &SharedState,
    iterations: u64,
) -> MpiResult<()> {
    let digest = comm.allreduce_scalar(state.digest(), ReduceOp::Sum)?;
    shared.digest.store(digest, Ordering::Relaxed);
    shared.iterations.store(iterations, Ordering::Relaxed);
    Ok(())
}

// ---------------------------------------------------------------------------
// Relaunch-based strategies
// ---------------------------------------------------------------------------

/// One rank of a plain-MPI (abort-on-failure) job.
pub fn relaunch_rank(
    ctx: &mut RankCtx,
    app: &dyn IterativeApp,
    strategy: Strategy,
    checkpoints: u64,
    shared: &SharedState,
) -> MpiResult<()> {
    let comm = ctx.world().clone();
    let bk = Bookkeeper::new(Arc::clone(ctx.profile()));
    let mode = app.mode();
    let filter = app.checkpoint_filter(checkpoints);
    let name = app.name().to_owned();

    match strategy {
        Strategy::Unprotected => {
            let mut state = bk.book(Phase::AppInit, || app.init_rank(ctx, &comm));
            let done = iteration_loop(
                ctx,
                &comm,
                &mut state,
                &bk,
                mode,
                0,
                &CheckpointFilter::Never,
                shared,
                |_c, comm, st, i, bk| st.step(comm, i, bk),
                |_i, _st| Ok(()),
            )?;
            finish(&comm, &mut state, shared, done)
        }
        Strategy::VelocOnly => {
            // Stock VeloC: collective mode, manual control flow.
            let client = bk.book(Phase::ResilienceInit, || {
                Client::init(
                    ctx.cluster().clone(),
                    ctx.rank(),
                    VelocConfig {
                        mode: Mode::Collective,
                        async_flush: true,
                    },
                )
            });
            client.set_rank(comm.rank());
            client.set_recorder(ctx.recorder().clone());
            let mut state = bk.book(Phase::AppInit, || app.init_rank(ctx, &comm));
            protect_views(&client, state.as_ref());
            // Intact-version agreement: restart selection degrades to the
            // newest checkpoint whose blob verifies on every rank.
            let version = client
                .agree_intact_version(&name, Some(&comm))
                .map_err(veloc_err)?;
            let start = match version {
                Some(v) => {
                    bk.book(Phase::DataRecovery, || client.restart(&name, v))
                        .map_err(veloc_err)?;
                    state.post_restore(&comm, &bk)?;
                    v + 1
                }
                None => 0,
            };
            let done = iteration_loop(
                ctx,
                &comm,
                &mut state,
                &bk,
                mode,
                start,
                &filter,
                shared,
                |_c, comm, st, i, bk| st.step(comm, i, bk),
                |i, _st| {
                    bk.book(Phase::CheckpointFn, || client.checkpoint(&name, i))
                        .map_err(veloc_err)
                },
            )?;
            finish(&comm, &mut state, shared, done)?;
            client.finalize();
            Ok(())
        }
        Strategy::KokkosResilience => {
            // KR without Fenix: stock collective VeloC backend underneath.
            let kr = bk.book(Phase::ResilienceInit, || {
                Context::new(
                    ctx.cluster(),
                    comm.clone(),
                    ContextConfig {
                        name: name.clone(),
                        filter: filter.clone(),
                        backend: BackendKind::VelocCollective,
                        aliases: app.alias_labels(),
                    },
                )
            });
            kr.set_profile(Arc::clone(ctx.profile()));
            kr.set_recorder(ctx.recorder().clone());
            let mut state = bk.book(Phase::AppInit, || app.init_rank(ctx, &comm));
            let latest = kr_restart_version(&kr, mode.max_iterations())?;
            let start = latest.map_or(0, |v| v + 1);
            let done = iteration_loop(
                ctx,
                &comm,
                &mut state,
                &bk,
                mode,
                start,
                // The KR context applies the filter itself.
                &CheckpointFilter::Never,
                shared,
                |c, comm, st, i, bk| {
                    // KR checkpoints every view the region touches, so a
                    // restore reinstates *complete* state — no post_restore
                    // (rebuilding derived state would be redundant work and
                    // perturb float summation order).
                    c.fault_point("ckpt", i)?;
                    kr.checkpoint(LOOP_LABEL, i, || st.step(comm, i, bk))?;
                    c.fault_point("commit", i)?;
                    Ok(())
                },
                |_i, _st| Ok(()),
            )?;
            finish(&comm, &mut state, shared, done)?;
            kr.checkpoint_wait();
            Ok(())
        }
        other => panic!("{other:?} is not a relaunch strategy"),
    }
}

/// Agree on the KR restart version, guaranteeing the lazy restore can fire.
///
/// KR recovery is region-scoped: an armed restore only runs when the
/// checkpoint region next *executes*. If the agreement lands on the final
/// iteration's version (a kill at the last commit, after the checkpoint
/// completed), `start == max_iterations` and no region ever executes — the
/// job would silently finish on unrestored state. Re-agree bounded at
/// `max - 2` so at least one iteration replays and carries the restore;
/// if nothing intact remains below the bound, restart cold. Collective:
/// every rank reaches the same decision from the same agreed inputs.
fn kr_restart_version(kr: &Context, max: u64) -> MpiResult<Option<u64>> {
    let Some(bound) = max.checked_sub(2) else {
        // 0- or 1-iteration runs: any restorable version would be the
        // final one, whose restore could never fire. Cold restart.
        return Ok(None);
    };
    match kr.latest_version(LOOP_LABEL)? {
        Some(v) if v + 1 >= max => kr.latest_version_below(LOOP_LABEL, bound),
        other => Ok(other),
    }
}

// ---------------------------------------------------------------------------
// Fenix-based strategies
// ---------------------------------------------------------------------------

/// One rank of a process-resilient job (Figure 4's structure).
#[allow(clippy::too_many_arguments)]
pub fn fenix_rank(
    ctx: &mut RankCtx,
    app: &dyn IterativeApp,
    strategy: Strategy,
    spares: usize,
    checkpoints: u64,
    redundancy: Option<RedundancyMode>,
    shared: &SharedState,
) -> MpiResult<()> {
    let bk = Bookkeeper::new(Arc::clone(ctx.profile()));
    let mode = app.mode();
    let filter = app.checkpoint_filter(checkpoints);
    let name = app.name().to_owned();
    let fenix_cfg = FenixConfig {
        spares,
        on_exhaustion: ExhaustPolicy::Abort,
    };

    // State surviving re-entries (created lazily: spares have none until
    // promoted).
    let state: RefCell<Option<Box<dyn RankApp>>> = RefCell::new(None);
    let kr: RefCell<Option<Context>> = RefCell::new(None);
    let veloc_client: RefCell<Option<Client>> = RefCell::new(None);
    let red_store = RedStore::new();
    // The paper's buddy-rank IMR is the redundancy store at two replicas;
    // `FenixRedstore` takes the experiment's dial instead.
    let redundancy = match strategy {
        Strategy::FenixImr => Some(RedundancyMode::Replicate { k: 2 }),
        _ => redundancy,
    };
    let ctx = &*ctx;

    let summary = fenix::run(ctx.world(), fenix_cfg, |fx, comm, role| {
        shared
            .repairs
            .fetch_max(fx.repair_count(), Ordering::Relaxed);
        // Chaos fault point *inside* recovery: a re-entered body can be
        // killed again before it restores, cascading failures into the
        // repair path itself (counted by recovery epoch).
        if role != Role::Initial {
            ctx.fault_point("recovery", fx.repair_count())?;
        }
        match strategy {
            Strategy::FenixVeloc => fenix_veloc_body(
                ctx,
                app,
                comm,
                role,
                &bk,
                &name,
                &filter,
                mode,
                shared,
                &state,
                &veloc_client,
            ),
            Strategy::FenixKokkosResilience | Strategy::PartialRollback => fenix_kr_body(
                ctx,
                app,
                comm,
                role,
                fx,
                &bk,
                &name,
                &filter,
                mode,
                shared,
                &state,
                &kr,
                strategy == Strategy::PartialRollback,
            ),
            Strategy::FenixImr | Strategy::FenixRedstore => fenix_peer_memory_body(
                ctx, app, comm, role, &bk, &filter, mode, shared, &state, &red_store, redundancy,
            ),
            other => panic!("{other:?} is not a Fenix strategy"),
        }
    })?;
    shared.repairs.fetch_max(summary.repairs, Ordering::Relaxed);
    if let Some(kr) = kr.borrow().as_ref() {
        kr.checkpoint_wait();
    }
    if let Some(client) = veloc_client.borrow().as_ref() {
        client.finalize();
    }
    Ok(())
}

/// Fenix + VeloC (single mode), manual control flow.
#[allow(clippy::too_many_arguments)]
fn fenix_veloc_body(
    ctx: &RankCtx,
    app: &dyn IterativeApp,
    comm: &Comm,
    role: Role,
    bk: &Bookkeeper,
    name: &str,
    filter: &CheckpointFilter,
    mode: RunMode,
    shared: &SharedState,
    state: &RefCell<Option<Box<dyn RankApp>>>,
    client_cell: &RefCell<Option<Client>>,
) -> MpiResult<()> {
    if client_cell.borrow().is_none() {
        let client = bk.book(Phase::ResilienceInit, || {
            Client::init(
                ctx.cluster().clone(),
                ctx.rank(),
                VelocConfig {
                    mode: Mode::Single,
                    async_flush: true,
                },
            )
        });
        *client_cell.borrow_mut() = Some(client);
    }
    let client_ref = client_cell.borrow();
    let client = client_ref.as_ref().expect("client initialized");
    // Paper: update the cached rank id after a repair.
    client.set_rank(comm.rank());
    client.set_recorder(ctx.recorder().clone());

    if state.borrow().is_none() {
        *state.borrow_mut() = Some(bk.book(Phase::AppInit, || app.init_rank(ctx, comm)));
    }
    let mut state_ref = state.borrow_mut();
    let st = state_ref.as_mut().expect("state initialized");
    protect_views(client, st.as_ref());

    // Manual best-version reduction (the paper's non-collective pattern),
    // hardened to agree only on versions intact everywhere: a corrupted
    // newest checkpoint degrades the restart instead of wedging it.
    let agreed = client
        .agree_intact_version(name, Some(comm))
        .map_err(veloc_err)?
        .map_or(-1i64, |v| v as i64);
    let start = if role != Role::Initial && agreed >= 0 {
        let v = agreed as u64;
        bk.book(Phase::DataRecovery, || client.restart(name, v))
            .map_err(veloc_err)?;
        st.post_restore(comm, bk)?;
        v + 1
    } else if role != Role::Initial {
        // Failure before the first checkpoint: everyone restarts cleanly.
        drop(state_ref);
        *state.borrow_mut() = Some(bk.book(Phase::AppInit, || app.init_rank(ctx, comm)));
        state_ref = state.borrow_mut();
        protect_views(client, state_ref.as_ref().expect("state").as_ref());
        0
    } else {
        0
    };

    let st = state_ref.as_mut().expect("state initialized");
    let done = iteration_loop(
        ctx,
        comm,
        st,
        bk,
        mode,
        start,
        filter,
        shared,
        |_c, comm, st, i, bk| st.step(comm, i, bk),
        |i, _st| {
            bk.book(Phase::CheckpointFn, || client.checkpoint(name, i))
                .map_err(veloc_err)
        },
    )?;
    finish(comm, st, shared, done)
}

/// The paper's integrated system: Fenix + Kokkos Resilience + VeloC-single.
/// With `partial`, survivors skip data restoration (partial rollback).
#[allow(clippy::too_many_arguments)]
fn fenix_kr_body(
    ctx: &RankCtx,
    app: &dyn IterativeApp,
    comm: &Comm,
    role: Role,
    fx: &Fenix,
    bk: &Bookkeeper,
    name: &str,
    filter: &CheckpointFilter,
    mode: RunMode,
    shared: &SharedState,
    state: &RefCell<Option<Box<dyn RankApp>>>,
    kr_cell: &RefCell<Option<Context>>,
    partial: bool,
) -> MpiResult<()> {
    // Figure 4: `make_context(res_comm)` on Initial, `ctx.reset(res_comm)`
    // on re-entry.
    if kr_cell.borrow().is_none() {
        let kr = bk.book(Phase::ResilienceInit, || {
            Context::new(
                ctx.cluster(),
                comm.clone(),
                ContextConfig {
                    name: name.to_owned(),
                    filter: filter.clone(),
                    backend: BackendKind::VelocSingle,
                    aliases: app.alias_labels(),
                },
            )
        });
        kr.set_profile(Arc::clone(bk.profile()));
        kr.set_recorder(ctx.recorder().clone());
        *kr_cell.borrow_mut() = Some(kr);
    } else {
        kr_cell
            .borrow()
            .as_ref()
            .expect("context present")
            .reset(comm.clone());
    }
    let kr_ref = kr_cell.borrow();
    let kr = kr_ref.as_ref().expect("context initialized");

    if partial && role != Role::Initial {
        // Only the replacement ranks roll back; survivors keep their
        // in-progress data.
        kr.set_recovery_scope(RecoveryScope::OnlyRanks(fx.recovered_ranks()));
    }

    if state.borrow().is_none() {
        *state.borrow_mut() = Some(bk.book(Phase::AppInit, || app.init_rank(ctx, comm)));
    }

    let latest = kr_restart_version(kr, mode.max_iterations())?;
    let start = match latest {
        Some(v) => v + 1,
        None if role != Role::Initial => {
            // Failure before the first checkpoint: consistent cold restart.
            *state.borrow_mut() = Some(bk.book(Phase::AppInit, || app.init_rank(ctx, comm)));
            0
        }
        None => 0,
    };

    let mut state_ref = state.borrow_mut();
    let st = state_ref.as_mut().expect("state initialized");
    let done = iteration_loop(
        ctx,
        comm,
        st,
        bk,
        mode,
        start,
        // KR applies the filter internally.
        &CheckpointFilter::Never,
        shared,
        |c, comm, st, i, bk| {
            // Complete-state restore: no post_restore (see relaunch_rank).
            c.fault_point("ckpt", i)?;
            kr.checkpoint(LOOP_LABEL, i, || st.step(comm, i, bk))?;
            c.fault_point("commit", i)?;
            Ok(())
        },
        |_i, _st| Ok(()),
    )?;
    finish(comm, st, shared, done)
}

/// Fenix process recovery + checkpoints in peer memory: the one body behind
/// both `FenixImr` (two replicas — the paper's buddy pairs) and
/// `FenixRedstore` (any [`RedundancyMode`]). Checkpoints are replicated or
/// erasure-coded across a topology-aware placement group, so recovery
/// survives a whole-node loss, and with wider modes several concurrent
/// rank losses per group.
#[allow(clippy::too_many_arguments)]
fn fenix_peer_memory_body(
    ctx: &RankCtx,
    app: &dyn IterativeApp,
    comm: &Comm,
    role: Role,
    bk: &Bookkeeper,
    filter: &CheckpointFilter,
    mode: RunMode,
    shared: &SharedState,
    state: &RefCell<Option<Box<dyn RankApp>>>,
    store: &Arc<RedStore>,
    redundancy: Option<RedundancyMode>,
) -> MpiResult<()> {
    let group = RedundancyGroup::new(Arc::clone(store), comm, redundancy);

    if state.borrow().is_none() {
        *state.borrow_mut() = Some(bk.book(Phase::AppInit, || app.init_rank(ctx, comm)));
    }

    // Epoch-uniform predicate, not a rank-dependent one: after a repair,
    // *every* rank re-enters with a non-Initial role together, so all
    // ranks take the same arm of the branch below (and its allgather).
    let resuming = role != Role::Initial;
    let start = if resuming {
        // Agree who actually holds the committed version. The last repair's
        // replacement list (`Fenix::recovered_ranks`) is not enough: when a
        // failure cascades into recovery itself, an *earlier* replacement
        // whose restore was interrupted holds nothing, and treating it as a
        // survivor strands the job — it aborts on its empty store while the
        // true survivors enter the iteration loop and wait on it forever.
        // Possession is the agreement: committed versions are consistent
        // across holders (two-phase store), so the max over the gathered
        // locals is the committed version and every rank below it — every
        // replacement, however many repairs ago — is recovering.
        let local = store
            .latest_version(VIEWS_MEMBER)
            .map_or(-1i64, |v| v as i64);
        let locals = comm.allgather(&[local])?;
        let committed = locals.iter().copied().max().unwrap_or(-1);
        if committed >= 0 {
            let recovering: Vec<usize> = locals
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != committed)
                .map(|(r, _)| r)
                .collect();
            let (version, blob) = bk
                .book(Phase::DataRecovery, || {
                    group.restore(VIEWS_MEMBER, &recovering)
                })
                .map_err(red_err)?;
            debug_assert_eq!(version as i64, committed, "commit protocol consistency");
            let mut sref = state.borrow_mut();
            let st = sref.as_mut().expect("state initialized");
            unpack_views(&region_views(st.as_ref()), &blob)?;
            st.post_restore(comm, bk)?;
            version + 1
        } else {
            // Failure before the first commit: consistent cold restart.
            *state.borrow_mut() = Some(bk.book(Phase::AppInit, || app.init_rank(ctx, comm)));
            0
        }
    } else {
        0
    };

    let mut state_ref = state.borrow_mut();
    let st = state_ref.as_mut().expect("state initialized");
    let done = iteration_loop(
        ctx,
        comm,
        st,
        bk,
        mode,
        start,
        filter,
        shared,
        |_c, comm, st, i, bk| st.step(comm, i, bk),
        |i, st| {
            let blob = pack_views(&region_views(st.as_ref()));
            bk.book(Phase::CheckpointFn, || {
                group.store(VIEWS_MEMBER, i, blob).map_err(red_err)
            })
        },
    )?;
    finish(comm, st, shared, done)
}
