//! Full strategy-matrix tests over a synthetic 1-D ring-diffusion app:
//! failure-free equivalence, recovery correctness per strategy, and
//! partial-rollback convergence.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bench::pins;
use bytes::Bytes;
use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};
use kokkos::capture::Checkpointable;
use kokkos::{View, ViewMeta};
use resilience::{
    run_experiment, try_run_experiment, Bookkeeper, ExperimentConfig, ExperimentError,
    IterativeApp, RankApp, RunMode, RunRecord, Strategy,
};
use simmpi::{Backend, Comm, FaultPlan, MpiResult, Phase, RankCtx};
use telemetry::{Event, Telemetry, TelemetryConfig, TimeSource, TraceSnapshot};

/// A deterministic 1-D diffusion on a ring: each rank owns `cells` values;
/// every step exchanges edge values with both neighbors and relaxes toward
/// the neighborhood average. Digest is exact (bit-level), so recovered runs
/// can be compared bit-for-bit with uninterrupted ones.
struct RingDiffusion {
    cells: usize,
    mode: RunMode,
}

struct RingState {
    data: View<f64>,
    rank: usize,
    size: usize,
    last_delta: f64,
}

impl IterativeApp for RingDiffusion {
    fn name(&self) -> &str {
        "ringdiff"
    }

    fn mode(&self) -> RunMode {
        self.mode
    }

    fn init_rank(&self, _ctx: &RankCtx, comm: &Comm) -> Box<dyn RankApp> {
        let data: View<f64> = View::new_1d("ring_data", self.cells);
        {
            let mut d = data.write_uncaptured();
            for (i, x) in d.iter_mut().enumerate() {
                // Deterministic, rank-dependent initial condition.
                *x = ((comm.rank() * 31 + i * 7) % 101) as f64;
            }
        }
        Box::new(RingState {
            data,
            rank: comm.rank(),
            size: comm.size(),
            last_delta: f64::INFINITY,
        })
    }
}

impl RankApp for RingState {
    fn step(&mut self, comm: &Comm, _iteration: u64, bk: &Bookkeeper) -> MpiResult<()> {
        let n = self.size;
        let right = (self.rank + 1) % n;
        let left = (self.rank + n - 1) % n;

        let (first, last) = {
            let d = self.data.read();
            (d[0], d[d.len() - 1])
        };
        let mut from_left = [0.0f64];
        let mut from_right = [0.0f64];
        bk.book(Phase::AppMpi, || -> MpiResult<()> {
            comm.sendrecv(right, 1, &[last], left, 1, &mut from_left)?;
            comm.sendrecv(left, 2, &[first], right, 2, &mut from_right)?;
            Ok(())
        })?;

        bk.book(Phase::AppCompute, || {
            let mut d = self.data.write();
            let len = d.len();
            let mut delta: f64 = 0.0;
            let snapshot: Vec<f64> = d.clone();
            for i in 0..len {
                let l = if i == 0 {
                    from_left[0]
                } else {
                    snapshot[i - 1]
                };
                let r = if i == len - 1 {
                    from_right[0]
                } else {
                    snapshot[i + 1]
                };
                let new = 0.5 * snapshot[i] + 0.25 * (l + r);
                delta = delta.max((new - snapshot[i]).abs());
                d[i] = new;
            }
            self.last_delta = delta;
        });
        Ok(())
    }

    fn checkpoint_views(&self) -> Vec<Arc<dyn Checkpointable>> {
        vec![Arc::new(self.data.clone())]
    }

    fn converged(&mut self, comm: &Comm, bk: &Bookkeeper) -> MpiResult<bool> {
        let global = bk.book(Phase::AppMpi, || {
            comm.allreduce_scalar(self.last_delta, simmpi::ReduceOp::Max)
        })?;
        Ok(global < 1e-3)
    }

    fn digest(&self) -> u64 {
        self.data.read_uncaptured().iter().fold(0u64, |acc, x| {
            acc.wrapping_mul(31).wrapping_add(x.to_bits())
        })
    }
}

fn cluster(n: usize) -> Cluster {
    let cfg = ClusterConfig {
        nodes: n,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        relaunch: RelaunchModel::free(),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}

fn fixed_app(iters: u64) -> RingDiffusion {
    RingDiffusion {
        cells: 64,
        mode: RunMode::FixedIterations(iters),
    }
}

fn cfg(strategy: Strategy, spares: usize) -> ExperimentConfig {
    ExperimentConfig {
        backend: Default::default(),
        strategy,
        spares,
        checkpoints: 6,
        max_relaunches: 4,
        telemetry: None,
    }
}

/// Reference digest from an unprotected, failure-free run.
fn reference_digest(active_ranks: usize, iters: u64) -> u64 {
    let c = cluster(active_ranks);
    let rec = run_experiment(
        &c,
        &fixed_app(iters),
        &cfg(Strategy::Unprotected, 0),
        Arc::new(FaultPlan::none()),
    );
    assert_eq!(rec.iterations, iters);
    rec.digest
}

/// Iterations of the DES shape: versions at 4, 9, …, 29.
const DES_ITERS: u64 = 30;
const DES_SEED: u64 = 16;

/// The small deterministic shape: 4 active ranks (plus a spare under
/// Fenix) on a virtual-time cluster under the DES engine at a fixed seed.
fn des_shape(strategy: Strategy) -> (Cluster, ExperimentConfig) {
    let spares = usize::from(strategy.uses_fenix());
    let cluster = Cluster::new(ClusterConfig {
        nodes: 4 + spares,
        ranks_per_node: 1,
        virtual_time: true,
        ..ClusterConfig::default()
    });
    let cfg = ExperimentConfig {
        backend: Backend::Des { seed: DES_SEED },
        ..cfg(strategy, spares)
    };
    (cluster, cfg)
}

/// One run on the DES shape.
fn des_run(strategy: Strategy, plan: FaultPlan) -> RunRecord {
    let (cluster, cfg) = des_shape(strategy);
    run_experiment(&cluster, &fixed_app(DES_ITERS), &cfg, Arc::new(plan))
}

/// One run on the DES shape under a hub stamping from the cluster clock.
fn des_run_traced(strategy: Strategy, plan: FaultPlan) -> (RunRecord, TraceSnapshot) {
    let (cluster, mut cfg) = des_shape(strategy);
    let clock = Arc::clone(cluster.clock());
    let hub = Telemetry::with_time_source(
        TelemetryConfig::default(),
        TimeSource::External(Arc::new(move || clock.now_ns())),
    );
    cfg.telemetry = Some(hub.clone());
    let rec = run_experiment(&cluster, &fixed_app(DES_ITERS), &cfg, Arc::new(plan));
    (rec, hub.snapshot())
}

/// A phase's cost as `benchmark/src/phases.rs` derives it from a trace:
/// rank by rank the summed outermost `SpanBegin`→`SpanEnd` intervals, then
/// the maximum over ranks.
fn max_span(snap: &TraceSnapshot, phase: Phase) -> Duration {
    // rank → (open begin stamps, closed total)
    let mut ranks: BTreeMap<u32, (Vec<u64>, u64)> = BTreeMap::new();
    for e in &snap.events {
        let (open, total) = ranks.entry(e.rank).or_default();
        match &e.event {
            Event::SpanBegin { phase: p } if *p == phase => open.push(e.t_ns),
            Event::SpanEnd { phase: p } if *p == phase => {
                let begin = open.pop().expect("a span ends after it began");
                if open.is_empty() {
                    *total += e.t_ns - begin;
                }
            }
            _ => {}
        }
    }
    let slowest = ranks.values().map(|(_, total)| *total).max();
    Duration::from_nanos(slowest.unwrap_or(0))
}

/// Under DES on a virtual-time cluster the breakdown is modelled time: read
/// from the clock the wall is read from, so it is the trace's own span
/// arithmetic, never exceeds the wall, and repeats exactly — with or
/// without a hub.
#[test]
fn breakdown_is_modelled_time_under_des() {
    for strategy in [
        Strategy::FenixKokkosResilience,
        Strategy::KokkosResilience,
        Strategy::FenixImr,
    ] {
        for plan in [FaultPlan::none, || FaultPlan::kill_at(2, "iter", 23)] {
            let (rec, snap) = des_run_traced(strategy, plan());
            assert_eq!(snap.dropped, 0, "{strategy}");
            let b = &rec.breakdown;
            for (phase, booked) in [
                (Phase::AppCompute, b.app_compute),
                (Phase::AppMpi, b.app_mpi),
                (Phase::ResilienceInit, b.resilience_init),
                (Phase::CheckpointFn, b.checkpoint_fn),
                (Phase::DataRecovery, b.data_recovery),
                (Phase::Recompute, b.recompute),
                (Phase::ForceCompute, b.force_compute),
                (Phase::Neighboring, b.neighboring),
                (Phase::Communicator, b.communicator),
                (Phase::AppInit, b.app_init),
            ] {
                assert_eq!(booked, max_span(&snap, phase), "{strategy}: {phase:?}");
                assert!(booked <= rec.wall, "{strategy}: {phase:?} exceeds the wall");
            }
            // The model charges no compute; messages and checkpoints cost.
            assert_eq!(b.app_compute, Duration::ZERO, "{strategy}");
            assert!(b.app_mpi > Duration::ZERO, "{strategy}");
            assert!(b.checkpoint_fn > Duration::ZERO, "{strategy}");

            let same = |other: &RunRecord, what: &str| {
                assert_eq!(other.wall, rec.wall, "{strategy}: {what}");
                assert_eq!(other.breakdown, rec.breakdown, "{strategy}: {what}");
            };
            same(&des_run_traced(strategy, plan()).0, "a second replay");
            same(&des_run(strategy, plan()), "without a hub");
        }
    }
}

/// The whole matrix on the DES shape, failure-free and with one kill
/// between checkpoints (rank 2 dies at 23): every run completes and
/// recovers the reference digest. Modelled time is a pure function of the
/// seed, so each run's wall and digest are pinned exactly
/// (`strategies/<Strategy>/{no_failure,one_failure}` in the pin file).
#[test]
fn every_strategy_completes_and_recovers_on_the_des_shape() {
    let iters = DES_ITERS;
    let reference = des_run(Strategy::Unprotected, FaultPlan::none()).digest;
    let mut measured = Vec::new();
    for strategy in Strategy::ALL {
        let free = des_run(strategy, FaultPlan::none());
        let failed = des_run(strategy, FaultPlan::kill_at(2, "iter", 23));
        for (run, rec) in [("no_failure", &free), ("one_failure", &failed)] {
            let shape = format!("strategies/{strategy:?}/{run}");
            measured.push(pins::entry(
                &shape,
                DES_SEED,
                pins::wall_and_digest(rec.wall, rec.digest),
            ));
        }

        assert_eq!(free.iterations, iters, "{strategy}");
        assert_eq!(free.digest, reference, "digest mismatch under {strategy}");
        assert_eq!((free.relaunches, free.repairs), (0, 0), "{strategy}");
        assert!(free.resumed_at.is_empty(), "{strategy}");

        // The process layer decides how the failure is absorbed.
        let absorbed = if strategy.uses_fenix() {
            (0, 1)
        } else {
            (1, 0)
        };
        assert_eq!((failed.relaunches, failed.repairs), absorbed, "{strategy}");
        assert_eq!(failed.iterations, iters, "{strategy}");
        if strategy.partial_rollback() {
            // Survivors keep in-progress data: complete, not bit-equal.
            continue;
        }
        assert_eq!(failed.digest, reference, "recovery under {strategy}");
        let lost_work = if strategy.checkpoints() {
            failed.breakdown.data_recovery
        } else {
            failed.breakdown.recompute
        };
        assert!(lost_work > std::time::Duration::ZERO, "{strategy}");
    }
    pins::assert_pinned(&measured);
}

/// A kill on the final commit under every checkpointing strategy. On the
/// DES engine the flush is inline, so version 29 is stored and the restart
/// agreement lands on it. Under Kokkos Resilience, resuming after it would
/// execute no region and the lazy restore would never fire:
/// `Context::restart_version` re-agrees lower, so the replacement restores
/// and the last interval replays. The manual body restores eagerly and
/// replays nothing: its digest is the restored state's.
#[test]
fn checkpointing_strategies_restore_after_a_kill_on_the_final_commit() {
    let reference = des_run(Strategy::Unprotected, FaultPlan::none()).digest;
    for strategy in Strategy::ALL {
        if !strategy.checkpoints() {
            continue;
        }
        let rec = des_run(strategy, FaultPlan::kill_at(1, "commit", DES_ITERS - 1));
        assert_eq!(rec.failures, 1, "{strategy}");
        assert_eq!(rec.iterations, DES_ITERS, "{strategy}");
        assert!(
            rec.breakdown.data_recovery > std::time::Duration::ZERO,
            "{strategy}: the restore never fired"
        );
        if !strategy.partial_rollback() {
            assert_eq!(rec.digest, reference, "{strategy}");
        }
    }
}

/// How often the checkpointed views were serialized, and by which door.
#[derive(Default)]
struct SerializeCounts {
    /// `snapshot()`: an owned copy, which the pack then copies again.
    copies: AtomicUsize,
    /// `snapshot_into()`: straight into the frame's payload slot.
    direct: AtomicUsize,
}

struct CountedView {
    inner: Arc<dyn Checkpointable>,
    counts: Arc<SerializeCounts>,
}

impl Checkpointable for CountedView {
    fn meta(&self) -> ViewMeta {
        self.inner.meta()
    }
    fn snapshot(&self) -> Bytes {
        self.counts.copies.fetch_add(1, Ordering::Relaxed);
        self.inner.snapshot()
    }
    fn restore(&self, data: &[u8]) {
        self.inner.restore(data);
    }
    fn generation(&self) -> Option<u64> {
        self.inner.generation()
    }
    fn snapshot_into(&self, out: &mut [u8]) -> bool {
        self.counts.direct.fetch_add(1, Ordering::Relaxed);
        self.inner.snapshot_into(out)
    }
}

/// [`RingDiffusion`] with its checkpointed views wrapped in [`CountedView`].
struct CountedRing {
    app: RingDiffusion,
    counts: Arc<SerializeCounts>,
}

struct CountedState {
    state: Box<dyn RankApp>,
    counts: Arc<SerializeCounts>,
}

impl IterativeApp for CountedRing {
    fn name(&self) -> &str {
        self.app.name()
    }
    fn mode(&self) -> RunMode {
        self.app.mode()
    }
    fn init_rank(&self, ctx: &RankCtx, comm: &Comm) -> Box<dyn RankApp> {
        Box::new(CountedState {
            state: self.app.init_rank(ctx, comm),
            counts: Arc::clone(&self.counts),
        })
    }
}

impl RankApp for CountedState {
    fn step(&mut self, comm: &Comm, iteration: u64, bk: &Bookkeeper) -> MpiResult<()> {
        self.state.step(comm, iteration, bk)
    }
    fn checkpoint_views(&self) -> Vec<Arc<dyn Checkpointable>> {
        let wrap = |inner| -> Arc<dyn Checkpointable> {
            Arc::new(CountedView {
                inner,
                counts: Arc::clone(&self.counts),
            })
        };
        self.state
            .checkpoint_views()
            .into_iter()
            .map(wrap)
            .collect()
    }
    fn digest(&self) -> u64 {
        self.state.digest()
    }
}

/// Every strategy that checkpoints `checkpoint_views` by hand goes through
/// the one forwarding view adapter, so a view is copied once — into the
/// frame — and never via an intermediate owned snapshot.
#[test]
fn manual_strategies_serialize_views_straight_into_the_frame() {
    let iters = 30;
    let reference = reference_digest(4, iters);
    for strategy in [
        Strategy::VelocOnly,
        Strategy::FenixVeloc,
        Strategy::FenixImr,
        Strategy::FenixRedstore,
    ] {
        let (nodes, spares) = if strategy.uses_fenix() {
            (5, 1)
        } else {
            (4, 0)
        };
        let app = CountedRing {
            app: fixed_app(iters),
            counts: Arc::default(),
        };
        let rec = run_experiment(
            &cluster(nodes),
            &app,
            &cfg(strategy, spares),
            Arc::new(FaultPlan::none()),
        );
        assert_eq!(rec.digest, reference, "{strategy}");
        let copies = app.counts.copies.load(Ordering::Relaxed);
        let direct = app.counts.direct.load(Ordering::Relaxed);
        assert_eq!(copies, 0, "{strategy} took owned snapshots");
        assert_eq!(direct, 4 * 6, "{strategy}: 4 ranks x 6 checkpoints");
    }
}

/// Where the job resumed. Rank 2 dies at iteration 23, between the
/// versions at 19 and 24: the one recovery resumes after the newest version
/// the filter selected below the kill — and at 0 with nothing stored.
/// Digests cannot see this (a cold restart recomputes the same answer).
/// `PartialRollback` is left out: its survivors keep their data by design.
#[test]
fn every_strategy_resumes_after_the_newest_version_below_the_kill() {
    const KILL_ITER: u64 = 23;
    for strategy in Strategy::ALL {
        if strategy.partial_rollback() {
            continue;
        }
        let (cluster, cfg) = des_shape(strategy);
        let app = fixed_app(DES_ITERS);
        let plan = Arc::new(FaultPlan::kill_at(2, "iter", KILL_ITER));
        let rec = run_experiment(&cluster, &app, &cfg, plan);
        assert_eq!(rec.failures, 1, "{strategy}");

        let filter = app.checkpoint_filter(cfg.checkpoints);
        let newest = (0..KILL_ITER).rev().find(|&i| filter.should_checkpoint(i));
        let expected = match newest {
            Some(version) if strategy.checkpoints() => version + 1,
            _ => 0,
        };
        assert_eq!(rec.resumed_at, [expected], "{strategy}");
    }
}

#[test]
fn fenix_failure_before_first_checkpoint_cold_restarts() {
    let iters = 12;
    let reference = reference_digest(4, iters);
    for strategy in [
        Strategy::FenixVeloc,
        Strategy::FenixKokkosResilience,
        Strategy::FenixImr,
        Strategy::FenixRedstore,
    ] {
        eprintln!("cold-restart strategy: {strategy}");
        let c = cluster(5);
        // Checkpoints every 2 iterations; kill at iteration 1, before the
        // first checkpoint fires.
        let plan = Arc::new(FaultPlan::kill_at(0, "iter", 1));
        let rec = run_experiment(&c, &fixed_app(iters), &cfg(strategy, 1), plan);
        assert_eq!(rec.digest, reference, "{strategy}");
        assert!(rec.repairs >= 1, "{strategy}");
    }
}

#[test]
fn partial_rollback_converges() {
    let app = RingDiffusion {
        cells: 32,
        mode: RunMode::Converge {
            check_every: 5,
            max_iterations: 4000,
        },
    };
    // Failure-free convergence, full-rollback recovery, and partial-rollback
    // recovery must all converge; partial must not recompute more than full.
    let c = cluster(5);
    let free = run_experiment(
        &c,
        &app,
        &cfg(Strategy::FenixKokkosResilience, 1),
        Arc::new(FaultPlan::none()),
    );
    assert!(free.iterations > 0 && free.iterations < 4000, "converged");

    let kill_iter = free.iterations * 3 / 4;
    let full = run_experiment(
        &c,
        &app,
        &cfg(Strategy::FenixKokkosResilience, 1),
        Arc::new(FaultPlan::kill_at(1, "iter", kill_iter)),
    );
    assert!(full.repairs >= 1);
    assert!(full.iterations < 4000, "full rollback converged");

    let partial = run_experiment(
        &c,
        &app,
        &cfg(Strategy::PartialRollback, 1),
        Arc::new(FaultPlan::kill_at(1, "iter", kill_iter)),
    );
    assert!(partial.repairs >= 1);
    assert!(partial.iterations < 4000, "partial rollback converged");
}

#[test]
fn imr_two_failures_with_two_spares() {
    let iters = 30;
    let reference = reference_digest(4, iters);
    let c = cluster(6); // 4 active + 2 spares
    let plan = Arc::new(FaultPlan::kill_at(0, "iter", 12).and_kill(3, "iter", 22));
    let rec = run_experiment(&c, &fixed_app(iters), &cfg(Strategy::FenixImr, 2), plan);
    assert!(rec.repairs >= 2);
    assert_eq!(rec.digest, reference);
}

/// The acceptance scenario of the redundancy tier: both ranks of one
/// placement group are lost before redundancy can be re-established —
/// rank 0 mid-iteration, rank 1 as it re-enters for the repair, before the
/// restore's first collective. (Two kills at the same `iter` are *not*
/// reliably concurrent: a survivor's revoke can reach rank 1 before its own
/// fault point does, which makes them two recoverable single failures.)
/// Buddy-rank IMR has lost both copies of both payloads and must fail with
/// a clean typed error; the same store's RS(2,2) code tolerates two
/// erasures per group and must complete bitwise-equal.
#[test]
fn buddy_pair_loss_redstore_recovers_where_buddy_imr_cannot() {
    let iters = 30;
    let reference = reference_digest(4, iters);
    let plan = || Arc::new(FaultPlan::kill_at(0, "iter", 12).and_kill(1, "recovery", 1));

    // Ranks 0 and 1 are a buddy pair: with one rank per node the width-2
    // groups are rank neighbours.
    let c = cluster(6); // 4 active + 2 spares
    let imr = try_run_experiment(&c, &fixed_app(iters), &cfg(Strategy::FenixImr, 2), plan());
    match imr {
        Err(ExperimentError::RankFailed { .. }) => {}
        other => panic!("buddy IMR must fail with a typed error, got {other:?}"),
    }

    // Same schedule, same shape, redundancy tier: recovered exactly.
    let rec = run_experiment(
        &c,
        &fixed_app(iters),
        &cfg(Strategy::FenixRedstore, 2),
        plan(),
    );
    assert!(rec.repairs >= 1);
    assert_eq!(rec.iterations, iters);
    assert_eq!(rec.digest, reference, "bitwise recovery after a group loss");
}

#[test]
fn checkpoint_function_time_is_booked() {
    let c = cluster(4);
    // `app_compute > 0` is a statement about the host clock: on the thread
    // engine whatever `SIMMPI_BACKEND` says (under DES, compute takes no
    // modelled time).
    let config = ExperimentConfig {
        backend: Backend::Threads,
        ..cfg(Strategy::VelocOnly, 0)
    };
    let rec = run_experiment(&c, &fixed_app(30), &config, Arc::new(FaultPlan::none()));
    assert!(rec.breakdown.checkpoint_fn > std::time::Duration::ZERO);
    assert!(rec.breakdown.app_compute > std::time::Duration::ZERO);
}

#[test]
fn imr_commit_racing_repair_does_not_deadlock() {
    // Regression: at larger rank counts, ranks far from the victim reach
    // the IMR store's two-phase agreement while ranks adjacent to the
    // victim abandon it for Fenix repair. The agreement must abort with
    // Revoked (via the rendezvous revocation check) or the job deadlocks.
    // Observed originally with 8-rank Heatdis dying exactly at a
    // checkpoint iteration.
    let iters = 60;
    let reference = reference_digest(8, iters);
    let c = cluster(9); // 8 active + 1 spare
                        // Checkpoints at 9,19,...,59; rank 4 dies at the checkpoint iteration
                        // 49, while distant ranks are already inside the commit.
    let plan = Arc::new(FaultPlan::kill_at(4, "iter", 49));
    let rec = run_experiment(&c, &fixed_app(iters), &cfg(Strategy::FenixImr, 1), plan);
    assert!(rec.repairs >= 1);
    assert_eq!(rec.iterations, iters);
    assert_eq!(
        rec.digest, reference,
        "post-deadlock-fix recovery must be exact"
    );
}
