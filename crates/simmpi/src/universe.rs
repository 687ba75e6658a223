//! Job launch: one OS thread per MPI rank.
//!
//! [`Universe::launch`] is the `mpirun` of the simulation. It spawns the
//! rank threads, hands each a [`RankCtx`], runs the application closure, and
//! collects per-rank outcomes plus the job's wall time. When a rank fails
//! and `abort_on_failure` is set (plain-MPI semantics, used by the paper's
//! relaunch-based baselines), the whole job is aborted — surviving ranks
//! observe [`MpiError::Aborted`] and unwind, exactly like `MPI_Abort` after
//! an unhandled fault.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use cluster::Cluster;
use telemetry::{names, Event, Recorder, Telemetry, TimeSource};

use crate::comm::{Comm, Group};
use crate::error::{MpiError, MpiResult};
use crate::fault::FaultPlan;
use crate::router::Router;
use crate::sched::Scheduler;

/// Which execution engine drives the rank bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// One free-running OS thread per rank; modeled time is burned as
    /// scaled real sleeps. The production default and the differential
    /// oracle for the DES backend.
    Threads,
    /// Discrete-event simulation: ranks are cooperative tasks on virtual
    /// time, one running at a time, schedules a pure function of `seed`
    /// (see [`crate::sched`]).
    Des { seed: u64 },
}

impl Default for Backend {
    /// `Threads`, unless `SIMMPI_BACKEND=des` is set in the environment
    /// (with an optional `SIMMPI_SEED` for the schedule seed).
    fn default() -> Self {
        match std::env::var("SIMMPI_BACKEND") {
            Ok(v) if v.eq_ignore_ascii_case("des") => {
                let seed = std::env::var("SIMMPI_SEED")
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                Backend::Des { seed }
            }
            _ => Backend::Threads,
        }
    }
}

/// Launch-time options.
#[derive(Clone, Debug, Default)]
pub struct UniverseConfig {
    /// If true, any rank failure aborts the whole job (plain MPI). If false,
    /// failures only surface as ULFM errors and a fault-tolerant layer
    /// (Fenix) is expected to recover (the job keeps running).
    pub abort_on_failure: bool,
    /// Whether to charge the modeled job-startup cost before running ranks
    /// (the harness accounts it under "Other").
    pub charge_startup: bool,
    /// Observability hub for this launch. When set, every rank's recorder
    /// feeds the shared event logs/metrics and `fault_point`, ULFM, and
    /// kill paths emit structured events. With `None` (the default) a
    /// rank's recorder only times phases, on the launch's clock.
    pub telemetry: Option<Telemetry>,
    /// Execution engine (threads by default; see [`Backend`]). Full
    /// determinism on the DES backend additionally wants a cluster built
    /// with `virtual_time: true` and a telemetry hub stamping events from
    /// the cluster clock.
    pub backend: Backend,
}

/// Per-rank execution context handed to the application closure.
pub struct RankCtx {
    rank: usize,
    world: Comm,
    router: Arc<Router>,
    fault: Arc<FaultPlan>,
    recorder: Arc<Recorder>,
}

impl RankCtx {
    /// Global (world) rank of this thread.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The world communicator (`MPI_COMM_WORLD` equivalent).
    pub fn world(&self) -> &Comm {
        &self.world
    }

    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    pub fn cluster(&self) -> &Cluster {
        self.router.cluster()
    }

    /// [`Self::recorder`] as the shared handle `resilience::Bookkeeper`
    /// takes: phase costs are booked through the rank's one recorder.
    pub fn profile(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// This rank's recorder: the phase timer of every layer on this rank,
    /// and the event sink when the launch has a telemetry hub.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Application fault point: dies here if the fault plan says so.
    /// The returned error must be propagated (`?`) so the rank unwinds.
    pub fn fault_point(&self, label: &str, count: u64) -> MpiResult<()> {
        if self.fault.check(self.rank, label, count) {
            self.recorder.emit_with(|| Event::FaultInjected {
                site: label.to_string(),
                count,
            });
            self.router.kill(self.rank);
            return Err(MpiError::Killed);
        }
        Ok(())
    }

    /// Unconditionally kill this rank (tests, custom failure modes).
    pub fn die(&self) -> MpiError {
        self.router.kill(self.rank);
        MpiError::Killed
    }
}

/// Outcome of one rank's execution.
#[derive(Debug)]
pub struct RankOutcome {
    pub rank: usize,
    pub result: MpiResult<()>,
    /// The rank's recorder; its [`Recorder::phases`] hold the rank's
    /// phase costs.
    pub recorder: Arc<Recorder>,
}

/// Outcome of a whole launch.
#[derive(Debug)]
pub struct LaunchReport {
    pub outcomes: Vec<RankOutcome>,
    /// Duration of the launch on its clock — the scheduler's under DES,
    /// the cluster's otherwise; the clock hub-less recorders time phases
    /// on (excluding modeled startup, which the harness accounts
    /// separately).
    pub wall: Duration,
    /// Whether the job ended in an abort.
    pub aborted: bool,
}

impl LaunchReport {
    /// True when every rank completed without error.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.result.is_ok())
    }

    /// Ranks that ended with `Killed` (the injected victims).
    pub fn killed_ranks(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter(|o| o.result == Err(MpiError::Killed))
            .map(|o| o.rank)
            .collect()
    }
}

/// The job launcher.
pub struct Universe;

impl Universe {
    /// Launch `cluster.total_ranks()` rank threads running `f`.
    ///
    /// `f` is invoked once per rank. A rank returning `Err` signals failure:
    /// with `abort_on_failure` the remaining ranks are aborted. Panics in
    /// `f` are caught, reported as `Killed`, and treated like failures so
    /// the job cannot hang.
    pub fn launch<F>(
        cluster: &Cluster,
        config: UniverseConfig,
        fault: Arc<FaultPlan>,
        f: F,
    ) -> LaunchReport
    where
        F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
    {
        let n = cluster.topology().total_ranks();
        let router = Router::new(cluster.clone());

        // Storage/backend faults in the schedule are delivered through the
        // cluster's injector hook, which the VeloC storage path consults.
        // Installed only when present so launches with a kills-only plan
        // leave any externally installed injector alone.
        if fault.has_injections() {
            let injector: Arc<dyn cluster::FaultInjector> = Arc::clone(&fault) as _;
            cluster.set_injector(Some(injector));
        }

        // DES backend: build the scheduler on the cluster's virtual clock
        // (or a private one when the cluster runs on the wall), attach it
        // to the router so waits become yields, let the dispatcher ask the
        // router whether a parked receive would do anything but yield
        // again, and make deadlock abort the job as a typed outcome instead
        // of hanging.
        let sched = match config.backend {
            Backend::Threads => None,
            Backend::Des { seed } => {
                let clock = if cluster.clock().is_virtual() {
                    Arc::clone(cluster.clock())
                } else {
                    Arc::new(cluster::Clock::virtual_at(0))
                };
                let s = Scheduler::new(n, seed, clock);
                router.set_sched(Some(Arc::clone(&s)));
                let r = Arc::clone(&router);
                s.set_ready_probe(move |rank| r.would_run(rank));
                let r = Arc::clone(&router);
                s.set_deadlock_hook(move || r.abort());
                Some(s)
            }
        };

        // Driver-side sleeps during a DES launch (the startup charge here,
        // teardown charges in relaunch loops) advance the virtual clock
        // instead of parking the launching thread.
        let _driver_sleeper = sched.as_ref().map(|s| {
            let clock = Arc::clone(s.clock());
            cluster::install_virtual_sleeper(Arc::new(move |modeled: Duration| {
                clock.advance(modeled.as_nanos().min(u128::from(u64::MAX)) as u64);
            }))
        });

        if config.charge_startup {
            let startup = cluster.config().relaunch.startup(n);
            cluster.time_scale().sleep(startup);
        }

        // The launch's one clock: its wall time, and every phase a
        // hub-less recorder books, are differences of its readings.
        let clock = Arc::clone(sched.as_ref().map_or(cluster.clock(), |s| s.clock()));
        let phase_time = {
            let clock = Arc::clone(&clock);
            TimeSource::External(Arc::new(move || clock.now_ns()))
        };
        let start_ns = clock.now_ns();
        let tier_keys = || cluster.pfs().keys_examined() + cluster.scratch().keys_examined();
        let tier_keys_before = tier_keys();
        let mut outcomes: Vec<Option<RankOutcome>> = Vec::new();
        outcomes.resize_with(n, || None);

        // One world group for all ranks' handles.
        let world_group = Arc::new(Group::new((0..n).collect()));
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let router = Arc::clone(&router);
                let world_group = Arc::clone(&world_group);
                let fault = Arc::clone(&fault);
                let f = &f;
                let config = &config;
                let sched = sched.clone();
                let phase_time = &phase_time;
                handles.push(scope.spawn(move || {
                    // Under DES this rank is a cooperative task: its modeled
                    // sleeps become scheduler events, and it runs only while
                    // it holds the baton.
                    let _rank_sleeper = sched.as_ref().map(|s| {
                        let s = Arc::clone(s);
                        cluster::install_virtual_sleeper(Arc::new(move |modeled: Duration| {
                            s.sleep(rank, modeled);
                        }))
                    });
                    if let Some(s) = &sched {
                        s.wait_for_start(rank);
                    }
                    let recorder = Arc::new(match &config.telemetry {
                        Some(tel) => {
                            let rec = tel.recorder(rank);
                            router.set_recorder(rank, rec.clone());
                            rec
                        }
                        None => Recorder::phases_only(phase_time.clone()),
                    });
                    let mut ctx = RankCtx {
                        rank,
                        world: Comm::on_group(Arc::clone(&router), 0, 0, world_group, rank),
                        router: Arc::clone(&router),
                        fault,
                        recorder: Arc::clone(&recorder),
                    };
                    let result = match std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                        Ok(r) => r,
                        Err(_) => {
                            // A panicking rank is indistinguishable from a
                            // crash: mark it dead so peers observe it.
                            router.kill(rank);
                            Err(MpiError::Killed)
                        }
                    };
                    if result.is_err() && config.abort_on_failure {
                        router.abort();
                    }
                    if let Some(s) = &sched {
                        // Release the baton for good: the next event (or
                        // the deadlock hook) takes over.
                        s.finish(rank);
                    }
                    RankOutcome {
                        rank,
                        result,
                        recorder,
                    }
                }));
            }
            if let Some(s) = &sched {
                // All rank threads exist (parked on their batons): seed a
                // start event per task and dispatch the first. The launch
                // then runs entirely on baton hand-offs.
                s.start();
            }
            for (rank, h) in handles.into_iter().enumerate() {
                let outcome = h.join().unwrap_or_else(|_| RankOutcome {
                    rank,
                    result: Err(MpiError::Killed),
                    recorder: Arc::default(),
                });
                outcomes[rank] = Some(outcome);
            }
        });

        // Break the scheduler↔router reference cycle.
        if let Some(s) = &sched {
            router.set_sched(None);
            s.clear_hooks();
        }
        let wall = Duration::from_nanos(clock.now_ns().saturating_sub(start_ns));

        // The launch's work counts reach the metrics registry here, once:
        // nothing on the event path knows whether telemetry is on.
        if let Some(tel) = &config.telemetry {
            let m = tel.metrics();
            if let Some(s) = &sched {
                let st = s.stats();
                m.counter(names::SCHED_EVENTS_DISPATCHED)
                    .add(st.handoffs + st.self_dispatches);
                m.counter(names::SCHED_HANDOFFS).add(st.handoffs);
                m.counter(names::SCHED_SELF_DISPATCHES)
                    .add(st.self_dispatches);
                m.counter(names::SCHED_STALE_SKIPPED).add(st.stale_skipped);
                m.counter(names::SCHED_UNREADY_SKIPPED)
                    .add(st.unready_skipped);
                m.counter(names::SCHED_WAKE_ALL_CALLS)
                    .add(st.wake_all_calls);
                let peak = m.gauge(names::SCHED_PEAK_HEAP_DEPTH);
                peak.set(peak.get().max(st.peak_heap_depth as i64));
            }
            let counts = &router.counts;
            m.counter(names::SIMMPI_PURGE_MAILBOXES)
                .add(counts.purge_mailboxes.load(Ordering::Relaxed));
            m.counter(names::SIMMPI_RENDEZVOUS_SCANNED)
                .add(counts.rendezvous_scanned.load(Ordering::Relaxed));
            m.counter(names::SIMMPI_RENDEZVOUS_IN_FLIGHT)
                .add(router.agreements_in_flight() as u64);
            m.counter(names::CLUSTER_TIER_KEYS_EXAMINED)
                .add(tier_keys() - tier_keys_before);
        }

        LaunchReport {
            outcomes: outcomes.into_iter().map(|o| o.expect("joined")).collect(),
            wall,
            aborted: router.is_aborted(),
        }
    }
}
