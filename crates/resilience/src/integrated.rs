//! The single-initialization integrated API — the paper's Future Work
//! §VII.A: "This would remove the need for two resilience initialization
//! steps, and further lower the amount of control-flow modifications needed
//! for implementing the combination of Fenix and Kokkos Resilience."
//!
//! [`resilient_main`] is that combination: one call sets up Fenix process
//! recovery *and* the Kokkos Resilience context, wires the repair →
//! `reset(new_comm)` → recovery plumbing of Figure 4 internally, and hands
//! the application a [`ResilientScope`] with everything it needs. Compare
//! `examples/quickstart.rs` (two explicit initializations, manual reset
//! logic) with `examples/integrated_api.rs` (this entry point).
//!
//! It is also the only Figure 4 loop in this crate: the experiment runner
//! executes `Strategy::FenixKokkosResilience` and `PartialRollback` through
//! it, so every chaos schedule, determinism test and benchmark workload
//! exercises the function a library user calls.

use std::cell::RefCell;

use fenix::{ExhaustPolicy, Fenix, FenixConfig, Role, RunSummary};
use kokkos_resilience::{
    CheckpointFilter, CheckpointOutcome, Context, ContextConfig, DataBackend, RecoveryScope,
    VelocBackend,
};
use simmpi::{Comm, MpiError, MpiResult, Phase, RankCtx};

use crate::redstore_backend::RedstoreBackend;

/// Which data layer the integrated runtime drives.
#[derive(Clone, Debug)]
pub enum IntegratedBackend {
    /// VeloC, agreeing over the resilient communicator — the paper's
    /// published configuration.
    Veloc,
    /// Peer memory as a KR backend — the future-work configuration: the
    /// redundancy store's k-replica or erasure-coded placement groups.
    /// `mode = Some(Replicate { k: 2 })` is Fenix's buddy-rank IMR;
    /// `mode = None` picks the strongest topology-feasible mode.
    Redstore {
        mode: Option<redstore::RedundancyMode>,
    },
}

impl IntegratedBackend {
    /// This rank's storage tier. The one constructor behind both users of a
    /// tier: the context [`resilient_main`] creates and the experiment
    /// runner's manual control flow. Build it once per rank and keep it
    /// across Fenix re-entries: peer memory lives in it.
    pub(crate) fn tier(&self, ctx: &RankCtx) -> Box<dyn DataBackend> {
        match self {
            IntegratedBackend::Veloc => Box::new(VelocBackend::new(ctx.cluster(), ctx.rank())),
            IntegratedBackend::Redstore { mode } => {
                Box::new(RedstoreBackend::new(redstore::RedStore::new(), *mode))
            }
        }
    }
}

/// Configuration for [`resilient_main`].
#[derive(Clone, Debug)]
pub struct IntegratedConfig {
    /// Checkpoint-set namespace.
    pub name: String,
    /// Spare ranks held out of the resilient communicator.
    pub spares: usize,
    pub filter: CheckpointFilter,
    pub backend: IntegratedBackend,
    /// View labels excluded as aliases.
    pub aliases: Vec<String>,
    pub on_exhaustion: ExhaustPolicy,
    /// Partial rollback: only replacement ranks restore checkpoint data
    /// (requires a convergence-tolerant application; VeloC backend only).
    pub partial_rollback: bool,
}

impl Default for IntegratedConfig {
    fn default() -> Self {
        IntegratedConfig {
            name: "app".into(),
            spares: 1,
            filter: CheckpointFilter::Always,
            backend: IntegratedBackend::Veloc,
            aliases: Vec::new(),
            on_exhaustion: ExhaustPolicy::Abort,
            partial_rollback: false,
        }
    }
}

/// Everything the application body needs, in one handle.
pub struct ResilientScope<'a> {
    comm: &'a Comm,
    role: Role,
    fenix: &'a Fenix,
    kr: &'a Context,
}

impl ResilientScope<'_> {
    /// The resilient communicator.
    pub fn comm(&self) -> &Comm {
        self.comm
    }

    /// This rank's role on (re-)entry.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Repairs performed so far.
    pub fn repair_count(&self) -> u64 {
        self.fenix.repair_count()
    }

    /// Communicator ranks replaced in the last repair.
    pub fn recovered_ranks(&self) -> Vec<usize> {
        self.fenix.recovered_ranks()
    }

    /// The underlying Kokkos Resilience context (statistics, aliases…).
    pub fn context(&self) -> &Context {
        self.kr
    }

    /// The version a loop of `max_iterations` resumes after (collective;
    /// see [`kokkos_resilience::Context::restart_version`]).
    pub fn restart_version(&self, label: &str, max_iterations: u64) -> MpiResult<Option<u64>> {
        self.kr.restart_version(label, max_iterations)
    }

    /// Execute a checkpoint region (see
    /// [`kokkos_resilience::Context::checkpoint`]).
    pub fn checkpoint<F>(
        &self,
        label: &str,
        iteration: u64,
        body: F,
    ) -> MpiResult<CheckpointOutcome>
    where
        F: FnMut() -> MpiResult<()>,
    {
        self.kr.checkpoint(label, iteration, body)
    }

    /// Drain asynchronous checkpoint work.
    pub fn checkpoint_wait(&self) {
        self.kr.checkpoint_wait();
    }
}

/// Run `body` under the fully integrated resilience stack with a single
/// initialization call.
///
/// Internally this is Figure 4's pattern: Fenix owns process recovery; on
/// every (re-)entry the Kokkos Resilience context is created or
/// `reset(res_comm)` and (when configured) the partial-rollback recovery
/// scope is armed from Fenix's replaced-rank list. `body` may be re-invoked
/// after failures — it must derive its starting iteration from
/// [`ResilientScope::restart_version`].
///
/// Partial rollback needs per-rank storage, so combining it with
/// [`IntegratedBackend::Redstore`] is rejected with [`MpiError::Aborted`]
/// on every rank before any of them enters Fenix.
pub fn resilient_main<F>(
    ctx: &RankCtx,
    config: IntegratedConfig,
    mut body: F,
) -> MpiResult<RunSummary>
where
    F: FnMut(&ResilientScope<'_>) -> MpiResult<()>,
{
    if config.partial_rollback && !matches!(config.backend, IntegratedBackend::Veloc) {
        return Err(MpiError::Aborted);
    }
    let fenix_cfg = FenixConfig {
        spares: config.spares,
        on_exhaustion: config.on_exhaustion,
    };
    let kr_cell: RefCell<Option<Context>> = RefCell::new(None);

    let summary = fenix::run(ctx.world(), fenix_cfg, |fx, comm, role| {
        if kr_cell.borrow().is_none() {
            let kr = ctx.recorder().time(Phase::ResilienceInit, || {
                let kr_config = ContextConfig {
                    name: config.name.clone(),
                    filter: config.filter.clone(),
                    aliases: config.aliases.clone(),
                };
                Context::with_backend(comm.clone(), kr_config, config.backend.tier(ctx))
            });
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

        if role != Role::Initial && config.partial_rollback {
            kr.set_recovery_scope(RecoveryScope::OnlyRanks(fx.recovered_ranks()));
        }

        let scope = ResilientScope {
            comm,
            role,
            fenix: fx,
            kr,
        };
        body(&scope)
    })?;

    if let Some(kr) = kr_cell.borrow().as_ref() {
        kr.checkpoint_wait();
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_published_configuration() {
        let c = IntegratedConfig::default();
        assert!(matches!(c.backend, IntegratedBackend::Veloc));
        assert_eq!(c.spares, 1);
        assert!(!c.partial_rollback);
    }

    #[test]
    fn partial_rollback_over_peer_memory_is_rejected_before_fenix() {
        let cluster = cluster::Cluster::new(cluster::ClusterConfig {
            nodes: 3,
            time_scale: cluster::TimeScale::instant(),
            ..cluster::ClusterConfig::default()
        });
        let entered = std::sync::atomic::AtomicBool::new(false);
        let report = simmpi::Universe::launch(
            &cluster,
            simmpi::UniverseConfig::default(),
            std::sync::Arc::new(simmpi::FaultPlan::none()),
            |ctx| {
                let config = IntegratedConfig {
                    backend: IntegratedBackend::Redstore { mode: None },
                    partial_rollback: true,
                    ..IntegratedConfig::default()
                };
                resilient_main(ctx, config, |_scope| {
                    entered.store(true, std::sync::atomic::Ordering::Relaxed);
                    Ok(())
                })
                .map(|_| ())
            },
        );
        for outcome in &report.outcomes {
            assert_eq!(outcome.result, Err(MpiError::Aborted), "{outcome:?}");
        }
        assert!(!entered.load(std::sync::atomic::Ordering::Relaxed));
    }
}
