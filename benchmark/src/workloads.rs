//! The four workloads: shapes, and why each was chosen.
//!
//! Every workload is a *pass*: one `Strategy::Unprotected` reference run,
//! then for the headline strategy (and the alternative, where there is one)
//! a run without failures and a run with one rank killed at `kill_iter`.
//! Each run gets a fresh virtual-time cluster; only the seed-derived fault
//! plan reaches the program.

use std::sync::Arc;

use apps::{Heatdis, MiniMd};
use cluster::{Cluster, ClusterConfig};
use resilience::{IterativeApp, Strategy};
use simmpi::FaultPlan;

/// Which application a workload runs, with its size.
#[derive(Clone, Copy, Debug)]
pub enum AppSpec {
    Heatdis {
        per_rank_bytes: usize,
        cols: usize,
        iterations: u64,
    },
    MiniMd {
        cells: [usize; 3],
        iterations: u64,
    },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`; the long form is in the README.
    pub why: &'static str,
    pub app: AppSpec,
    pub active: usize,
    /// Spare ranks, present only under Fenix strategies.
    pub spares: usize,
    pub ranks_per_node: usize,
    pub checkpoints: u64,
    pub kill_iter: u64,
    /// Fault scenarios (DES seed and victim) one untraced run measures, each
    /// in a process of its own. Where the cost of a repair depends on which
    /// of its node's slots the victim holds, one scenario is not the
    /// workload: a run covers every slot.
    pub scenarios: usize,
    /// The strategy the virtual end-to-end metrics are taken from.
    pub headline: Strategy,
    pub alt: Option<Strategy>,
    /// Telemetry ring slots per rank in the traced pass: large enough that
    /// nothing is dropped, small enough that 1,032 rings fit in memory.
    pub ring_capacity: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "heatdis_ckpt",
        why: "8 MiB checkpoints on 8 ranks: the KR capture, veloc pack/CRC, scratch, PFS flush and restart path does most of the work, ~400 MPI calls in total",
        app: AppSpec::Heatdis {
            per_rank_bytes: 16 << 20,
            cols: 512,
            iterations: 12,
        },
        active: 8,
        spares: 1,
        ranks_per_node: 1,
        checkpoints: 6,
        kill_iter: 9,
        scenarios: 2,
        headline: Strategy::FenixKokkosResilience,
        alt: None,
        ring_capacity: 1 << 16,
    },
    Workload {
        name: "heatdis_scale",
        why: "2 KiB per rank on 1,024 ranks: veloc is negligible; router and rendezvous wake fan-out, the scheduler baton and Fenix repair dominate",
        app: AppSpec::Heatdis {
            per_rank_bytes: 2048,
            cols: 16,
            iterations: 8,
        },
        active: 1024,
        spares: 8,
        ranks_per_node: 8,
        checkpoints: 2,
        kill_iter: 5,
        scenarios: 8,
        headline: Strategy::FenixKokkosResilience,
        alt: None,
        ring_capacity: 1 << 10,
    },
    Workload {
        name: "minimd_relaunch",
        why: "MiniMD, compute-bound, KR detects regions over its many views; the only workload with the relaunch loop and collective veloc restart from the PFS",
        app: AppSpec::MiniMd {
            cells: [6, 6, 6],
            iterations: 40,
        },
        active: 8,
        spares: 1,
        ranks_per_node: 1,
        checkpoints: 6,
        kill_iter: 29,
        scenarios: 2,
        headline: Strategy::FenixKokkosResilience,
        alt: Some(Strategy::KokkosResilience),
        ring_capacity: 1 << 16,
    },
    Workload {
        name: "heatdis_inmem",
        why: "checkpoints go to peer memory as MiB messages through simmpi and the redstore codec; veloc and the PFS stay idle, so data-path changes predict no change here",
        app: AppSpec::Heatdis {
            per_rank_bytes: 4 << 20,
            cols: 512,
            iterations: 24,
        },
        active: 16,
        spares: 2,
        ranks_per_node: 2,
        checkpoints: 6,
        kill_iter: 19,
        scenarios: 2,
        headline: Strategy::FenixImr,
        alt: Some(Strategy::FenixRedstore),
        ring_capacity: 1 << 16,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A run's place in the pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    Ref,
    Nf,
    Fail,
    AltNf,
    AltFail,
}

impl Role {
    pub fn name(self) -> &'static str {
        match self {
            Role::Ref => "ref",
            Role::Nf => "nf",
            Role::Fail => "fail",
            Role::AltNf => "alt_nf",
            Role::AltFail => "alt_fail",
        }
    }

    pub fn injects_failure(self) -> bool {
        matches!(self, Role::Fail | Role::AltFail)
    }
}

impl Workload {
    /// The runs of one pass, in execution order.
    pub fn roles(&self) -> Vec<Role> {
        let mut roles = vec![Role::Ref, Role::Nf, Role::Fail];
        if self.alt.is_some() {
            roles.extend([Role::AltNf, Role::AltFail]);
        }
        roles
    }

    pub fn strategy(&self, role: Role) -> Strategy {
        match role {
            Role::Ref => Strategy::Unprotected,
            Role::Nf | Role::Fail => self.headline,
            Role::AltNf | Role::AltFail => self.alt.expect("role exists only with an alt strategy"),
        }
    }

    pub fn build_app(&self) -> Box<dyn IterativeApp> {
        match self.app {
            AppSpec::Heatdis {
                per_rank_bytes,
                cols,
                iterations,
            } => Box::new(Heatdis::fixed(per_rank_bytes, cols, iterations)),
            AppSpec::MiniMd { cells, iterations } => Box::new(MiniMd::new(cells, iterations)),
        }
    }

    pub fn iterations(&self) -> u64 {
        match self.app {
            AppSpec::Heatdis { iterations, .. } | AppSpec::MiniMd { iterations, .. } => iterations,
        }
    }

    /// Cell updates (Heatdis) or atom steps (MiniMD) of one complete run.
    pub fn work_units(&self) -> u64 {
        let per_rank_step = match self.app {
            AppSpec::Heatdis {
                per_rank_bytes,
                cols,
                ..
            } => Heatdis::fixed(per_rank_bytes, cols, 1).rows_per_rank() * cols,
            AppSpec::MiniMd { cells, .. } => MiniMd::new(cells, 1).atoms_per_rank(),
        };
        per_rank_step as u64 * self.active as u64 * self.iterations()
    }

    /// Bytes of one halo message between neighbouring ranks.
    pub fn halo_bytes(&self) -> usize {
        match self.app {
            AppSpec::Heatdis { cols, .. } => cols * 8,
            // One face of ghost atoms: positions of a y×z layer of unit cells.
            AppSpec::MiniMd { cells, .. } => 4 * cells[1] * cells[2] * 3 * 8,
        }
    }

    /// Ranks in the job under `strategy`: spares exist only under Fenix.
    pub fn total_ranks(&self, strategy: Strategy) -> usize {
        self.active
            + if strategy.uses_fenix() {
                self.spares
            } else {
                0
            }
    }

    /// A fresh virtual-time cluster sized for `strategy`.
    pub fn cluster(&self, strategy: Strategy) -> Cluster {
        Cluster::new(ClusterConfig {
            nodes: self.total_ranks(strategy).div_ceil(self.ranks_per_node),
            ranks_per_node: self.ranks_per_node,
            virtual_time: true,
            ..ClusterConfig::default()
        })
    }

    /// The seed of scenario `i` of a run started with `--seed seed`. No two
    /// runs share a scenario, and one run's scenarios are consecutive seeds,
    /// so consecutive victims: on `heatdis_scale` one in each of a node's
    /// eight slots, which is what the cost of its repair depends on.
    pub fn scenario_seed(&self, seed: u64, i: usize) -> u64 {
        seed.wrapping_mul(self.scenarios as u64)
            .wrapping_add(i as u64)
    }

    /// The rank the fault plan kills: never rank 0, always an active rank.
    pub fn victim(&self, seed: u64) -> usize {
        1 + (seed % (self.active as u64 - 1)) as usize
    }

    pub fn plan(&self, role: Role, seed: u64) -> Arc<FaultPlan> {
        Arc::new(if role.injects_failure() {
            FaultPlan::kill_at(self.victim(seed), "iter", self.kill_iter)
        } else {
            FaultPlan::none()
        })
    }

    /// Iterations a recovered run executes twice: those between the last
    /// checkpoint before the kill and the kill.
    pub fn iterations_recomputed(&self) -> u64 {
        let filter = self.build_app().checkpoint_filter(self.checkpoints);
        let resume = (0..self.kill_iter)
            .rev()
            .find(|&i| filter.should_checkpoint(i))
            .map_or(0, |i| i + 1);
        self.kill_iter - resume
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victims_are_active_and_never_rank_zero() {
        for w in &WORKLOADS {
            for seed in 0..2 * w.active as u64 {
                let v = w.victim(seed);
                assert!((1..w.active).contains(&v), "{}: victim {v}", w.name);
            }
        }
    }

    #[test]
    fn runs_share_no_scenario_and_a_run_s_victims_fill_a_node() {
        for w in &WORKLOADS {
            let mut seen = std::collections::BTreeSet::new();
            for seed in 0..64 {
                let mut slots = std::collections::BTreeSet::new();
                for i in 0..w.scenarios {
                    let scenario = w.scenario_seed(seed, i);
                    assert!(seen.insert(scenario), "{}: {scenario} twice", w.name);
                    slots.insert(w.victim(scenario) % w.ranks_per_node);
                }
                // Unless the victims wrap around the last active rank.
                if w.victim(w.scenario_seed(seed, 0)) + w.scenarios <= w.active {
                    assert_eq!(slots.len(), w.ranks_per_node.min(w.scenarios), "{}", w.name);
                }
            }
        }
    }

    #[test]
    fn kills_land_after_a_checkpoint_and_before_the_end() {
        for w in &WORKLOADS {
            assert!(w.kill_iter < w.iterations(), "{}", w.name);
            let lost = w.iterations_recomputed();
            assert!(lost > 0 && lost < w.kill_iter, "{}: {lost}", w.name);
        }
    }

    #[test]
    fn whys_fit_the_benchmark_json_limit() {
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
