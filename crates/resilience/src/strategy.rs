//! The strategy matrix of the paper's §V.A.

/// A complete resilience configuration: which runtime fills each layer and
/// how recovery proceeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// No resilience at all (reference). A failure restarts from scratch.
    Unprotected,
    /// VeloC alone, manual control flow; whole-job relaunch on failure.
    /// The restart agreement runs over the world communicator (what stock
    /// collective VeloC does).
    VelocOnly,
    /// Kokkos Resilience driving VeloC, agreeing over the world
    /// communicator; whole-job relaunch on failure — "Kokkos Resilience
    /// without Fenix".
    KokkosResilience,
    /// Fenix process recovery + VeloC agreeing over the resilient
    /// communicator (the paper's single mode), without Kokkos Resilience
    /// (manual checkpoint management).
    FenixVeloc,
    /// The paper's integrated system: Fenix + Kokkos Resilience + VeloC,
    /// agreeing over the resilient communicator.
    FenixKokkosResilience,
    /// Fenix process recovery + Fenix In-Memory-Redundancy (buddy-rank)
    /// data storage: the redundancy-store tier at two replicas, so every
    /// width-2 placement group is a buddy pair on distinct nodes.
    FenixImr,
    /// Fenix process recovery + the redundancy-store tier: k-replica or
    /// erasure-coded placement groups in peer memory, topology-aware
    /// placement, multi-failure recovery (see the `redstore` crate).
    FenixRedstore,
    /// Integrated system + partial rollback: only recovered ranks restore
    /// checkpoint data; survivors keep in-progress data and the application
    /// iterates to convergence (for tolerant iterative solvers).
    PartialRollback,
}

impl Strategy {
    /// All strategies, in presentation order.
    pub const ALL: [Strategy; 8] = [
        Strategy::Unprotected,
        Strategy::VelocOnly,
        Strategy::KokkosResilience,
        Strategy::FenixVeloc,
        Strategy::FenixKokkosResilience,
        Strategy::FenixImr,
        Strategy::FenixRedstore,
        Strategy::PartialRollback,
    ];

    /// Does this strategy keep processes alive across failures?
    pub fn uses_fenix(self) -> bool {
        matches!(
            self,
            Strategy::FenixVeloc
                | Strategy::FenixKokkosResilience
                | Strategy::FenixImr
                | Strategy::FenixRedstore
                | Strategy::PartialRollback
        )
    }

    /// Does this strategy checkpoint data at all?
    pub fn checkpoints(self) -> bool {
        self != Strategy::Unprotected
    }

    /// Does recovery roll back only the failed rank's data?
    pub fn partial_rollback(self) -> bool {
        self == Strategy::PartialRollback
    }

    /// Short label used in tables (matches the paper's figure labels).
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Unprotected => "Reference",
            Strategy::VelocOnly => "VeloC",
            Strategy::KokkosResilience => "KR (VeloC)",
            Strategy::FenixVeloc => "Fenix+VeloC",
            Strategy::FenixKokkosResilience => "Fenix+KR (VeloC)",
            Strategy::FenixImr => "Fenix IMR",
            Strategy::FenixRedstore => "Fenix RedStore",
            Strategy::PartialRollback => "Partial-Rollback",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fenix_strategies_partition() {
        let fenix: Vec<_> = Strategy::ALL.iter().filter(|s| s.uses_fenix()).collect();
        assert_eq!(fenix.len(), 5);
        assert!(!Strategy::KokkosResilience.uses_fenix());
    }

    #[test]
    fn peer_memory_strategies_are_fenix_strategies() {
        for s in [Strategy::FenixImr, Strategy::FenixRedstore] {
            assert!(s.uses_fenix(), "{s:?} stores in peer memory without Fenix");
        }
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = Strategy::ALL.iter().map(|s| s.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), Strategy::ALL.len());
    }

    #[test]
    fn unprotected_never_checkpoints() {
        assert!(!Strategy::Unprotected.checkpoints());
        assert!(Strategy::ALL.iter().filter(|s| s.checkpoints()).count() == 7);
    }
}
