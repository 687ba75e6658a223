//! A repair's per-rank work does not grow with the rank count.
//!
//! Host-time free: Heatdis + Fenix/KR with one kill on the DES backend at
//! 64 and at 256 active ranks, comparing the work counts each launch
//! flushes into the telemetry registry. What one rank does for version
//! discovery, for the post-repair purge and for picking a rendezvous result
//! up must be the same at both sizes — a per-rank scan over all ranks shows
//! as a 4× larger count at the larger one — and the member lists of the
//! resilient communicator are built as often at both.

use std::sync::Arc;

use apps::Heatdis;
use cluster::{Cluster, ClusterConfig, RelaunchModel};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::{Backend, FaultPlan};
use telemetry::{names, Telemetry, TelemetryConfig};

const SPARES: usize = 8;

/// The scale-smoke shape (8 ranks per node, one spare node, two
/// checkpoints, one kill past the first) at `active` ranks. Returns the
/// counters of the run by name.
fn repaired_run(active: usize) -> impl Fn(&str) -> u64 {
    let cluster = Cluster::new(ClusterConfig {
        nodes: (active + SPARES).div_ceil(8),
        ranks_per_node: 8,
        virtual_time: true,
        relaunch: RelaunchModel::free(),
        ..ClusterConfig::default()
    });
    let hub = Telemetry::new(TelemetryConfig {
        ring_capacity: 1 << 8,
        ..TelemetryConfig::default()
    });
    let rec = run_experiment(
        &cluster,
        &Heatdis::fixed(2 * 8 * 16 * 8, 16, 8),
        &ExperimentConfig {
            strategy: Strategy::FenixKokkosResilience,
            spares: SPARES,
            checkpoints: 2,
            backend: Backend::Des { seed: 64 },
            telemetry: Some(hub.clone()),
            ..ExperimentConfig::default()
        },
        Arc::new(FaultPlan::kill_at(active / 2, "iter", 5)),
    );
    assert_eq!(rec.repairs, 1);
    assert_eq!(rec.iterations, 8);
    let counters = hub.metrics().snapshot().counters;
    move |name| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("counter {name} was not flushed"))
            .1
    }
}

/// A counter, who shares it, how many of them there are at a given number
/// of active ranks, and the tolerated difference per sharer.
type Shared = (&'static str, &'static str, fn(usize) -> usize, f64);

/// All ranks but the victim.
fn survivors(active: usize) -> usize {
    active + SPARES - 1
}

#[test]
fn per_rank_repair_work_is_the_same_at_64_and_256_ranks() {
    let (small, large) = (repaired_run(64), repaired_run(256));
    let shared: [Shared; 3] = [
        // Every active rank discovers versions the same number of times.
        // How many keys one query touches depends on which versions exist
        // when the rank asks, which depends on the schedule, so the
        // averages differ in the second decimal (10.28 and 10.26); one
        // rank's listing of 64 others would add 64.
        (
            names::CLUSTER_TIER_KEYS_EXAMINED,
            "active rank",
            |active| active,
            0.5,
        ),
        // Every survivor purges once.
        (names::SIMMPI_PURGE_MAILBOXES, "survivor", survivors, 0.0),
        // Every survivor picks up both Fenix rendezvous results (repair and
        // finalize) and examines one member each time: itself. A pick-up
        // that recounted the group would add 64 or 256.
        (names::SIMMPI_RENDEZVOUS_SCANNED, "survivor", survivors, 0.0),
    ];
    for (counter, per, sharers, slack) in shared {
        let share = |run: &dyn Fn(&str) -> u64, active: usize| {
            let (total, sharers) = (run(counter), sharers(active));
            println!("{counter}: {total} over {sharers} {per}s");
            assert!(total > 0, "{counter} counted nothing at {active} ranks");
            total as f64 / sharers as f64
        };
        let (at_64, at_256) = (share(&small, 64), share(&large, 256));
        assert!(
            (at_64 - at_256).abs() <= slack,
            "{counter} per {per}: {at_64} at 64 active ranks, {at_256} at 256"
        );
    }
    // The resilient communicator's member list is built once per
    // communicator (at start and at the repair), not by every rank that
    // joins it: a per-rank build would count 64 or 256 times as many.
    let built = |run: &dyn Fn(&str) -> u64| run(names::SIMMPI_GROUPS_BUILT);
    println!(
        "{}: {} at 64 active ranks, {} at 256",
        names::SIMMPI_GROUPS_BUILT,
        built(&small),
        built(&large)
    );
    assert!(built(&small) > 0);
    assert_eq!(built(&small), built(&large));
    // The repaired run leaves no agreement behind: the victim died before
    // the repair rendezvous, waiters saw the publication, and the finalize
    // rendezvous ran among survivors only.
    for run in [&small, &large] {
        assert_eq!(run(names::SIMMPI_RENDEZVOUS_IN_FLIGHT), 0);
        // The scheduler's counts travelled the same way.
        assert!(run(names::SCHED_HANDOFFS) > 0);
    }
}
