//! The process's buffer pool over a coded peer-memory run, counted
//! exactly. The pool is one per process and every test of a binary shares
//! it, so this test is alone in its binary.

use std::sync::Arc;

use apps::Heatdis;
use cluster::pool::PoolStats;
use cluster::{Cluster, ClusterConfig};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::FaultPlan;

/// 4 active ranks and a spare under DES, `FenixRedstore` (RS 2+2 on four
/// nodes), 30 iterations with six checkpoints of a 256 KiB frame, each
/// frame packed and then shipped as three wire frames of 128 KiB; each
/// active rank's two 256 KiB grids are pool buffers too. A version's
/// buffers come back when the next version commits and a run's grids when
/// it ends. Returns the pool's counts after the run.
fn coded_run() -> PoolStats {
    const PER_RANK_BYTES: usize = 2 * 8 * 64 * 512; // 512 rows × 64 cols × 2 buffers
    const ITERS: u64 = 30;
    let c = Cluster::new(ClusterConfig {
        nodes: 5,
        ranks_per_node: 1,
        virtual_time: true,
        ..ClusterConfig::default()
    });
    let cfg = ExperimentConfig {
        backend: simmpi::Backend::Des { seed: 16 },
        strategy: Strategy::FenixRedstore,
        spares: 1,
        checkpoints: 6,
        max_relaunches: 4,
        telemetry: None,
    };
    let app = Heatdis::fixed(PER_RANK_BYTES, 64, ITERS);
    let rec = run_experiment(&c, &app, &cfg, Arc::new(FaultPlan::none()));
    assert_eq!(rec.iterations, ITERS);
    c.pool().stats()
}

/// The first run misses on its eight grids and on the first two
/// versions' frames and is served from the pool after that; the second,
/// identical run is served from the pool throughout, grids included. The
/// counts repeat under DES; a stray clone that keeps a frame alive stops
/// the recycling and moves them. After each run nothing is outstanding,
/// and what the pool retains is within the most ever outstanding at once.
#[test]
fn a_coded_peer_memory_run_recycles_its_checkpoint_buffers() {
    let first = coded_run();
    assert_eq!((first.hits, first.misses), (64, 40), "{first:?}");
    assert_eq!(first.outstanding_bytes, 0, "{first:?}");
    assert!(first.retained_bytes <= first.high_water_bytes, "{first:?}");

    let second = coded_run();
    let run = (second.hits - first.hits, second.misses - first.misses);
    assert_eq!(run, (104, 0), "{second:?}");
    assert_eq!(second.outstanding_bytes, 0, "{second:?}");
    assert_eq!(second.high_water_bytes, first.high_water_bytes);
    assert!(
        second.retained_bytes <= second.high_water_bytes,
        "{second:?}"
    );
}
