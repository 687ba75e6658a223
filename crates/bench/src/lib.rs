//! Criterion benchmark crate: one bench target per paper table/figure plus
//! ablation studies. See `benches/`. The library hosts shared helpers and
//! the tested decision logic behind the CI bench gate ([`gate`], driven by
//! the `bench_compare` binary over `telemetry::Json`).

pub mod gate;

use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};

/// A small, instant-timescale cluster for microbenchmarks: modeled costs are
/// accounted but not slept, so criterion measures algorithmic cost only.
pub fn bench_cluster(nodes: usize) -> Cluster {
    let cfg = ClusterConfig {
        nodes,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        relaunch: RelaunchModel::free(),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}
