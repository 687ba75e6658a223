//! A run's large buffers serve the next run without faulting a page in
//! again: the Heatdis grids and checkpoint frames a run frees stay in the
//! process's pool. Alone in its binary, so that the process's fault count
//! is this test's; Linux only (`/proc/self/stat`).
#![cfg(target_os = "linux")]

use std::sync::Arc;

use apps::Heatdis;
use cluster::{Cluster, ClusterConfig};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::FaultPlan;

/// Two grids of 3 MiB on each rank: a fresh one faults in one huge page
/// at most and then 256 pages of 4 KiB, a third of its 4 KiB pages.
const PER_RANK_BYTES: usize = 2 * (3 << 20);
const COLS: usize = 256;
const RANKS: usize = 4;
const ITERS: u64 = 8;

/// The process's minor page faults so far: field 10 of `/proc/self/stat`,
/// the 8th after the parenthesised command name.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    let after_name = stat.rsplit_once(')').expect("a command name").1;
    let field = after_name.split_whitespace().nth(7).expect("minflt");
    field.parse().expect("minflt is a count")
}

/// One failure-free DES run of Heatdis under `FenixKokkosResilience`: four
/// active ranks and a spare, three VeloC checkpoints of both grids.
fn run() {
    let c = Cluster::new(ClusterConfig {
        nodes: RANKS + 1,
        ranks_per_node: 1,
        virtual_time: true,
        ..ClusterConfig::default()
    });
    let cfg = ExperimentConfig {
        backend: simmpi::Backend::Des { seed: 5 },
        strategy: Strategy::FenixKokkosResilience,
        spares: 1,
        checkpoints: 3,
        max_relaunches: 0,
        telemetry: None,
    };
    let app = Heatdis::fixed(PER_RANK_BYTES, COLS, ITERS);
    let rec = run_experiment(&c, &app, &cfg, Arc::new(FaultPlan::none()));
    assert_eq!(rec.iterations, ITERS);
}

/// The second of two identical runs faults in under an eighth of its
/// grids' 4 KiB pages: fresh, the grids alone would fault in a third of
/// them again, and every page from the C heap.
#[test]
fn a_second_run_faults_in_almost_none_of_its_grids() {
    run();
    let before = minor_faults();
    run();
    let faults = minor_faults() - before;
    let grid_pages = (RANKS * PER_RANK_BYTES / 4096) as u64;
    assert!(
        faults < grid_pages / 8,
        "the second run faulted in {faults} pages; its grids are {grid_pages}"
    );
}
