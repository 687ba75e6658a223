//! Benchmark crate: one bench target per measured path plus the ablation
//! tables (see `benches/`). Every target times every config through the one
//! loop here ([`measure`] over [`elapsed_ns`]) and writes its results with
//! [`write_results`]; the decision logic of the CI bench gate is [`gate`],
//! driven by the `bench_compare` binary over `telemetry::Json`.

pub mod gate;

use std::hint::black_box;
use std::time::Instant;

use cluster::{Cluster, ClusterConfig, RelaunchModel, TimeScale};

/// A small, instant-timescale cluster for microbenchmarks: modeled costs are
/// accounted but not slept, so a bench measures algorithmic cost only.
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

/// What one config's samples reduce to. The gate reads the median, except
/// for microsecond-scale single-threaded kernels, where the low-water mark
/// is the least scheduler-sensitive estimator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Timing {
    pub median_ns: u64,
    pub min_ns: u64,
}

impl Timing {
    /// Reduce a non-empty set of samples.
    pub fn of(mut samples: Vec<u64>) -> Timing {
        samples.sort_unstable();
        Timing {
            median_ns: samples[samples.len() / 2],
            min_ns: samples[0],
        }
    }
}

/// Host nanoseconds of one call of `op`; the result passes through
/// `black_box`, so the work cannot be optimised away.
pub fn elapsed_ns<T>(op: impl FnOnce() -> T) -> u64 {
    let start = Instant::now();
    black_box(op());
    start.elapsed().as_nanos() as u64
}

/// The timed loop: `warmup` samples discarded, then `samples` kept. A
/// sample is whatever `sample` returns, usually `elapsed_ns` of the
/// operation after untimed per-sample setup.
pub fn measure(warmup: usize, samples: usize, mut sample: impl FnMut() -> u64) -> Timing {
    assert!(samples > 0, "a config needs at least one sample");
    for _ in 0..warmup {
        sample();
    }
    Timing::of((0..samples).map(|_| sample()).collect())
}

/// Write `target/BENCH_<name>.json` at the workspace root (benches run with
/// CWD = the package dir): `header` is the document's leading fields, each
/// of `configs` one `{"name":…}` object, kept one per line because
/// `scripts/ci.sh` reads single fields out with `sed`.
pub fn write_results(name: &str, header: &str, configs: &[String]) {
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target");
    let _unused = std::fs::create_dir_all(&out);
    let path = out.join(format!("BENCH_{name}.json"));
    let json = format!(
        "{{{header},\"configs\":[\n  {}\n]}}\n",
        configs.join(",\n  ")
    );
    std::fs::write(&path, json).expect("write bench json");
    println!("bench json written to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_discards_warmup_and_reports_median_and_min() {
        let mut feed = [900, 800, 5, 3, 9, 1, 7].into_iter();
        let t = measure(2, 5, || feed.next().expect("seven samples"));
        assert_eq!(
            t,
            Timing {
                median_ns: 5,
                min_ns: 1
            }
        );
    }

    #[test]
    fn elapsed_ns_grows_with_the_work() {
        let spin = |n: u64| elapsed_ns(|| (0..n).fold(0u64, |a, i| a ^ black_box(i)));
        let short = measure(1, 5, || spin(1_000)).min_ns;
        let long = measure(1, 5, || spin(1_000_000)).min_ns;
        assert!(long > short, "{long} ns for 1000x the work of {short} ns");
    }
}
