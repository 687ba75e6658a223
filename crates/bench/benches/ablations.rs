//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * checkpoint-interval sweep ("flexibility is key": the optimal interval
//!   is application-dependent);
//! * IMR vs VeloC checkpoint commit cost against data size (the Figure 5
//!   crossover);
//! * spare-count sensitivity of the Fenix run loop;
//! * collective-operation cost on the simulated MPI (substrate baseline).

use std::sync::Arc;

use apps::Heatdis;
use bench::bench_cluster;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::{FaultPlan, ReduceOp, Universe, UniverseConfig};

fn checkpoint_interval_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_checkpoint_interval");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for checkpoints in [2u64, 6, 15] {
        let cluster = bench_cluster(5);
        let app = Heatdis::fixed(256 * 1024, 128, 30);
        let cfg = ExperimentConfig {
            backend: Default::default(),
            strategy: Strategy::FenixKokkosResilience,
            spares: 1,
            checkpoints,
            max_relaunches: 4,
            redundancy: None,
            fresh_storage: true,
            telemetry: None,
        };
        group.bench_with_input(
            BenchmarkId::new("checkpoints", checkpoints),
            &checkpoints,
            |b, _| b.iter(|| run_experiment(&cluster, &app, &cfg, Arc::new(FaultPlan::none()))),
        );
    }
    group.finish();
}

fn imr_vs_veloc_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_imr_vs_veloc_commit");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for kb in [64usize, 512] {
        for strategy in [Strategy::FenixVeloc, Strategy::FenixImr] {
            let cluster = bench_cluster(5);
            let app = Heatdis::fixed(kb * 1024, 128, 12);
            let cfg = ExperimentConfig {
                backend: Default::default(),
                strategy,
                spares: 1,
                checkpoints: 6,
                max_relaunches: 4,
                redundancy: None,
                fresh_storage: true,
                telemetry: None,
            };
            group.bench_with_input(
                BenchmarkId::new(strategy.label().replace(' ', "_"), kb),
                &kb,
                |b, _| b.iter(|| run_experiment(&cluster, &app, &cfg, Arc::new(FaultPlan::none()))),
            );
        }
    }
    group.finish();
}

fn spare_count_sensitivity(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_spare_count");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for spares in [0usize, 1, 3] {
        let cluster = bench_cluster(4 + spares);
        let app = Heatdis::fixed(128 * 1024, 128, 20);
        let cfg = ExperimentConfig {
            backend: Default::default(),
            strategy: Strategy::FenixKokkosResilience,
            spares,
            checkpoints: 4,
            max_relaunches: 4,
            redundancy: None,
            fresh_storage: true,
            telemetry: None,
        };
        group.bench_with_input(BenchmarkId::new("spares", spares), &spares, |b, _| {
            b.iter(|| run_experiment(&cluster, &app, &cfg, Arc::new(FaultPlan::none())))
        });
    }
    group.finish();
}

fn collective_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_simmpi_collectives");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for ranks in [4usize, 8] {
        let cluster = bench_cluster(ranks);
        group.bench_with_input(BenchmarkId::new("allreduce_x100", ranks), &ranks, |b, _| {
            b.iter(|| {
                let report = Universe::launch(
                    &cluster,
                    UniverseConfig::default(),
                    Arc::new(FaultPlan::none()),
                    |ctx| {
                        let w = ctx.world();
                        for i in 0..100u64 {
                            w.allreduce_scalar(i + ctx.rank() as u64, ReduceOp::Sum)?;
                        }
                        Ok(())
                    },
                );
                assert!(report.all_ok());
            })
        });
    }
    group.finish();
}

criterion_group!(
    ablations,
    checkpoint_interval_sweep,
    imr_vs_veloc_commit,
    spare_count_sensitivity,
    collective_baseline
);
criterion_main!(ablations);
