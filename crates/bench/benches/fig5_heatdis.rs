//! Figure 5 benchmarks: Heatdis checkpoint overhead and recovery cost per
//! strategy, against data size and rank count.
//!
//! Criterion measures the full experiment wall time at instant model
//! timescale, so differences reflect algorithmic/protocol cost (copies,
//! serialization, message counts), not modeled sleeps. The *shape* across
//! strategies and sizes mirrors the paper's panels; the harness `fig5`
//! binary produces the modeled-time version.

use std::sync::Arc;

use apps::Heatdis;
use bench::bench_cluster;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::FaultPlan;

fn cfg(strategy: Strategy) -> ExperimentConfig {
    ExperimentConfig {
        backend: Default::default(),
        strategy,
        spares: 1,
        checkpoints: 6,
        max_relaunches: 4,
        redundancy: None,
        fresh_storage: true,
        telemetry: None,
    }
}

fn fig5_data_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_left_data_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for kb in [64usize, 256, 1024] {
        for strategy in [
            Strategy::Unprotected,
            Strategy::KokkosResilience,
            Strategy::FenixKokkosResilience,
            Strategy::FenixImr,
        ] {
            let nodes = if strategy.uses_fenix() { 5 } else { 4 };
            let cluster = bench_cluster(nodes);
            let app = Heatdis::fixed(kb * 1024, 128, 30);
            group.bench_with_input(
                BenchmarkId::new(strategy.label().replace(' ', "_"), kb),
                &kb,
                |b, _| {
                    b.iter(|| {
                        run_experiment(&cluster, &app, &cfg(strategy), Arc::new(FaultPlan::none()))
                    })
                },
            );
        }
    }
    group.finish();
}

fn fig5_weak_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_right_weak_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for ranks in [2usize, 4, 8] {
        for strategy in [Strategy::KokkosResilience, Strategy::FenixKokkosResilience] {
            let nodes = if strategy.uses_fenix() {
                ranks + 1
            } else {
                ranks
            };
            let cluster = bench_cluster(nodes);
            let app = Heatdis::fixed(256 * 1024, 128, 30);
            group.bench_with_input(
                BenchmarkId::new(strategy.label().replace(' ', "_"), ranks),
                &ranks,
                |b, _| {
                    b.iter(|| {
                        run_experiment(&cluster, &app, &cfg(strategy), Arc::new(FaultPlan::none()))
                    })
                },
            );
        }
    }
    group.finish();
}

fn fig5_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_failure_recovery");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for strategy in [
        Strategy::KokkosResilience,
        Strategy::FenixKokkosResilience,
        Strategy::FenixImr,
    ] {
        let nodes = if strategy.uses_fenix() { 5 } else { 4 };
        let app = Heatdis::fixed(256 * 1024, 128, 30);
        group.bench_function(strategy.label().replace(' ', "_"), |b| {
            b.iter(|| {
                // A fresh fault plan per iteration so the kill re-fires.
                let cluster = bench_cluster(nodes);
                run_experiment(
                    &cluster,
                    &app,
                    &cfg(strategy),
                    Arc::new(FaultPlan::kill_at(2, "iter", 23)),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(fig5, fig5_data_scaling, fig5_weak_scaling, fig5_recovery);
criterion_main!(fig5);
