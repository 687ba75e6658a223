//! Telemetry overhead on the Heatdis experiment loop.
//!
//! Three configurations of the same fault-free Fenix+KR Heatdis run:
//!
//! * `disabled` — `ExperimentConfig::telemetry = None`, the default. Every
//!   layer still holds `Recorder` handles; they must all short-circuit.
//!   Acceptance (ISSUE): ≤5% overhead vs. the pre-telemetry baseline,
//!   which this configuration *is* — compare against `traced` to see the
//!   cost the flag buys.
//! * `traced` — a live hub recording the event stream (MPI-call tracing
//!   still off, its own default).
//! * `traced_mpi_calls` — additionally records every MPI call, the
//!   high-volume worst case.

use std::sync::Arc;

use apps::Heatdis;
use bench::bench_cluster;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::FaultPlan;
use telemetry::{Telemetry, TelemetryConfig};

fn heatdis_cfg(telemetry: Option<Telemetry>) -> ExperimentConfig {
    ExperimentConfig {
        backend: Default::default(),
        strategy: Strategy::FenixKokkosResilience,
        spares: 1,
        checkpoints: 6,
        max_relaunches: 2,
        redundancy: None,
        fresh_storage: true,
        telemetry,
    }
}

fn telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead_heatdis");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));

    let make_tel = |mpi: bool| {
        Telemetry::new(TelemetryConfig {
            record_mpi_calls: mpi,
            ..TelemetryConfig::default()
        })
    };
    type TelFactory = Box<dyn Fn() -> Option<Telemetry>>;
    let variants: [(&str, TelFactory); 3] = [
        ("disabled", Box::new(|| None)),
        ("traced", Box::new(move || Some(make_tel(false)))),
        ("traced_mpi_calls", Box::new(move || Some(make_tel(true)))),
    ];

    for (name, telemetry) in &variants {
        let cluster = bench_cluster(5);
        let app = Heatdis::fixed(128 * 1024, 128, 30);
        group.bench_with_input(BenchmarkId::new("heatdis", name), name, |b, _| {
            b.iter(|| {
                // A fresh hub per iteration: rings stay bounded and the
                // registration cost is part of what the flag buys.
                let cfg = heatdis_cfg(telemetry());
                run_experiment(&cluster, &app, &cfg, Arc::new(FaultPlan::none()))
            })
        });
    }
    group.finish();
}

criterion_group!(overhead, telemetry_overhead);
criterion_main!(overhead);
