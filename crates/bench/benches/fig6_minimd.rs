//! Figure 6 benchmarks: MiniMD under the integrated framework across rank
//! counts, plus per-phase microbenchmarks (force kernel, neighbor build).

use std::sync::Arc;

use apps::minimd::{atoms, force, neighbor};
use apps::MiniMd;
use bench::bench_cluster;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::FaultPlan;

fn fig6_framework_weak_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_minimd_weak_scaling");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for ranks in [2usize, 4] {
        for strategy in [Strategy::KokkosResilience, Strategy::FenixKokkosResilience] {
            let nodes = if strategy.uses_fenix() {
                ranks + 1
            } else {
                ranks
            };
            let cluster = bench_cluster(nodes);
            let app = MiniMd::new([3, 3, 3], 15);
            let cfg = ExperimentConfig {
                backend: Default::default(),
                strategy,
                spares: 1,
                checkpoints: 3,
                max_relaunches: 4,
                redundancy: None,
                fresh_storage: true,
                telemetry: None,
            };
            group.bench_with_input(
                BenchmarkId::new(strategy.label().replace(' ', "_"), ranks),
                &ranks,
                |b, _| b.iter(|| run_experiment(&cluster, &app, &cfg, Arc::new(FaultPlan::none()))),
            );
        }
    }
    group.finish();
}

fn phase_kernels(c: &mut Criterion) {
    // Standalone single-rank kernels: the compute behind the Force Compute
    // and Neighboring bars.
    let cells = [4usize, 4, 4];
    let slab = atoms::Slab::new(0, 1, cells);
    let init = atoms::generate_slab_atoms(0, 1, cells);
    let n = init.len();
    let mut x = vec![0.0f64; 3 * n];
    let ids: Vec<u64> = init.iter().map(|a| a.id).collect();
    for (i, a) in init.iter().enumerate() {
        x[3 * i..3 * i + 3].copy_from_slice(&a.pos);
    }
    let cutneigh = 2.8f64;
    let grid = neighbor::BinGrid::new(&slab, cutneigh);
    let cap = grid.suggested_bin_cap(atoms::DENSITY) * 2;
    let maxneigh = 192;
    let mut bc = vec![0u32; grid.total_bins()];
    let mut ba = vec![0u32; grid.total_bins() * cap];
    let mut ncount = vec![0u32; n];
    let mut nlist = vec![0u32; n * maxneigh];

    let mut group = c.benchmark_group("fig6_phase_kernels");
    group.bench_function("neighboring_bins_and_lists", |b| {
        b.iter(|| {
            neighbor::build_bins(&grid, &x, n, &mut bc, &mut ba, cap);
            neighbor::build_neighbors(
                &grid,
                &slab,
                &x,
                &ids,
                n,
                &bc,
                &ba,
                cap,
                cutneigh * cutneigh,
                &mut ncount,
                &mut nlist,
                maxneigh,
            )
        })
    });

    neighbor::build_bins(&grid, &x, n, &mut bc, &mut ba, cap);
    neighbor::build_neighbors(
        &grid,
        &slab,
        &x,
        &ids,
        n,
        &bc,
        &ba,
        cap,
        cutneigh * cutneigh,
        &mut ncount,
        &mut nlist,
        maxneigh,
    );
    let mut f = vec![0.0f64; 3 * n];
    group.bench_function("force_compute_lj", |b| {
        b.iter(|| force::compute_lj(&slab, &x, n, &ncount, &nlist, maxneigh, 6.25, &mut f))
    });
    group.finish();
}

criterion_group!(fig6, fig6_framework_weak_scaling, phase_kernels);
criterion_main!(fig6);
