//! Heatdis's stencil sweep at the `heatdis_ckpt` rank shape: 2,048 owned
//! rows of 512 columns (16 MiB of application data per rank, two buffers),
//! twelve sweeps per sample, as many as one run makes.
//!
//! * `sweep` — `jacobi_sweep_in_place`, the kernel Heatdis runs: in place,
//!   two carried rows, the largest change in four lanes;
//! * `sweep_reference` — `jacobi_sweep_reference`, the two-buffer sweep
//!   with one running maximum and a copy-back, which it is property-tested
//!   against (`apps/tests/stencil_props.rs`).
//!
//! Both start every sample from the same irregular field (copied in
//! untimed), and this target asserts before timing that twelve sweeps of
//! each leave the same grid and the same largest changes, bit for bit.
//! Writes `target/BENCH_heatdis.json` (median and minimum ns per config);
//! `scripts/bench_gate.sh` holds the kernel to its oracle within that run.

use apps::heatdis::{jacobi_sweep_in_place, jacobi_sweep_reference, SweepResult};
use bench::{elapsed_ns, measure, write_results};

const ROWS: usize = 2048;
const COLS: usize = 512;
const SWEEPS: usize = 12;
const SAMPLES: usize = 21;
const WARMUP: usize = 3;

/// The signature both sweeps share: the grid, then the kernel's buffer.
type Sweep = fn(&mut [f64], &mut [f64], usize, usize) -> SweepResult;

/// `SWEEPS` sweeps of `grid`, returning each sweep's largest change.
fn run(f: Sweep, grid: &mut [f64], buf: &mut [f64]) -> Vec<f64> {
    (0..SWEEPS)
        .map(|_| f(grid, buf, ROWS, COLS).max_delta)
        .collect()
}

fn main() {
    // Cell `k` at `100 · frac(k · φ)`: a fixed field with no smooth
    // regions, halo rows included.
    let phi = 0.5 * (1.0 + 5f64.sqrt());
    let start: Vec<f64> = (0..(ROWS + 2) * COLS)
        .map(|k| 100.0 * (k as f64 * phi).fract())
        .collect();
    let kernels: [(&str, Sweep, usize); 2] = [
        ("sweep", jacobi_sweep_in_place, 2 * COLS),
        ("sweep_reference", jacobi_sweep_reference, start.len()),
    ];
    let [fast, oracle] = kernels.map(|(_, f, buf_len)| {
        let mut grid = start.clone();
        let deltas = run(f, &mut grid, &mut vec![0.0; buf_len]);
        grid.extend(deltas);
        grid.into_iter().map(f64::to_bits)
    });
    assert!(
        fast.eq(oracle),
        "the in-place sweep differs from its oracle"
    );

    let mut lines = Vec::new();
    for (name, f, buf_len) in kernels {
        let (mut grid, mut buf) = (start.clone(), vec![0.0; buf_len]);
        let t = measure(WARMUP, SAMPLES, || {
            grid.copy_from_slice(&start);
            elapsed_ns(|| run(f, &mut grid, &mut buf))
        });
        println!(
            "{name:<16} median {:>10} ns  min {:>10} ns ({SWEEPS} sweeps of {ROWS} x {COLS})",
            t.median_ns, t.min_ns
        );
        lines.push(format!(
            "{{\"name\":\"{name}\",\"median_ns\":{},\"min_ns\":{}}}",
            t.median_ns, t.min_ns
        ));
    }
    write_results(
        "heatdis",
        &format!("\"bench\":\"heatdis\",\"rows\":{ROWS},\"cols\":{COLS},\"sweeps\":{SWEEPS}"),
        &lines,
    );
}
