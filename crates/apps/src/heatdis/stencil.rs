//! The Jacobi relaxation kernel.
//!
//! [`jacobi_sweep_in_place`] is what Heatdis runs: it relaxes the grid row
//! by row in place, carrying the two old rows it still needs in a two-row
//! buffer, and takes the largest cell change in independent lanes — 16
//! where the CPU has `avx512f`, 4 in [`jacobi_sweep_portable`], its
//! compilation for any CPU. [`jacobi_sweep_reference`] is the sweep written
//! the obvious way, into a second grid and copied back; it is kept only as
//! the oracle both compilations are tested against (this module's tests,
//! `apps/tests/stencil_props.rs`) and timed against
//! (`bench/benches/heatdis.rs`), bit for bit.

/// Outcome of one sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SweepResult {
    /// Largest absolute cell change in this sweep.
    pub max_delta: f64,
}

/// One cell's new value from its four neighbours, summed in the order
/// `((left + right) + up) + down`, with its change folded into `lane`.
#[inline(always)]
fn relax(left: f64, right: f64, up: f64, down: f64, old: f64, lane: &mut f64) -> f64 {
    let new = 0.25 * (left + right + up + down);
    *lane = lane.max((new - old).abs());
    new
}

/// Relax one row: `cur` holds its old values, `up` and `down` the old rows
/// around it, `out` receives the new values. The edge cells are one-sided:
/// a missing left or right neighbour is the cell itself.
#[inline(always)]
fn relax_row<const L: usize>(
    up: &[f64],
    cur: &[f64],
    down: &[f64],
    out: &mut [f64],
    lanes: &mut [f64; L],
) {
    let Some(last) = cur.len().checked_sub(1) else {
        return;
    };
    if last == 0 {
        // One column: the cell is both edges.
        out[0] = relax(cur[0], cur[0], up[0], down[0], cur[0], &mut lanes[0]);
        return;
    }
    let mut acc = *lanes;
    out[0] = relax(cur[0], cur[1], up[0], down[0], cur[0], &mut acc[0]);
    let (l, c) = (cur[last - 1], cur[last]);
    out[last] = relax(l, c, up[last], down[last], c, &mut acc[1]);
    // The interior `1..last`, `L` cells at a time: each lane owns every
    // `L`-th cell's change, so no maximum waits on the one before it.
    let n = last - 1;
    let (left, mid, right) = (&cur[..n], &cur[1..=n], &cur[2..n + 2]);
    let (up, down, out) = (&up[1..=n], &down[1..=n], &mut out[1..=n]);
    let (out_l, out_tail) = out.as_chunks_mut::<L>();
    let (left_l, left_tail) = left.as_chunks::<L>();
    let (mid_l, mid_tail) = mid.as_chunks::<L>();
    let (right_l, right_tail) = right.as_chunks::<L>();
    let (up_l, up_tail) = up.as_chunks::<L>();
    let (down_l, down_tail) = down.as_chunks::<L>();
    let chunks = left_l
        .iter()
        .zip(mid_l)
        .zip(right_l)
        .zip(up_l.iter().zip(down_l));
    for (o, (((l, m), r), (u, d))) in out_l.iter_mut().zip(chunks) {
        for k in 0..L {
            o[k] = relax(l[k], r[k], u[k], d[k], m[k], &mut acc[k]);
        }
    }
    for (k, o) in out_tail.iter_mut().enumerate() {
        let (l, m, r) = (left_tail[k], mid_tail[k], right_tail[k]);
        *o = relax(l, r, up_tail[k], down_tail[k], m, &mut acc[k]);
    }
    *lanes = acc;
}

/// The sweep with its largest change in `L ≥ 2` lanes (the two edge cells
/// use lanes 0 and 1). Inlined into each compilation.
#[inline(always)]
fn sweep<const L: usize>(
    grid: &mut [f64],
    rows_buf: &mut [f64],
    rows: usize,
    cols: usize,
) -> SweepResult {
    const { assert!(L >= 2) };
    assert_eq!(grid.len(), (rows + 2) * cols, "grid shape");
    assert_eq!(rows_buf.len(), 2 * cols, "rows_buf shape");
    let (mut up, mut cur) = rows_buf.split_at_mut(cols);
    up.copy_from_slice(&grid[..cols]);
    let mut lanes = [0.0f64; L];
    for r in 1..=rows {
        let (head, tail) = grid.split_at_mut((r + 1) * cols);
        let row = &mut head[r * cols..];
        cur.copy_from_slice(row);
        relax_row(up, cur, &tail[..cols], row, &mut lanes);
        // This row's old values are the next row's `up`.
        std::mem::swap(&mut up, &mut cur);
    }
    SweepResult {
        max_delta: lanes.into_iter().fold(0.0, f64::max),
    }
}

two_compilations! {
    /// One Jacobi sweep over the owned rows `1..=rows` of a `(rows+2) × cols`
    /// grid (rows 0 and `rows+1` are halo, read and left as they are), in
    /// place. `rows_buf` holds two rows: the old row above the one being
    /// written and that row's own old values. Left/right edges use one-sided
    /// (insulated) neighbourhoods.
    ///
    /// Runs the sweep's `avx512f` compilation, 16 lanes wide (two 512-bit
    /// registers of changes; 8 lanes run no faster than the portable 4), where
    /// the CPU has it ([`crate::kernel`]), else [`jacobi_sweep_portable`].
    /// Either is bit-identical to [`jacobi_sweep_reference`] followed by its
    /// copy-back: every cell sums its neighbours in the same order, and the
    /// largest change is the same whichever lane saw it and however many lanes
    /// there are, because `f64::max` over the non-negative, non-`NaN` changes
    /// does not depend on order (a `NaN` change is ignored by both, as
    /// `f64::max` ignores `NaN`).
    pub fn jacobi_sweep_in_place(
        grid: &mut [f64],
        rows_buf: &mut [f64],
        rows: usize,
        cols: usize,
    ) -> SweepResult;
    /// [`jacobi_sweep_in_place`] compiled for any CPU, four lanes wide (packed
    /// SSE2). Callable by name so that tests and the bench reach it on hosts
    /// where the dispatch never does.
    pub fn jacobi_sweep_portable = sweep::<4>;
    fn sweep_avx512f = sweep::<16>;
}

/// The sweep [`jacobi_sweep_in_place`] replaced, kept as its oracle: one
/// pass from `grid` into the same rows of `scratch` (also `(rows+2) ×
/// cols`) with one running maximum, then the owned rows copied back.
pub fn jacobi_sweep_reference(
    grid: &mut [f64],
    scratch: &mut [f64],
    rows: usize,
    cols: usize,
) -> SweepResult {
    assert_eq!(grid.len(), (rows + 2) * cols, "grid shape");
    assert_eq!(scratch.len(), (rows + 2) * cols, "scratch shape");
    let (src, dst) = (&*grid, &mut *scratch);
    let mut max_delta: f64 = 0.0;
    for r in 1..=rows {
        let base = r * cols;
        for c in 0..cols {
            let left = if c == 0 {
                src[base + c]
            } else {
                src[base + c - 1]
            };
            let right = if c == cols - 1 {
                src[base + c]
            } else {
                src[base + c + 1]
            };
            let up = src[base - cols + c];
            let down = src[base + cols + c];
            let new = 0.25 * (left + right + up + down);
            max_delta = max_delta.max((new - src[base + c]).abs());
            dst[base + c] = new;
        }
    }
    let owned = cols..(rows + 1) * cols;
    grid[owned.clone()].copy_from_slice(&scratch[owned]);
    SweepResult { max_delta }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(rows: usize, cols: usize, v: f64) -> Vec<f64> {
        vec![v; (rows + 2) * cols]
    }

    fn sweep(g: &mut [f64], rows: usize, cols: usize) -> SweepResult {
        jacobi_sweep_in_place(g, &mut vec![0.0; 2 * cols], rows, cols)
    }

    #[test]
    fn uniform_grid_is_fixed_point() {
        let mut g = grid(4, 8, 3.5);
        let r = sweep(&mut g, 4, 8);
        assert_eq!(r.max_delta, 0.0);
        assert!(g.iter().all(|&v| v == 3.5));
    }

    #[test]
    fn hot_halo_diffuses_in() {
        let cols = 4;
        let mut g = grid(2, cols, 0.0);
        g[..cols].fill(100.0); // hot upper halo
        let r = sweep(&mut g, 2, cols);
        assert_eq!(r.max_delta, 25.0);
        for c in 0..cols {
            assert_eq!(g[cols + c], 25.0, "first owned row heated");
            assert_eq!(
                g[2 * cols + c],
                0.0,
                "second row sees the old first row, not the new one"
            );
            assert_eq!(g[c], 100.0, "halo untouched");
        }
    }

    #[test]
    fn average_conserves_between_bounds() {
        let cols = 3;
        let mut g = grid(1, cols, 0.0);
        for (i, x) in g.iter_mut().enumerate() {
            *x = i as f64;
        }
        let (min, max) = (0.0, (g.len() - 1) as f64);
        sweep(&mut g, 1, cols);
        for c in 0..cols {
            let v = g[cols + c];
            assert!(v >= min && v <= max, "averaging stays within bounds");
        }
    }

    #[test]
    #[should_panic(expected = "grid shape")]
    fn shape_mismatch_panics() {
        let mut g = vec![0.0; 10];
        sweep(&mut g, 2, 3);
    }

    /// A `(rows+2) × cols` grid from `seed`: one cell in five is `NaN`,
    /// ±∞, −0.0, a subnormal or `f64::MAX`, the rest in `[-100, 100)`.
    fn mixed_grid(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
        const SPECIALS: [f64; 6] = [
            f64::NAN,
            f64::INFINITY,
            -f64::INFINITY,
            -0.0,
            5e-324,
            f64::MAX,
        ];
        let mut z = seed;
        let mut next = move || {
            z = z
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            z >> 11
        };
        (0..(rows + 2) * cols)
            .map(|_| match next() % 5 {
                0 => SPECIALS[next() as usize % SPECIALS.len()],
                _ => next() as f64 / (1u64 << 53) as f64 * 200.0 - 100.0,
            })
            .collect()
    }

    /// Each value's bits, every `NaN` as the canonical one: which operand's
    /// `NaN` a sum returns depends on how the compiler ordered it.
    fn bits(v: &[f64]) -> Vec<u64> {
        let canonical = |x: &f64| if x.is_nan() { f64::NAN } else { *x };
        v.iter().map(|x| canonical(x).to_bits()).collect()
    }

    #[test]
    fn every_compilation_equals_the_reference() {
        // Widths 1 to 40: both one-sided edge cases, every width modulo
        // 16, and a full 16-lane chunk plus a tail.
        for rows in 1..=3 {
            for cols in 1..=40 {
                for seed in 0..4 {
                    let start = mixed_grid(rows, cols, seed);
                    let mut want = start.clone();
                    let r =
                        jacobi_sweep_reference(&mut want, &mut vec![0.0; start.len()], rows, cols);
                    for (name, f) in compilations() {
                        let mut got = start.clone();
                        let g = f(&mut got, &mut vec![f64::NAN; 2 * cols], rows, cols);
                        let at = format!("{name}, {rows} × {cols}, seed {seed}");
                        assert_eq!(g.max_delta.to_bits(), r.max_delta.to_bits(), "{at}");
                        assert_eq!(bits(&got), bits(&want), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "rows_buf shape")]
    fn rows_buf_must_be_two_rows() {
        let mut g = grid(2, 3, 0.0);
        jacobi_sweep_in_place(&mut g, &mut [0.0; 3], 2, 3);
    }
}
