//! Neighbor-list construction (MiniMD's "Neighboring" phase).
//!
//! Two grids over one region — the rank's slab plus its x ghost shell, and
//! the full periodic box in y/z — with two jobs. The coarse bins
//! ([`BinGrid::new`], [`build_bins`]) are part of the view inventory:
//! `bin_count`/`bin_atoms` are checkpointed allocations of Figure 7, so their
//! shapes stay MiniMD's. The search runs over a private cell index that
//! [`build_neighbors`] builds on every call: cells at least half the
//! neighbor cutoff wide and a ±2-cell stencil, clamped in x (ghosts exist
//! only along the decomposed x dimension) and periodic in y/z, where pair
//! distances use [`Slab::min_image`].

use crate::minimd::atoms::Slab;

/// Bin-grid geometry for one rank's slab plus its x ghost shell.
#[derive(Clone, Copy, Debug)]
pub struct BinGrid {
    pub nbx: usize,
    pub nby: usize,
    pub nbz: usize,
    pub origin_x: f64,
    pub size_x: f64,
    pub size_y: f64,
    pub size_z: f64,
}

impl BinGrid {
    /// Cover `[slab.xlo - cutneigh, slab.xhi + cutneigh]` in x and the full
    /// periodic box in y/z, with bins at least `cutneigh` wide.
    pub fn new(slab: &Slab, cutneigh: f64) -> Self {
        Self::covering(slab, cutneigh, cutneigh)
    }

    /// The region [`BinGrid::new`] covers, in bins at least `width` wide
    /// (one bin where a dimension is narrower than `width`).
    fn covering(slab: &Slab, cutneigh: f64, width: f64) -> Self {
        let span_x = slab.width() + 2.0 * cutneigh;
        let nbx = (span_x / width).floor().max(1.0) as usize;
        let nby = (slab.global[1] / width).floor().max(1.0) as usize;
        let nbz = (slab.global[2] / width).floor().max(1.0) as usize;
        BinGrid {
            nbx,
            nby,
            nbz,
            origin_x: slab.xlo - cutneigh,
            size_x: span_x / nbx as f64,
            size_y: slab.global[1] / nby as f64,
            size_z: slab.global[2] / nbz as f64,
        }
    }

    pub fn total_bins(&self) -> usize {
        self.nbx * self.nby * self.nbz
    }

    /// A safe per-bin atom capacity for the given number density: small
    /// boxes produce few, large bins, so capacity must follow bin volume.
    pub fn suggested_bin_cap(&self, density: f64) -> usize {
        let vol = self.size_x * self.size_y * self.size_z;
        ((vol * density * 3.0) as usize).max(32)
    }

    /// Bin coordinates of a position (x clamped, y/z wrapped). Rounds down,
    /// so a y/z just below 0 — an unwrapped position between reneighboring
    /// steps — lands in the last bin, beside its periodic neighbors.
    #[inline]
    pub fn coords_of(&self, p: &[f64]) -> (usize, usize, usize) {
        let bx = (((p[0] - self.origin_x) / self.size_x).floor() as isize)
            .clamp(0, self.nbx as isize - 1) as usize;
        let by = ((p[1] / self.size_y).floor() as isize).rem_euclid(self.nby as isize) as usize;
        let bz = ((p[2] / self.size_z).floor() as isize).rem_euclid(self.nbz as isize) as usize;
        (bx, by, bz)
    }

    #[inline]
    pub fn index(&self, bx: usize, by: usize, bz: usize) -> usize {
        (bx * self.nby + by) * self.nbz + bz
    }
}

/// Sort all `nall` atoms (owned + ghosts) into bins.
///
/// `bin_count[b]` receives the number of atoms in bin `b`; `bin_atoms` is a
/// `total_bins × bin_cap` table of atom indices. Panics if a bin overflows —
/// sizing bins for the configured density is the caller's responsibility.
pub fn build_bins(
    grid: &BinGrid,
    x: &[f64],
    nall: usize,
    bin_count: &mut [u32],
    bin_atoms: &mut [u32],
    bin_cap: usize,
) {
    assert!(bin_count.len() >= grid.total_bins(), "bin_count too small");
    assert!(
        bin_atoms.len() >= grid.total_bins() * bin_cap,
        "bin_atoms too small"
    );
    bin_count[..grid.total_bins()].fill(0);
    for i in 0..nall {
        let p = &x[3 * i..3 * i + 3];
        let (bx, by, bz) = grid.coords_of(p);
        let b = grid.index(bx, by, bz);
        let c = bin_count[b] as usize;
        assert!(c < bin_cap, "bin {b} overflow (cap {bin_cap})");
        bin_atoms[b * bin_cap + c] = i as u32;
        bin_count[b] += 1;
    }
}

/// The search's cell index: cells at least `cutneigh / 2` wide, atoms
/// counting-sorted by cell (z fastest), positions one array per coordinate,
/// so a run of consecutive z-cells is one slice of each. Atoms are named by
/// canonical rank — their place in ascending (id, x bits, index) — dense
/// integers below `nall`, so a list is ordered by a bitmap over them.
struct Cells {
    grid: BinGrid,
    /// Cell `c` holds slots `start[c]..start[c + 1]`.
    start: Vec<usize>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    /// Canonical rank of each slot's atom.
    rank: Vec<u32>,
    /// Canonical rank of each atom.
    rank_of: Vec<u32>,
    /// Atom index of each canonical rank.
    order: Vec<u32>,
}

impl Cells {
    fn new(slab: &Slab, cutneigh: f64, x: &[f64], ids: &[u64], nall: usize) -> Self {
        // The margin keeps a cell wider than `cutneigh / 2` through the
        // rounding of the cell arithmetic (relative error ~1e-15).
        let grid = BinGrid::covering(slab, cutneigh, 0.5 * cutneigh * (1.0 + 1e-9));
        let mut order: Vec<u32> = (0..nall as u32).collect();
        order.sort_unstable_by_key(|&j| (ids[j as usize], x[3 * j as usize].to_bits(), j));
        let mut rank_of = vec![0; nall];
        for (r, &j) in order.iter().enumerate() {
            rank_of[j as usize] = r as u32;
        }
        let cell: Vec<usize> = (0..nall)
            .map(|i| {
                let (cx, cy, cz) = grid.coords_of(&x[3 * i..3 * i + 3]);
                grid.index(cx, cy, cz)
            })
            .collect();
        let mut start = vec![0; grid.total_bins() + 1];
        for &c in &cell {
            start[c + 1] += 1;
        }
        for c in 0..grid.total_bins() {
            start[c + 1] += start[c];
        }
        let mut next = start.clone();
        let mut cells = Cells {
            grid,
            start,
            x: vec![0.0; nall],
            y: vec![0.0; nall],
            z: vec![0.0; nall],
            rank: vec![0; nall],
            rank_of,
            order,
        };
        for (i, &c) in cell.iter().enumerate() {
            let s = next[c];
            next[c] += 1;
            cells.x[s] = x[3 * i];
            cells.y[s] = x[3 * i + 1];
            cells.z[s] = x[3 * i + 2];
            cells.rank[s] = cells.rank_of[i];
        }
        cells
    }

    /// The slots of cells `(cx, cy, lo..hi)`.
    fn run(&self, cx: usize, cy: usize, (lo, hi): (usize, usize)) -> std::ops::Range<usize> {
        self.start[self.grid.index(cx, cy, lo)]..self.start[self.grid.index(cx, cy, hi)]
    }
}

/// Cells `c - 2 ..= c + 2` of a periodic dimension of `n` cells, each once,
/// as at most two half-open runs of consecutive cells (an empty second run
/// is `(0, 0)`).
fn periodic_runs(c: usize, n: usize) -> [(usize, usize); 2] {
    if n <= 5 {
        [(0, n), (0, 0)]
    } else if c < 2 {
        [(0, c + 3), (n + c - 2, n)]
    } else if c + 3 > n {
        [(c - 2, n), (0, c + 3 - n)]
    } else {
        [(c - 2, c + 3), (0, 0)]
    }
}

/// Build full neighbor lists for the `nlocal` owned atoms from all `nall`
/// atoms (owned + ghosts).
///
/// Atom `i`'s list holds every `j ≠ i` with
/// `dx*dx + dy*dy + dz*dz <= cutneigh_sq` (`dy`, `dz` minimum-image), in
/// canonical order: ascending partner *global atom id*, then partner x bits
/// (periodic images of one atom share an id and differ in x), then partner
/// index (which no two entries share). So force summation order — and
/// therefore the floating-point trajectory — is independent of cell
/// traversal and ghost arrival order. This is what makes a restored run
/// bitwise-identical to an uninterrupted one.
///
/// Completeness: a partner within the cutoff is at most `cutneigh` away
/// along each axis, so with cells at least `cutneigh / 2` wide its cell is
/// at most two cells away; clamping x to the grid is monotone, so it can
/// move a far atom inward but never push a near pair apart.
///
/// `neigh_list` is an `nlocal × maxneigh` table; `neigh_count[i]` is atom
/// `i`'s neighbor count. Returns the total number of pairs (for tests).
#[allow(clippy::too_many_arguments)]
pub fn build_neighbors(
    slab: &Slab,
    x: &[f64],
    ids: &[u64],
    nlocal: usize,
    nall: usize,
    cutneigh_sq: f64,
    neigh_count: &mut [u32],
    neigh_list: &mut [u32],
    maxneigh: usize,
) -> usize {
    let cells = Cells::new(slab, cutneigh_sq.sqrt(), x, ids, nall);
    let g = &cells.grid;
    // The stencil visits each cell once, so an atom is a candidate of a
    // given owned atom at most once: `nall` slots hold any run's distances
    // and any owned atom's partners.
    let mut r2 = vec![0.0; nall];
    let mut hits = vec![0u32; nall];
    // One bit per canonical rank: a list is ordered by setting its hits'
    // bits and reading them back in ascending order. Every word is zero
    // between atoms.
    let mut bits = vec![0u64; nall.div_ceil(64)];
    let mut total = 0;
    for i in 0..nlocal {
        let (xi, yi, zi, ri) = (x[3 * i], x[3 * i + 1], x[3 * i + 2], cells.rank_of[i]);
        let (cx, cy, cz) = g.coords_of(&x[3 * i..3 * i + 3]);
        let z_runs = periodic_runs(cz, g.nbz);
        let mut n = 0;
        for wx in cx.saturating_sub(2)..=(cx + 2).min(g.nbx - 1) {
            for (lo, hi) in periodic_runs(cy, g.nby) {
                for wy in lo..hi {
                    for z_run in z_runs {
                        let slots = cells.run(wx, wy, z_run);
                        // Distances first, in a loop without branches on the
                        // data; then a branch-free pass keeps the partners:
                        // every candidate is written, only a partner advances
                        // the end.
                        let r2 = &mut r2[..slots.len()];
                        for (d, ((&xj, &yj), &zj)) in r2.iter_mut().zip(
                            cells.x[slots.clone()]
                                .iter()
                                .zip(&cells.y[slots.clone()])
                                .zip(&cells.z[slots.clone()]),
                        ) {
                            let dx = xi - xj;
                            let dy = slab.min_image(yi - yj, 1);
                            let dz = slab.min_image(zi - zj, 2);
                            *d = dx * dx + dy * dy + dz * dz;
                        }
                        for (&d, &r) in r2.iter().zip(&cells.rank[slots]) {
                            hits[n] = r;
                            n += usize::from(d <= cutneigh_sq && r != ri);
                        }
                    }
                }
            }
        }
        assert!(
            n <= maxneigh,
            "neighbor overflow for atom {i} (cap {maxneigh})"
        );
        // Only the words between the lowest and highest touched are read
        // back, so the cost follows the list's rank span, not `nall`.
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &r in &hits[..n] {
            let w = r as usize / 64;
            bits[w] |= 1 << (r % 64);
            (lo, hi) = (lo.min(w), hi.max(w));
        }
        let list = &mut neigh_list[i * maxneigh..][..n];
        let mut k = 0;
        for (w, touched) in bits.iter_mut().enumerate().take(hi + 1).skip(lo) {
            let mut word = std::mem::take(touched);
            while word != 0 {
                list[k] = cells.order[w * 64 + word.trailing_zeros() as usize];
                k += 1;
                word &= word - 1;
            }
        }
        // A rank is a candidate at most once, so no two hits share a bit.
        assert_eq!(k, n, "atom {i} met a candidate twice");
        neigh_count[i] = n as u32;
        total += n;
    }
    total
}

/// The definition [`build_neighbors`] implements, one distance per pair
/// and no index: every `j ≠ i` of the `nall` atoms, in the same canonical
/// order. Kept solely as the oracle `build_neighbors` is property-tested
/// (`tests/neighbor_props.rs`) and timed (the bench gate's `minimd`
/// section) against; no production path calls it.
#[allow(clippy::too_many_arguments)]
pub fn build_neighbors_all_pairs(
    slab: &Slab,
    x: &[f64],
    ids: &[u64],
    nlocal: usize,
    nall: usize,
    cutneigh_sq: f64,
    neigh_count: &mut [u32],
    neigh_list: &mut [u32],
    maxneigh: usize,
) -> usize {
    let mut hits = Vec::new();
    let mut total = 0;
    for i in 0..nlocal {
        hits.clear();
        for j in (0..nall).filter(|&j| j != i) {
            let dx = x[3 * i] - x[3 * j];
            let dy = slab.min_image(x[3 * i + 1] - x[3 * j + 1], 1);
            let dz = slab.min_image(x[3 * i + 2] - x[3 * j + 2], 2);
            if dx * dx + dy * dy + dz * dz <= cutneigh_sq {
                hits.push((ids[j], x[3 * j].to_bits(), j as u32));
            }
        }
        assert!(
            hits.len() <= maxneigh,
            "neighbor overflow for atom {i} (cap {maxneigh})"
        );
        hits.sort_unstable();
        for (slot, &(_, _, j)) in neigh_list[i * maxneigh..].iter_mut().zip(&hits) {
            *slot = j;
        }
        neigh_count[i] = hits.len() as u32;
        total += hits.len();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimd::atoms::{generate_slab_atoms, lattice_constant, Slab};

    fn flat_positions(cells: [usize; 3]) -> (Slab, Vec<f64>, usize) {
        let slab = Slab::new(0, 1, cells);
        let atoms = generate_slab_atoms(0, 1, cells);
        let n = atoms.len();
        let mut x = vec![0.0; 3 * n];
        for (i, a) in atoms.iter().enumerate() {
            x[3 * i..3 * i + 3].copy_from_slice(&a.pos);
        }
        (slab, x, n)
    }

    /// Lists of the `n` atoms of a single-rank lattice without ghosts.
    fn lattice_lists(
        slab: &Slab,
        x: &[f64],
        n: usize,
        cut: f64,
        maxneigh: usize,
    ) -> (Vec<u32>, Vec<u32>) {
        let mut ncount = vec![0u32; n];
        let mut nlist = vec![0u32; n * maxneigh];
        let ids: Vec<u64> = (0..n as u64).collect();
        build_neighbors(
            slab,
            x,
            &ids,
            n,
            n,
            cut * cut,
            &mut ncount,
            &mut nlist,
            maxneigh,
        );
        (ncount, nlist)
    }

    #[test]
    fn bins_cover_all_atoms() {
        let (slab, x, n) = flat_positions([3, 3, 3]);
        let grid = BinGrid::new(&slab, 2.8);
        let cap = grid.suggested_bin_cap(crate::minimd::atoms::DENSITY);
        let mut bc = vec![0u32; grid.total_bins()];
        let mut ba = vec![0u32; grid.total_bins() * cap];
        build_bins(&grid, &x, n, &mut bc, &mut ba, cap);
        let binned: u32 = bc.iter().sum();
        assert_eq!(binned as usize, n);
    }

    #[test]
    fn a_position_just_below_zero_wraps_to_the_last_bin() {
        let slab = Slab::new(0, 2, [3, 6, 6]);
        let grid = BinGrid::new(&slab, 2.8);
        assert!(grid.nby >= 3, "enough bins that the last is not the first");
        let (_, by, bz) = grid.coords_of(&[slab.xlo + 1.0, -0.01, 1.0]);
        assert_eq!((by, bz), (grid.nby - 1, 0));
        let (_, by, _) = grid.coords_of(&[slab.xlo + 1.0, -grid.size_y - 0.01, 1.0]);
        assert_eq!(by, grid.nby - 2);
    }

    #[test]
    fn neighbor_counts_match_brute_force() {
        let (slab, x, n) = flat_positions([3, 3, 3]);
        let cut = 2.8f64;
        let (ncount, _) = lattice_lists(&slab, &x, n, cut, 160);

        // Brute force with y/z minimum image (single rank: x is NOT
        // periodic through ghosts here, so restrict check to central atoms
        // away from the x boundary).
        let a = lattice_constant();
        for i in 0..n {
            let px = x[3 * i];
            if px < cut || px > slab.global[0] - cut {
                continue;
            }
            let mut brute = 0u32;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let dx = x[3 * i] - x[3 * j];
                let dy = slab.min_image(x[3 * i + 1] - x[3 * j + 1], 1);
                let dz = slab.min_image(x[3 * i + 2] - x[3 * j + 2], 2);
                if dx * dx + dy * dy + dz * dz <= cut * cut {
                    brute += 1;
                }
            }
            assert_eq!(ncount[i], brute, "atom {i} at x={px:.2} (lattice a={a:.3})");
        }
    }

    #[test]
    fn neighbor_lists_are_symmetric_for_interior() {
        let (slab, x, n) = flat_positions([3, 3, 3]);
        let cut = 2.8f64;
        let maxneigh = 160;
        let (ncount, nlist) = lattice_lists(&slab, &x, n, cut, maxneigh);
        let has = |i: usize, j: usize| {
            nlist[i * maxneigh..i * maxneigh + ncount[i] as usize].contains(&(j as u32))
        };
        for i in 0..n {
            if x[3 * i] < cut || x[3 * i] > slab.global[0] - cut {
                continue;
            }
            for k in 0..ncount[i] as usize {
                let j = nlist[i * maxneigh + k] as usize;
                if x[3 * j] < cut || x[3 * j] > slab.global[0] - cut {
                    continue;
                }
                assert!(has(j, i), "pair ({i},{j}) not symmetric");
            }
        }
    }

    #[test]
    fn small_periodic_dims_do_not_double_count() {
        // One coarse bin and two cells in y/z: the ±2 stencil wraps onto
        // every cell and must visit each once.
        let (slab, x, n) = flat_positions([3, 2, 2]);
        let cut = 2.8f64;
        let grid = BinGrid::new(&slab, cut);
        assert!(grid.nby <= 2 && grid.nbz <= 2);
        let maxneigh = 256;
        let (ncount, nlist) = lattice_lists(&slab, &x, n, cut, maxneigh);
        // No duplicate entries in any list.
        for i in 0..n {
            let mut l: Vec<u32> = nlist[i * maxneigh..i * maxneigh + ncount[i] as usize].to_vec();
            let before = l.len();
            l.sort_unstable();
            l.dedup();
            assert_eq!(l.len(), before, "atom {i} has duplicate neighbors");
        }
    }
}
