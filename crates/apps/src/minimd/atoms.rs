//! FCC lattice setup and simulation-box geometry.
//!
//! MiniMD initializes a face-centered-cubic lattice of Lennard-Jones atoms
//! at reduced density 0.8442 and assigns deterministic initial velocities.
//! The domain is slab-decomposed along x: each rank owns a fixed number of
//! unit-cell layers (weak scaling adds ranks, not per-rank work).

/// Reduced density (MiniMD default).
pub const DENSITY: f64 = 0.8442;

/// FCC basis offsets in units of the lattice constant.
pub const FCC_BASIS: [[f64; 3]; 4] = [
    [0.0, 0.0, 0.0],
    [0.5, 0.5, 0.0],
    [0.5, 0.0, 0.5],
    [0.0, 0.5, 0.5],
];

/// Lattice constant for the configured density.
pub fn lattice_constant() -> f64 {
    (4.0 / DENSITY).cbrt()
}

/// Simulation box geometry for one rank's slab.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Slab {
    /// Global box extents.
    pub global: [f64; 3],
    /// This rank's slab bounds along x: `[xlo, xhi)`.
    pub xlo: f64,
    pub xhi: f64,
}

impl Slab {
    /// Build the slab for `rank` of `size` ranks, each owning
    /// `cells_x` unit-cell layers of a `cells_y × cells_z` cross-section.
    pub fn new(rank: usize, size: usize, cells: [usize; 3]) -> Self {
        let a = lattice_constant();
        let lx = size as f64 * cells[0] as f64 * a;
        let ly = cells[1] as f64 * a;
        let lz = cells[2] as f64 * a;
        let per = cells[0] as f64 * a;
        Slab {
            global: [lx, ly, lz],
            xlo: rank as f64 * per,
            xhi: (rank + 1) as f64 * per,
        }
    }

    pub fn width(&self) -> f64 {
        self.xhi - self.xlo
    }

    /// Wrap a position into the global periodic box.
    pub fn wrap(&self, p: &mut [f64; 3]) {
        for (x, &l) in p.iter_mut().zip(&self.global) {
            if *x < 0.0 {
                *x += l;
            }
            if *x >= l {
                *x -= l;
            }
        }
    }

    /// Minimum-image displacement component for periodic dimensions y/z.
    /// Both corrections are computed and one is selected, so a loop over
    /// many displacements has no data-dependent branch and vectorizes.
    #[inline]
    pub fn min_image(&self, d: f64, dim: usize) -> f64 {
        let l = self.global[dim];
        let up = if d < -0.5 * l { d + l } else { d };
        if d > 0.5 * l {
            d - l
        } else {
            up
        }
    }
}

/// Deterministic per-atom pseudo-random value (splitmix64).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in [-0.5, 0.5) from a seed.
fn uniform(seed: u64) -> f64 {
    (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

/// One initialized atom.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AtomInit {
    pub id: u64,
    pub pos: [f64; 3],
    pub vel: [f64; 3],
}

/// Generate this rank's owned atoms: the FCC sites whose cells lie in
/// `[rank*cells_x, (rank+1)*cells_x)`. Atom ids are global lattice-site
/// indices, so the same atom gets the same id and velocity regardless of
/// decomposition.
pub fn generate_slab_atoms(rank: usize, size: usize, cells: [usize; 3]) -> Vec<AtomInit> {
    let a = lattice_constant();
    let total_cx = size * cells[0];
    let (cy, cz) = (cells[1], cells[2]);
    let mut atoms = Vec::with_capacity(4 * cells[0] * cy * cz);
    for ix in rank * cells[0]..(rank + 1) * cells[0] {
        for iy in 0..cy {
            for iz in 0..cz {
                let cell_index = ((ix * cy) + iy) * cz + iz;
                for (b, basis) in FCC_BASIS.iter().enumerate() {
                    let id = (cell_index * 4 + b) as u64;
                    let pos = [
                        (ix as f64 + basis[0]) * a,
                        (iy as f64 + basis[1]) * a,
                        (iz as f64 + basis[2]) * a,
                    ];
                    let vel = [
                        uniform(id.wrapping_mul(3)),
                        uniform(id.wrapping_mul(3) + 1),
                        uniform(id.wrapping_mul(3) + 2),
                    ];
                    atoms.push(AtomInit { id, pos, vel });
                }
            }
        }
    }
    debug_assert!(atoms.len() == 4 * cells[0] * cy * cz);
    let _ = total_cx;
    atoms
}

/// Rank `rank` (neither the first nor the last) of `size`: its atoms, then
/// the ghost shell within `cut` its two neighbors send, every coordinate
/// moved by a fixed, irregular offset in `[-0.15, 0.15)` (so some y/z lie
/// just outside `[0, L)`, as between reneighboring steps). With
/// `coincident`, one more ghost, of its own id, sits exactly on atom 0.
/// Returns the slab, the positions, the ids and the owned count.
#[cfg(test)]
pub(crate) fn jittered_cloud(
    rank: usize,
    size: usize,
    cells: [usize; 3],
    cut: f64,
    coincident: bool,
) -> (Slab, Vec<f64>, Vec<u64>, usize) {
    let slab = Slab::new(rank, size, cells);
    let owned = generate_slab_atoms(rank, size, cells);
    let shell = |r: usize, keep: std::ops::Range<f64>| {
        let atoms = generate_slab_atoms(r, size, cells).into_iter();
        atoms.filter(move |a| keep.contains(&a.pos[0]))
    };
    let ghosts =
        shell(rank - 1, slab.xlo - cut..slab.xlo).chain(shell(rank + 1, slab.xhi..slab.xhi + cut));
    let (mut x, mut ids) = (Vec::new(), Vec::new());
    for a in owned.iter().cloned().chain(ghosts) {
        x.extend_from_slice(&a.pos);
        ids.push(a.id);
    }
    let phi = 0.5 * (1.0 + 5f64.sqrt());
    for (k, v) in x.iter_mut().enumerate() {
        *v += 0.3 * ((k as f64 * phi).fract() - 0.5);
    }
    if coincident {
        x.extend_from_within(..3);
        ids.push(u64::MAX);
    }
    (slab, x, ids, owned.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_constant_matches_density() {
        let a = lattice_constant();
        let rho = 4.0 / (a * a * a);
        assert!((rho - DENSITY).abs() < 1e-12);
    }

    #[test]
    fn slab_partitions_global_box() {
        let cells = [3, 4, 5];
        let size = 4;
        let mut covered = 0.0;
        for r in 0..size {
            let s = Slab::new(r, size, cells);
            covered += s.width();
            assert!((s.global[0] - 4.0 * 3.0 * lattice_constant()).abs() < 1e-12);
        }
        let s0 = Slab::new(0, size, cells);
        assert!((covered - s0.global[0]).abs() < 1e-9);
    }

    #[test]
    fn atom_count_is_four_per_cell() {
        let atoms = generate_slab_atoms(1, 3, [2, 3, 4]);
        assert_eq!(atoms.len(), 4 * 2 * 3 * 4);
    }

    #[test]
    fn atoms_lie_within_slab() {
        let cells = [2, 2, 2];
        for rank in 0..3 {
            let s = Slab::new(rank, 3, cells);
            for at in generate_slab_atoms(rank, 3, cells) {
                assert!(at.pos[0] >= s.xlo - 1e-12 && at.pos[0] < s.xhi);
                assert!(at.pos[1] >= 0.0 && at.pos[1] < s.global[1]);
            }
        }
    }

    #[test]
    fn ids_globally_unique_and_decomposition_invariant() {
        let cells = [2, 2, 2];
        let mut all: Vec<AtomInit> = (0..2)
            .flat_map(|r| generate_slab_atoms(r, 2, cells))
            .collect();
        all.sort_by_key(|a| a.id);
        let mut ids: Vec<u64> = all.iter().map(|a| a.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), all.len(), "ids unique");
        // The same sites generated in a single-rank run (double cells_x)
        // carry identical velocities for matching ids where the lattice
        // indexing coincides.
        let single = generate_slab_atoms(0, 1, [4, 2, 2]);
        for a in &single {
            let twin = all.iter().find(|b| b.id == a.id).unwrap();
            assert_eq!(a.vel, twin.vel);
            assert_eq!(a.pos, twin.pos);
        }
    }

    #[test]
    fn wrap_and_min_image() {
        let s = Slab::new(0, 2, [2, 2, 2]);
        let l = s.global[0];
        let mut p = [-0.1, 0.0, 0.0];
        s.wrap(&mut p);
        assert!((p[0] - (l - 0.1)).abs() < 1e-12);
        let d = s.min_image(s.global[1] * 0.9, 1);
        assert!(d < 0.0, "wrapped to negative image");
    }

    #[test]
    fn velocities_are_deterministic() {
        let a1 = generate_slab_atoms(0, 2, [2, 2, 2]);
        let a2 = generate_slab_atoms(0, 2, [2, 2, 2]);
        assert_eq!(a1, a2);
    }
}
