//! Lennard-Jones force kernel (MiniMD's "Force Compute" phase) and the
//! velocity-Verlet integrator halves.

use crate::minimd::atoms::Slab;

two_compilations! {
    /// Compute LJ forces on the `nlocal` owned atoms from full neighbor lists.
    ///
    /// `x` holds owned + ghost positions; ghosts are already shifted in x, so
    /// only y/z need minimum-image. Returns the potential energy of the owned
    /// atoms (each pair counted half, standard for full lists).
    ///
    /// Three passes per owned atom over scratch arrays of `maxneigh`: a gather
    /// of the raw displacements, a term pass with no data-dependent branch
    /// (every pair's terms are computed, and `0.0` is selected where `r2 >=
    /// cutforce_sq`, so it compiles to packed division), and the sums in list
    /// order. The result is bit-identical to [`compute_lj_reference`]: an
    /// accumulator starts at `+0.0` and a round-to-nearest sum is `-0.0` only
    /// when both addends are, so an accumulator never holds `-0.0` and adding a
    /// selected `±0.0` leaves it unchanged.
    ///
    /// Runs the loop's `avx512f` compilation, eight pairs to a packed division,
    /// where the CPU has it ([`crate::kernel`]), else [`compute_lj_portable`];
    /// the two are the same source and produce the same bits.
    pub fn compute_lj(
        slab: &Slab,
        x: &[f64],
        nlocal: usize,
        neigh_count: &[u32],
        neigh_list: &[u32],
        maxneigh: usize,
        cutforce_sq: f64,
        f: &mut [f64],
    ) -> f64;
    /// [`compute_lj`] compiled for any CPU (packed SSE2). Callable by name so
    /// that tests and the bench reach it on hosts where the dispatch never
    /// does.
    pub fn compute_lj_portable = lj;
    fn lj_avx512f = lj;
}

/// The three passes of [`compute_lj`], inlined into each compilation.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lj(
    slab: &Slab,
    x: &[f64],
    nlocal: usize,
    neigh_count: &[u32],
    neigh_list: &[u32],
    maxneigh: usize,
    cutforce_sq: f64,
    f: &mut [f64],
) -> f64 {
    let pos = x.as_chunks::<3>().0;
    let mut scratch = [(); 4].map(|_| vec![0.0f64; maxneigh]);
    let mut pe = 0.0f64;
    for (i, fi) in f.as_chunks_mut::<3>().0[..nlocal].iter_mut().enumerate() {
        let [xi, yi, zi] = pos[i];
        let list = &neigh_list[i * maxneigh..][..neigh_count[i] as usize];
        let [dx, dy, dz, de] = scratch.each_mut().map(|s| &mut s[..list.len()]);
        for (&j, ((dx, dy), dz)) in list
            .iter()
            .zip(dx.iter_mut().zip(dy.iter_mut()).zip(dz.iter_mut()))
        {
            let [xj, yj, zj] = pos[j as usize];
            (*dx, *dy, *dz) = (xi - xj, yi - yj, zi - zj);
        }
        // In place: the displacements become the force terms.
        for k in 0..list.len() {
            let (ddx, ddy, ddz) = (dx[k], slab.min_image(dy[k], 1), slab.min_image(dz[k], 2));
            let r2 = ddx * ddx + ddy * ddy + ddz * ddz;
            let sr2 = 1.0 / r2;
            let sr6 = sr2 * sr2 * sr2;
            let fpair = 48.0 * sr6 * (sr6 - 0.5) * sr2;
            // All ones inside the cutoff, zero outside: masking selects the
            // term or `+0.0` by a bitwise AND, which LLVM keeps branch-free
            // where an `if`/`else` on floats turns back into a branch.
            let keep = u64::from(r2 < cutforce_sq).wrapping_neg();
            let sel = |t: f64| f64::from_bits(t.to_bits() & keep);
            dx[k] = sel(ddx * fpair);
            dy[k] = sel(ddy * fpair);
            dz[k] = sel(ddz * fpair);
            de[k] = sel(2.0 * sr6 * (sr6 - 1.0));
        }
        let [mut fx, mut fy, mut fz] = [0.0; 3];
        for (((&tx, &ty), &tz), &te) in dx.iter().zip(&*dy).zip(&*dz).zip(&*de) {
            fx += tx;
            fy += ty;
            fz += tz;
            pe += te;
        }
        *fi = [fx, fy, fz];
    }
    pe
}

/// The loop [`compute_lj`] implements, one pair at a time with a branch on
/// the cutoff. Kept solely as the oracle `compute_lj` is property-tested
/// (`tests/neighbor_props.rs`) and timed (the bench gate's `minimd`
/// section) against; no production path calls it.
#[allow(clippy::too_many_arguments)]
pub fn compute_lj_reference(
    slab: &Slab,
    x: &[f64],
    nlocal: usize,
    neigh_count: &[u32],
    neigh_list: &[u32],
    maxneigh: usize,
    cutforce_sq: f64,
    f: &mut [f64],
) -> f64 {
    let mut pe = 0.0f64;
    for i in 0..nlocal {
        let xi = x[3 * i];
        let yi = x[3 * i + 1];
        let zi = x[3 * i + 2];
        let mut fx = 0.0;
        let mut fy = 0.0;
        let mut fz = 0.0;
        for k in 0..neigh_count[i] as usize {
            let j = neigh_list[i * maxneigh + k] as usize;
            let dx = xi - x[3 * j];
            let dy = slab.min_image(yi - x[3 * j + 1], 1);
            let dz = slab.min_image(zi - x[3 * j + 2], 2);
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 < cutforce_sq {
                let sr2 = 1.0 / r2;
                let sr6 = sr2 * sr2 * sr2;
                let fpair = 48.0 * sr6 * (sr6 - 0.5) * sr2;
                fx += dx * fpair;
                fy += dy * fpair;
                fz += dz * fpair;
                pe += 2.0 * sr6 * (sr6 - 1.0); // 0.5 * 4ε(…): half per pair
            }
        }
        f[3 * i] = fx;
        f[3 * i + 1] = fy;
        f[3 * i + 2] = fz;
    }
    pe
}

/// First velocity-Verlet half: `v += dt/2 · f`, `x += dt · v` (unit mass).
pub fn initial_integrate(x: &mut [f64], v: &mut [f64], f: &[f64], nlocal: usize, dt: f64) {
    let dtf = 0.5 * dt;
    for i in 0..3 * nlocal {
        v[i] += dtf * f[i];
        x[i] += dt * v[i];
    }
}

/// Second velocity-Verlet half: `v += dt/2 · f`.
pub fn final_integrate(v: &mut [f64], f: &[f64], nlocal: usize, dt: f64) {
    let dtf = 0.5 * dt;
    for i in 0..3 * nlocal {
        v[i] += dtf * f[i];
    }
}

/// Kinetic energy of the owned atoms (unit mass).
pub fn kinetic_energy(v: &[f64], nlocal: usize) -> f64 {
    let mut ke = 0.0;
    for &vi in &v[..3 * nlocal] {
        ke += vi * vi;
    }
    0.5 * ke
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimd::atoms::{jittered_cloud, Slab};
    use crate::minimd::neighbor::build_neighbors_all_pairs;

    fn pair_setup(r: f64) -> (Slab, Vec<f64>, Vec<u32>, Vec<u32>) {
        // Two atoms on the x axis, far from any periodic image.
        let slab = Slab::new(0, 1, [8, 8, 8]);
        let x = vec![3.0, 5.0, 5.0, 3.0 + r, 5.0, 5.0];
        let neigh_count = vec![1u32, 1];
        let neigh_list = vec![1u32, 0];
        (slab, x, neigh_count, neigh_list)
    }

    type Kernel = fn(&Slab, &[f64], usize, &[u32], &[u32], usize, f64, &mut [f64]) -> f64;

    #[test]
    fn every_compilation_equals_the_reference() {
        let (cutforce, cutneigh, maxneigh) = (2.5f64, 2.8f64, 256);
        // Half the box in y/z below the cutoff ([3, 2, 2]: both periodic
        // images of a partner can be listed) and above it; a coincident
        // pair makes atom 0's force `NaN` and the energy infinite.
        for (cells, coincident) in [([3, 2, 2], false), ([4, 3, 3], false), ([4, 3, 3], true)] {
            let (slab, x, ids, nlocal) = jittered_cloud(1, 3, cells, cutneigh, coincident);
            let mut count = vec![0u32; nlocal];
            let mut list = vec![0u32; nlocal * maxneigh];
            let nall = ids.len();
            let sq = cutneigh * cutneigh;
            build_neighbors_all_pairs(
                &slab, &x, &ids, nlocal, nall, sq, &mut count, &mut list, maxneigh,
            );
            let run = |f: Kernel| {
                let mut out = vec![f64::NAN; 3 * nlocal];
                let pe = f(
                    &slab,
                    &x,
                    nlocal,
                    &count,
                    &list,
                    maxneigh,
                    cutforce * cutforce,
                    &mut out,
                );
                out.push(pe);
                // Every `NaN` as the canonical one.
                let canonical = |v: f64| if v.is_nan() { f64::NAN } else { v };
                out.into_iter()
                    .map(|v| canonical(v).to_bits())
                    .collect::<Vec<_>>()
            };
            let want = run(compute_lj_reference);
            assert_eq!(f64::from_bits(want[3 * nlocal]).is_finite(), !coincident);
            for (name, f) in compilations() {
                assert!(
                    run(f) == want,
                    "{name}, cells {cells:?}, coincident {coincident}"
                );
            }
        }
    }

    #[test]
    fn force_is_zero_at_lj_minimum() {
        let rmin = 2.0f64.powf(1.0 / 6.0);
        let (slab, x, nc, nl) = pair_setup(rmin);
        let mut f = vec![0.0; 6];
        compute_lj(&slab, &x, 2, &nc, &nl, 1, 6.25, &mut f);
        assert!(f[0].abs() < 1e-10, "fx at minimum: {}", f[0]);
    }

    #[test]
    fn close_pair_repels_symmetrically() {
        let (slab, x, nc, nl) = pair_setup(0.9);
        let mut f = vec![0.0; 6];
        let pe = compute_lj(&slab, &x, 2, &nc, &nl, 1, 6.25, &mut f);
        assert!(f[0] < 0.0, "atom 0 pushed toward -x");
        assert!(f[3] > 0.0, "atom 1 pushed toward +x");
        assert!((f[0] + f[3]).abs() < 1e-10, "Newton's third law");
        assert!(pe > 0.0, "repulsive region has positive energy");
        assert_eq!(f[1], 0.0);
    }

    #[test]
    fn attractive_region_pulls_together() {
        let (slab, x, nc, nl) = pair_setup(1.5);
        let mut f = vec![0.0; 6];
        let pe = compute_lj(&slab, &x, 2, &nc, &nl, 1, 6.25, &mut f);
        assert!(f[0] > 0.0, "atom 0 pulled toward +x");
        assert!(pe < 0.0, "attractive well");
    }

    #[test]
    fn beyond_cutoff_is_ignored() {
        let (slab, x, nc, nl) = pair_setup(2.6);
        let mut f = vec![0.0; 6];
        let pe = compute_lj(&slab, &x, 2, &nc, &nl, 1, 6.25, &mut f);
        assert_eq!(f, vec![0.0; 6]);
        assert_eq!(pe, 0.0);
    }

    #[test]
    fn min_image_applies_in_y() {
        // Atoms separated by nearly the whole box in y are close through
        // the periodic image.
        let slab = Slab::new(0, 1, [4, 4, 4]);
        let ly = slab.global[1];
        let x = vec![3.0, 0.2, 3.0, 3.0, ly - 0.2, 3.0];
        let nc = vec![1u32, 1];
        let nl = vec![1u32, 0];
        let mut f = vec![0.0; 6];
        compute_lj(&slab, &x, 2, &nc, &nl, 1, 6.25, &mut f);
        assert!(f[1] != 0.0, "periodic pair must interact");
    }

    #[test]
    fn verlet_roundtrip_conserves_energy_shortterm() {
        // Single LJ pair integrated briefly: energy drift must be small.
        let (slab, mut x, nc, nl) = pair_setup(1.3);
        let mut v = vec![0.0; 6];
        let mut f = vec![0.0; 6];
        let dt = 0.001;
        let pe0 = compute_lj(&slab, &x, 2, &nc, &nl, 1, 6.25, &mut f);
        let e0 = pe0 + kinetic_energy(&v, 2);
        for _ in 0..200 {
            initial_integrate(&mut x, &mut v, &f, 2, dt);
            let _ = compute_lj(&slab, &x, 2, &nc, &nl, 1, 6.25, &mut f);
            final_integrate(&mut v, &f, 2, dt);
        }
        let pe = compute_lj(&slab, &x, 2, &nc, &nl, 1, 6.25, &mut f);
        let e1 = pe + kinetic_energy(&v, 2);
        assert!(
            (e1 - e0).abs() < 1e-4 * e0.abs().max(1.0),
            "energy drift: {e0} -> {e1}"
        );
    }
}
