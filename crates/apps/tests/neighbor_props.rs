//! MiniMD's cell search against the all-pairs definition of a neighbor
//! list: `neigh_count` and `neigh_list` byte-identical, order included, over
//! random atom clouds built to hit the index's edges — ghosts beyond both
//! slab edges, y/z slightly outside `[0, L)` (the unwrapped positions a
//! restore rebuilds from), coordinates exactly on cell boundaries, coincident
//! atoms, periodic images sharing an id, boxes one to a few cells across in
//! y/z, and slabs of one, two and three ranks.
//!
//! MiniMD's force loop against the pair-at-a-time loop it replaces, over the
//! same clouds and lists: every force component and the potential energy
//! equal bit for bit, with a pair placed exactly at the force cutoff in every
//! cloud (coincident atoms give `NaN` on both sides and compare as `NaN`).

use apps::minimd::atoms::{generate_slab_atoms, Slab};
use apps::minimd::force::{compute_lj, compute_lj_reference};
use apps::minimd::neighbor::{build_neighbors, build_neighbors_all_pairs};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// MiniMD's force cutoff.
const CUTFORCE: f64 = 2.5;
/// MiniMD's neighbor cutoff (force cutoff 2.5 + skin 0.3).
const CUTNEIGH: f64 = 2.8;

struct Cloud {
    slab: Slab,
    /// Owned atoms first, then ghosts, three coordinates each.
    x: Vec<f64>,
    ids: Vec<u64>,
    nlocal: usize,
}

impl Cloud {
    fn nall(&self) -> usize {
        self.ids.len()
    }

    fn push(&mut self, p: [f64; 3], id: u64) {
        self.x.extend_from_slice(&p);
        self.ids.push(id);
    }
}

fn uniform(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    lo + rng.unit_f64() * (hi - lo)
}

/// A coordinate in `[lo, hi)`; one time in four it is moved onto a grid
/// line `base + k · extent / m` instead — a cell or bin boundary of every
/// grid of `m ≤ 16` cells over that extent, the search's and the coarse
/// bins' included.
fn coordinate(rng: &mut TestRng, lo: f64, hi: f64, base: f64, extent: f64) -> f64 {
    if rng.below(4) == 0 {
        let m = 1 + rng.below(16);
        let k = rng.below(m + 1);
        base + k as f64 * extent / m as f64
    } else {
        uniform(rng, lo, hi)
    }
}

/// A random cloud for `rank` of `size` ranks of `cells` unit cells each.
fn random_cloud(rank: usize, size: usize, cells: [usize; 3], rng: &mut TestRng) -> Cloud {
    let slab = Slab::new(rank, size, cells);
    let [_, ly, lz] = slab.global;
    let (x0, span) = (slab.xlo - CUTNEIGH, slab.width() + 2.0 * CUTNEIGH);
    let yz = |rng: &mut TestRng, l: f64| coordinate(rng, -0.3, l + 0.3, 0.0, l);
    let nlocal = 1 + rng.below(90) as usize;
    let mut c = Cloud {
        slab,
        x: Vec::new(),
        ids: Vec::new(),
        nlocal,
    };
    for i in 0..nlocal {
        let p = if i > 0 && rng.below(16) == 0 {
            // Coincident with an earlier atom: distance exactly zero.
            let j = rng.below(i as u64) as usize;
            [c.x[3 * j], c.x[3 * j + 1], c.x[3 * j + 2]]
        } else {
            let px = coordinate(rng, slab.xlo - 0.3, slab.xhi + 0.3, x0, span);
            [px, yz(rng, ly), yz(rng, lz)]
        };
        c.push(p, i as u64 * 3 + rng.below(3));
    }
    for _ in 0..rng.below(90) {
        let (p, id) = if rng.below(3) == 0 {
            // A periodic image of an owned atom: same id, shifted by the box.
            let j = rng.below(nlocal as u64) as usize;
            let shift = if rng.below(2) == 0 { 1.0 } else { -1.0 } * slab.global[0];
            (
                [c.x[3 * j] + shift, c.x[3 * j + 1], c.x[3 * j + 2]],
                c.ids[j],
            )
        } else {
            // Beyond either slab edge, out to half a unit past the shell.
            let px = if rng.below(2) == 0 {
                coordinate(rng, slab.xlo - CUTNEIGH - 0.5, slab.xlo, x0, span)
            } else {
                coordinate(rng, slab.xhi, slab.xhi + CUTNEIGH + 0.5, x0, span)
            };
            ([px, yz(rng, ly), yz(rng, lz)], rng.next_u64())
        };
        c.push(p, id);
    }
    c
}

/// Counts and lists from both searches, every unused slot left at a
/// sentinel so the comparison covers the whole table.
fn both(c: &Cloud) -> [(usize, Vec<u32>, Vec<u32>); 2] {
    let maxneigh = c.nall();
    [build_neighbors, build_neighbors_all_pairs].map(|search| {
        let mut count = vec![u32::MAX; c.nlocal];
        let mut list = vec![u32::MAX; c.nlocal * maxneigh];
        let total = search(
            &c.slab,
            &c.x,
            &c.ids,
            c.nlocal,
            c.nall(),
            CUTNEIGH * CUTNEIGH,
            &mut count,
            &mut list,
            maxneigh,
        );
        (total, count, list)
    })
}

/// `c` with two owned atoms in front of the rest, exactly `CUTFORCE`
/// apart in x: a pair at `r2 == cutforce_sq`, which the force loop leaves
/// out.
fn with_pair_at_cutoff(c: &Cloud, rng: &mut TestRng) -> Cloud {
    // A multiple of 1/8 keeps `ax + 2.5` and the difference exact.
    let ax = (uniform(rng, c.slab.xlo, c.slab.xhi) * 8.0).floor() / 8.0;
    let [_, ly, lz] = c.slab.global;
    let (y, z) = (uniform(rng, 0.0, ly), uniform(rng, 0.0, lz));
    let mut out = Cloud {
        slab: c.slab,
        x: vec![ax, y, z, ax + CUTFORCE, y, z],
        ids: vec![u64::MAX - 1, u64::MAX],
        nlocal: c.nlocal + 2,
    };
    out.x.extend_from_slice(&c.x);
    out.ids.extend_from_slice(&c.ids);
    out
}

/// `compute_lj` and `compute_lj_reference` over `build_neighbors`' lists
/// of `c`: every force component and the energy bit-equal, `NaN` equal to
/// `NaN`. Returns the number of pairs.
fn assert_forces_equal(c: &Cloud, what: &str) -> usize {
    let maxneigh = c.nall();
    let mut count = vec![0; c.nlocal];
    let mut list = vec![0; c.nlocal * maxneigh];
    let pairs = build_neighbors(
        &c.slab,
        &c.x,
        &c.ids,
        c.nlocal,
        c.nall(),
        CUTNEIGH * CUTNEIGH,
        &mut count,
        &mut list,
        maxneigh,
    );
    let [(f, pe), (f_ref, pe_ref)] = [compute_lj, compute_lj_reference].map(|kernel| {
        let mut f = vec![f64::MAX; 3 * c.nlocal];
        let pe = kernel(
            &c.slab,
            &c.x,
            c.nlocal,
            &count,
            &list,
            maxneigh,
            CUTFORCE * CUTFORCE,
            &mut f,
        );
        (f, pe)
    });
    let same = |a: f64, b: f64| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan());
    for (k, (&a, &b)) in f.iter().zip(&f_ref).enumerate() {
        assert!(same(a, b), "{what}: f[{k}] = {a:e}, reference {b:e}");
    }
    assert!(
        same(pe, pe_ref),
        "{what}: pe = {pe:e}, reference {pe_ref:e}"
    );
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn cell_search_equals_all_pairs(
        ranks in (1usize..4, 0usize..3),
        cells in (1usize..4, 1usize..8, 1usize..8),
        seed in any::<u64>(),
    ) {
        let (size, rank) = (ranks.0, ranks.1 % ranks.0);
        let mut rng = TestRng::for_case(seed, 0);
        let cloud = random_cloud(rank, size, [cells.0, cells.1, cells.2], &mut rng);
        let [fast, oracle] = both(&cloud);
        prop_assert_eq!(fast, oracle, "rank {} of {}, cells {:?}", rank, size, cells);
    }

    #[test]
    fn force_loop_equals_reference(
        ranks in (1usize..4, 0usize..3),
        cells in (1usize..4, 1usize..8, 1usize..8),
        seed in any::<u64>(),
    ) {
        let (size, rank) = (ranks.0, ranks.1 % ranks.0);
        let mut rng = TestRng::for_case(seed, 0);
        let cloud = random_cloud(rank, size, [cells.0, cells.1, cells.2], &mut rng);
        let cloud = with_pair_at_cutoff(&cloud, &mut rng);
        assert_forces_equal(&cloud, &format!("rank {rank} of {size}, cells {cells:?}"));
    }
}

/// Rank `rank` of `size` on the lattice of `cells` unit cells per rank,
/// every atom jittered by up to 0.1 per coordinate: the owned atoms, then
/// the ghost shell its two neighbors send.
fn jittered_lattice_slab(rank: usize, size: usize, cells: [usize; 3]) -> Cloud {
    let slab = Slab::new(rank, size, cells);
    let mut rng = TestRng::for_case(0x5eed, 0);
    let mut c = Cloud {
        slab,
        x: Vec::new(),
        ids: Vec::new(),
        nlocal: 0,
    };
    let jitter = |rng: &mut TestRng, p: [f64; 3]| p.map(|v| v + uniform(rng, -0.1, 0.1));
    for a in generate_slab_atoms(rank, size, cells) {
        let p = jitter(&mut rng, a.pos);
        c.push(p, a.id);
        c.nlocal += 1;
    }
    for (r, keep) in [
        (rank - 1, slab.xlo - CUTNEIGH..slab.xlo),
        (rank + 1, slab.xhi..slab.xhi + CUTNEIGH),
    ] {
        for a in generate_slab_atoms(r, size, cells) {
            if keep.contains(&a.pos[0]) {
                let p = jitter(&mut rng, a.pos);
                c.push(p, a.id);
            }
        }
    }
    c
}

/// The benchmark's rank shape: 864 owned lattice atoms of rank 3 of 8,
/// jittered off the lattice, and the ghost shell its two neighbors send.
#[test]
fn cell_search_equals_all_pairs_on_a_jittered_lattice_slab() {
    let c = jittered_lattice_slab(3, 8, [6, 6, 6]);
    assert_eq!(c.nlocal, 864);
    assert!(c.nall() > 1200, "{} atoms with ghosts", c.nall());
    let [fast, oracle] = both(&c);
    assert!(fast.0 > 60 * 864, "{} pairs", fast.0);
    assert_eq!(fast, oracle);
}

/// The force loop on the lattice shapes MiniMD runs: the tests' and
/// examples' `[2, 2, 2]` and `[3, 3, 3]` boxes, where half the box in y/z
/// (1.68 and 2.52) is less than `cutneigh`, so a list can hold both
/// periodic images of one partner's displacement; and the benchmark's
/// `[6, 6, 6]`. Each with a pair placed at the force cutoff.
#[test]
fn force_loop_equals_reference_on_jittered_lattice_slabs() {
    let mut rng = TestRng::for_case(0xf0ce, 0);
    for cells in [[2, 2, 2], [3, 3, 3], [6, 6, 6]] {
        let c = jittered_lattice_slab(3, 8, cells);
        let c = with_pair_at_cutoff(&c, &mut rng);
        let pairs = assert_forces_equal(&c, &format!("cells {cells:?}"));
        assert!(pairs > 40 * (c.nlocal - 2), "{pairs} pairs");
    }
}
