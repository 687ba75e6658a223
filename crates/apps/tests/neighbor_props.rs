//! MiniMD's cell search against the all-pairs definition of a neighbor
//! list: `neigh_count` and `neigh_list` byte-identical, order included, over
//! random atom clouds built to hit the index's edges — ghosts beyond both
//! slab edges, y/z slightly outside `[0, L)` (the unwrapped positions a
//! restore rebuilds from), coordinates exactly on cell boundaries, coincident
//! atoms, periodic images sharing an id, boxes one to a few cells across in
//! y/z, and slabs of one, two and three ranks.

use apps::minimd::atoms::{generate_slab_atoms, Slab};
use apps::minimd::neighbor::{build_neighbors, build_neighbors_all_pairs};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

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
}

/// The benchmark's rank shape: 864 owned lattice atoms of rank 3 of 8,
/// jittered off the lattice, and the ghost shell its two neighbors send.
#[test]
fn cell_search_equals_all_pairs_on_a_jittered_lattice_slab() {
    let (rank, size, cells) = (3, 8, [6, 6, 6]);
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
    assert_eq!(c.nlocal, 864);
    assert!(c.nall() > 1200, "{} atoms with ghosts", c.nall());
    let [fast, oracle] = both(&c);
    assert!(fast.0 > 60 * 864, "{} pairs", fast.0);
    assert_eq!(fast, oracle);
}
