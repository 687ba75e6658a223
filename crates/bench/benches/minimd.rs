//! MiniMD's two kernels at the `minimd_relaunch` rank shape: 864 owned
//! atoms (6 × 6 × 6 FCC cells, rank 3 of 8) plus the ghost shell its two
//! neighbors send.
//!
//! * `neighbors_cells` — `build_neighbors`, the cell search MiniMD runs, on
//!   the initial lattice, in the compilation this CPU dispatches to
//!   (`"apps_kernel"` in the JSON: `avx512f` or `portable`);
//! * `neighbors_cells_portable` — `build_neighbors_portable`, the same
//!   source compiled for any CPU;
//! * `neighbors_all_pairs` — `build_neighbors_all_pairs`, the definition it
//!   is property-tested against (`apps/tests/neighbor_props.rs`): one
//!   distance per (owned, any) pair;
//! * `force` — `compute_lj`, the three-pass force loop MiniMD runs (in the
//!   dispatched compilation), over
//!   the lists of the same atoms jittered by up to ±0.1 per coordinate (on
//!   the lattice every interior atom's list repeats one pattern of
//!   distances, which a branch on the cutoff learns; in a run the cost per
//!   pair sits between the two);
//! * `force_portable` — `compute_lj_portable`, the same source compiled for
//!   any CPU, on the same lists;
//! * `force_reference` — `compute_lj_reference`, the pair-at-a-time loop it
//!   is property-tested against, on the same lists.
//!
//! Each group of configs produces the same output, which this target
//! asserts before timing: equal lists, and forces and energy equal bit for
//! bit. Writes `target/BENCH_minimd.json` (median and minimum ns per config,
//! the atom and pair counts, the dispatched compilation);
//! `scripts/bench_gate.sh` holds each kernel to its oracle, and an
//! `avx512f` host's to its portable compilation, within that one run.

use apps::minimd::atoms::{generate_slab_atoms, Slab};
use apps::minimd::force::{compute_lj, compute_lj_portable, compute_lj_reference};
use apps::minimd::neighbor::{
    build_neighbors, build_neighbors_all_pairs, build_neighbors_portable,
};
use bench::{elapsed_ns, measure, write_results};

const RANK: usize = 3;
const RANKS: usize = 8;
const CELLS: [usize; 3] = [6, 6, 6];
/// MiniMD's force cutoff, and its neighbor cutoff (plus the 0.3 skin).
const CUTFORCE: f64 = 2.5;
const CUTNEIGH: f64 = 2.8;
const MAXNEIGH: usize = 160;
const SAMPLES: usize = 31;
const WARMUP: usize = 3;

/// The signature the searches share.
type Search = fn(&Slab, &[f64], &[u64], usize, usize, f64, &mut [u32], &mut [u32], usize) -> usize;
/// The signature the force loops share.
type Kernel = fn(&Slab, &[f64], usize, &[u32], &[u32], usize, f64, &mut [f64]) -> f64;

/// Positions and ids: the owned atoms, then the neighbors' atoms within
/// `CUTNEIGH` of this slab (what `exchange::setup_borders` sends).
fn rank_shape(slab: &Slab) -> (Vec<f64>, Vec<u64>, usize) {
    let (mut x, mut ids) = (Vec::new(), Vec::new());
    let mut add = |a: &apps::minimd::atoms::AtomInit| {
        x.extend_from_slice(&a.pos);
        ids.push(a.id);
    };
    let owned = generate_slab_atoms(RANK, RANKS, CELLS);
    owned.iter().for_each(&mut add);
    for (r, shell) in [
        (RANK - 1, slab.xlo - CUTNEIGH..slab.xlo),
        (RANK + 1, slab.xhi..slab.xhi + CUTNEIGH),
    ] {
        generate_slab_atoms(r, RANKS, CELLS)
            .iter()
            .filter(|a| shell.contains(&a.pos[0]))
            .for_each(&mut add);
    }
    (x, ids, owned.len())
}

/// `x` with coordinate `k` moved by `0.2 · (frac(k · φ) − 0.5)`: a fixed,
/// irregular offset in `[-0.1, 0.1)`.
fn jittered(x: &[f64]) -> Vec<f64> {
    let phi = 0.5 * (1.0 + 5f64.sqrt());
    let offset = |k: usize| 0.2 * ((k as f64 * phi).fract() - 0.5);
    x.iter().enumerate().map(|(k, &v)| v + offset(k)).collect()
}

fn main() {
    let slab = Slab::new(RANK, RANKS, CELLS);
    let (lattice, ids, nlocal) = rank_shape(&slab);
    let nall = ids.len();
    let search = |f: Search, x: &[f64]| {
        let mut count = vec![0u32; nlocal];
        let mut list = vec![0u32; nlocal * MAXNEIGH];
        let pairs = f(
            &slab,
            x,
            &ids,
            nlocal,
            nall,
            CUTNEIGH * CUTNEIGH,
            &mut count,
            &mut list,
            MAXNEIGH,
        );
        (pairs, count, list)
    };
    let searches: [(&str, Search); 3] = [
        ("neighbors_cells", build_neighbors),
        ("neighbors_cells_portable", build_neighbors_portable),
        ("neighbors_all_pairs", build_neighbors_all_pairs),
    ];
    let lists = searches.map(|(_, f)| search(f, &lattice));
    assert!(
        lists[0] == lists[2],
        "the cell search differs from its oracle"
    );
    assert!(
        lists[1] == lists[2],
        "the portable cell search differs from its oracle"
    );
    let x = jittered(&lattice);
    let (force_pairs, count, list) = search(build_neighbors, &x);
    let force = |f: Kernel| {
        let mut out = vec![0.0; 3 * nlocal];
        let pe = f(
            &slab,
            &x,
            nlocal,
            &count,
            &list,
            MAXNEIGH,
            CUTFORCE * CUTFORCE,
            &mut out,
        );
        out.push(pe);
        out
    };
    let kernels: [(&str, Kernel); 3] = [
        ("force", compute_lj),
        ("force_portable", compute_lj_portable),
        ("force_reference", compute_lj_reference),
    ];
    let [fast, portable, oracle] = kernels.map(|(_, f)| {
        let out = force(f).into_iter().map(f64::to_bits);
        out.collect::<Vec<_>>()
    });
    assert!(fast == oracle, "the force loop differs from its oracle");
    assert!(
        portable == oracle,
        "the portable force loop differs from its oracle"
    );

    let mut lines = Vec::new();
    let mut record = |name: &str, pairs: usize, sample: &mut dyn FnMut() -> u64| {
        let t = measure(WARMUP, SAMPLES, sample);
        println!(
            "{name:<20} median {:>10} ns  min {:>10} ns ({nlocal} owned, {nall} atoms, {pairs} pairs)",
            t.median_ns, t.min_ns
        );
        lines.push(format!(
            "{{\"name\":\"{name}\",\"median_ns\":{},\"min_ns\":{},\"pairs\":{pairs}}}",
            t.median_ns, t.min_ns
        ));
    };
    for (name, f) in searches {
        record(name, lists[0].0, &mut || {
            elapsed_ns(|| search(f, &lattice).0)
        });
    }
    for (name, f) in kernels {
        record(name, force_pairs, &mut || elapsed_ns(|| force(f)));
    }
    write_results(
        "minimd",
        &format!(
            "\"bench\":\"minimd\",\"nlocal\":{nlocal},\"nall\":{nall},\"apps_kernel\":\"{}\"",
            apps::kernel()
        ),
        &lines,
    );
}
