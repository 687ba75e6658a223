//! MiniMD's neighbor-list build at the `minimd_relaunch` rank shape: 864
//! owned atoms (6 × 6 × 6 FCC cells, rank 3 of 8, on the initial lattice)
//! plus the ghost shell its two neighbors send.
//!
//! * `neighbors_cells` — `build_neighbors`, the cell search MiniMD runs;
//! * `neighbors_all_pairs` — `build_neighbors_all_pairs`, the definition it
//!   is property-tested against (`apps/tests/neighbor_props.rs`): one
//!   distance per (owned, any) pair. Both produce the same lists, which this
//!   target asserts before timing.
//!
//! Writes `target/BENCH_minimd.json` (median and minimum ns per config, the
//! atom and pair counts); `scripts/bench_gate.sh` holds the search to its
//! oracle within that one run.

use apps::minimd::atoms::{generate_slab_atoms, Slab};
use apps::minimd::neighbor::{build_neighbors, build_neighbors_all_pairs};
use bench::{elapsed_ns, measure, write_results};

const RANK: usize = 3;
const RANKS: usize = 8;
const CELLS: [usize; 3] = [6, 6, 6];
/// MiniMD's neighbor cutoff (force cutoff 2.5 + skin 0.3).
const CUTNEIGH: f64 = 2.8;
const SAMPLES: usize = 31;
const WARMUP: usize = 3;

/// The signature both searches share.
type Search = fn(&Slab, &[f64], &[u64], usize, usize, f64, &mut [u32], &mut [u32], usize) -> usize;

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

fn main() {
    let slab = Slab::new(RANK, RANKS, CELLS);
    let (x, ids, nlocal) = rank_shape(&slab);
    let nall = ids.len();
    let maxneigh = 160;
    let search = |f: Search| {
        let mut count = vec![0u32; nlocal];
        let mut list = vec![0u32; nlocal * maxneigh];
        let pairs = f(
            &slab,
            &x,
            &ids,
            nlocal,
            nall,
            CUTNEIGH * CUTNEIGH,
            &mut count,
            &mut list,
            maxneigh,
        );
        (pairs, count, list)
    };
    let configs: [(&str, Search); 2] = [
        ("neighbors_cells", build_neighbors),
        ("neighbors_all_pairs", build_neighbors_all_pairs),
    ];
    let lists = configs.map(|(_, f)| search(f));
    assert!(
        lists[0] == lists[1],
        "the cell search differs from its oracle"
    );
    let pairs = lists[0].0;

    let mut lines = Vec::new();
    for (name, f) in configs {
        let t = measure(WARMUP, SAMPLES, || elapsed_ns(|| search(f).0));
        println!(
            "{name:<20} median {:>10} ns  min {:>10} ns ({nlocal} owned, {nall} atoms, {pairs} pairs)",
            t.median_ns, t.min_ns
        );
        lines.push(format!(
            "{{\"name\":\"{name}\",\"median_ns\":{},\"min_ns\":{},\"pairs\":{pairs}}}",
            t.median_ns, t.min_ns
        ));
    }
    write_results(
        "minimd",
        &format!("\"bench\":\"minimd\",\"nlocal\":{nlocal},\"nall\":{nall}"),
        &lines,
    );
}
