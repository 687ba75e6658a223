//! Property-based tests (proptest) on core data structures and invariants.

use layered_resilience::apps::heatdis::jacobi_sweep_in_place;
use layered_resilience::apps::minimd::atoms::{generate_slab_atoms, Slab};
use layered_resilience::kokkos::capture::CaptureSession;
use layered_resilience::kokkos::View;
use layered_resilience::kokkos_resilience::CheckpointFilter;
use layered_resilience::redstore::Placement;
use layered_resilience::simmpi::pod;
use layered_resilience::simmpi::ReduceOp;
use layered_resilience::veloc::{serial, Protected, VecRegion};
use proptest::prelude::*;
use std::sync::Arc;

/// Arbitrary payloads as live protected regions, ids kept.
fn live(regions: &[(u32, Vec<u8>)]) -> Vec<(u32, Arc<dyn Protected>)> {
    regions
        .iter()
        .map(|(id, data)| {
            let region: Arc<dyn Protected> = Arc::new(VecRegion::new(data.clone()));
            (*id, region)
        })
        .collect()
}

proptest! {
    /// POD slice ↔ bytes is an exact roundtrip for arbitrary f64 bit
    /// patterns (including NaNs and infinities).
    #[test]
    fn pod_roundtrip_f64(xs in proptest::collection::vec(any::<u64>(), 0..256)) {
        let xs: Vec<f64> = xs.into_iter().map(f64::from_bits).collect();
        let b = pod::to_bytes(&xs);
        let ys: Vec<f64> = pod::vec_from_bytes(&b);
        prop_assert_eq!(xs.len(), ys.len());
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// Packing live regions into a checkpoint frame and unpacking it is an
    /// exact roundtrip for arbitrary region sets.
    #[test]
    fn checkpoint_blob_roundtrip(
        regions in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..128)),
            0..16
        )
    ) {
        let frame = serial::unpack(&serial::pack(None, &live(&regions), &[]))
            .expect("intact frame unpacks");
        prop_assert!(frame.is_full());
        let got: Vec<(u32, Vec<u8>)> =
            frame.changed.into_iter().map(|(id, p)| (id, p.to_vec())).collect();
        prop_assert_eq!(got, regions);
    }

    /// Truncating a packed blob anywhere must fail cleanly, never panic.
    #[test]
    fn truncated_blob_never_panics(
        regions in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..64)),
            1..8
        ),
        cut_fraction in 0.0f64..1.0
    ) {
        let blob = serial::pack(None, &live(&regions), &[]);
        let cut = ((blob.len() as f64) * cut_fraction) as usize;
        if cut < blob.len() {
            prop_assert_eq!(serial::unpack(&blob.slice(0..cut)), None);
        }
    }

    /// Reductions match their sequential definitions element-wise.
    #[test]
    fn reduce_ops_match_reference(
        a in proptest::collection::vec(-1e6f64..1e6, 1..64),
        b_seed in proptest::collection::vec(-1e6f64..1e6, 1..64)
    ) {
        let n = a.len().min(b_seed.len());
        let a = &a[..n];
        let b = &b_seed[..n];
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let mut acc = a.to_vec();
            op.apply(&mut acc, b);
            for i in 0..n {
                let expect = match op {
                    ReduceOp::Sum => a[i] + b[i],
                    ReduceOp::Min => a[i].min(b[i]),
                    ReduceOp::Max => a[i].max(b[i]),
                };
                prop_assert_eq!(acc[i], expect);
            }
        }
    }

    /// Jacobi sweeps obey the discrete maximum principle: every output
    /// value stays within the input range.
    #[test]
    fn jacobi_maximum_principle(
        rows in 1usize..6,
        cols in 1usize..8,
        seed in proptest::collection::vec(0.0f64..100.0, 1..300)
    ) {
        let len = (rows + 2) * cols;
        let src: Vec<f64> = (0..len).map(|i| seed[i % seed.len()]).collect();
        let mut grid = src.clone();
        jacobi_sweep_in_place(&mut grid, &mut vec![0.0; 2 * cols], rows, cols);
        let (lo, hi) = src.iter().fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
        for r in 1..=rows {
            for c_ in 0..cols {
                let v = grid[r * cols + c_];
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
            }
        }
    }

    /// IMR buddies (two replicas) are a proper matching on even and odd
    /// communicators alike: every rank has exactly one holder, never
    /// itself, and no holder keeps two copies (for size ≥ 2).
    #[test]
    fn imr_buddies_are_bijective(size_half in 1usize..32) {
        for n in [size_half * 2, size_half * 2 + 1] {
            let nodes: Vec<usize> = (0..n).collect();
            let placement = Placement::compute(&nodes, 2).expect("one rank per node always places");
            let mut seen = vec![false; n];
            for r in 0..n {
                let holders: Vec<usize> = placement.replica_holders(r, 2).collect();
                prop_assert_eq!(holders.len(), 1);
                let h = holders[0];
                prop_assert!(h < n);
                prop_assert_ne!(h, r);
                prop_assert!(!seen[h], "holder collision");
                seen[h] = true;
            }
        }
    }

    /// Capture-session deduplication never double-counts an allocation's
    /// bytes and preserves every distinct view object.
    #[test]
    fn capture_dedup_counts(n_views in 1usize..24, dup_every in 1usize..6) {
        let views: Vec<View<u64>> =
            (0..n_views).map(|i| View::new_1d(format!("v{i}"), 8)).collect();
        let dups: Vec<View<u64>> = views
            .iter()
            .step_by(dup_every)
            .map(|v| v.duplicate_handle("dup"))
            .collect();
        let s = CaptureSession::new();
        s.record(|| {
            for v in &views {
                let _ = v.read();
            }
            for d in &dups {
                let _ = d.read();
            }
            // Repeat accesses must not inflate anything.
            for v in &views {
                let _ = v.read();
            }
        });
        let uniq = s.unique_views();
        prop_assert_eq!(uniq.len(), views.len() + dups.len());
        let distinct_allocs: std::collections::HashSet<u64> =
            uniq.iter().map(|r| r.meta.alloc_id).collect();
        prop_assert_eq!(distinct_allocs.len(), n_views);
    }

    /// `CheckpointFilter::for_total` produces at least the requested number
    /// of checkpoints (never fewer) and never more than one per iteration.
    #[test]
    fn checkpoint_filter_counts(iterations in 1u64..500, count in 1u64..50) {
        let f = CheckpointFilter::for_total(iterations, count);
        let fired = (0..iterations).filter(|&i| f.should_checkpoint(i)).count() as u64;
        prop_assert!(fired >= count.min(iterations));
        prop_assert!(fired <= iterations);
    }

    /// FCC slab generation: atom count is exact, ids are globally unique,
    /// and every atom lies inside its rank's slab.
    #[test]
    fn fcc_slabs_partition_ids(ranks in 1usize..5, cx in 1usize..4, cy in 1usize..4, cz in 1usize..4) {
        let cells = [cx, cy, cz];
        let mut all_ids = Vec::new();
        for r in 0..ranks {
            let slab = Slab::new(r, ranks, cells);
            let atoms = generate_slab_atoms(r, ranks, cells);
            prop_assert_eq!(atoms.len(), 4 * cx * cy * cz);
            for a in &atoms {
                prop_assert!(a.pos[0] >= slab.xlo - 1e-12 && a.pos[0] < slab.xhi);
                all_ids.push(a.id);
            }
        }
        let n = all_ids.len();
        all_ids.sort_unstable();
        all_ids.dedup();
        prop_assert_eq!(all_ids.len(), n, "duplicate atom ids across ranks");
    }

    /// View snapshot/restore is an exact roundtrip under arbitrary writes.
    #[test]
    fn view_snapshot_roundtrip(data in proptest::collection::vec(any::<u64>(), 1..200)) {
        let v = View::from_vec("p", data.clone());
        let snap = v.snapshot_bytes();
        v.fill(0);
        v.restore_bytes(&snap);
        prop_assert_eq!(&*v.read_uncaptured(), &data);
    }
}
