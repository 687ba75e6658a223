//! Collective-operation correctness across launched universes.

use std::sync::Arc;

use cluster::{Cluster, ClusterConfig, TimeScale};
use simmpi::{FaultPlan, MpiResult, RankCtx, ReduceOp, Universe, UniverseConfig};

fn cluster(n: usize) -> Cluster {
    let cfg = ClusterConfig {
        nodes: n,
        ranks_per_node: 1,
        time_scale: TimeScale::instant(),
        ..ClusterConfig::default()
    };
    Cluster::new(cfg)
}

fn run<F>(n: usize, f: F) -> simmpi::LaunchReport
where
    F: Fn(&mut RankCtx) -> MpiResult<()> + Send + Sync,
{
    Universe::launch(
        &cluster(n),
        UniverseConfig::default(),
        Arc::new(FaultPlan::none()),
        f,
    )
}

#[test]
fn world_ranks_and_sizes() {
    for n in [1, 2, 3, 5, 8] {
        let report = run(n, |ctx| {
            assert_eq!(ctx.world().size(), n);
            assert_eq!(ctx.world().rank(), ctx.rank());
            assert_eq!(ctx.world().my_global(), ctx.rank());
            Ok(())
        });
        assert!(report.all_ok());
    }
}

#[test]
fn point_to_point_ring() {
    let n = 5;
    let report = run(n, |ctx| {
        let w = ctx.world();
        let me = w.rank();
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        w.send(next, 42, &[me as u64])?;
        let mut got = [0u64];
        let from = w.recv_into(Some(prev), 42, &mut got)?;
        assert_eq!(from, prev);
        assert_eq!(got[0], prev as u64);
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn sendrecv_halo_exchange() {
    let n = 4;
    let report = run(n, |ctx| {
        let w = ctx.world();
        let me = w.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        let mut from_left = [0.0f64; 3];
        w.sendrecv(right, 7, &[me as f64; 3], left, 7, &mut from_left)?;
        assert_eq!(from_left, [left as f64; 3]);
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn barrier_completes_at_all_sizes() {
    for n in [1, 2, 3, 4, 7, 8] {
        let report = run(n, |ctx| {
            for _ in 0..3 {
                ctx.world().barrier()?;
            }
            Ok(())
        });
        assert!(report.all_ok(), "barrier failed at n={n}");
    }
}

#[test]
fn bcast_from_every_root() {
    let n = 6;
    for root in 0..n {
        let report = run(n, move |ctx| {
            let w = ctx.world();
            let mut buf = if w.rank() == root {
                [13u64, 17, root as u64]
            } else {
                [0u64; 3]
            };
            w.bcast(root, &mut buf)?;
            assert_eq!(buf, [13, 17, root as u64]);
            Ok(())
        });
        assert!(report.all_ok(), "bcast failed for root={root}");
    }
}

#[test]
fn allreduce_sum_matches_closed_form() {
    for n in [1, 2, 3, 5, 8] {
        let report = run(n, move |ctx| {
            let w = ctx.world();
            let me = w.rank() as u64;
            let mut buf = [me, 2 * me];
            w.allreduce(&mut buf, ReduceOp::Sum)?;
            let s: u64 = (0..n as u64).sum();
            assert_eq!(buf, [s, 2 * s]);
            Ok(())
        });
        assert!(report.all_ok(), "allreduce failed at n={n}");
    }
}

#[test]
fn allreduce_min_max() {
    let n = 7;
    let report = run(n, |ctx| {
        let w = ctx.world();
        let v = (w.rank() as f64) - 3.0;
        assert_eq!(w.allreduce_scalar(v, ReduceOp::Min)?, -3.0);
        assert_eq!(w.allreduce_scalar(v, ReduceOp::Max)?, 3.0);
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn reduce_to_nonzero_root() {
    let n = 5;
    let report = run(n, |ctx| {
        let w = ctx.world();
        let mut buf = [w.rank() as i64 + 1];
        w.reduce(3, &mut buf, ReduceOp::Sum)?;
        if w.rank() == 3 {
            assert_eq!(buf[0], 15);
        }
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn gather_preserves_rank_order() {
    let n = 4;
    let report = run(n, |ctx| {
        let w = ctx.world();
        let data = [w.rank() as u32 * 10, w.rank() as u32 * 10 + 1];
        let gathered = w.gather(0, &data)?;
        if w.rank() == 0 {
            let g = gathered.expect("root gets data");
            assert_eq!(g, vec![0, 1, 10, 11, 20, 21, 30, 31]);
        } else {
            assert!(gathered.is_none());
        }
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn allgather_everyone_sees_everything() {
    let n = 3;
    let report = run(n, |ctx| {
        let w = ctx.world();
        let got = w.allgather(&[w.rank() as f32])?;
        assert_eq!(got, vec![0.0, 1.0, 2.0]);
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn allreduce_with_custom_combiner() {
    let n = 4;
    let report = run(n, |ctx| {
        let w = ctx.world();
        // Product via custom combiner.
        let mut buf = [w.rank() as u64 + 1];
        w.allreduce_with(&mut buf, |acc, src| {
            for (a, s) in acc.iter_mut().zip(src) {
                *a *= s;
            }
        })?;
        assert_eq!(buf[0], 24);
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn mixed_collective_sequence_stays_matched() {
    // Back-to-back different collectives must not cross-match tags.
    let n = 4;
    let report = run(n, |ctx| {
        let w = ctx.world();
        for i in 0..5u64 {
            let s = w.allreduce_scalar(i + w.rank() as u64, ReduceOp::Sum)?;
            w.barrier()?;
            let mut b = [s];
            w.bcast(0, &mut b)?;
            let all = w.allgather(&[b[0]])?;
            assert!(all.iter().all(|&x| x == all[0]));
        }
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn comm_split_partitions_by_color() {
    let n = 6;
    let report = run(n, |ctx| {
        let w = ctx.world();
        // Even/odd split; key reverses the order within each half.
        let color = (w.rank() % 2) as u64;
        let key = (n - w.rank()) as u64;
        let sub = w.split(color, key)?;
        assert_eq!(sub.size(), 3);
        // Keys descend with old rank, so new rank 0 is the highest old rank
        // of the color class.
        let expected_order: Vec<usize> = match color {
            0 => vec![4, 2, 0],
            _ => vec![5, 3, 1],
        };
        assert_eq!(*sub.group().as_slice(), expected_order[..]);
        // The sub-communicator must be fully operational.
        let sum = sub.allreduce_scalar(w.rank() as u64, ReduceOp::Sum)?;
        let expect: u64 = expected_order.iter().map(|&r| r as u64).sum();
        assert_eq!(sum, expect);
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
}

#[test]
fn comm_split_single_color_is_reordered_dup() {
    let n = 4;
    let report = run(n, |ctx| {
        let w = ctx.world();
        let sub = w.split(7, w.rank() as u64)?;
        assert_eq!(sub.size(), n);
        assert_eq!(sub.rank(), w.rank(), "identity keys preserve order");
        sub.barrier()?;
        Ok(())
    });
    assert!(report.all_ok());
}

#[test]
fn two_splits_with_the_same_colors_keep_their_own_groups() {
    // A child id is derived from (parent, color), not from the members:
    // the second split reuses both colors with other members, and each
    // handle must still carry the group its own split computed.
    let report = run(4, |ctx| {
        let w = ctx.world();
        let r = w.rank();
        let parity = w.split((r % 2) as u64, r as u64)?;
        let halves = w.split((r / 2) as u64, r as u64)?;
        assert_eq!(*parity.group().as_slice(), [r % 2, r % 2 + 2]);
        assert_eq!(*halves.group().as_slice(), [r / 2 * 2, r / 2 * 2 + 1]);
        assert_eq!(parity.rank(), r / 2);
        assert_eq!(halves.rank(), r % 2);
        Ok(())
    });
    assert!(report.all_ok(), "{:?}", report.outcomes);
}
