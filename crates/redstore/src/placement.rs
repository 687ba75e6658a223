//! Topology-aware placement of redundancy groups.
//!
//! The store's coverage claims only hold if the replicas/shards of one
//! group live on distinct modeled nodes — a whole-node failure must never
//! take out more than one member of any group. [`Placement::compute`]
//! guarantees that *by construction*: ranks are dealt to groups node by
//! node, so co-located ranks land in different groups whenever the shape
//! makes it possible, and an impossible shape is a typed error instead of
//! silent single-node redundancy.
//!
//! At width 2 the groups are the paper's buddy pairs (§V.A): rank
//! neighbours 0↔1, 2↔3, … when every rank has a node to itself, cross-node
//! pairs otherwise, and one group of three when the size is odd.

use simmpi::Comm;

/// Typed placement failures. Deterministic from the communicator shape, so
/// every rank reaches the same verdict collectively.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementError {
    /// Fewer ranks than one group needs.
    InsufficientRanks { ranks: usize, width: usize },
    /// Some node hosts more ranks than there are groups, so two members of
    /// one group would share that node.
    InsufficientNodes {
        ranks: usize,
        width: usize,
        max_per_node: usize,
        groups: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::InsufficientRanks { ranks, width } => {
                write!(f, "{ranks} ranks cannot form a width-{width} group")
            }
            PlacementError::InsufficientNodes {
                ranks,
                width,
                max_per_node,
                groups,
            } => write!(
                f,
                "{ranks} ranks / width {width}: a node hosts {max_per_node} ranks \
                 but only {groups} groups exist — distinct-node placement impossible"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// The node hosting each communicator rank, indexed by comm rank.
pub fn comm_node_map(comm: &Comm) -> Vec<usize> {
    let topo = comm.router().cluster().topology().clone();
    (0..comm.size())
        .map(|r| topo.node_of(comm.global_of(r)))
        .collect()
}

/// Node buckets ordered most-loaded first (ties to the lower node id),
/// each bucket's ranks ascending. The deterministic backbone of the group
/// deal.
fn node_buckets(nodes: &[usize]) -> Vec<Vec<usize>> {
    let mut buckets: Vec<(usize, Vec<usize>)> = Vec::new();
    for (rank, &node) in nodes.iter().enumerate() {
        match buckets.iter_mut().find(|(n, _)| *n == node) {
            Some((_, b)) => b.push(rank),
            None => buckets.push((node, vec![rank])),
        }
    }
    buckets.sort_by(|(an, ab), (bn, bb)| bb.len().cmp(&ab.len()).then(an.cmp(bn)));
    buckets.into_iter().map(|(_, b)| b).collect()
}

/// A partition of the communicator into redundancy groups.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    groups: Vec<Vec<usize>>,
}

impl Placement {
    /// Partition `nodes.len()` ranks into groups of at least `width`
    /// members, no two members of a group sharing a node.
    ///
    /// Ranks are dealt card-style across `floor(ranks / width)` groups in
    /// *concatenated bucket* order (node by node): one node's ranks occupy
    /// consecutive deal positions, so they land on distinct residues
    /// mod `groups` exactly when the node hosts at most `groups` ranks —
    /// checked up front, typed error otherwise. The invariant therefore
    /// holds by construction, not by search.
    ///
    /// With one rank per node every partition is distinct-node, so the
    /// deal is skipped and groups are runs of neighbouring ranks: that
    /// keeps a group's composition independent of which node a replacement
    /// spare joined on, and makes width-2 groups the buddy pairs 0↔1, 2↔3.
    pub fn compute(nodes: &[usize], width: usize) -> Result<Placement, PlacementError> {
        let ranks = nodes.len();
        if width < 2 || ranks < width {
            return Err(PlacementError::InsufficientRanks { ranks, width });
        }
        let n_groups = ranks / width;
        let buckets = node_buckets(nodes);
        let max_per_node = buckets.first().map_or(0, Vec::len);
        if max_per_node > n_groups {
            return Err(PlacementError::InsufficientNodes {
                ranks,
                width,
                max_per_node,
                groups: n_groups,
            });
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        if max_per_node == 1 {
            for rank in 0..ranks {
                if let Some(g) = groups.get_mut(rank * n_groups / ranks) {
                    g.push(rank);
                }
            }
        } else {
            for (i, rank) in buckets.into_iter().flatten().enumerate() {
                if let Some(g) = groups.get_mut(i % n_groups) {
                    g.push(rank);
                }
            }
            for g in &mut groups {
                g.sort_unstable();
            }
        }
        Ok(Placement { groups })
    }

    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The group containing `rank` and the rank's position inside it.
    pub fn locate(&self, rank: usize) -> Option<(&[usize], usize)> {
        self.groups
            .iter()
            .find_map(|g| Some((g.as_slice(), g.iter().position(|&r| r == rank)?)))
    }

    /// The ranks holding a full copy of `rank`'s payload under
    /// `Replicate { k }`: the next `k-1` members of its group, in ring
    /// order (at `k = 2`, its buddy). Empty when `rank` is not placed.
    pub fn replica_holders(&self, rank: usize, k: usize) -> impl Iterator<Item = usize> + '_ {
        self.locate(rank).into_iter().flat_map(move |(group, pos)| {
            let holders = group.iter().cycle().skip(pos + 1);
            holders.take(k.saturating_sub(1)).copied()
        })
    }

    /// Check the invariant against a node map (tests; construction already
    /// guarantees it).
    pub fn all_groups_on_distinct_nodes(&self, nodes: &[usize]) -> bool {
        self.groups.iter().all(|g| {
            let seen: Option<Vec<usize>> = g.iter().map(|&r| nodes.get(r).copied()).collect();
            let Some(mut seen) = seen else {
                return false;
            };
            seen.sort_unstable();
            let n = seen.len();
            seen.dedup();
            seen.len() == n
        })
    }

    /// Rebuild from serialized group lists (restore-side layout transfer).
    pub fn from_groups(groups: Vec<Vec<usize>>) -> Placement {
        Placement { groups }
    }
}

/// Can `nodes.len()` ranks form distinct-node groups of `width`?
pub fn feasible(nodes: &[usize], width: usize) -> bool {
    Placement::compute(nodes, width).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_rank_per_node_fills_groups_in_order() {
        let nodes = [0, 1, 2, 3];
        let p = Placement::compute(&nodes, 4).unwrap();
        assert_eq!(p.groups(), &[vec![0, 1, 2, 3]]);
        assert!(p.all_groups_on_distinct_nodes(&nodes));
    }

    #[test]
    fn colocated_ranks_split_across_groups() {
        // Two nodes, two ranks each: naive {0,1},{2,3} grouping would put
        // both members of each pair on one node.
        let nodes = [0, 0, 1, 1];
        let p = Placement::compute(&nodes, 2).unwrap();
        assert!(p.all_groups_on_distinct_nodes(&nodes));
        assert_eq!(p.groups().len(), 2);
        for g in p.groups() {
            assert_eq!(g.len(), 2);
        }
    }

    #[test]
    fn uneven_sizes_spread_the_remainder() {
        let nodes = [0, 1, 2, 3, 4];
        let p = Placement::compute(&nodes, 2).unwrap();
        let mut sizes: Vec<usize> = p.groups().iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
        assert!(p.all_groups_on_distinct_nodes(&nodes));
    }

    #[test]
    fn overloaded_node_is_a_typed_error() {
        // Three of four ranks on node 0: one width-2 group pair must
        // collide. groups = 2, max load 3.
        let nodes = [0, 0, 0, 1];
        assert!(matches!(
            Placement::compute(&nodes, 4),
            Err(PlacementError::InsufficientNodes { .. })
        ));
        // Width 2 also fails: 2 groups but node 0 has 3 ranks.
        assert!(matches!(
            Placement::compute(&nodes, 2),
            Err(PlacementError::InsufficientNodes {
                max_per_node: 3,
                groups: 2,
                ..
            })
        ));
    }

    #[test]
    fn too_few_ranks_is_a_typed_error() {
        assert!(matches!(
            Placement::compute(&[0, 1], 3),
            Err(PlacementError::InsufficientRanks { ranks: 2, width: 3 })
        ));
    }

    /// `holder[r]` / `source[r]` of the buddy scheme, read off a width-2
    /// placement: who keeps `r`'s copy, and whose copy `r` keeps.
    fn buddy_maps(p: &Placement, n: usize) -> (Vec<usize>, Vec<usize>) {
        let holder: Vec<usize> = (0..n)
            .map(|r| {
                let hs: Vec<usize> = p.replica_holders(r, 2).collect();
                assert_eq!(hs.len(), 1, "rank {r} has exactly one buddy");
                hs[0]
            })
            .collect();
        let mut source = vec![usize::MAX; n];
        for (r, &h) in holder.iter().enumerate() {
            assert_eq!(source[h], usize::MAX, "rank {h} holds two copies");
            source[h] = r;
        }
        (holder, source)
    }

    #[test]
    fn two_replica_buddies_sit_on_other_nodes_and_form_a_permutation() {
        // Balanced multi-rank nodes, and one rank per node at even and odd
        // sizes.
        let balanced = [(2usize, 2usize), (2, 3), (3, 2), (4, 2), (3, 3)];
        let flat = [(2usize, 1usize), (4, 1), (8, 1), (3, 1), (5, 1), (7, 1)];
        for (n_nodes, rpn) in balanced.into_iter().chain(flat) {
            let nodes: Vec<usize> = (0..n_nodes * rpn).map(|r| r / rpn).collect();
            let n = nodes.len();
            let p = Placement::compute(&nodes, 2).unwrap();
            let (holder, source) = buddy_maps(&p, n);
            for r in 0..n {
                assert_ne!(
                    nodes[r], nodes[holder[r]],
                    "{n_nodes}x{rpn}: rank {r} → {}",
                    holder[r]
                );
                assert_eq!(source[holder[r]], r, "holder/source maps are inverse");
                assert_eq!(holder[source[r]], r, "holder/source maps are inverse");
            }
        }
    }

    #[test]
    fn one_rank_per_node_pairs_rank_neighbours() {
        // Even sizes: the paper's buddy pairs 0↔1, 2↔3, …
        let p = Placement::compute(&[0, 1, 2, 3, 4, 5], 2).unwrap();
        assert_eq!(p.groups(), &[vec![0, 1], vec![2, 3], vec![4, 5]]);
        // Odd sizes: one group of three, walked as a ring.
        let p = Placement::compute(&[0, 1, 2, 3, 4], 2).unwrap();
        assert_eq!(p.groups(), &[vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(p.replica_holders(2, 2).collect::<Vec<_>>(), vec![0]);
        // Which node a replacement joined on does not reshuffle the pairs.
        let p = Placement::compute(&[0, 9, 2, 3], 2).unwrap();
        assert_eq!(p.groups(), &[vec![0, 1], vec![2, 3]]);
        // An unplaced rank has no holders (a typed miss upstream, no panic).
        assert_eq!(p.replica_holders(7, 2).count(), 0);
    }

    #[test]
    fn a_node_hosting_most_ranks_is_a_typed_error_at_width_two() {
        // Some pair would have to share the crowded node and cover nothing
        // against its loss: refuse rather than co-locate.
        for nodes in [&[0usize, 0, 0, 1][..], &[0, 0, 0, 0], &[0, 0, 0, 1, 2]] {
            assert!(
                matches!(
                    Placement::compute(nodes, 2),
                    Err(PlacementError::InsufficientNodes { .. })
                ),
                "{nodes:?}"
            );
        }
    }

    #[test]
    fn skewed_loads_at_the_feasibility_edge_stay_distinct() {
        // Loads 3,2,1 with 3 groups: an interleaved deal would collide
        // (ranks 0 and 1 both land in group 0); the concatenated deal
        // cannot, because node 0's ranks sit on consecutive positions.
        let nodes = [0, 0, 0, 1, 1, 2];
        let p = Placement::compute(&nodes, 2).unwrap();
        assert!(p.all_groups_on_distinct_nodes(&nodes));
    }

    #[test]
    fn invariant_holds_across_many_shapes() {
        for (nodes, rpn) in [(4usize, 1usize), (4, 2), (3, 2), (6, 2), (2, 2), (5, 3)] {
            let map: Vec<usize> = (0..nodes * rpn).map(|r| r / rpn).collect();
            for width in 2..=4 {
                if let Ok(p) = Placement::compute(&map, width) {
                    assert!(
                        p.all_groups_on_distinct_nodes(&map),
                        "nodes={nodes} rpn={rpn} width={width}"
                    );
                    let total: usize = p.groups().iter().map(Vec::len).sum();
                    assert_eq!(total, map.len(), "every rank assigned");
                    for g in p.groups() {
                        assert!(g.len() >= width, "group below width");
                    }
                }
            }
        }
    }
}
