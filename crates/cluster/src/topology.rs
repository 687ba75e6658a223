//! Rank→node placement.

/// Static placement of MPI ranks onto physical nodes.
///
/// Ranks are block-distributed: ranks `[n*rpn, (n+1)*rpn)` live on node `n`.
/// The paper runs one rank per node, so by default `node_of` is the identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    ranks_per_node: usize,
}

impl Topology {
    pub fn new(nodes: usize, ranks_per_node: usize) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(
            ranks_per_node > 0,
            "topology needs at least one rank per node"
        );
        Topology {
            nodes,
            ranks_per_node,
        }
    }

    pub fn nodes(&self) -> usize {
        self.nodes
    }

    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    pub fn total_ranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }

    /// The node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        assert!(rank < self.total_ranks(), "rank {rank} out of range");
        rank / self.ranks_per_node
    }

    /// Whether two ranks share a node (intra-node traffic skips the NIC).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement() {
        let t = Topology::new(3, 4);
        assert_eq!(t.total_ranks(), 12);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(11), 2);
    }

    #[test]
    fn one_rank_per_node_is_identity() {
        let t = Topology::new(5, 1);
        for r in 0..5 {
            assert_eq!(t.node_of(r), r);
        }
    }

    #[test]
    fn same_node_detection() {
        let t = Topology::new(2, 2);
        assert!(t.same_node(0, 1));
        assert!(!t.same_node(1, 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_of_bounds_checked() {
        Topology::new(2, 2).node_of(4);
    }
}
