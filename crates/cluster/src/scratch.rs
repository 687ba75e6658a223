//! Node-local scratch storage (tmpfs-like).
//!
//! The paper configures VeloC's scratch tier as "a filesystem folder mapped
//! to local memory", so the synchronous part of a checkpoint is just a memory
//! copy. Scratch contents are per-node: they survive the failure of *other*
//! nodes and even a full job relaunch (the node keeps running; only the
//! processes die), but are lost when their own node fails.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::bandwidth::Governor;
use crate::blobs::{Blobs, NameId, Names, ToKey};
use crate::clock::Clock;
use crate::TimeScale;

/// Per-node in-memory blob store with memory-speed bandwidth accounting.
pub struct NodeScratch {
    nodes: Vec<NodeStore>,
    names: Arc<Names>,
}

struct NodeStore {
    gov: Governor,
    blobs: Blobs,
}

impl NodeScratch {
    /// One store per node, each behind a governor on the shared time source
    /// `clock`; blob names are interned in `names`.
    pub fn new(
        nodes: usize,
        bandwidth: f64,
        scale: TimeScale,
        clock: &Arc<Clock>,
        names: &Arc<Names>,
    ) -> Self {
        NodeScratch {
            nodes: (0..nodes)
                .map(|_| NodeStore {
                    gov: Governor::with_clock(bandwidth, Duration::ZERO, scale, Arc::clone(clock)),
                    blobs: Blobs::default(),
                })
                .collect(),
            names: Arc::clone(names),
        }
    }

    fn node(&self, node: usize) -> &NodeStore {
        &self.nodes[node]
    }

    /// Store a blob on `node`, paying the modeled memory-copy time.
    pub fn write(&self, node: usize, at: impl ToKey, data: Bytes) -> Duration {
        let n = self.node(node);
        let d = n.gov.transfer(data.len());
        n.blobs.insert(at.to_key(&self.names), data);
        d
    }

    /// Read a blob from `node`.
    pub fn read(&self, node: usize, at: impl ToKey) -> Option<(Bytes, Duration)> {
        let n = self.node(node);
        let data = n.blobs.get(at.to_key(&self.names))?;
        let d = n.gov.transfer(data.len());
        Some((data, d))
    }

    pub fn exists(&self, node: usize, at: impl ToKey) -> bool {
        self.node(node).blobs.exists(at.to_key(&self.names))
    }

    pub fn remove(&self, node: usize, at: impl ToKey) -> bool {
        self.node(node).blobs.remove(at.to_key(&self.names))
    }

    /// [`crate::ParallelFileSystem::versions`] on `node`.
    pub fn versions(&self, node: usize, name: NameId, out: &mut Vec<u64>) {
        self.node(node).blobs.versions(name, out);
    }

    /// Stored keys touched by metadata queries so far, over all nodes.
    pub fn keys_examined(&self) -> u64 {
        self.nodes.iter().map(|n| n.blobs.keys_examined()).sum()
    }

    /// Node failure: all scratch contents on `node` vanish.
    pub fn purge_node(&self, node: usize) {
        self.node(node).blobs.clear();
    }

    pub fn stored_bytes(&self, node: usize) -> usize {
        self.node(node).blobs.bytes()
    }

    /// Drop everything (between harness experiments).
    pub fn clear(&self) {
        for n in &self.nodes {
            n.blobs.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(nodes: usize) -> NodeScratch {
        let clock = Arc::new(Clock::wall());
        NodeScratch::new(nodes, 1.0e12, TimeScale::instant(), &clock, &Arc::default())
    }

    #[test]
    fn per_node_isolation() {
        let s = scratch(2);
        s.write(0, "x", Bytes::from_static(b"a"));
        assert!(s.exists(0, "x"));
        assert!(!s.exists(1, "x"));
    }

    #[test]
    fn purge_only_affects_one_node() {
        let s = scratch(2);
        s.write(0, "x", Bytes::from_static(b"a"));
        s.write(1, "x", Bytes::from_static(b"b"));
        s.purge_node(0);
        assert!(!s.exists(0, "x"));
        assert!(s.exists(1, "x"));
    }

    #[test]
    fn stored_bytes_counts() {
        let s = scratch(1);
        s.write(0, "a", Bytes::from(vec![0u8; 10]));
        s.write(0, "b", Bytes::from(vec![0u8; 5]));
        assert_eq!(s.stored_bytes(0), 15);
    }
}
