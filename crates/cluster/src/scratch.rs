//! Node-local scratch storage (tmpfs-like).
//!
//! The paper configures VeloC's scratch tier as "a filesystem folder mapped
//! to local memory", so the synchronous part of a checkpoint is just a memory
//! copy. Scratch contents are per-node: they survive the failure of *other*
//! nodes and even a full job relaunch (the node keeps running; only the
//! processes die), but are lost when their own node fails.

use std::time::Duration;

use bytes::Bytes;

use std::sync::Arc;

use crate::bandwidth::Governor;
use crate::blobs::Blobs;
use crate::clock::Clock;
use crate::TimeScale;

/// Per-node in-memory blob store with memory-speed bandwidth accounting.
pub struct NodeScratch {
    nodes: Vec<NodeStore>,
}

struct NodeStore {
    gov: Governor,
    blobs: Blobs,
}

impl NodeScratch {
    pub fn new(nodes: usize, bandwidth: f64, scale: TimeScale) -> Self {
        Self::with_clock(nodes, bandwidth, scale, &Arc::new(Clock::wall()))
    }

    /// Like [`NodeScratch::new`], with every node governor on the given
    /// shared time source.
    pub fn with_clock(nodes: usize, bandwidth: f64, scale: TimeScale, clock: &Arc<Clock>) -> Self {
        NodeScratch {
            nodes: (0..nodes)
                .map(|_| NodeStore {
                    gov: Governor::with_clock(bandwidth, Duration::ZERO, scale, Arc::clone(clock)),
                    blobs: Blobs::default(),
                })
                .collect(),
        }
    }

    fn node(&self, node: usize) -> &NodeStore {
        &self.nodes[node]
    }

    /// Store a blob on `node`, paying the modeled memory-copy time.
    pub fn write(&self, node: usize, path: &str, data: Bytes) -> Duration {
        let n = self.node(node);
        let d = n.gov.transfer(data.len());
        n.blobs.insert(path, data);
        d
    }

    /// Read a blob from `node`.
    pub fn read(&self, node: usize, path: &str) -> Option<(Bytes, Duration)> {
        let n = self.node(node);
        let data = n.blobs.get(path)?;
        let d = n.gov.transfer(data.len());
        Some((data, d))
    }

    pub fn exists(&self, node: usize, path: &str) -> bool {
        self.node(node).blobs.exists(path)
    }

    pub fn remove(&self, node: usize, path: &str) -> bool {
        self.node(node).blobs.remove(path)
    }

    /// List blobs on `node` with the given prefix.
    pub fn list(&self, node: usize, prefix: &str) -> Vec<String> {
        self.node(node).blobs.list(prefix)
    }

    /// The names directly under directory `dir` on `node` — see
    /// [`crate::ParallelFileSystem::children`].
    pub fn children(&self, node: usize, dir: &str) -> Vec<String> {
        self.node(node).blobs.children(dir)
    }

    /// Stored keys touched by metadata queries so far, over all nodes.
    pub fn keys_examined(&self) -> u64 {
        self.nodes.iter().map(|n| n.blobs.keys_examined()).sum()
    }

    /// Node failure: all scratch contents on `node` vanish.
    pub fn purge_node(&self, node: usize) {
        self.node(node).blobs.clear();
    }

    /// Drop everything (between harness experiments).
    pub fn clear(&self) {
        for n in &self.nodes {
            n.blobs.clear();
        }
    }

    pub fn stored_bytes(&self, node: usize) -> usize {
        self.node(node).blobs.bytes()
    }
}

impl std::fmt::Debug for NodeScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeScratch")
            .field("nodes", &self.nodes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(nodes: usize) -> NodeScratch {
        NodeScratch::new(nodes, 1.0e12, TimeScale::instant())
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
    fn list_is_sorted_and_filtered() {
        let s = scratch(1);
        s.write(0, "v2", Bytes::new());
        s.write(0, "v1", Bytes::new());
        s.write(0, "w1", Bytes::new());
        assert_eq!(s.list(0, "v"), vec!["v1", "v2"]);
    }

    #[test]
    fn stored_bytes_counts() {
        let s = scratch(1);
        s.write(0, "a", Bytes::from(vec![0u8; 10]));
        s.write(0, "b", Bytes::from(vec![0u8; 5]));
        assert_eq!(s.stored_bytes(0), 15);
    }
}
