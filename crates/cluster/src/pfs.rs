//! Parallel filesystem model.
//!
//! A small, fixed pool of I/O servers fronts a persistent blob store. Writers
//! are striped across servers by path hash; each server is a bandwidth
//! governor, so the filesystem's aggregate ingest rate is fixed regardless of
//! how many compute ranks write simultaneously. That fixed ceiling is what
//! bottlenecks disk-based checkpointing in the paper's Figure 5 while also
//! bounding the congestion it can generate.
//!
//! Contents survive simulated job relaunches and node failures — the harness
//! holds the same `ParallelFileSystem` across `Universe` launches.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use bytes::Bytes;

use std::sync::Arc;

use crate::bandwidth::Governor;
use crate::blobs::Blobs;
use crate::clock::Clock;
use crate::TimeScale;

/// Persistent, bandwidth-limited blob storage.
pub struct ParallelFileSystem {
    servers: Vec<Governor>,
    store: Blobs,
}

impl ParallelFileSystem {
    /// `aggregate_bandwidth` is split evenly across `servers` governors.
    pub fn new(
        servers: usize,
        aggregate_bandwidth: f64,
        latency: Duration,
        scale: TimeScale,
    ) -> Self {
        Self::with_clock(
            servers,
            aggregate_bandwidth,
            latency,
            scale,
            &Arc::new(Clock::wall()),
        )
    }

    /// Like [`ParallelFileSystem::new`], with every server governor on the
    /// given shared time source.
    pub fn with_clock(
        servers: usize,
        aggregate_bandwidth: f64,
        latency: Duration,
        scale: TimeScale,
        clock: &Arc<Clock>,
    ) -> Self {
        assert!(servers > 0, "need at least one I/O server");
        let per_server = aggregate_bandwidth / servers as f64;
        ParallelFileSystem {
            servers: (0..servers)
                .map(|_| Governor::with_clock(per_server, latency, scale, Arc::clone(clock)))
                .collect(),
            store: Blobs::default(),
        }
    }

    fn server_idx(&self, path: &str) -> usize {
        let mut h = DefaultHasher::new();
        path.hash(&mut h);
        (h.finish() as usize) % self.servers.len()
    }

    fn server_for(&self, path: &str) -> &Governor {
        &self.servers[self.server_idx(path)]
    }

    /// Write a blob, paying the modeled transfer time on the responsible
    /// server. Returns the modeled duration.
    pub fn write(&self, path: &str, data: Bytes) -> Duration {
        let d = self.server_for(path).transfer(data.len());
        self.store.insert(path, data);
        d
    }

    /// Read a blob, paying the modeled transfer time.
    pub fn read(&self, path: &str) -> Option<(Bytes, Duration)> {
        let data = self.store.get(path)?;
        let d = self.server_for(path).transfer(data.len());
        Some((data, d))
    }

    /// Whether a blob exists (metadata query; free).
    pub fn exists(&self, path: &str) -> bool {
        self.store.exists(path)
    }

    /// Remove a blob. Returns whether it existed.
    pub fn remove(&self, path: &str) -> bool {
        self.store.remove(path)
    }

    /// List stored paths with the given prefix (metadata query; free).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.store.list(prefix)
    }

    /// The names directly under directory `dir` (a prefix ending in `/`),
    /// ascending — `readdir`: `["v1", "v2"]` for `ck/v1/r0`, `ck/v1/r1`,
    /// `ck/v2/r0` under `"ck/"`. One seek per name, however many paths each
    /// holds (metadata query; free).
    pub fn children(&self, dir: &str) -> Vec<String> {
        self.store.children(dir)
    }

    /// Stored keys touched by metadata queries so far (`list`, `children`,
    /// `exists`) — a work count, for linearity tests and telemetry.
    pub fn keys_examined(&self) -> u64 {
        self.store.keys_examined()
    }

    /// Total stored bytes (for tests and reporting).
    pub fn stored_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Drop all contents (between harness experiments).
    pub fn clear(&self) {
        self.store.clear();
    }
}

impl std::fmt::Debug for ParallelFileSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelFileSystem")
            .field("servers", &self.servers.len())
            .field("blobs", &self.store.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfs() -> ParallelFileSystem {
        ParallelFileSystem::new(2, 1.0e9, Duration::ZERO, TimeScale::instant())
    }

    #[test]
    fn write_read_roundtrip() {
        let p = pfs();
        p.write("a/b", Bytes::from_static(b"hello"));
        let (data, _) = p.read("a/b").unwrap();
        assert_eq!(&data[..], b"hello");
    }

    #[test]
    fn read_missing_is_none() {
        assert!(pfs().read("nope").is_none());
    }

    #[test]
    fn list_filters_by_prefix() {
        let p = pfs();
        p.write("ckpt/1/r0", Bytes::new());
        p.write("ckpt/1/r1", Bytes::new());
        p.write("other", Bytes::new());
        assert_eq!(p.list("ckpt/1/"), vec!["ckpt/1/r0", "ckpt/1/r1"]);
    }

    #[test]
    fn remove_and_exists() {
        let p = pfs();
        p.write("x", Bytes::from_static(b"1"));
        assert!(p.exists("x"));
        assert!(p.remove("x"));
        assert!(!p.exists("x"));
        assert!(!p.remove("x"));
    }

    #[test]
    fn overwrite_replaces() {
        let p = pfs();
        p.write("x", Bytes::from_static(b"old"));
        p.write("x", Bytes::from_static(b"new"));
        assert_eq!(&p.read("x").unwrap().0[..], b"new");
        assert_eq!(p.stored_bytes(), 3);
    }

    #[test]
    fn aggregate_bandwidth_is_fixed() {
        // One server at 1 GB/s: two 100 MB writes to the same stripe queue.
        let p = ParallelFileSystem::new(1, 1.0e9, Duration::ZERO, TimeScale::realtime());
        let d1 = p.write("a", Bytes::from(vec![0u8; 50_000_000]));
        let d2 = p.write("a", Bytes::from(vec![0u8; 50_000_000]));
        assert!(d2 >= d1, "second write should observe queueing");
    }
}
