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

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::bandwidth::Governor;
use crate::blobs::{Blobs, Key, NameId, Names, ToKey};
use crate::clock::Clock;
use crate::TimeScale;

/// Persistent, bandwidth-limited blob storage.
pub struct ParallelFileSystem {
    servers: Vec<Governor>,
    store: Blobs,
    names: Arc<Names>,
}

impl ParallelFileSystem {
    /// `aggregate_bandwidth` is split evenly across `servers` governors,
    /// each on the shared time source `clock`; blob names are interned in
    /// `names`.
    pub fn new(
        servers: usize,
        aggregate_bandwidth: f64,
        latency: Duration,
        scale: TimeScale,
        clock: &Arc<Clock>,
        names: &Arc<Names>,
    ) -> Self {
        assert!(servers > 0, "need at least one I/O server");
        let per_server = aggregate_bandwidth / servers as f64;
        ParallelFileSystem {
            servers: (0..servers)
                .map(|_| Governor::with_clock(per_server, latency, scale, Arc::clone(clock)))
                .collect(),
            store: Blobs::default(),
            names: Arc::clone(names),
        }
    }

    /// The server striped to `key`: the same for every key as a hash of
    /// its `"{name}/v{version}/r{rank}"` path string.
    fn server_for(&self, key: Key) -> &Governor {
        &self.servers[self.names.stripe(key, self.servers.len())]
    }

    /// Write a blob, paying the modeled transfer time on the responsible
    /// server. Returns the modeled duration.
    pub fn write(&self, at: impl ToKey, data: Bytes) -> Duration {
        let key = at.to_key(&self.names);
        let d = self.server_for(key).transfer(data.len());
        self.store.insert(key, data);
        d
    }

    /// Read a blob, paying the modeled transfer time.
    pub fn read(&self, at: impl ToKey) -> Option<(Bytes, Duration)> {
        let key = at.to_key(&self.names);
        let data = self.store.get(key)?;
        let d = self.server_for(key).transfer(data.len());
        Some((data, d))
    }

    /// Whether a blob exists (metadata query; free).
    pub fn exists(&self, at: impl ToKey) -> bool {
        self.store.exists(at.to_key(&self.names))
    }

    /// Remove a blob. Returns whether it existed.
    pub fn remove(&self, at: impl ToKey) -> bool {
        self.store.remove(at.to_key(&self.names))
    }

    /// Append the versions stored under `name` to `out`, ascending: one
    /// seek per version, however many ranks stored it (metadata; free).
    pub fn versions(&self, name: NameId, out: &mut Vec<u64>) {
        self.store.versions(name, out);
    }

    /// Stored keys touched by metadata queries so far (`versions`,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn pfs_at(servers: usize, scale: TimeScale) -> ParallelFileSystem {
        let clock = Arc::new(Clock::wall());
        ParallelFileSystem::new(
            servers,
            1.0e9,
            Duration::ZERO,
            scale,
            &clock,
            &Arc::default(),
        )
    }

    fn pfs() -> ParallelFileSystem {
        pfs_at(2, TimeScale::instant())
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
        let p = pfs_at(1, TimeScale::realtime());
        let d1 = p.write("a", Bytes::from(vec![0u8; 50_000_000]));
        let d2 = p.write("a", Bytes::from(vec![0u8; 50_000_000]));
        assert!(d2 >= d1, "second write should observe queueing");
    }
}
