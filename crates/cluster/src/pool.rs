//! The cluster's buffer pool: checkpoint buffers recycled within one run.
//!
//! A peer-memory checkpoint builds a frame and its wire shards at every
//! version, and drops the previous version's once the next one commits.
//! Allocated fresh, every one of those buffers is faulted in page by page
//! and zeroed; recycled, it is memory that is already mapped, and it is
//! not zeroed again, because every writer writes every byte it shares (a
//! frame's meta and payloads, a shard's padding). [`Pool::take`] hands out
//! a buffer from what has come back, holding its previous user's bytes,
//! or `None` — a miss, and the caller allocates as it would without a
//! pool. Debug builds fill a recycled buffer with [`POISON`] instead, so
//! in every debug-build suite a byte a writer leaves unwritten is not a
//! zero that happens to be right. [`Pool::share`] freezes a
//! filled buffer into [`Bytes`] whose owner hands the `Vec` back when the
//! last handle drops. Only buffers of at least [`MIN_POOLED`] bytes take
//! part; smaller ones cost less to allocate than to lock the pool for.
//!
//! The pool has one owner, the [`crate::Cluster`], and no setting. A lent
//! buffer reaches its pool through a `Weak`, so a buffer is recycled only
//! inside the run that allocated it, and one that outlives its cluster is
//! freed. It never retains more bytes than are outstanding (lent and still
//! held): a buffer coming back past that bound evicts the oldest it
//! retains, so when a run lets go of everything the pool is empty, and
//! when frame sizes drift between versions the stale sizes age out.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};

use bytes::Bytes;
use parking_lot::Mutex;

/// The smallest buffer the pool recycles, in bytes.
const MIN_POOLED: usize = 64 << 10;

/// What a recycled buffer holds in a debug build: every byte a writer fails
/// to overwrite reads `0xA5` rather than a zero or a stale payload byte.
const POISON: u8 = 0xA5;

/// What the pool has done so far ([`Pool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests served from a recycled buffer.
    pub hits: u64,
    /// Requests of a pooled size that found none.
    pub misses: u64,
    /// Capacity of the buffers waiting to be reused.
    pub retained_bytes: usize,
    /// Capacity of the buffers [`Pool::share`] lent that are still held.
    pub outstanding_bytes: usize,
}

#[derive(Default)]
struct State {
    /// Returned buffers, oldest first.
    free: VecDeque<Vec<u8>>,
    stats: PoolStats,
}

impl State {
    /// Take `buf` back, then evict the oldest buffers until the retained
    /// bytes are no more than the outstanding ones. Returns the evicted
    /// buffers, for the caller to free outside the lock.
    fn give_back(&mut self, buf: Vec<u8>) -> Vec<Vec<u8>> {
        let stats = &mut self.stats;
        stats.outstanding_bytes = stats.outstanding_bytes.saturating_sub(buf.capacity());
        stats.retained_bytes += buf.capacity();
        self.free.push_back(buf);
        let mut evicted = Vec::new();
        while self.stats.retained_bytes > self.stats.outstanding_bytes {
            let Some(old) = self.free.pop_front() else {
                break;
            };
            self.stats.retained_bytes -= old.capacity();
            evicted.push(old);
        }
        evicted
    }
}

/// The buffer pool of one cluster ([`crate::Cluster::pool`]).
pub struct Pool {
    state: Arc<Mutex<State>>,
}

impl Pool {
    pub(crate) fn new() -> Self {
        Pool {
            state: Arc::new(Mutex::new(State::default())),
        }
    }

    /// A buffer of `len` bytes from the ones that came back, or `None`:
    /// `len` is under [`MIN_POOLED`], or no retained buffer fits. A buffer
    /// fits when its capacity is at least `len` and under twice it; the
    /// smallest that fits is taken. Its bytes are not zeroed: they are what
    /// its previous user wrote (zero past that user's length), or all
    /// [`POISON`] in a debug build. The caller writes every byte it shares.
    pub fn take(&self, len: usize) -> Option<Vec<u8>> {
        if len < MIN_POOLED {
            return None;
        }
        let mut state = self.state.lock();
        let fits = |b: &Vec<u8>| b.capacity() >= len && b.capacity() / 2 < len;
        let best = (state.free.iter().enumerate())
            .filter(|(_, b)| fits(b))
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let Some(mut buf) = best.and_then(|i| state.free.remove(i)) else {
            state.stats.misses += 1;
            return None;
        };
        state.stats.hits += 1;
        state.stats.retained_bytes -= buf.capacity();
        drop(state);
        if cfg!(debug_assertions) {
            buf.clear();
            buf.resize(len, POISON);
        } else {
            buf.resize(len, 0);
        }
        Some(buf)
    }

    /// Freeze `buf` into [`Bytes`] that hand it back to this pool when the
    /// last handle drops — whether [`Pool::take`] served it or the caller
    /// allocated it after a miss. A buffer under [`MIN_POOLED`] is frozen
    /// as it is and never comes back.
    pub fn share(&self, buf: Vec<u8>) -> Bytes {
        if buf.capacity() < MIN_POOLED {
            return Bytes::from(buf);
        }
        self.state.lock().stats.outstanding_bytes += buf.capacity();
        Bytes::from_owner(Lent {
            buf,
            pool: Arc::downgrade(&self.state),
        })
    }

    /// Hits, misses, and the bytes retained and outstanding right now.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().stats
    }
}

/// The owner behind a lent buffer's [`Bytes`].
struct Lent {
    buf: Vec<u8>,
    pool: Weak<Mutex<State>>,
}

impl AsRef<[u8]> for Lent {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for Lent {
    fn drop(&mut self) {
        // A cluster that is gone takes its pool with it: the buffer is
        // simply freed.
        if let Some(state) = self.pool.upgrade() {
            // Bound to a name, the evicted buffers outlive the guard and are
            // freed after the lock is released.
            let evicted = state.lock().give_back(std::mem::take(&mut self.buf));
            drop(evicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, ClusterConfig};

    const MIB: usize = 1 << 20;

    /// What a buffer recycled from a user that filled it with `byte`
    /// holds: that user's bytes, or the poison in a debug build.
    fn recycled(byte: u8) -> u8 {
        if cfg!(debug_assertions) {
            POISON
        } else {
            byte
        }
    }

    fn filled(pool: &Pool, len: usize, byte: u8) -> Bytes {
        let mut buf = pool.take(len).unwrap_or_else(|| vec![0; len]);
        assert_eq!(buf.len(), len, "a taken buffer is as long as asked");
        buf.fill(byte);
        pool.share(buf)
    }

    #[test]
    fn a_dropped_buffer_serves_the_next_request_unzeroed() {
        let pool = Pool::new();
        // The next version is lent before the previous one is dropped, so
        // the returned buffer is within the retention bound.
        let first = filled(&pool, MIB, 0xAA);
        let at = first.as_ptr();
        let next = filled(&pool, MIB, 0xBB);
        drop(first);
        let again = pool.take(MIB).expect("the returned buffer is reused");
        assert_eq!(again.as_ptr(), at);
        assert_eq!(again.len(), MIB);
        assert!(again.iter().all(|b| *b == recycled(0xAA)));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        drop(next);
        // With nothing outstanding, nothing is retained.
        assert_eq!(pool.stats().retained_bytes, 0);
    }

    #[test]
    fn small_buffers_stay_out_of_the_pool() {
        let pool = Pool::new();
        assert!(pool.take(MIN_POOLED - 1).is_none());
        drop(pool.share(vec![1; 2048]));
        assert_eq!(pool.stats(), PoolStats::default());
    }

    #[test]
    fn only_a_buffer_under_twice_the_request_fits() {
        let pool = Pool::new();
        // A retained buffer is bounded by what is outstanding, so keep one
        // of the same size lent while the other waits.
        let held = filled(&pool, 4 * MIB, 2);
        drop(filled(&pool, 4 * MIB, 3));
        assert!(pool.take(MIB).is_none(), "4 MiB is too large for 1 MiB");
        let taken = pool.take(3 * MIB).expect("3 MiB fits in 4 MiB");
        // Shorter than its previous user: the request's length, and only
        // bytes that user wrote.
        assert_eq!(taken.len(), 3 * MIB);
        assert!(taken.iter().all(|b| *b == recycled(3)));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.retained_bytes), (1, 3, 0), "{s:?}");
        drop(held);
    }

    #[test]
    fn bytes_that_outlive_their_cluster_drop_cleanly() {
        let cluster = Cluster::new(ClusterConfig::default());
        let lent = filled(cluster.pool(), MIB, 7);
        let weak = Arc::downgrade(&cluster.pool().state);
        drop(cluster);
        assert!(weak.upgrade().is_none(), "the pool went with the cluster");
        assert_eq!(lent.len(), MIB);
        assert!(lent.iter().all(|b| *b == 7));
        drop(lent);
    }

    /// The retention bound, over a run whose frame sizes drift between
    /// versions (MiniMD's do: atoms migrate between ranks). Each version
    /// lends a few buffers, holds them while the next version is built,
    /// then drops them; whatever the interleaving, the pool retains no
    /// more than is outstanding, and nothing once the run lets go.
    #[test]
    fn retained_never_exceeds_outstanding_as_sizes_drift() {
        let pool = Pool::new();
        let mut x = 0x9e37_79b9_u64;
        let mut draw = |below: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % below
        };
        let mut live: VecDeque<Vec<Bytes>> = VecDeque::new();
        for _version in 0..200 {
            let base = MIN_POOLED + draw(3 * MIB as u64) as usize;
            let frames = (0..1 + draw(4))
                .map(|_| filled(&pool, base + draw(4096) as usize, 1))
                .collect();
            live.push_back(frames);
            while live.len() > 1 + draw(3) as usize {
                let mut old = live.pop_front().unwrap_or_default();
                while let Some(frame) = old.pop() {
                    drop(frame);
                    let s = pool.stats();
                    assert!(s.retained_bytes <= s.outstanding_bytes, "{s:?}");
                }
            }
        }
        let s = pool.stats();
        assert!(s.hits > 0, "drifting sizes still reuse: {s:?}");
        live.clear();
        let s = pool.stats();
        assert_eq!((s.retained_bytes, s.outstanding_bytes), (0, 0), "{s:?}");
    }
}
