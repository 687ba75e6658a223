//! Modeled HPC cluster resources.
//!
//! The paper evaluates on a 100-node Cray XC40 with an Aries interconnect and
//! a Lustre parallel filesystem. This crate provides laptop-scale synthetic
//! equivalents whose *contention structure* matches those resources:
//!
//! * [`bandwidth::Governor`] — a FIFO bandwidth reservation model. Any shared
//!   channel (a NIC, the filesystem's aggregate ingest bandwidth, the network
//!   bisection) is a governor; concurrent transfers queue and the channel
//!   delivers its configured rate in aggregate.
//! * [`net::Network`] — per-rank NIC governors plus a global bisection cap.
//!   Both the simulated MPI layer and the VeloC-style asynchronous checkpoint
//!   flusher draw from the *same* network, so background checkpoint traffic
//!   delays application messaging — the effect Figures 5 and 6 of the paper
//!   measure.
//! * [`pfs::ParallelFileSystem`] — a blob store fronted by a small, fixed
//!   number of I/O servers with fixed aggregate bandwidth (it does **not**
//!   scale with the number of compute ranks, which is what makes disk-based
//!   checkpointing bottleneck at scale).
//! * [`scratch::NodeScratch`] — per-node in-memory checkpoint staging, lost
//!   only when that node dies. Both tiers key their blobs by
//!   [`blobs::Key`], `(name, version, rank)` over the cluster's [`Names`].
//! * [`relaunch::RelaunchModel`] — the cost of tearing down and restarting an
//!   entire MPI job, paid by non-Fenix recovery strategies.
//! * [`pool::POOL`] — the process's one buffer pool: checkpoint frames,
//!   wire shards, decoded payloads and view storage, allocated on huge
//!   pages and recycled from one run to the next (host memory only; it
//!   models nothing).
//!
//! Modeled durations are converted to real sleeps through a [`TimeScale`] so
//! whole experiments finish in seconds.

// No host clock, threads or blocking waits (clippy.toml) and no hash-order
// iteration on a rank's path (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

pub mod bandwidth;
pub mod blobs;
pub mod clock;
pub mod inject;
pub mod net;
pub mod pfs;
pub mod pool;
pub mod relaunch;
pub mod scratch;
pub mod topology;

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

pub use bandwidth::Governor;
pub use blobs::{Key, NameId, Names, ToKey};
pub use clock::Clock;
pub use inject::{FaultInjector, StorageTier};
pub use net::Network;
pub use pfs::ParallelFileSystem;
pub use pool::{Cursor, Pool, PoolBuf, Unfilled};
pub use relaunch::RelaunchModel;
pub use scratch::NodeScratch;
pub use topology::Topology;

/// A per-thread hook that consumes modeled durations instead of sleeping.
///
/// Under the discrete-event backend every modeled sleep must become a
/// virtual-time event: rank threads install a closure that parks the task
/// on the scheduler until the simulated clock reaches `now + modeled`, and
/// driver threads install one that advances the shared [`Clock`] directly.
/// The hook always receives the **modeled** (pre-[`TimeScale`]) duration.
pub type VirtualSleeper = Arc<dyn Fn(Duration) + Send + Sync>;

thread_local! {
    static VIRTUAL_SLEEPER: RefCell<Option<VirtualSleeper>> = const { RefCell::new(None) };
}

/// Install a [`VirtualSleeper`] on the current thread; the returned guard
/// restores the previous hook (usually none) when dropped, so a panicking
/// experiment cannot leak virtual-time behavior into an unrelated caller
/// reusing the thread.
pub fn install_virtual_sleeper(hook: VirtualSleeper) -> SleeperGuard {
    let prev = VIRTUAL_SLEEPER.with(|s| s.borrow_mut().replace(hook));
    SleeperGuard { prev }
}

/// Restores the previously installed [`VirtualSleeper`] on drop.
pub struct SleeperGuard {
    prev: Option<VirtualSleeper>,
}

impl Drop for SleeperGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        VIRTUAL_SLEEPER.with(|s| *s.borrow_mut() = prev);
    }
}

/// Move the current thread's [`VirtualSleeper`] out, leaving none: the DES
/// engine runs many rank tasks on one thread, and a task's hook goes with it
/// when it switches away ([`put_virtual_sleeper`] brings it back).
pub fn take_virtual_sleeper() -> Option<VirtualSleeper> {
    VIRTUAL_SLEEPER.with(|s| s.borrow_mut().take())
}

/// Install `hook` (or none) as the current thread's [`VirtualSleeper`].
pub fn put_virtual_sleeper(hook: Option<VirtualSleeper>) {
    VIRTUAL_SLEEPER.with(|s| *s.borrow_mut() = hook);
}

/// Route `modeled` to the current thread's virtual sleeper, if one is
/// installed. Returns `true` when the hook consumed the duration.
fn virtual_sleep(modeled: Duration) -> bool {
    let hook = VIRTUAL_SLEEPER.with(|s| s.borrow().clone());
    match hook {
        Some(hook) => {
            hook(modeled);
            true
        }
        None => false,
    }
}

/// Conversion factor between *modeled* time (what the cost models compute)
/// and *real* wall-clock time (what threads actually sleep).
///
/// A scale of `0.1` makes a modeled 100 ms transfer sleep 10 ms of real time.
/// `TimeScale::instant()` disables sleeping entirely (useful in unit tests).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeScale(pub f64);

impl TimeScale {
    /// No time is actually spent; modeled durations are only accounted.
    pub fn instant() -> Self {
        TimeScale(0.0)
    }

    /// Real time equals modeled time.
    pub fn realtime() -> Self {
        TimeScale(1.0)
    }

    /// Convert a modeled duration into the real duration to sleep.
    pub fn to_real(&self, modeled: Duration) -> Duration {
        modeled.mul_f64(self.0.max(0.0))
    }

    /// Sleep for the scaled equivalent of `modeled`.
    ///
    /// When the current thread carries a [`VirtualSleeper`] the modeled
    /// duration is handed to it *unscaled* and no real time passes — the
    /// DES backend turns every modeled sleep into a simulated-clock event.
    ///
    /// Inside a no-blocking scope (`parking_lot::no_blocking`) this panics,
    /// even for a zero duration or a virtual sleeper.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn sleep(&self, modeled: Duration) {
        parking_lot::assert_may_block();
        if virtual_sleep(modeled) {
            return;
        }
        let real = self.to_real(modeled);
        if !real.is_zero() {
            #[expect(
                clippy::disallowed_methods,
                reason = "the threads engine burns modeled time as a scaled sleep"
            )]
            std::thread::sleep(real);
        }
    }
}

impl Default for TimeScale {
    fn default() -> Self {
        // Default keeps modeled transfer times visible but small.
        TimeScale(0.05)
    }
}

/// Static description of the modeled machine.
///
/// Defaults are a scaled-down stand-in for the paper's platform: a fat
/// interconnect whose per-rank links are much faster than the *fixed*
/// aggregate filesystem bandwidth, and near-memcpy-speed node-local scratch.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of physical nodes.
    pub nodes: usize,
    /// Ranks placed on each node (the paper runs one rank per node).
    pub ranks_per_node: usize,
    /// Per-rank NIC bandwidth, bytes/second (modeled).
    pub nic_bandwidth: f64,
    /// Total network bisection bandwidth, bytes/second (modeled).
    pub bisection_bandwidth: f64,
    /// Per-message network latency (modeled).
    pub net_latency: Duration,
    /// Number of filesystem I/O servers (Lustre OSS equivalents).
    pub pfs_servers: usize,
    /// Aggregate filesystem bandwidth across all servers, bytes/second.
    pub pfs_bandwidth: f64,
    /// Per-filesystem-operation latency (modeled).
    pub pfs_latency: Duration,
    /// Node-local scratch (tmpfs) bandwidth, bytes/second.
    pub scratch_bandwidth: f64,
    /// Modeled→real time conversion.
    pub time_scale: TimeScale,
    /// Job relaunch cost model.
    pub relaunch: RelaunchModel,
    /// Drive every bandwidth governor from one shared virtual [`Clock`]
    /// instead of the wall. Set by the DES backend; implies
    /// `time_scale = realtime()` so governor queue bookkeeping (tracked in
    /// scaled nanoseconds) coincides with modeled nanoseconds and
    /// reservation math is an exact function of simulated time.
    pub virtual_time: bool,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 8,
            ranks_per_node: 1,
            nic_bandwidth: 8.0e9,
            bisection_bandwidth: 64.0e9,
            net_latency: Duration::from_micros(2),
            pfs_servers: 2,
            pfs_bandwidth: 2.0e9,
            pfs_latency: Duration::from_micros(50),
            scratch_bandwidth: 40.0e9,
            time_scale: TimeScale::default(),
            relaunch: RelaunchModel::default(),
            virtual_time: false,
        }
    }
}

impl ClusterConfig {
    /// Total rank count implied by the topology.
    pub fn total_ranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }
}

/// A fully assembled modeled cluster: topology plus all shared resources.
///
/// `Cluster` is cheap to clone (everything inside is reference counted) and
/// is shared by the MPI simulator, the checkpoint runtimes, and the
/// experiment harness. It survives simulated job relaunches: the harness
/// keeps the same `Cluster` across `Universe` launches so persistent and
/// node-local checkpoint state carries over, exactly like real storage does.
#[derive(Clone)]
pub struct Cluster {
    config: ClusterConfig,
    topology: Topology,
    network: Arc<Network>,
    pfs: Arc<ParallelFileSystem>,
    scratch: Arc<NodeScratch>,
    /// The checkpoint names both tiers key their blobs by.
    names: Arc<Names>,
    /// Storage-path fault hooks (chaos injection). Shared by every clone so
    /// an injector installed at launch is seen by all layers.
    injector: Arc<RwLock<Option<Arc<dyn FaultInjector>>>>,
    /// Time source shared by every governor: wall by default, one virtual
    /// clock for the whole cluster when `config.virtual_time` is set.
    clock: Arc<Clock>,
}

impl Cluster {
    pub fn new(mut config: ClusterConfig) -> Self {
        if config.virtual_time {
            // Governor queue state is kept in scaled nanoseconds; a 1:1
            // scale makes those coincide with modeled nanoseconds on the
            // shared virtual clock, so queueing math is exact and no real
            // sleep ever fires (every sleep routes to a VirtualSleeper).
            config.time_scale = TimeScale::realtime();
        }
        let clock = Arc::new(if config.virtual_time {
            Clock::virtual_at(0)
        } else {
            Clock::wall()
        });
        let topology = Topology::new(config.nodes, config.ranks_per_node);
        let network = Arc::new(Network::with_clock(
            topology.total_ranks(),
            config.nic_bandwidth,
            config.bisection_bandwidth,
            config.net_latency,
            config.time_scale,
            &clock,
        ));
        let names = Arc::new(Names::default());
        let pfs = Arc::new(ParallelFileSystem::new(
            config.pfs_servers,
            config.pfs_bandwidth,
            config.pfs_latency,
            config.time_scale,
            &clock,
            &names,
        ));
        let scratch = Arc::new(NodeScratch::new(
            config.nodes,
            config.scratch_bandwidth,
            config.time_scale,
            &clock,
            &names,
        ));
        Cluster {
            config,
            topology,
            network,
            pfs,
            scratch,
            names,
            injector: Arc::new(RwLock::new(None)),
            clock,
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn network(&self) -> &Arc<Network> {
        &self.network
    }

    pub fn pfs(&self) -> &Arc<ParallelFileSystem> {
        &self.pfs
    }

    pub fn scratch(&self) -> &Arc<NodeScratch> {
        &self.scratch
    }

    /// The name table both storage tiers intern checkpoint names in.
    pub fn names(&self) -> &Names {
        &self.names
    }

    pub fn time_scale(&self) -> TimeScale {
        self.config.time_scale
    }

    /// The cluster-wide time source. Virtual iff the cluster was built
    /// with [`ClusterConfig::virtual_time`].
    pub fn clock(&self) -> &Arc<Clock> {
        &self.clock
    }

    /// The buffer pool: the process's one, [`pool::POOL`].
    pub fn pool(&self) -> &'static Pool {
        &pool::POOL
    }

    /// Install (or replace) the storage-path fault injector. The slot is
    /// shared by every clone of this cluster; pass `None` to clear it.
    pub fn set_injector(&self, injector: Option<Arc<dyn FaultInjector>>) {
        *self.injector.write() = injector;
    }

    /// The currently installed fault injector, if any.
    pub fn injector(&self) -> Option<Arc<dyn FaultInjector>> {
        self.injector.read().clone()
    }

    /// Simulate the failure of the node hosting `rank`: its scratch space is
    /// lost. (Persistent filesystem contents survive.)
    pub fn fail_node_of(&self, rank: usize) {
        let node = self.topology.node_of(rank);
        self.scratch.purge_node(node);
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.config.nodes)
            .field("ranks_per_node", &self.config.ranks_per_node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_scale_scales() {
        let ts = TimeScale(0.5);
        assert_eq!(
            ts.to_real(Duration::from_millis(100)),
            Duration::from_millis(50)
        );
    }

    #[test]
    fn instant_scale_is_zero() {
        let ts = TimeScale::instant();
        assert!(ts.to_real(Duration::from_secs(1000)).is_zero());
    }

    #[test]
    fn cluster_wires_topology() {
        let cfg = ClusterConfig {
            nodes: 4,
            ranks_per_node: 2,
            ..ClusterConfig::default()
        };
        let c = Cluster::new(cfg);
        assert_eq!(c.topology().total_ranks(), 8);
        assert_eq!(c.topology().node_of(7), 3);
    }

    #[test]
    fn fail_node_purges_scratch() {
        let cfg = ClusterConfig {
            time_scale: TimeScale::instant(),
            ..ClusterConfig::default()
        };
        let c = Cluster::new(cfg);
        c.scratch()
            .write(0, "ckpt", bytes::Bytes::from_static(b"x"));
        assert!(c.scratch().read(0, "ckpt").is_some());
        c.fail_node_of(0);
        assert!(c.scratch().read(0, "ckpt").is_none());
    }
}
