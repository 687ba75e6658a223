//! Heap allocations of the resilience layers over a small Heatdis run,
//! counted exactly. A counting global allocator sees every allocation of
//! the test binary, so this test is alone in its binary; it counts on its
//! own thread only, which under DES is every rank's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use apps::Heatdis;
use cluster::{Cluster, ClusterConfig};
use resilience::{run_experiment, ExperimentConfig, Strategy};
use simmpi::FaultPlan;

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made on
    /// this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // `try_with`: a thread being torn down no longer has the counter.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local without a destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `alloc`, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `alloc_zeroed`, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller's contract for `realloc`, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const RANKS: usize = 4;
const ITERS: u64 = 24;
/// Checkpoints of the shorter checkpointed runs; the longer take twice as
/// many.
const K: u64 = 3;
const VICTIM: usize = 2;
const KILL_ITER: u64 = 17;

/// Allocations of one whole experiment: 4 active ranks (and a spare under
/// Fenix, on a node of its own, which the unprotected run does not have)
/// under DES, a 2 KiB Heatdis grid per rank, telemetry off.
fn allocations(strategy: Strategy, checkpoints: u64, fail: bool) -> i64 {
    let spares = usize::from(strategy.uses_fenix());
    let cluster = Cluster::new(ClusterConfig {
        nodes: RANKS + spares,
        ranks_per_node: 1,
        virtual_time: true,
        ..ClusterConfig::default()
    });
    let cfg = ExperimentConfig {
        backend: simmpi::Backend::Des { seed: 3 },
        strategy,
        spares,
        checkpoints,
        max_relaunches: 4,
        telemetry: None,
    };
    let plan = match fail {
        true => FaultPlan::kill_at(VICTIM, "iter", KILL_ITER),
        false => FaultPlan::none(),
    };
    let app = Heatdis::fixed(2048, 16, ITERS);
    let before = ALLOCS.with(Cell::get);
    let rec = run_experiment(&cluster, &app, &cfg, Arc::new(plan));
    let after = ALLOCS.with(Cell::get);
    assert_eq!(rec.iterations, ITERS);
    assert_eq!(rec.repairs, u64::from(fail));
    (after - before) as i64
}

/// What the resilience layers add to the unprotected run, and what one
/// more checkpoint costs, under `FenixKokkosResilience`: the checkpoint
/// path reuses its tables, so an extra checkpoint allocates only what the
/// storage tiers keep, its frame (one allocation with its handle), and the
/// per-rank setup that nf and fail add is built once a run.
#[test]
fn a_checkpoint_allocates_only_the_frame_the_tiers_keep() {
    // Warm-up: lazily built statics, the task-stack pool, thread-locals.
    allocations(Strategy::FenixKokkosResilience, K, true);

    let reference = allocations(Strategy::Unprotected, 0, false);
    let nf = allocations(Strategy::FenixKokkosResilience, K, false);
    let nf_2k = allocations(Strategy::FenixKokkosResilience, 2 * K, false);
    let fail = allocations(Strategy::FenixKokkosResilience, K, true);
    // Each extra checkpoint is taken by every active rank.
    let extra_checkpoints = (K * RANKS as u64) as i64;
    let counts = (
        nf - reference,
        fail - reference,
        nf_2k - nf,
        extra_checkpoints,
    );
    // Debug builds also run the lock-order and collective witnesses, which
    // allocate; `--release` counts the program alone. 13 over 12
    // checkpoints: each one's frame, shared as the counted slice it was
    // written in, and one node of the PFS's key index, which keeps every
    // version and so grows by a node per ~11 keys.
    let pinned = if cfg!(debug_assertions) {
        (93, 226, 13, 12)
    } else {
        (85, 207, 13, 12)
    };
    assert_eq!(
        counts, pinned,
        "(nf − ref, fail − ref, 2k − k checkpoints, extra rank-checkpoints)"
    );
    assert!(
        counts.2 <= 2 * counts.3,
        "at most a frame and its handle each"
    );
}
