//! Deterministic fault injection.
//!
//! The paper simulates failures "through a rank exiting early, approximately
//! 95% of the way between two checkpoints". A [`FaultSchedule`] generalizes
//! that single shape into a cross-layer schedule:
//!
//! * **Process faults** ([`Kill`]) — named application fault points (e.g.
//!   `"iter"`, `"ckpt"`, `"recovery"`) fire when a chosen rank reaches a
//!   chosen count. Each kill fires at most once, even across simulated job
//!   relaunches — the schedule is shared by reference between launches so a
//!   recovered run does not re-kill itself at the same spot.
//! * **Data faults** ([`Corruption`]) — checkpoint blobs are corrupted or
//!   truncated as they are written to node-local scratch or the parallel
//!   filesystem, via the [`cluster::FaultInjector`] hook the storage layer
//!   consults.
//! * **Backend faults** ([`BackendFault`]) — the asynchronous flush worker
//!   of a rank fails to spawn, or dies after completing a given number of
//!   flushes.
//!
//! [`FaultPlan`] remains as an alias for the kills-only usage every existing
//! call site was written against; all old constructors still apply.

use std::sync::atomic::{AtomicBool, Ordering};

use bytes::Bytes;
use cluster::{FaultInjector, Key, StorageTier};

/// One scheduled failure.
#[derive(Debug)]
pub struct Kill {
    /// Global (world) rank to kill.
    pub rank: usize,
    /// Fault-point label the application passes to `RankCtx::fault_point`.
    pub label: String,
    /// Fires when the labelled fault point reaches this count.
    pub at: u64,
    fired: AtomicBool,
}

impl Kill {
    pub fn new(rank: usize, label: impl Into<String>, at: u64) -> Self {
        Kill {
            rank,
            label: label.into(),
            at,
            fired: AtomicBool::new(false),
        }
    }

    pub fn has_fired(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

/// How a matched checkpoint blob is damaged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptKind {
    /// XOR the byte at `blob.len() - 1 - back` with 0xFF (offset from the
    /// end, where region payload lives — the header is at the front).
    FlipBack { back: usize },
    /// XOR the byte at `front` with 0xFF (offset from the start, landing
    /// in the frame header/metadata rather than payload bytes).
    FlipFront { front: usize },
    /// Keep only the first `keep` bytes.
    Truncate { keep: usize },
}

/// Which storage tier(s) a corruption applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptTier {
    Scratch,
    Pfs,
    /// Corrupt the write on both tiers (the version becomes unrecoverable
    /// on the matched rank, forcing fallback to an older intact version).
    Both,
}

impl CorruptTier {
    fn matches(self, tier: StorageTier) -> bool {
        match self {
            CorruptTier::Scratch => tier == StorageTier::Scratch,
            CorruptTier::Pfs => tier == StorageTier::Pfs,
            CorruptTier::Both => true,
        }
    }
}

/// One scheduled checkpoint-blob corruption.
///
/// A checkpoint's key is `(name, version, rank)` on both tiers; a
/// corruption matches on the `(version, rank)` of the key alone, so it is
/// independent of the region naming a particular strategy uses. Each entry
/// fires at most once per tier.
#[derive(Debug)]
pub struct Corruption {
    pub tier: CorruptTier,
    /// Checkpoint version to damage.
    pub version: u64,
    /// Logical rank whose blob is damaged.
    pub rank: usize,
    pub kind: CorruptKind,
    fired_scratch: AtomicBool,
    fired_pfs: AtomicBool,
}

impl Corruption {
    pub fn new(tier: CorruptTier, version: u64, rank: usize, kind: CorruptKind) -> Self {
        Corruption {
            tier,
            version,
            rank,
            kind,
            fired_scratch: AtomicBool::new(false),
            fired_pfs: AtomicBool::new(false),
        }
    }

    fn fired_slot(&self, tier: StorageTier) -> &AtomicBool {
        match tier {
            StorageTier::Scratch => &self.fired_scratch,
            StorageTier::Pfs => &self.fired_pfs,
        }
    }

    pub fn has_fired(&self) -> bool {
        self.fired_scratch.load(Ordering::Acquire) || self.fired_pfs.load(Ordering::Acquire)
    }

    fn apply(&self, blob: &Bytes) -> Bytes {
        match self.kind {
            CorruptKind::FlipBack { back } => {
                if blob.is_empty() {
                    return blob.clone();
                }
                let idx = blob.len().saturating_sub(1 + back.min(blob.len() - 1));
                let mut out = blob.to_vec();
                if let Some(b) = out.get_mut(idx) {
                    *b ^= 0xFF;
                }
                Bytes::from(out)
            }
            CorruptKind::FlipFront { front } => {
                if blob.is_empty() {
                    return blob.clone();
                }
                let idx = front.min(blob.len() - 1);
                let mut out = blob.to_vec();
                if let Some(b) = out.get_mut(idx) {
                    *b ^= 0xFF;
                }
                Bytes::from(out)
            }
            CorruptKind::Truncate { keep } => blob.slice(0..keep.min(blob.len())),
        }
    }
}

/// One scheduled flush-backend fault.
#[derive(Debug)]
pub enum BackendFault {
    /// The backend worker thread of `rank` fails to spawn; the VeloC client
    /// degrades to synchronous flushing.
    SpawnFail { rank: usize, fired: AtomicBool },
    /// The backend worker of `rank` dies after completing `after` flushes;
    /// later flushes run inline on the caller.
    WorkerDeath {
        rank: usize,
        after: u64,
        fired: AtomicBool,
    },
}

impl BackendFault {
    pub fn spawn_fail(rank: usize) -> Self {
        BackendFault::SpawnFail {
            rank,
            fired: AtomicBool::new(false),
        }
    }

    pub fn worker_death(rank: usize, after: u64) -> Self {
        BackendFault::WorkerDeath {
            rank,
            after,
            fired: AtomicBool::new(false),
        }
    }

    pub fn has_fired(&self) -> bool {
        match self {
            BackendFault::SpawnFail { fired, .. } | BackendFault::WorkerDeath { fired, .. } => {
                fired.load(Ordering::Acquire)
            }
        }
    }
}

/// A cross-layer set of scheduled faults, shared between (re)launches.
#[derive(Debug, Default)]
pub struct FaultSchedule {
    kills: Vec<Kill>,
    corruptions: Vec<Corruption>,
    backend_faults: Vec<BackendFault>,
}

/// The kills-only view every pre-chaos call site was written against.
pub type FaultPlan = FaultSchedule;

impl FaultSchedule {
    /// No failures.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// Plan a single kill.
    pub fn kill_at(rank: usize, label: impl Into<String>, at: u64) -> Self {
        FaultSchedule {
            kills: vec![Kill::new(rank, label, at)],
            ..FaultSchedule::default()
        }
    }

    /// Builder-style: add another kill.
    pub fn and_kill(mut self, rank: usize, label: impl Into<String>, at: u64) -> Self {
        self.kills.push(Kill::new(rank, label, at));
        self
    }

    /// Builder-style: add a checkpoint-blob corruption.
    pub fn and_corrupt(
        mut self,
        tier: CorruptTier,
        version: u64,
        rank: usize,
        kind: CorruptKind,
    ) -> Self {
        self.corruptions
            .push(Corruption::new(tier, version, rank, kind));
        self
    }

    /// Builder-style: add a flush-backend fault.
    pub fn and_backend(mut self, fault: BackendFault) -> Self {
        self.backend_faults.push(fault);
        self
    }

    pub fn kills(&self) -> &[Kill] {
        &self.kills
    }

    pub fn corruptions(&self) -> &[Corruption] {
        &self.corruptions
    }

    pub fn backend_faults(&self) -> &[BackendFault] {
        &self.backend_faults
    }

    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && !self.has_injections()
    }

    /// Whether this schedule carries storage/backend faults that need the
    /// cluster-level injector hook installed.
    pub fn has_injections(&self) -> bool {
        !self.corruptions.is_empty() || !self.backend_faults.is_empty()
    }

    /// Should `rank` die now at fault point `label` with counter `count`?
    /// Marks the kill as fired; returns `true` only the first time.
    pub fn check(&self, rank: usize, label: &str, count: u64) -> bool {
        for k in &self.kills {
            if k.rank == rank
                && k.at == count
                && k.label == label
                && k.fired
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                return true;
            }
        }
        false
    }

    /// How many kills have fired so far.
    pub fn fired_count(&self) -> usize {
        self.kills.iter().filter(|k| k.has_fired()).count()
    }
}

impl FaultInjector for FaultSchedule {
    fn corrupt_write(&self, tier: StorageTier, key: Key, blob: &Bytes) -> Option<Bytes> {
        let mut out: Option<Bytes> = None;
        for c in &self.corruptions {
            if c.tier.matches(tier)
                && key.at == Some((c.version, c.rank))
                && c.fired_slot(tier)
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                let base = out.as_ref().unwrap_or(blob);
                out = Some(c.apply(base));
            }
        }
        out
    }

    fn backend_spawn_fails(&self, rank: usize) -> bool {
        for f in &self.backend_faults {
            if let BackendFault::SpawnFail { rank: r, fired } = f {
                if *r == rank
                    && fired
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    return true;
                }
            }
        }
        false
    }

    fn flush_worker_dies(&self, rank: usize, completed: u64) -> bool {
        for f in &self.backend_faults {
            if let BackendFault::WorkerDeath {
                rank: r,
                after,
                fired,
            } = f
            {
                if *r == rank
                    && completed >= *after
                    && fired
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    return true;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checkpoint `rank` of `version` under the name `ck`.
    fn ck(version: u64, rank: usize) -> Key {
        Key::new(cluster::Names::default().intern("ck"), version, rank)
    }

    #[test]
    fn fires_exactly_once() {
        let plan = FaultPlan::kill_at(2, "iter", 10);
        assert!(!plan.check(2, "iter", 9));
        assert!(!plan.check(1, "iter", 10));
        assert!(!plan.check(2, "other", 10));
        assert!(plan.check(2, "iter", 10));
        assert!(!plan.check(2, "iter", 10), "must not re-fire");
        assert_eq!(plan.fired_count(), 1);
    }

    #[test]
    fn multiple_kills_independent() {
        let plan = FaultPlan::kill_at(0, "iter", 5).and_kill(1, "iter", 7);
        assert!(plan.check(0, "iter", 5));
        assert!(!plan.check(1, "iter", 5));
        assert!(plan.check(1, "iter", 7));
        assert_eq!(plan.fired_count(), 2);
    }

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(!plan.check(0, "iter", 0));
    }

    #[test]
    fn duplicate_kills_at_same_site_both_fire() {
        // Two kills at the same (rank, label, at): the first check fires
        // one, and — across a simulated relaunch that replays the fault
        // point — the second check fires the other. A third never fires.
        let plan = FaultPlan::kill_at(0, "iter", 3).and_kill(0, "iter", 3);
        assert!(plan.check(0, "iter", 3), "first duplicate fires");
        assert!(plan.check(0, "iter", 3), "second duplicate fires");
        assert!(!plan.check(0, "iter", 3), "no third kill exists");
        assert_eq!(plan.fired_count(), 2);
    }

    #[test]
    fn corruption_matches_version_and_rank_once_per_tier() {
        let plan = FaultSchedule::none().and_corrupt(
            CorruptTier::Both,
            4,
            1,
            CorruptKind::FlipBack { back: 0 },
        );
        let blob = Bytes::from_static(b"hello");
        // Wrong coordinates: untouched.
        assert!(plan
            .corrupt_write(StorageTier::Scratch, ck(3, 1), &blob)
            .is_none());
        assert!(plan
            .corrupt_write(StorageTier::Scratch, ck(4, 2), &blob)
            .is_none());
        let not_a_checkpoint = cluster::Names::default().key("ck/v4/r1/");
        assert!(plan
            .corrupt_write(StorageTier::Scratch, not_a_checkpoint, &blob)
            .is_none());
        // First matching write on each tier is corrupted, later ones not.
        let c = plan
            .corrupt_write(StorageTier::Scratch, ck(4, 1), &blob)
            .expect("matched");
        assert_eq!(c[4], b'o' ^ 0xFF);
        assert!(plan
            .corrupt_write(StorageTier::Scratch, ck(4, 1), &blob)
            .is_none());
        assert!(plan
            .corrupt_write(StorageTier::Pfs, ck(4, 1), &blob)
            .is_some());
        assert!(plan
            .corrupt_write(StorageTier::Pfs, ck(4, 1), &blob)
            .is_none());
        assert!(plan.corruptions()[0].has_fired());
    }

    #[test]
    fn truncation_keeps_prefix() {
        let plan = FaultSchedule::none().and_corrupt(
            CorruptTier::Pfs,
            1,
            0,
            CorruptKind::Truncate { keep: 2 },
        );
        let blob = Bytes::from_static(b"abcdef");
        let c = plan
            .corrupt_write(StorageTier::Pfs, ck(1, 0), &blob)
            .expect("matched");
        assert_eq!(&c[..], b"ab");
        // Scratch tier was not requested.
        assert!(plan
            .corrupt_write(StorageTier::Scratch, ck(1, 0), &blob)
            .is_none());
    }

    #[test]
    fn flip_front_hits_header_bytes() {
        let plan = FaultSchedule::none().and_corrupt(
            CorruptTier::Scratch,
            2,
            0,
            CorruptKind::FlipFront { front: 1 },
        );
        let blob = Bytes::from_static(b"abcdef");
        let c = plan
            .corrupt_write(StorageTier::Scratch, ck(2, 0), &blob)
            .expect("matched");
        assert_eq!(c[0], b'a');
        assert_eq!(c[1], b'b' ^ 0xFF);
        assert_eq!(&c[2..], b"cdef");
        // Offset past the end clamps to the last byte instead of panicking.
        let plan = FaultSchedule::none().and_corrupt(
            CorruptTier::Scratch,
            3,
            0,
            CorruptKind::FlipFront { front: 100 },
        );
        let short = Bytes::from_static(b"xy");
        let c = plan
            .corrupt_write(StorageTier::Scratch, ck(3, 0), &short)
            .expect("matched");
        assert_eq!(c[1], b'y' ^ 0xFF);
    }

    #[test]
    fn backend_faults_fire_once() {
        let plan = FaultSchedule::none()
            .and_backend(BackendFault::spawn_fail(2))
            .and_backend(BackendFault::worker_death(1, 2));
        assert!(!plan.backend_spawn_fails(1));
        assert!(plan.backend_spawn_fails(2));
        assert!(!plan.backend_spawn_fails(2), "spawn fault is one-shot");
        assert!(!plan.flush_worker_dies(1, 1), "not enough flushes yet");
        assert!(plan.flush_worker_dies(1, 2));
        assert!(!plan.flush_worker_dies(1, 3), "death is one-shot");
        assert!(plan.backend_faults().iter().all(BackendFault::has_fired));
    }
}
