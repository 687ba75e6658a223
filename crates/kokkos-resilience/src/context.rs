//! The resilience context: region detection, recovery, and backend driving.

use std::cell::RefCell;
use std::sync::Arc;

use cluster::Cluster;
use kokkos::capture::{CaptureSession, Checkpointable};
use simmpi::{Comm, MpiError, MpiResult, Phase};
use telemetry::{Event, Recorder};

use crate::backend::{DataBackend, VelocBackend};
use crate::filter::CheckpointFilter;
use crate::stats::{RegionStats, ViewClass, ViewStat};

/// Which ranks restore data during recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryScope {
    /// Every rank restores (full rollback — default).
    All,
    /// Only the listed communicator ranks restore; others keep their
    /// in-progress data (the paper's partial-rollback extension, "restoring
    /// at just one rank with VeloC").
    OnlyRanks(Vec<usize>),
}

impl RecoveryScope {
    fn includes(&self, rank: usize) -> bool {
        match self {
            RecoveryScope::All => true,
            RecoveryScope::OnlyRanks(rs) => rs.contains(&rank),
        }
    }
}

/// Context construction options.
#[derive(Clone, Debug)]
pub struct ContextConfig {
    /// Base name for checkpoint sets (combined with each region label).
    pub name: Arc<str>,
    pub filter: CheckpointFilter,
    /// View labels excluded from checkpointing as user-declared aliases.
    pub aliases: &'static [&'static str],
}

impl Default for ContextConfig {
    fn default() -> Self {
        ContextConfig {
            name: "kr".into(),
            filter: CheckpointFilter::Always,
            aliases: &[],
        }
    }
}

/// What a `checkpoint` call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointOutcome {
    /// How many times the region closure ran (2 when a detection pass was
    /// followed by a post-restore re-execution).
    pub executions: u32,
    /// Whether view data was restored from a checkpoint.
    pub restored: bool,
    /// Whether a checkpoint was taken after the region.
    pub checkpointed: bool,
}

/// A label's restart agreement: the best restartable version agreed across
/// the communicator, and whether the label's next region execution must
/// restore it.
#[derive(Default)]
struct Restart {
    agreed: Option<u64>,
    pending: bool,
}

/// A region's detection: what its first execution captured. A reset
/// clears it and keeps its tables, so re-detecting after a repair
/// allocates nothing.
#[derive(Default)]
struct RegionMeta {
    detected: bool,
    stats: RegionStats,
    /// `(veloc region id, handle)` for each checkpointed view, in detection
    /// order — identical on every rank because the region code is.
    checkpointed: Vec<(u32, Arc<dyn Checkpointable>)>,
}

/// Everything a context keeps for one region label. A context sees one
/// label per checkpoint region (one, for every application here), so the
/// labels are found by a scan.
struct Label {
    /// The region's checkpoint name, `"{context}.{label}"`: interned in
    /// the cluster's name table, one copy for every rank.
    name: Arc<str>,
    /// What the region's first execution records into.
    session: CaptureSession,
    region: RegionMeta,
    restart: Restart,
}

/// A per-rank Kokkos Resilience context (`KokkosResilience::make_context`).
pub struct Context {
    comm: RefCell<Comm>,
    data: Box<dyn DataBackend>,
    name: Arc<str>,
    filter: CheckpointFilter,
    /// The configured aliases, and those marked since ([`Self::mark_alias`]).
    aliases: &'static [&'static str],
    marked: RefCell<Vec<String>>,
    /// Per label, kept across resets.
    labels: RefCell<Vec<Label>>,
    scope: RefCell<RecoveryScope>,
    recorder: RefCell<Recorder>,
}

impl Context {
    /// Create a context over `comm` (`make_context(res_comm)` in Figure 4)
    /// that drives the VeloC backend.
    pub fn new(cluster: &Cluster, comm: Comm, config: ContextConfig) -> Self {
        let data = Box::new(VelocBackend::new(cluster, comm.my_global()));
        Self::with_backend(comm, config, data)
    }

    /// Create a context over a caller-supplied data backend — the paper's
    /// future-work backend tier (e.g. peer-memory redundancy).
    pub fn with_backend(comm: Comm, config: ContextConfig, data: Box<dyn DataBackend>) -> Self {
        data.set_rank(comm.rank());
        Context {
            comm: RefCell::new(comm),
            data,
            name: config.name,
            filter: config.filter,
            aliases: config.aliases,
            marked: RefCell::default(),
            labels: RefCell::default(),
            scope: RefCell::new(RecoveryScope::All),
            recorder: RefCell::new(Recorder::disabled()),
        }
    }

    /// Attach the rank's recorder: checkpoint and recovery costs are booked
    /// through it, region lifecycle events (enter/capture/commit/restore)
    /// are emitted through it, and it is forwarded to the data backend for
    /// storage-layer events.
    pub fn set_recorder(&self, rec: Recorder) {
        self.data.set_recorder(rec.clone());
        *self.recorder.borrow_mut() = rec;
    }

    fn book<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        self.recorder.borrow().time(phase, f)
    }

    pub fn comm_rank(&self) -> usize {
        self.comm.borrow().rank()
    }

    /// **Paper extension:** reset the context after a Fenix repair.
    ///
    /// Replaces the communicator, clears the checkpoint-metadata cache ("a
    /// checkpoint finished locally may not have finished globally"), and
    /// updates the cached rank id in the context and in VeloC.
    pub fn reset(&self, new_comm: Comm) {
        self.book(Phase::ResilienceInit, || {
            self.data.clear();
            self.data.set_rank(new_comm.rank());
            *self.comm.borrow_mut() = new_comm;
            for label in self.labels.borrow_mut().iter_mut() {
                let region = &mut label.region;
                region.detected = false;
                region.stats.views.clear();
                region.checkpointed.clear();
                label.restart = Restart::default();
            }
            *self.scope.borrow_mut() = RecoveryScope::All;
        });
    }

    /// Declare a view label as an alias (not checkpointed).
    pub fn mark_alias(&self, view_label: impl Into<String>) {
        let label = view_label.into();
        if self.is_alias(&label) {
            return;
        }
        self.marked.borrow_mut().push(label);
    }

    fn is_alias(&self, view_label: &str) -> bool {
        self.aliases.contains(&view_label) || self.marked.borrow().iter().any(|a| a == view_label)
    }

    /// Limit which ranks restore on the next recovery (partial rollback).
    pub fn set_recovery_scope(&self, scope: RecoveryScope) {
        *self.scope.borrow_mut() = scope;
    }

    /// The index of `label` in `labels`, added on first sight.
    fn label(&self, label: &str) -> usize {
        let mut labels = self.labels.borrow_mut();
        // Every name is `"{context}.{label}"`: the label is what follows.
        let at = self.name.len() + 1;
        if let Some(i) = labels.iter().position(|l| l.name.get(at..) == Some(label)) {
            return i;
        }
        let comm = self.comm.borrow();
        let name = comm.router().cluster().names().qualified(&self.name, label);
        labels.push(Label {
            name,
            session: CaptureSession::new(),
            region: RegionMeta::default(),
            restart: Restart::default(),
        });
        labels.len() - 1
    }

    /// `f` of the entry at `at`, an index [`Self::label`] returned.
    fn at<R>(&self, at: usize, f: impl FnOnce(&mut Label) -> R) -> Option<R> {
        self.labels.borrow_mut().get_mut(at).map(f)
    }

    /// Best restartable version of a region across the communicator.
    ///
    /// Collective: every rank of the communicator must call it. The data
    /// backend agrees over the context's current communicator
    /// ([`DataBackend::latest_agreed_below`]) — for VeloC the paper's
    /// **manual reduction**, whichever communicator that is. A `Some`
    /// result arms recovery: the next `checkpoint` call for this label
    /// restores the data.
    ///
    /// This is the bare number. A loop that *resumes* from it must use
    /// [`Self::restart_version`] instead: recovery is lazy, so resuming at
    /// `v + 1 == max_iterations` executes no region and the armed restore
    /// never fires.
    pub fn latest_version(&self, label: &str) -> MpiResult<Option<u64>> {
        self.latest_version_below(label, u64::MAX)
    }

    /// The version a loop of `max_iterations` iterations resumes after
    /// (`start = v + 1`), guaranteeing the lazy restore can fire.
    ///
    /// An armed restore only runs when the checkpoint region next
    /// *executes*. If the agreement lands on the final iteration's version
    /// (a kill at the last commit, after the checkpoint completed),
    /// `start == max_iterations` and no region ever executes — the job
    /// would silently finish on unrestored state. Re-agree bounded at
    /// `max_iterations - 2` so at least one iteration replays and carries
    /// the restore; if nothing intact remains below the bound, restart
    /// cold. Collective: every rank reaches the same decision from the
    /// same agreed inputs.
    pub fn restart_version(&self, label: &str, max_iterations: u64) -> MpiResult<Option<u64>> {
        let Some(bound) = max_iterations.checked_sub(2) else {
            // 0- or 1-iteration runs: any restorable version would be the
            // final one, whose restore could never fire. Cold restart.
            return Ok(None);
        };
        match self.latest_version(label)? {
            Some(v) if v + 1 >= max_iterations => self.latest_version_below(label, bound),
            other => Ok(other),
        }
    }

    /// [`Self::latest_version`] restricted to versions `<= bound`.
    ///
    /// Recovery in this model is *lazy*: an armed restore only fires when
    /// the region next executes. A restart agreement that lands on the
    /// final iteration's version leaves no region execution to carry it,
    /// so callers re-agree bounded below that version — recovery then
    /// replays at least one iteration and the restore is guaranteed to
    /// run. Collective, like [`Self::latest_version`]; overwrites any
    /// previously armed recovery version for `label`.
    pub fn latest_version_below(&self, label: &str, bound: u64) -> MpiResult<Option<u64>> {
        let at = self.label(label);
        let Some(name) = self.at(at, |l| Arc::clone(&l.name)) else {
            return Err(MpiError::Aborted);
        };
        let comm = self.comm.borrow();
        let agreed = self.data.latest_agreed_below(&comm, &name, bound)?;
        self.at(at, |l| {
            l.restart = Restart {
                agreed,
                pending: agreed.is_some(),
            }
        });
        Ok(agreed)
    }

    /// `f` of `label`'s detection, if its region has been detected.
    fn detected<R>(&self, label: &str, f: impl FnOnce(&RegionMeta) -> R) -> Option<R> {
        let labels = self.labels.borrow();
        let at = self.name.len() + 1;
        let l = labels.iter().find(|l| l.name.get(at..) == Some(label))?;
        l.region.detected.then(|| f(&l.region))
    }

    /// Classification statistics for a detected region (Figure 7).
    pub fn region_stats(&self, label: &str) -> Option<RegionStats> {
        self.detected(label, |m| m.stats.clone())
    }

    /// Bytes a checkpoint of this region serializes.
    pub fn checkpoint_bytes(&self, label: &str) -> usize {
        self.detected(label, |m| m.stats.bytes(ViewClass::Checkpointed))
            .unwrap_or(0)
    }

    /// Block until outstanding asynchronous flushes complete.
    pub fn checkpoint_wait(&self) {
        parking_lot::assert_no_locks_held();
        self.data.wait();
    }

    /// Classify what `session` recorded into `region`'s tables.
    fn detect(&self, region: &mut RegionMeta, session: &CaptureSession) {
        region.stats.views.clear();
        region.checkpointed.clear();
        let mut next_id = 0u32;
        session.drain(|rec| {
            let views = &mut region.stats.views;
            // A region touches a handful of allocations: a scan, not a set.
            let class = if self.is_alias(&rec.meta.label) {
                ViewClass::Alias
            } else if views
                .iter()
                .any(|v| v.class == ViewClass::Checkpointed && v.meta.alloc_id == rec.meta.alloc_id)
            {
                ViewClass::Skipped
            } else {
                region.checkpointed.push((next_id, rec.handle));
                next_id += 1;
                ViewClass::Checkpointed
            };
            views.push(ViewStat {
                meta: rec.meta,
                class,
            });
        });
        region.detected = true;
    }

    /// Execute a checkpoint region (`KokkosResilience::checkpoint` of
    /// Figure 4).
    ///
    /// On the first execution after context creation or reset, the region's
    /// views are detected by running `body` under a capture session; if a
    /// prior [`Context::latest_version`] call found a restartable version,
    /// the views are then restored (subject to the [`RecoveryScope`]) and
    /// `body` re-executes on the restored data. Every rank therefore runs
    /// `body` the same number of times, keeping collective operations
    /// matched. Finally, the configured filter decides whether this
    /// iteration ends with a checkpoint of the detected views.
    pub fn checkpoint<F>(
        &self,
        label: &str,
        iteration: u64,
        mut body: F,
    ) -> MpiResult<CheckpointOutcome>
    where
        F: FnMut() -> MpiResult<()>,
    {
        let at = self.label(label);
        // The session to detect the region's views with, on its first
        // execution: the label's own, or a fresh one for a region entered
        // inside a first execution under its own label, whose session is
        // still recording for the outer execution.
        let session = self
            .at(at, |l| {
                (!l.region.detected).then(|| {
                    if l.session.is_active() {
                        CaptureSession::new()
                    } else {
                        l.session.clone()
                    }
                })
            })
            .flatten();
        let first = session.is_some();
        let mut executions = 0u32;
        let rec = self.recorder.borrow();
        rec.emit_with(|| Event::RegionEnter {
            label: label.to_owned(),
            iteration,
        });

        if let Some(session) = session {
            let result = session.record(&mut body);
            if result.is_err() {
                // What an aborted execution saw is no detection.
                session.clear();
            }
            result?;
            executions += 1;
            self.at(at, |l| self.detect(&mut l.region, &session));
            rec.emit_with(|| Event::RegionCapture {
                label: label.to_owned(),
                views: self
                    .detected(label, |m| m.checkpointed.len() as u64)
                    .unwrap_or(0),
                bytes: self.checkpoint_bytes(label) as u64,
            });
        }

        let pending = self
            .at(at, |l| {
                std::mem::take(&mut l.restart.pending).then_some(l.restart.agreed)
            })
            .flatten();
        let mut restored = false;
        if let Some(agreed) = pending {
            // Pending recovery implies an agreed version; both facts come
            // from the same collective agreement, so a mismatch is a
            // protocol violation — identical on every rank, and surfaced
            // through the error channel rather than a panic.
            let Some(version) = agreed else {
                return Err(MpiError::Aborted);
            };
            if self.scope.borrow().includes(self.comm.borrow().rank()) {
                let labels = self.labels.borrow();
                // Detection precedes restore on every path; a missing region
                // here is the same class of protocol violation as above.
                let Some(l) = labels.get(at).filter(|l| l.region.detected) else {
                    return Err(MpiError::Aborted);
                };
                let comm = self.comm.borrow();
                rec.time(Phase::DataRecovery, || {
                    self.data
                        .restore(&comm, &l.name, version, &l.region.checkpointed)
                })?;
                rec.emit_with(|| Event::RegionRestore {
                    label: label.to_owned(),
                    version,
                });
                restored = true;
            }
            // All ranks re-execute on (possibly) restored data so that
            // collective operations inside the region stay matched.
            body()?;
            executions += 1;
        } else if !first {
            body()?;
            executions += 1;
        }

        let mut checkpointed = false;
        if self.filter.should_checkpoint(iteration) {
            let labels = self.labels.borrow();
            let Some(l) = labels.get(at).filter(|l| l.region.detected) else {
                // Detection precedes checkpoint; see the restore arm above.
                return Err(MpiError::Aborted);
            };
            let comm = self.comm.borrow();
            rec.time(Phase::CheckpointFn, || {
                self.data
                    .checkpoint(&comm, &l.name, iteration, &l.region.checkpointed)
            })?;
            rec.emit_with(|| Event::RegionCommit {
                label: label.to_owned(),
                version: iteration,
            });
            checkpointed = true;
        }

        Ok(CheckpointOutcome {
            executions,
            restored,
            checkpointed,
        })
    }
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("name", &self.name)
            .field("rank", &self.comm_rank())
            .field(
                "regions",
                &self
                    .labels
                    .borrow()
                    .iter()
                    .filter(|l| l.region.detected)
                    .count(),
            )
            .finish()
    }
}
