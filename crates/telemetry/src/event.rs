//! Typed structured events.
//!
//! Every resilience layer emits [`Event`]s: the MPI simulation (calls,
//! injected faults, ULFM revoke/agree/shrink), Fenix (failure detection,
//! repair, role transitions), VeloC (checkpoint protect/copy/flush/restart),
//! and Kokkos Resilience (region enter/capture/commit/restore). Each rank's
//! log ([`crate::ring`]) stores them as they are, strings included.

use crate::phase::Phase;

/// Which simulated MPI entry point an [`Event::MpiCall`] refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MpiOp {
    Send,
    Recv,
    SendRecv,
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Gather,
    Allgather,
    Split,
}

impl MpiOp {
    pub fn name(self) -> &'static str {
        match self {
            MpiOp::Send => "send",
            MpiOp::Recv => "recv",
            MpiOp::SendRecv => "sendrecv",
            MpiOp::Barrier => "barrier",
            MpiOp::Bcast => "bcast",
            MpiOp::Reduce => "reduce",
            MpiOp::Allreduce => "allreduce",
            MpiOp::Gather => "gather",
            MpiOp::Allgather => "allgather",
            MpiOp::Split => "split",
        }
    }
}

/// One structured observation from some layer of the stack.
///
/// Variants are grouped by emitting layer; the failure chain a fault-
/// injected Fenix run produces is, in causal order:
/// `FaultInjected` → `RankKilled` → `FailureDetected` → `Revoke` →
/// `Agree` → `RepairBegin`/`RepairEnd` → `RoleChanged` →
/// `RestartBegin`/`RestartEnd` (or `RegionRestore`).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    // --- simmpi ---
    /// A simulated MPI entry point ran. `peer` is the remote rank for
    /// point-to-point ops, `bytes` the payload size where meaningful.
    MpiCall {
        op: MpiOp,
        peer: Option<u32>,
        bytes: u64,
    },
    /// A fault-plan site matched and is about to kill this rank.
    FaultInjected { site: String, count: u64 },
    /// This rank died (injected fault or unhandled panic).
    RankKilled,
    /// ULFM: this rank revoked the communicator.
    Revoke,
    /// ULFM: an agreement round completed with the given flag union.
    Agree { seq: u64, flags: u64 },
    /// ULFM: communicator shrunk to `survivors` live ranks.
    Shrink { survivors: u64 },

    // --- fenix ---
    /// Fenix observed a recoverable failure (detect step of the chain).
    FailureDetected { scope: String },
    /// This rank's Fenix role changed (Initial/Survivor/Recovered/Spare).
    RoleChanged { role: String },
    /// Repair rendezvous entered for recovery epoch `epoch`.
    RepairBegin { epoch: u64 },
    /// Repair finished: communicator rebuilt.
    RepairEnd {
        epoch: u64,
        survivors: u64,
        spares_left: u64,
    },
    /// A registered recovery callback ran.
    CallbackFired { name: String },

    // --- veloc ---
    /// A region of memory was registered for checkpointing.
    Protect { name: String, bytes: u64 },
    /// Checkpoint `version` of `name` started (synchronous part).
    CheckpointBegin { name: String, version: u64 },
    /// Synchronous copy to node-local scratch completed.
    CheckpointLocal {
        name: String,
        version: u64,
        bytes: u64,
    },
    /// Asynchronous scratch→PFS flush enqueued.
    FlushEnqueued { name: String, version: u64 },
    /// Asynchronous flush reached the parallel filesystem.
    FlushDone {
        name: String,
        version: u64,
        bytes: u64,
    },
    /// Restart from checkpoint `version` started.
    RestartBegin { name: String, version: u64 },
    /// Restart finished (`ok = false`: no usable checkpoint found).
    RestartEnd {
        name: String,
        version: u64,
        ok: bool,
    },

    // --- kokkos-resilience ---
    /// A resilient region was entered for iteration `iteration`.
    RegionEnter { label: String, iteration: u64 },
    /// View capture ran: `views` views totalling `bytes` selected.
    RegionCapture {
        label: String,
        views: u64,
        bytes: u64,
    },
    /// Region checkpoint committed as `version`.
    RegionCommit { label: String, version: u64 },
    /// Region state restored from `version` after a failure.
    RegionRestore { label: String, version: u64 },

    // --- spans / generic ---
    /// A phase span opened (see [`crate::span`]).
    SpanBegin { phase: Phase },
    /// A phase span closed.
    SpanEnd { phase: Phase },
    /// Free-form instant marker.
    Marker { label: String },
}

impl Event {
    /// Stable kind string used by the JSONL exporter and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::MpiCall { .. } => "mpi_call",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RankKilled => "rank_killed",
            Event::Revoke => "revoke",
            Event::Agree { .. } => "agree",
            Event::Shrink { .. } => "shrink",
            Event::FailureDetected { .. } => "failure_detected",
            Event::RoleChanged { .. } => "role_changed",
            Event::RepairBegin { .. } => "repair_begin",
            Event::RepairEnd { .. } => "repair_end",
            Event::CallbackFired { .. } => "callback_fired",
            Event::Protect { .. } => "protect",
            Event::CheckpointBegin { .. } => "checkpoint_begin",
            Event::CheckpointLocal { .. } => "checkpoint_local",
            Event::FlushEnqueued { .. } => "flush_enqueued",
            Event::FlushDone { .. } => "flush_done",
            Event::RestartBegin { .. } => "restart_begin",
            Event::RestartEnd { .. } => "restart_end",
            Event::RegionEnter { .. } => "region_enter",
            Event::RegionCapture { .. } => "region_capture",
            Event::RegionCommit { .. } => "region_commit",
            Event::RegionRestore { .. } => "region_restore",
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::Marker { .. } => "marker",
        }
    }

    /// Which layer of the stack emits this event.
    pub fn layer(&self) -> &'static str {
        match self {
            Event::MpiCall { .. }
            | Event::FaultInjected { .. }
            | Event::RankKilled
            | Event::Revoke
            | Event::Agree { .. }
            | Event::Shrink { .. } => "simmpi",
            Event::FailureDetected { .. }
            | Event::RoleChanged { .. }
            | Event::RepairBegin { .. }
            | Event::RepairEnd { .. }
            | Event::CallbackFired { .. } => "fenix",
            Event::Protect { .. }
            | Event::CheckpointBegin { .. }
            | Event::CheckpointLocal { .. }
            | Event::FlushEnqueued { .. }
            | Event::FlushDone { .. }
            | Event::RestartBegin { .. }
            | Event::RestartEnd { .. } => "veloc",
            Event::RegionEnter { .. }
            | Event::RegionCapture { .. }
            | Event::RegionCommit { .. }
            | Event::RegionRestore { .. } => "kokkos-resilience",
            Event::SpanBegin { .. } | Event::SpanEnd { .. } | Event::Marker { .. } => "span",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventLog;

    /// One of every variant goes into a log and comes back out of its
    /// snapshot unchanged, stamp included; the 25 variants have 25 kinds.
    #[test]
    fn every_variant_roundtrips() {
        let events = [
            Event::MpiCall {
                op: MpiOp::Allreduce,
                peer: None,
                bytes: 64,
            },
            Event::MpiCall {
                op: MpiOp::Send,
                peer: Some(3),
                bytes: 1024,
            },
            Event::FaultInjected {
                site: "iter".into(),
                count: 12,
            },
            Event::RankKilled,
            Event::Revoke,
            Event::Agree { seq: 2, flags: 1 },
            Event::Shrink { survivors: 7 },
            Event::FailureDetected {
                scope: "fenix".into(),
            },
            Event::RoleChanged {
                role: "survivor".into(),
            },
            Event::RepairBegin { epoch: 1 },
            Event::RepairEnd {
                epoch: 1,
                survivors: 7,
                spares_left: 1,
            },
            Event::CallbackFired {
                name: "restore".into(),
            },
            Event::Protect {
                name: "grid".into(),
                bytes: 8192,
            },
            Event::CheckpointBegin {
                name: "heatdis".into(),
                version: 4,
            },
            Event::CheckpointLocal {
                name: "heatdis".into(),
                version: 4,
                bytes: 8192,
            },
            Event::FlushEnqueued {
                name: "heatdis".into(),
                version: 4,
            },
            Event::FlushDone {
                name: "heatdis".into(),
                version: 4,
                bytes: 8192,
            },
            Event::RestartBegin {
                name: "heatdis".into(),
                version: 4,
            },
            Event::RestartEnd {
                name: "heatdis".into(),
                version: 4,
                ok: true,
            },
            Event::RegionEnter {
                label: "main_loop".into(),
                iteration: 40,
            },
            Event::RegionCapture {
                label: "main_loop".into(),
                views: 2,
                bytes: 4096,
            },
            Event::RegionCommit {
                label: "main_loop".into(),
                version: 5,
            },
            Event::RegionRestore {
                label: "main_loop".into(),
                version: 5,
            },
            Event::SpanBegin {
                phase: Phase::CheckpointFn,
            },
            Event::SpanEnd {
                phase: Phase::CheckpointFn,
            },
            Event::Marker {
                label: "note".into(),
            },
        ];
        let log = EventLog::new(events.len());
        for (n, e) in events.iter().enumerate() {
            log.push(n as u64 * 10, e.clone());
        }
        let snap = log.snapshot();
        assert_eq!(snap.dropped(), 0);
        for (n, (e, (t, back))) in events.iter().zip(&snap.events).enumerate() {
            assert_eq!(*t, n as u64 * 10);
            assert_eq!(back, e, "variant {n} must roundtrip");
        }
        let mut kinds: Vec<&str> = events.iter().map(Event::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 25, "one kind per variant");
    }
}
