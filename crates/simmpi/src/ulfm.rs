//! ULFM fault-tolerance extensions on [`Comm`].
//!
//! The four primitives the paper's Fenix layer builds on, with the semantics
//! of the MPI-ULFM specification (Bland et al. 2013):
//!
//! * [`Comm::revoke`] — non-collective; permanently poisons the communicator
//!   so every pending/future operation on it raises
//!   [`MpiError::Revoked`]. This is how one rank's local failure knowledge
//!   is propagated to ranks that would otherwise block forever.
//! * [`Comm::agree`] — fault-tolerant agreement on a bitwise-AND of flags;
//!   completes despite failures (including failures *during* the call) and
//!   reports the failed ranks it observed. On a revoked communicator it
//!   completes everywhere or nowhere: a result published before the
//!   revocation is delivered to every participant, an unpublished
//!   agreement fails with [`MpiError::Revoked`] (some participants have
//!   left for recovery and will never contribute).
//! * [`Comm::shrink`] — collectively builds a new communicator containing
//!   the survivors, preserving their relative order. Same revocation rule
//!   as `agree`: shrink before revoking, or on a fresh epoch.
//! * [`Comm::failed_ranks`] — local knowledge of failed group members
//!   (`MPI_Comm_failure_ack` + `get_acked` folded into one query).

use std::sync::Arc;

use bytes::Bytes;
use telemetry::Event;

use crate::comm::Comm;
use crate::error::{MpiError, MpiResult};
use crate::rendezvous::{purpose, RendezvousKey};
use crate::router::Router;

/// Result of [`Comm::agree`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AgreeOutcome {
    /// Bitwise AND of every live participant's flags.
    pub flags: u64,
    /// Global ranks of group members observed dead during the agreement.
    pub failed: Vec<usize>,
}

/// Decode a little-endian `u64` agreement contribution; `None` when the
/// payload is short. Peers always send exactly 8 bytes, but the recovery
/// path must degrade on a malformed frame, not panic on it.
fn u64_contribution(b: &[u8]) -> Option<u64> {
    let head = b.get(..8)?;
    let mut word = [0u8; 8];
    word.copy_from_slice(head);
    Some(u64::from_le_bytes(word))
}

impl Comm {
    /// Revoke this communicator (ULFM `MPI_Comm_revoke`): every rank blocked
    /// on it wakes with `Revoked`, and all future operations fail likewise.
    /// Idempotent; any rank may call it at any time.
    pub fn revoke(&self) {
        self.router().recorder(self.my_global()).emit(Event::Revoke);
        self.router().revoke(self.id(), self.epoch());
    }

    /// Whether this communicator has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.router().is_revoked(self.id(), self.epoch())
    }

    /// Locally-known failed members of this communicator, as communicator
    /// ranks (ULFM `failure_ack`/`get_acked`).
    pub fn failed_ranks(&self) -> Vec<usize> {
        let dead = self.router().dead_snapshot();
        (0..self.size())
            .filter(|&r| dead.contains(&self.global_of(r)))
            .collect()
    }

    /// Fault-tolerant agreement (ULFM `MPI_Comm_agree`).
    ///
    /// All live members must call with the same `seq` (successive agreements
    /// on one communicator must use increasing sequence numbers — the caller
    /// owns that ordering, which in Fenix is the repair counter). Returns the
    /// AND of all live contributions plus the failures observed.
    ///
    /// Revocation: a result already published when the communicator is
    /// revoked is still delivered to every participant; an agreement that
    /// has not completed by then fails with [`MpiError::Revoked`] on all of
    /// them — never a mix (see the comment in `Router::rendezvous`).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn agree(&self, seq: u64, flags: u64) -> MpiResult<AgreeOutcome> {
        let key = RendezvousKey {
            comm: self.id(),
            epoch: self.epoch(),
            purpose: purpose::AGREE,
            seq,
        };
        let outcome = self.router().rendezvous(
            key,
            self.my_global(),
            self.group(),
            Bytes::copy_from_slice(&flags.to_le_bytes()),
            |parts| {
                // Every `agree` peer contributes exactly 8 bytes; a short
                // contribution is excluded from the AND rather than
                // panicking the combiner on the recovery path.
                let agreed = parts
                    .iter()
                    .filter_map(|(_, b)| u64_contribution(b))
                    .fold(u64::MAX, |a, b| a & b);
                Bytes::copy_from_slice(&agreed.to_le_bytes())
            },
        )?;
        let flags = u64_contribution(&outcome.value).ok_or(MpiError::TypeMismatch {
            expected: 8,
            got: outcome.value.len(),
        })?;
        let agreed = AgreeOutcome {
            flags,
            failed: outcome.failures_observed,
        };
        self.router().recorder(self.my_global()).emit(Event::Agree {
            seq,
            flags: agreed.flags,
        });
        Ok(agreed)
    }

    /// Fault-tolerant shrink (ULFM `MPI_Comm_shrink`): survivors collectively
    /// agree on the dead set and build a new communicator containing only
    /// the survivors, preserving relative rank order. All live members must
    /// call with the same `seq`.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn shrink(&self, seq: u64) -> MpiResult<Comm> {
        let key = RendezvousKey {
            comm: self.id(),
            epoch: self.epoch(),
            purpose: purpose::SHRINK,
            seq,
        };
        let outcome = self.router().rendezvous(
            key,
            self.my_global(),
            self.group(),
            Bytes::new(),
            |_parts| Bytes::new(),
        )?;
        // The agreed dead set is the snapshot taken by the completing
        // participant; every rank derives the identical survivor group.
        let dead = &outcome.failures_observed;
        let survivors: Vec<usize> = self
            .group()
            .iter()
            .copied()
            .filter(|g| !dead.contains(g))
            .collect();
        let new_id = Router::derive_comm_id(self.id(), ((self.epoch() as u64) << 32) | seq);
        self.router()
            .recorder(self.my_global())
            .emit(Event::Shrink {
                survivors: survivors.len() as u64,
            });
        Ok(Comm::from_group(
            Arc::clone(self.router()),
            new_id,
            0,
            survivors,
            self.my_global(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_contribution_decodes_and_rejects_short_frames() {
        assert_eq!(u64_contribution(&42u64.to_le_bytes()), Some(42));
        let mut long = 7u64.to_le_bytes().to_vec();
        long.push(0xff);
        assert_eq!(u64_contribution(&long), Some(7));
        assert_eq!(u64_contribution(&[1, 2, 3]), None);
    }
}
