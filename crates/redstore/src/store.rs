//! The redundancy store: collective commit and multi-failure restore.
//!
//! [`RedStore`] is per-rank memory that persists across Fenix re-entries;
//! at `Replicate { k: 2 }` it *is* the paper's buddy-rank IMR (§V.A: "ranks
//! form pairs and store each other's checkpointed data"). A
//! [`RedundancyGroup`] binds it to the current resilient communicator:
//!
//! * [`RedundancyGroup::store`] — compute a topology-aware placement,
//!   encode this rank's payload (full copies, XOR, or Reed–Solomon),
//!   exchange shards with the group peers, then run a fault-tolerant
//!   agreement so the version commits on every survivor or on none
//!   (Fenix's two-phase `data_commit` discipline).
//! * [`RedundancyGroup::restore`] — after a Fenix repair, survivors feed
//!   the recovering ranks enough shards to reconstruct, then the whole
//!   communicator *re-encodes* at the committed version under a freshly
//!   computed placement, so coverage is restored rather than consumed and
//!   the distinct-node invariant holds again even though spares may have
//!   joined on different nodes.
//!
//! The commit also persists the placement used (`CommitLayout`), because a
//! restore must read shards by the geometry they were *written* under, not
//! the geometry the repaired communicator would compute today.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::Mutex;
use simmpi::{Comm, MpiError};
use telemetry::Event;

use crate::codec::{self, CodecError};
use crate::mode::RedundancyMode;
use crate::placement::{comm_node_map, Placement, PlacementError};

/// Redundancy-store errors. `DataLost` and the deterministic placement /
/// codec failures are typed unrecoverable outcomes; `Mpi` failures are the
/// recovery layer's to handle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RedError {
    /// More group members failed than the mode tolerates: the member's
    /// payload is unrecoverable.
    DataLost { member: u32, rank: usize },
    /// The communicator shape cannot host the configured placement.
    Placement(PlacementError),
    /// Shard arithmetic failed (damage or impossible geometry).
    Codec(CodecError),
    /// Communication failed mid-operation (recover via Fenix).
    Mpi(MpiError),
}

impl From<MpiError> for RedError {
    fn from(e: MpiError) -> Self {
        RedError::Mpi(e)
    }
}

impl From<PlacementError> for RedError {
    fn from(e: PlacementError) -> Self {
        RedError::Placement(e)
    }
}

impl From<CodecError> for RedError {
    fn from(e: CodecError) -> Self {
        RedError::Codec(e)
    }
}

impl std::fmt::Display for RedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RedError::DataLost { member, rank } => {
                write!(f, "redstore member {member} of rank {rank} unrecoverable")
            }
            RedError::Placement(e) => write!(f, "redstore placement failed: {e}"),
            RedError::Codec(e) => write!(f, "redstore codec failed: {e}"),
            RedError::Mpi(e) => write!(f, "redstore communication failed: {e}"),
        }
    }
}

impl std::error::Error for RedError {}

/// One shard (or full copy) held for a peer.
#[derive(Clone, Debug)]
struct HeldShard {
    version: u64,
    /// Shard index in the owner's encoding (0 = a full replicate copy).
    index: u8,
    /// The owner's original payload length (shards are padded).
    orig_len: u64,
    data: Bytes,
}

/// The placement a commit was written under. Restores must use this, not a
/// freshly computed placement: Fenix substitutes spares into the same comm
/// slots, but the spare may live on a different node, which would change
/// where a fresh computation puts everyone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitLayout {
    pub version: u64,
    pub mode: RedundancyMode,
    pub groups: Vec<Vec<usize>>,
}

impl CommitLayout {
    fn serialize(&self) -> Bytes {
        let mut out = Vec::new();
        out.extend_from_slice(&self.version.to_le_bytes());
        let (tag, a, b) = match self.mode {
            RedundancyMode::Replicate { k } => (0u8, k as u64, 0u64),
            RedundancyMode::XorParity { width } => (1, width as u64, 0),
            RedundancyMode::ReedSolomon { width, parity } => (2, width as u64, parity as u64),
        };
        out.push(tag);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&(self.groups.len() as u64).to_le_bytes());
        for g in &self.groups {
            out.extend_from_slice(&(g.len() as u64).to_le_bytes());
            for &r in g {
                out.extend_from_slice(&(r as u64).to_le_bytes());
            }
        }
        Bytes::from(out)
    }

    fn deserialize(blob: &[u8]) -> Option<CommitLayout> {
        fn take_u64(b: &[u8], at: &mut usize) -> Option<u64> {
            let s = b.get(*at..*at + 8)?;
            *at += 8;
            Some(u64::from_le_bytes(s.try_into().ok()?))
        }
        let mut at = 0;
        let version = take_u64(blob, &mut at)?;
        let tag = *blob.get(at)?;
        at += 1;
        let a = take_u64(blob, &mut at)? as usize;
        let b = take_u64(blob, &mut at)? as usize;
        let mode = match tag {
            0 => RedundancyMode::Replicate { k: a },
            1 => RedundancyMode::XorParity { width: a },
            2 => RedundancyMode::ReedSolomon {
                width: a,
                parity: b,
            },
            _ => return None,
        };
        let ngroups = take_u64(blob, &mut at)? as usize;
        let mut groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let len = take_u64(blob, &mut at)? as usize;
            let mut g = Vec::with_capacity(len);
            for _ in 0..len {
                g.push(take_u64(blob, &mut at)? as usize);
            }
            groups.push(g);
        }
        (at == blob.len()).then_some(CommitLayout {
            version,
            mode,
            groups,
        })
    }
}

/// Per-rank redundancy memory. Create it *outside* the Fenix run loop so
/// survivor copies persist across repairs.
#[derive(Default)]
pub struct RedStore {
    /// member id → this rank's own latest committed payload.
    own: Mutex<HashMap<u32, (u64, Bytes)>>,
    /// (member id, owner comm rank) → shard held for that peer.
    held: Mutex<HashMap<(u32, usize), HeldShard>>,
    /// member id → placement the latest commit was written under.
    layouts: Mutex<HashMap<u32, CommitLayout>>,
}

impl RedStore {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// This rank's latest committed copy of a member.
    pub fn own(&self, member: u32) -> Option<(u64, Bytes)> {
        self.own.lock().get(&member).cloned()
    }

    /// Latest committed version of a member, if any.
    pub fn latest_version(&self, member: u32) -> Option<u64> {
        self.own.lock().get(&member).map(|(v, _)| *v)
    }

    /// Placement of the latest commit (tests, diagnostics).
    pub fn layout(&self, member: u32) -> Option<CommitLayout> {
        self.layouts.lock().get(&member).cloned()
    }

    /// Total bytes resident (own + held) — the memory-overhead figure the
    /// coverage/cost table reports.
    pub fn resident_bytes(&self) -> usize {
        let own: usize = self.own.lock().values().map(|(_, b)| b.len()).sum();
        let held: usize = self.held.lock().values().map(|h| h.data.len()).sum();
        own + held
    }

    /// Drop everything (tests; a recovered rank starts empty anyway).
    pub fn clear(&self) {
        self.own.lock().clear();
        self.held.lock().clear();
        self.layouts.lock().clear();
    }

    /// Chaos hook: silently flip the last byte of the shard this rank
    /// holds for `owner`'s `member`, as a bit-rotted peer store would.
    /// Returns `false` when nothing (or an empty shard) is held. A replica
    /// ships verbatim — integrity is the payload framing's job — so the
    /// damage must surface at restore-unpack on the recovering rank, never
    /// as a panic.
    pub fn tamper_held(&self, member: u32, owner: usize) -> bool {
        let mut held = self.held.lock();
        match held.get_mut(&(member, owner)) {
            Some(h) if !h.data.is_empty() => {
                let mut out = h.data.to_vec();
                let last = out.len() - 1;
                out[last] ^= 0xFF;
                h.data = Bytes::from(out);
                true
            }
            _ => false,
        }
    }
}

const RED_TAG_BASE: u64 = 0x0200_0000;

/// Wire form of a *coded* shard: `[version u64][orig_len u64][index u8][data…]`.
/// Replicas travel bare (see [`RedundancyGroup::exchange`]).
fn frame(version: u64, orig_len: u64, index: u8, data: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(17 + data.len());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&orig_len.to_le_bytes());
    out.push(index);
    out.extend_from_slice(data);
    Bytes::from(out)
}

fn unframe(payload: &Bytes) -> Result<(u64, u64, u8, Bytes), RedError> {
    if payload.len() < 17 {
        return Err(RedError::Mpi(MpiError::TypeMismatch {
            expected: 17,
            got: payload.len(),
        }));
    }
    let version = u64::from_le_bytes(payload[..8].try_into().expect("checked"));
    let orig_len = u64::from_le_bytes(payload[8..16].try_into().expect("checked"));
    Ok((version, orig_len, payload[16], payload.slice(17..)))
}

/// A redundancy group bound to the current resilient communicator.
pub struct RedundancyGroup<'a> {
    comm: &'a Comm,
    store: Arc<RedStore>,
    /// `None` = pick the strongest feasible mode for the comm shape.
    mode: Option<RedundancyMode>,
}

impl<'a> RedundancyGroup<'a> {
    pub fn new(store: Arc<RedStore>, comm: &'a Comm, mode: Option<RedundancyMode>) -> Self {
        RedundancyGroup { comm, store, mode }
    }

    fn tag(member: u32, leg: u64) -> u64 {
        RED_TAG_BASE | (leg << 32) | member as u64
    }

    /// Resolve the effective mode for the current comm shape — identical
    /// on every rank (pure function of the shared node map).
    fn resolve_mode(&self, nodes: &[usize]) -> Result<RedundancyMode, RedError> {
        match self.mode {
            Some(m) => {
                m.validate().map_err(|_| {
                    RedError::Placement(PlacementError::InsufficientRanks {
                        ranks: nodes.len(),
                        width: m.width(),
                    })
                })?;
                Ok(m)
            }
            None => RedundancyMode::auto(nodes).ok_or(RedError::Placement(
                PlacementError::InsufficientNodes {
                    ranks: nodes.len(),
                    width: 2,
                    max_per_node: nodes.len(),
                    groups: nodes.len() / 2,
                },
            )),
        }
    }

    /// Collectively commit `data` as `member`'s payload at `version`.
    /// Every rank must call with its own payload.
    pub fn store(&self, member: u32, version: u64, data: Bytes) -> Result<(), RedError> {
        let nodes = comm_node_map(self.comm);
        let mode = self.resolve_mode(&nodes)?;
        let placement = Placement::compute(&nodes, mode.width())?;
        self.store_with(member, version, data, mode, &placement)
    }

    /// The exchange + agreement under an explicit placement (also the
    /// re-encode step of [`RedundancyGroup::restore`]).
    fn store_with(
        &self,
        member: u32,
        version: u64,
        data: Bytes,
        mode: RedundancyMode,
        placement: &Placement,
    ) -> Result<(), RedError> {
        let recorder = self.comm.router().recorder(self.comm.my_global());

        // Phase 1: encode + exchange. Nothing is committed yet.
        let exchange = self.exchange(member, version, &data, mode, placement, &recorder);
        match &exchange {
            // This rank is going down or the job is aborting: unwind now —
            // the agreement below would never complete.
            Err(RedError::Mpi(MpiError::Killed)) => return Err(MpiError::Killed.into()),
            Err(RedError::Mpi(MpiError::Aborted)) => return Err(MpiError::Aborted.into()),
            // Everything else reaches the agreement: every survivor must
            // learn whether the commit is off.
            Ok(_)
            | Err(RedError::Mpi(
                MpiError::ProcFailed { .. }
                | MpiError::Revoked
                | MpiError::RankOutOfRange { .. }
                | MpiError::TypeMismatch { .. },
            ))
            | Err(RedError::DataLost { .. } | RedError::Placement(_) | RedError::Codec(_)) => {}
        }

        // Phase 2: agree on commit (Fenix's `data_commit` discipline; the
        // member id is mixed into the sequence number so concurrent
        // members cannot collide).
        let seq = ((member as u64) << 48) | (version & 0xffff_ffff_ffff);
        let outcome = self.comm.agree(seq, exchange.is_ok() as u64)?;
        if outcome.flags & 1 == 1 && outcome.failed.is_empty() {
            match exchange {
                Ok(held) => {
                    self.store.own.lock().insert(member, (version, data));
                    let mut held_map = self.store.held.lock();
                    // Previous placements may have left shards for owners
                    // no longer in this rank's group; a restore must never
                    // see them.
                    held_map.retain(|(m, _), _| *m != member);
                    for (owner, shard) in held {
                        held_map.insert((member, owner), shard);
                    }
                    drop(held_map);
                    self.store.layouts.lock().insert(
                        member,
                        CommitLayout {
                            version,
                            mode,
                            groups: placement.groups().to_vec(),
                        },
                    );
                    if let Some(m) = recorder.metrics() {
                        m.counter("redstore.store_commits").inc();
                    }
                    Ok(())
                }
                // Agreed flags imply every rank's exchange succeeded; if
                // ours did not the agreement is stale — surface the miss.
                Err(e) => Err(e),
            }
        } else {
            match exchange {
                Err(e) => Err(e),
                Ok(_) => Err(RedError::Mpi(MpiError::ProcFailed {
                    ranks: outcome.failed,
                })),
            }
        }
    }

    /// Encode this rank's payload and swap shards with the group: all
    /// sends are buffered first, then the matching receives, so there is
    /// no ordering deadlock. Returns the shards this rank now holds for
    /// its peers.
    fn exchange(
        &self,
        member: u32,
        version: u64,
        data: &Bytes,
        mode: RedundancyMode,
        placement: &Placement,
        recorder: &telemetry::Recorder,
    ) -> Result<Vec<(usize, HeldShard)>, RedError> {
        let me = self.comm.rank();
        // A placement covers every rank of the communicator it was computed
        // (or committed) for; a miss is a malformed layout, not a panic.
        let (gi, pos) = placement
            .locate(me)
            .ok_or(RedError::DataLost { member, rank: me })?;
        let group = &placement.groups()[gi];
        let s = group.len();
        let orig_len = data.len() as u64;

        // Encode.
        // lint: sanction(wall-clock): encode-latency histogram; metrics
        // only, never feeds control flow. audited 2026-08.
        let t0 = Instant::now();
        // Each entry is `(dst, shard_len, wire bytes)`.
        let outgoing: Vec<(usize, usize, Bytes)> = match mode {
            // A replica *is* the payload: ship the reference-counted handle
            // to the k-1 holders, no header and no copy. The version is
            // this collective's own argument (bound by the agreement `seq`
            // in `store_with`), the original length is the message's, and
            // the shard index is 0 — nothing a header would add.
            RedundancyMode::Replicate { k } => placement
                .replica_holders(me, k)
                .map(|dst| (dst, data.len(), data.clone()))
                .collect(),
            RedundancyMode::XorParity { .. } | RedundancyMode::ReedSolomon { .. } => {
                if s > 256 {
                    return Err(CodecError::BadGeometry(format!(
                        "group of {s} exceeds the shard-index space"
                    ))
                    .into());
                }
                let parity = mode.parity_of();
                let shards = match mode {
                    RedundancyMode::XorParity { .. } => codec::xor_encode(data, s - 1)?,
                    _ => codec::rs_encode(data, s - parity, parity)?,
                };
                // Shard 0 stays with the owner conceptually (it dies with
                // the owner either way — the tolerance math already counts
                // the owner's own failure as one erasure), so only shards
                // 1..s travel.
                shards
                    .into_iter()
                    .enumerate()
                    .skip(1)
                    .map(|(i, sh)| {
                        let len = sh.len();
                        (
                            group[(pos + i) % s],
                            len,
                            frame(version, orig_len, i as u8, &sh),
                        )
                    })
                    .collect()
            }
        };
        recorder.emit_with(|| Event::Marker {
            label: "redstore.encode".into(),
        });
        if let Some(m) = recorder.metrics() {
            // lint: sanction(wall-clock): encode-latency histogram; metrics
            // only, never feeds control flow. audited 2026-08.
            m.histogram("redstore.encode_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }

        // Sends first (buffered by the simulator), then receives.
        let mut sent_bytes = 0u64;
        for (dst, shard_len, wire) in outgoing {
            sent_bytes += shard_len as u64;
            self.comm.send_bytes(dst, Self::tag(member, 0), wire)?;
        }
        if let Some(m) = recorder.metrics() {
            m.counter("redstore.exchange_bytes").add(sent_bytes);
        }

        let mut held = Vec::new();
        for &q in group {
            if q == me {
                continue;
            }
            let expects = match mode {
                RedundancyMode::Replicate { k } => placement.replica_holders(q, k).any(|h| h == me),
                _ => true,
            };
            if !expects {
                continue;
            }
            let (payload, _) = self.comm.recv_bytes(Some(q), Self::tag(member, 0))?;
            let shard = match mode {
                RedundancyMode::Replicate { .. } => HeldShard {
                    version,
                    index: 0,
                    orig_len: payload.len() as u64,
                    data: payload,
                },
                RedundancyMode::XorParity { .. } | RedundancyMode::ReedSolomon { .. } => {
                    let (v, orig_len, index, data) = unframe(&payload)?;
                    debug_assert_eq!(v, version, "store exchange version skew");
                    HeldShard {
                        version: v,
                        index,
                        orig_len,
                        data,
                    }
                }
            };
            held.push((q, shard));
        }
        recorder.emit_with(|| Event::Marker {
            label: "redstore.exchange".into(),
        });
        Ok(held)
    }

    /// Collectively restore `member` after a Fenix repair.
    ///
    /// `recovering` is the agreed list of comm ranks that do not hold the
    /// committed version (possession-based agreement, identical on every
    /// rank). Survivors recover locally and feed the recovering ranks;
    /// afterwards the *whole group re-encodes* under a fresh placement so
    /// redundancy is fully restored. Fails with [`RedError::DataLost`]
    /// when more members of one group are recovering than the committed
    /// mode tolerates.
    pub fn restore(&self, member: u32, recovering: &[usize]) -> Result<(u64, Bytes), RedError> {
        let me = self.comm.rank();
        let recorder = self.comm.router().recorder(self.comm.my_global());

        if recovering.is_empty() {
            // Nothing to transfer; the local copy is authoritative.
            return self
                .store
                .own
                .lock()
                .get(&member)
                .cloned()
                .ok_or(RedError::DataLost { member, rank: me });
        }

        // The committed layout travels from the lowest surviving rank:
        // comm slots are stable across repairs, but a replacement spare
        // has no memory of the placement the data was written under.
        let root = (0..self.comm.size())
            .find(|r| !recovering.contains(r))
            .ok_or(RedError::DataLost { member, rank: me })?;
        let local_layout = if me == root {
            self.store
                .layouts
                .lock()
                .get(&member)
                .map(|l| l.serialize())
                .unwrap_or_default()
        } else {
            Bytes::new()
        };
        let layout_blob = self.comm.bcast_bytes(root, local_layout)?;
        let layout = CommitLayout::deserialize(&layout_blob)
            .ok_or(RedError::DataLost { member, rank: me })?;
        let version = layout.version;
        let mode = layout.mode;
        let committed = Placement::from_groups(layout.groups);

        // Deterministic feasibility check — same verdict on every rank —
        // before any rank blocks in a transfer that cannot complete.
        for &q in recovering {
            let Some((gi, _)) = committed.locate(q) else {
                return Err(RedError::DataLost { member, rank: q });
            };
            let group = &committed.groups()[gi];
            let s = group.len();
            let recoverable = match mode {
                RedundancyMode::Replicate { k } => committed
                    .replica_holders(q, k)
                    .any(|h| !recovering.contains(&h)),
                _ => {
                    let alive = group.iter().filter(|r| !recovering.contains(r)).count();
                    alive >= s - mode.parity_of()
                }
            };
            if !recoverable {
                return Err(RedError::DataLost { member, rank: q });
            }
        }

        // Survivors send every shard they hold for a recovering group
        // member (replicate: only the designated first live holder sends,
        // so the recovering rank knows exactly how many frames to await).
        if !recovering.contains(&me) {
            for &q in recovering {
                let Some((gi, _)) = committed.locate(q) else {
                    continue;
                };
                let group = &committed.groups()[gi];
                if !group.contains(&me) {
                    continue;
                }
                let should_send = match mode {
                    RedundancyMode::Replicate { k } => {
                        committed
                            .replica_holders(q, k)
                            .find(|h| !recovering.contains(h))
                            == Some(me)
                    }
                    _ => true,
                };
                if !should_send {
                    continue;
                }
                let shard = self.store.held.lock().get(&(member, q)).cloned();
                // A shard of another version cannot be what the committed
                // layout describes: the two-phase store swaps shards and
                // layout together.
                let shard = shard
                    .filter(|s| s.version == version)
                    .ok_or(RedError::DataLost { member, rank: q })?;
                let wire = match mode {
                    // Bare replica, as on the store leg: the version came
                    // with the layout broadcast above.
                    RedundancyMode::Replicate { .. } => shard.data,
                    _ => frame(shard.version, shard.orig_len, shard.index, &shard.data),
                };
                self.comm.send_bytes(q, Self::tag(member, 1), wire)?;
            }
        }

        // Recovering ranks collect and reconstruct.
        if recovering.contains(&me) {
            // lint: sanction(wall-clock): reconstruct-latency histogram;
            // metrics only, never feeds control flow. audited 2026-08.
            let t0 = Instant::now();
            let (gi, _) = committed
                .locate(me)
                .ok_or(RedError::DataLost { member, rank: me })?;
            let group = &committed.groups()[gi];
            let s = group.len();
            let senders: Vec<usize> = match mode {
                RedundancyMode::Replicate { k } => committed
                    .replica_holders(me, k)
                    .find(|h| !recovering.contains(h))
                    .into_iter()
                    .collect(),
                _ => group
                    .iter()
                    .copied()
                    .filter(|r| *r != me && !recovering.contains(r))
                    .collect(),
            };
            let blob = match mode {
                RedundancyMode::Replicate { .. } => {
                    let holder = *senders
                        .first()
                        .ok_or(RedError::DataLost { member, rank: me })?;
                    let (payload, _) = self.comm.recv_bytes(Some(holder), Self::tag(member, 1))?;
                    payload
                }
                _ => {
                    let mut slots: Vec<Option<Vec<u8>>> = vec![None; s];
                    let mut orig_len = 0u64;
                    for &from in &senders {
                        let (payload, _) =
                            self.comm.recv_bytes(Some(from), Self::tag(member, 1))?;
                        let (v, olen, index, shard) = unframe(&payload)?;
                        if v != version || index as usize >= s {
                            return Err(RedError::DataLost { member, rank: me });
                        }
                        orig_len = olen;
                        slots[index as usize] = Some(shard.to_vec());
                    }
                    let parity = mode.parity_of();
                    let decoded = match mode {
                        RedundancyMode::XorParity { .. } => {
                            codec::xor_decode(&slots, s - 1, orig_len as usize)?
                        }
                        _ => codec::rs_decode(&slots, s - parity, parity, orig_len as usize)?,
                    };
                    Bytes::from(decoded)
                }
            };
            self.store
                .own
                .lock()
                .insert(member, (version, blob.clone()));
            recorder.emit_with(|| Event::Marker {
                label: "redstore.reconstruct".into(),
            });
            if let Some(m) = recorder.metrics() {
                // lint: sanction(wall-clock): reconstruct-latency histogram;
                // metrics only, never feeds control flow. audited 2026-08.
                m.histogram("redstore.reconstruct_ns")
                    .record(t0.elapsed().as_nanos() as u64);
            }
        }

        // Every rank now owns its payload: re-encode under a fresh
        // placement so coverage is restored, not consumed — the spare that
        // replaced a dead rank may sit on a different node, which both
        // invalidates old shard placements and changes what is feasible.
        let (_, own_blob) = self
            .store
            .own
            .lock()
            .get(&member)
            .cloned()
            .ok_or(RedError::DataLost { member, rank: me })?;
        let nodes = comm_node_map(self.comm);
        let fresh_mode = self.resolve_mode(&nodes)?;
        let fresh = Placement::compute(&nodes, fresh_mode.width())?;
        self.store_with(member, version, own_blob.clone(), fresh_mode, &fresh)?;
        recorder.emit_with(|| Event::Marker {
            label: "redstore.reencode".into(),
        });
        if let Some(m) = recorder.metrics() {
            m.counter("redstore.reencode").inc();
        }
        Ok((version, own_blob))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_serialization_round_trips() {
        let layout = CommitLayout {
            version: 11,
            mode: RedundancyMode::ReedSolomon {
                width: 4,
                parity: 2,
            },
            groups: vec![vec![0, 2], vec![1, 3, 4]],
        };
        let blob = layout.serialize();
        assert_eq!(CommitLayout::deserialize(&blob), Some(layout));
        assert_eq!(CommitLayout::deserialize(&blob[..blob.len() - 1]), None);
        assert_eq!(CommitLayout::deserialize(&[]), None);
    }

    #[test]
    fn frames_round_trip_and_reject_short_payloads() {
        let f = frame(9, 100, 3, b"abc");
        let (v, olen, idx, data) = unframe(&f).unwrap();
        assert_eq!((v, olen, idx, data.as_ref()), (9, 100, 3, &b"abc"[..]));
        assert!(matches!(
            unframe(&Bytes::from_static(b"short")),
            Err(RedError::Mpi(MpiError::TypeMismatch { .. }))
        ));
    }

    #[test]
    fn store_tracks_versions_and_bytes() {
        let s = RedStore::new();
        assert_eq!(s.latest_version(0), None);
        s.own.lock().insert(0, (3, Bytes::from_static(b"abcd")));
        s.held.lock().insert(
            (0, 1),
            HeldShard {
                version: 3,
                index: 1,
                orig_len: 4,
                data: Bytes::from_static(b"xy"),
            },
        );
        assert_eq!(s.latest_version(0), Some(3));
        assert_eq!(s.resident_bytes(), 6);
        s.clear();
        assert_eq!(s.resident_bytes(), 0);
    }
}
