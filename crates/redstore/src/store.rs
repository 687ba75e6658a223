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
//! * [`RedundancyGroup::possession`] — on re-entry after a Fenix repair,
//!   agree which version is committed and which ranks do not hold it: the
//!   tier's one restart agreement.
//! * [`RedundancyGroup::restore`] — survivors feed the recovering ranks
//!   enough shards to reconstruct, then the whole communicator
//!   *re-encodes* at the committed version under a freshly computed
//!   placement, so coverage is restored rather than consumed and the
//!   distinct-node invariant holds again even though spares may have
//!   joined on different nodes.
//!
//! The commit also persists the placement used (`CommitLayout`), because a
//! restore must read shards by the geometry they were *written* under, not
//! the geometry the repaired communicator would compute today.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use cluster::{Pool, PoolBuf, Unfilled};
use parking_lot::Mutex;
use simmpi::{Comm, MpiError};
use telemetry::Event;

use crate::codec::{written, Code, CodecError};
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

/// One shard (or full copy) held for a peer: the message as it arrived,
/// which is also what a restore sends back — the same handle, no copy.
#[derive(Clone, Debug)]
struct HeldShard {
    version: u64,
    /// A bare replica, or a coded shard's whole wire frame.
    wire: Bytes,
    /// Where the shard's bytes start in `wire`: 0 for a replica,
    /// [`HEADER_LEN`] for a coded shard.
    offset: usize,
}

/// The little-endian `u64` at `*at`, advancing past it.
fn take_u64(b: &[u8], at: &mut usize) -> Option<u64> {
    let s = b.get(*at..*at + 8)?;
    *at += 8;
    Some(u64::from_le_bytes(s.try_into().ok()?))
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
pub struct RedStore {
    /// member id → this rank's own latest committed payload.
    own: Mutex<HashMap<u32, (u64, Bytes)>>,
    /// (member id, owner comm rank) → shard held for that peer.
    held: Mutex<HashMap<(u32, usize), HeldShard>>,
    /// member id → placement the latest commit was written under.
    layouts: Mutex<HashMap<u32, CommitLayout>>,
}

/// One lock per line: the parking_lot shim's lock-order witness classes a
/// lock by the line that builds it, and a derive would give all three one.
impl Default for RedStore {
    fn default() -> Self {
        RedStore {
            own: Mutex::default(),
            held: Mutex::default(),
            layouts: Mutex::default(),
        }
    }
}

impl RedStore {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// This rank's latest committed copy of a member.
    pub fn own(&self, member: u32) -> Option<(u64, Bytes)> {
        self.own.lock().get(&member).cloned()
    }

    /// What this rank holds for `owner`'s copy of a member, as it arrived:
    /// the version and a bare replica, or a coded shard's whole wire frame
    /// (tests, diagnostics).
    pub fn held(&self, member: u32, owner: usize) -> Option<(u64, Bytes)> {
        let held = self.held.lock();
        held.get(&(member, owner))
            .map(|h| (h.version, h.wire.clone()))
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
        let held: usize = self
            .held
            .lock()
            .values()
            .map(|h| h.wire.len() - h.offset)
            .sum();
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
            Some(h) if h.wire.len() > h.offset => {
                let mut out = h.wire.to_vec();
                if let Some(last) = out.last_mut() {
                    *last ^= 0xFF;
                }
                h.wire = Bytes::from(out);
                true
            }
            _ => false,
        }
    }
}

const RED_TAG_BASE: u64 = 0x0200_0000;

/// Bytes of header in front of a coded shard on the wire.
const HEADER_LEN: usize = 17;

/// The code a coded `mode` runs over a placement group of `s` members;
/// `None` for replication. A group may be larger than the mode's width (the
/// remainder of an uneven partition): more data shards at the same parity
/// count. A group too small for the parity count has zero data shards,
/// which the codec reports as its typed geometry error.
fn code_of(mode: RedundancyMode, s: usize) -> Option<Code> {
    match mode {
        RedundancyMode::Replicate { .. } => None,
        RedundancyMode::XorParity { .. } => Some(Code::Xor {
            n: s.saturating_sub(1),
        }),
        RedundancyMode::ReedSolomon { parity, .. } => Some(Code::Rs {
            n: s.saturating_sub(parity),
            m: parity,
        }),
    }
}

/// The wire frames of `payload`'s coded shards that travel:
/// `[version u64][orig_len u64][index u8][shard…]` for index 1 onwards, in
/// order. (Shard 0 stays with the owner conceptually: it dies with the
/// owner either way — the tolerance math already counts the owner's own
/// failure as one erasure.) Replicas travel bare (see
/// [`RedundancyGroup::exchange`]).
///
/// Each frame is built once, in the buffer that goes on the wire, taken
/// unwritten from the cluster's `pool` (recycled, or fresh on a miss) and
/// handed back to it when the last holder drops the frame: the header,
/// then the shard written straight behind it, every byte written once —
/// one copy of the payload's slice and its padding for a data shard
/// ([`Code::shard_into`]), and every parity shard in one pass over the
/// payload ([`Code::parity_into`], [`PoolBuf::fill_each`]). `pub` for the
/// redundancy bench and the wire-format test, which hold it to
/// `header ++ rs_encode(..)[index]` and to [`coded_frames_per_row`].
pub fn coded_frames(
    pool: &'static Pool,
    code: Code,
    version: u64,
    payload: &[u8],
) -> Result<Vec<Bytes>, CodecError> {
    let mut frames = wire_buffers(pool, code, version, payload)?;
    // Frames 1..n carry data shards, the last m the parity.
    let data = frames.len().saturating_sub(code.parity_shards()?);
    let (data_frames, parity_frames) = frames.split_at_mut(data);
    for (index, wire) in (1..).zip(data_frames.iter_mut()) {
        wire.fill_with(|shard| written(code.shard_into(payload, index, shard)))?;
    }
    PoolBuf::fill_each(parity_frames, |rows| {
        match code.parity_into(payload, rows) {
            Ok(rows) => (rows, Ok(())),
            Err(e) => (Vec::new(), Err(e)),
        }
    })?;
    Ok(frames.into_iter().map(|wire| pool.share(wire)).collect())
}

/// The frames [`coded_frames`] builds, every shard written by
/// [`Code::shard_into`], parity included, one row at a time over the
/// payload: the reference the one-pass build is tested against and the
/// bench times it against (`wire_rs4_2_reference`, in the same pooled
/// buffers). No production path calls it.
pub fn coded_frames_per_row(
    pool: &'static Pool,
    code: Code,
    version: u64,
    payload: &[u8],
) -> Result<Vec<Bytes>, CodecError> {
    let mut frames = wire_buffers(pool, code, version, payload)?;
    for (index, wire) in (1..).zip(frames.iter_mut()) {
        wire.fill_with(|shard| written(code.shard_into(payload, index, shard)))?;
    }
    Ok(frames.into_iter().map(|wire| pool.share(wire)).collect())
}

/// One buffer per travelling shard of `payload`, header written; the
/// shard's bytes are left for the caller to write.
fn wire_buffers(
    pool: &'static Pool,
    code: Code,
    version: u64,
    payload: &[u8],
) -> Result<Vec<PoolBuf>, CodecError> {
    let len = HEADER_LEN + code.shard_len(payload.len())?;
    let frames = (1..code.shards()?).map(|index| {
        let mut wire = pool.take(len);
        wire.put(&version.to_le_bytes());
        wire.put(&(payload.len() as u64).to_le_bytes());
        // A code has at most 256 shards, so the index fits its byte.
        wire.put(&[index as u8]);
        wire
    });
    Ok(frames.collect())
}

/// Hold a received frame to what the collective already knows about it,
/// and return the original payload length it records. Nothing in a header
/// is trusted: `version` is the one being stored or restored, `index` the
/// shard the placement assigns this owner and holder (so a duplicate or
/// out-of-range index is a mismatch for some sender), and the shard must be
/// exactly as long as `code` makes the shards of a payload of that length.
fn check_frame(frame: &[u8], code: Code, version: u64, index: usize) -> Result<usize, RedError> {
    let short = || {
        RedError::Mpi(MpiError::TypeMismatch {
            expected: HEADER_LEN,
            got: frame.len(),
        })
    };
    let mut at = 0;
    let v = take_u64(frame, &mut at).ok_or_else(short)?;
    let orig_len = take_u64(frame, &mut at).ok_or_else(short)?;
    let i = *frame.get(at).ok_or_else(short)?;
    if v != version {
        return Err(CodecError::BadGeometry(format!(
            "frame of version {v} in the exchange of version {version}"
        ))
        .into());
    }
    if i as usize != index {
        return Err(CodecError::BadGeometry(format!(
            "shard {i} where the placement assigns shard {index}"
        ))
        .into());
    }
    let orig_len = usize::try_from(orig_len).map_err(|_| {
        CodecError::BadGeometry(format!("original length {orig_len} is not addressable"))
    })?;
    let (expected, got) = (code.shard_len(orig_len)?, frame.len() - HEADER_LEN);
    if got != expected {
        return Err(CodecError::ShardSizeMismatch { expected, got }.into());
    }
    Ok(orig_len)
}

/// Rebuild a payload from the frames a recovering rank was sent, each
/// paired with the shard index the committed placement says its sender
/// holds. Every frame passes [`check_frame`], and all senders must record
/// the same original length. The payload is decoded into a buffer from the
/// cluster's `pool`, which it goes back to when its last holder drops it.
fn reconstruct(
    pool: &'static Pool,
    code: Code,
    version: u64,
    frames: &[(usize, Bytes)],
) -> Result<Bytes, RedError> {
    let mut slots: Vec<Option<&[u8]>> = vec![None; code.shards()?];
    let mut orig_len = None;
    for (index, frame) in frames {
        let len = check_frame(frame, code, version, *index)?;
        let agreed = *orig_len.get_or_insert(len);
        if len != agreed {
            return Err(CodecError::BadGeometry(format!(
                "senders disagree on the original length: {agreed} and {len}"
            ))
            .into());
        }
        let slot = slots.get_mut(*index).ok_or_else(|| {
            CodecError::BadGeometry(format!("shard {index} is not one of {code:?}"))
        })?;
        *slot = frame.get(HEADER_LEN..);
    }
    let payload = code.decode_with(&slots, orig_len.unwrap_or(0), |len| pool.take(len))?;
    Ok(pool.share(payload))
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

    /// Message tag of one leg of `member`'s traffic. The base sits above
    /// the id, not inside it: or-ed into the low word it aliased two ids
    /// that differ in its bit.
    fn tag(member: u32, leg: u64) -> u64 {
        ((RED_TAG_BASE | leg) << 32) | member as u64
    }

    /// Sequence number of the commit agreement: the member id is mixed in
    /// so concurrent members cannot collide. Injective over every `u32`
    /// member id (callers hash names into them, so the high bits count) and
    /// every version below 2³²; a version beyond that only aliases a commit
    /// of the same member 2³² versions earlier, long since resolved.
    fn commit_seq(member: u32, version: u64) -> u64 {
        ((member as u64) << 32) | (version & 0xffff_ffff)
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

        // Phase 2: agree on commit (Fenix's `data_commit` discipline).
        let seq = Self::commit_seq(member, version);
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
        let (group, pos) = placement
            .locate(me)
            .ok_or(RedError::DataLost { member, rank: me })?;
        let s = group.len();
        let code = code_of(mode, s);

        // Encode.
        #[expect(
            clippy::disallowed_methods,
            reason = "a latency histogram: metrics only"
        )]
        let t0 = Instant::now();
        // Each entry is `(dst, shard_len, wire bytes)`.
        let outgoing: Vec<(usize, usize, Bytes)> = match code {
            // A replica *is* the payload: ship the reference-counted handle
            // to the k-1 holders (a replicating mode's width is its `k`),
            // no header and no copy. The version is this collective's own
            // argument (bound by the agreement `seq` in `store_with`), the
            // original length is the message's, and the shard index is 0 —
            // nothing a header would add.
            None => placement
                .replica_holders(me, mode.width())
                .map(|dst| (dst, data.len(), data.clone()))
                .collect(),
            // Shard `i` goes to the member `i` places after its owner.
            Some(code) => coded_frames(self.comm.router().cluster().pool(), code, version, data)?
                .into_iter()
                .zip(group.iter().cycle().skip(pos + 1))
                .map(|(wire, &dst)| (dst, wire.len() - HEADER_LEN, wire))
                .collect(),
        };
        recorder.emit_with(|| Event::Marker {
            label: "redstore.encode".into(),
        });
        if let Some(m) = recorder.metrics() {
            #[expect(
                clippy::disallowed_methods,
                reason = "a latency histogram: metrics only"
            )]
            m.histogram("redstore.encode_ns")
                .record(t0.elapsed().as_nanos() as u64);
        }

        // Sends first (buffered by the simulator), then receives. Every
        // send is attempted even after one failed: a live peer that never
        // got its frame would wait for it in its receive loop while this
        // rank waits for that peer in the commit agreement. With every
        // frame delivered, each receive completes or names a dead source.
        let mut sent_bytes = 0u64;
        let mut send_failed = None;
        for (dst, shard_len, wire) in outgoing {
            match self.comm.send_bytes(dst, Self::tag(member, 0), wire) {
                Ok(()) => sent_bytes += shard_len as u64,
                Err(e) => {
                    send_failed.get_or_insert(e);
                }
            }
        }
        if let Some(m) = recorder.metrics() {
            m.counter("redstore.exchange_bytes").add(sent_bytes);
        }
        if let Some(e) = send_failed {
            return Err(e.into());
        }

        let mut held = Vec::new();
        let mut damaged = None;
        for (pos_q, &q) in group.iter().enumerate() {
            if q == me {
                continue;
            }
            // A replica reaches its holders only; coded shards reach all.
            let holds = |h| h == me;
            if code.is_none() && !placement.replica_holders(q, mode.width()).any(holds) {
                continue;
            }
            let (wire, _) = self.comm.recv_bytes(Some(q), Self::tag(member, 0))?;
            let mut offset = 0;
            if let Some(code) = code {
                // The shard `q` sent the member `i` places after it is `i`.
                if let Err(e) = check_frame(&wire, code, version, (pos + s - pos_q) % s) {
                    // Keep receiving: every expected frame has to leave the
                    // mailbox, or the next store would match it.
                    damaged.get_or_insert(e);
                    continue;
                }
                offset = HEADER_LEN;
            }
            let shard = HeldShard {
                version,
                wire,
                offset,
            };
            held.push((q, shard));
        }
        recorder.emit_with(|| Event::Marker {
            label: "redstore.exchange".into(),
        });
        damaged.map_or(Ok(held), Err)
    }

    /// The peer-memory restart agreement: the committed version of `member`
    /// and the comm ranks that do not hold it, identical on every rank;
    /// `None` when nothing was ever committed (a consistent cold restart).
    /// Collective — every rank of the communicator calls it on re-entry
    /// after a repair, and hands the list to [`Self::restore`].
    ///
    /// Possession is the agreement. Committed versions are consistent
    /// across holders (two-phase store), so the max over the gathered
    /// locals is the committed version and every rank below it is
    /// recovering — every replacement, however many repairs ago. The last
    /// repair's replacement list (`Fenix::recovered_ranks`) is not enough:
    /// when a failure cascades into recovery itself, an *earlier*
    /// replacement whose restore was interrupted holds nothing, and
    /// treating it as a survivor strands the job — it aborts on its empty
    /// store while the true survivors enter the iteration loop and wait on
    /// it forever.
    pub fn possession(&self, member: u32) -> Result<Option<(u64, Vec<usize>)>, RedError> {
        let local = self
            .store
            .latest_version(member)
            .map_or(-1i64, |v| v as i64);
        let locals = self.comm.allgather(&[local])?;
        let committed = locals.iter().copied().max().unwrap_or(-1);
        if committed < 0 {
            return Ok(None);
        }
        let recovering = locals
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != committed)
            .map(|(r, _)| r)
            .collect();
        Ok(Some((committed as u64, recovering)))
    }

    /// Collectively restore `member` after a Fenix repair.
    ///
    /// `recovering` is the agreed list of comm ranks that do not hold the
    /// committed version ([`Self::possession`]'s, identical on every
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
            let Some((group, _)) = committed.locate(q) else {
                return Err(RedError::DataLost { member, rank: q });
            };
            let recoverable = match mode {
                RedundancyMode::Replicate { k } => committed
                    .replica_holders(q, k)
                    .any(|h| !recovering.contains(&h)),
                RedundancyMode::XorParity { .. } | RedundancyMode::ReedSolomon { .. } => {
                    let alive = group.iter().filter(|r| !recovering.contains(r)).count();
                    alive + mode.parity_of() >= group.len()
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
                let Some((group, _)) = committed.locate(q) else {
                    continue;
                };
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
                    RedundancyMode::XorParity { .. } | RedundancyMode::ReedSolomon { .. } => true,
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
                // What arrived on the store leg goes back as it is: a bare
                // replica (the version came with the layout broadcast
                // above), or a coded shard's frame, header and all.
                self.comm.send_bytes(q, Self::tag(member, 1), shard.wire)?;
            }
        }

        // Recovering ranks collect and reconstruct.
        if recovering.contains(&me) {
            #[expect(
                clippy::disallowed_methods,
                reason = "a latency histogram: metrics only"
            )]
            let t0 = Instant::now();
            let (group, pos) = committed
                .locate(me)
                .ok_or(RedError::DataLost { member, rank: me })?;
            let s = group.len();
            let blob = match code_of(mode, s) {
                None => {
                    let holder = committed
                        .replica_holders(me, mode.width())
                        .find(|h| !recovering.contains(h))
                        .ok_or(RedError::DataLost { member, rank: me })?;
                    let (payload, _) = self.comm.recv_bytes(Some(holder), Self::tag(member, 1))?;
                    payload
                }
                Some(code) => {
                    // The member `i` places after this rank holds its
                    // shard `i`.
                    let mut frames = Vec::new();
                    for (pos_from, &from) in group.iter().enumerate() {
                        if from == me || recovering.contains(&from) {
                            continue;
                        }
                        let (frame, _) = self.comm.recv_bytes(Some(from), Self::tag(member, 1))?;
                        frames.push(((pos_from + s - pos) % s, frame));
                    }
                    let pool = self.comm.router().cluster().pool();
                    reconstruct(pool, code, version, &frames)?
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
                #[expect(
                    clippy::disallowed_methods,
                    reason = "a latency histogram: metrics only"
                )]
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
    use crate::codec;

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

    /// The frame format written the obvious way: header, then a copy of
    /// the shard the `Vec` encoder made.
    fn frame(version: u64, orig_len: u64, index: u8, shard: &[u8]) -> Vec<u8> {
        let mut out = version.to_le_bytes().to_vec();
        out.extend_from_slice(&orig_len.to_le_bytes());
        out.push(index);
        out.extend_from_slice(shard);
        out
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 17) as u8).collect()
    }

    const RS22: Code = Code::Rs { n: 2, m: 2 };

    fn cluster() -> cluster::Cluster {
        cluster::Cluster::new(cluster::ClusterConfig::default())
    }

    #[test]
    fn coded_store_leg_wire_bytes_are_unchanged() {
        // What pins modelled time: message count, sizes and bytes are those
        // of `frame(version, len, i, &rs_encode(..)[i])`, which the store
        // leg used to build from a split copy of the payload.
        let cluster = cluster();
        for code in [RS22, Code::Rs { n: 3, m: 2 }, Code::Xor { n: 2 }] {
            let (n, shards) = match code {
                Code::Rs { n, m } => (n, n + m),
                Code::Xor { n } => (n, n + 1),
            };
            for len in [0, 1, n - 1, n, n + 1, 257, (1 << 20) + 5] {
                let p = payload(len);
                let encoded = match code {
                    Code::Rs { n, m } => codec::rs_encode(&p, n, m),
                    Code::Xor { n } => codec::xor_encode(&p, n),
                }
                .expect("encode");
                let frames = coded_frames(cluster.pool(), code, 9, &p).expect("frames");
                assert_eq!(frames.len(), shards - 1, "{code:?}, {len} bytes");
                let per_row = coded_frames_per_row(cluster.pool(), code, 9, &p).expect("frames");
                assert!(
                    frames == per_row,
                    "{code:?}, {len} bytes: one pass and per row differ"
                );
                for (frame_i, index) in frames.iter().zip(1..) {
                    let want = frame(9, len as u64, index, &encoded[index as usize]);
                    assert!(frame_i == &want, "{code:?}, {len} bytes, shard {index}");
                }
            }
        }
    }

    /// Frames built into recycled buffers that the pool's previous user
    /// left full of `0xAA` are byte for byte the frames built into fresh
    /// ones: the pool does not zero them, so every shard byte is the
    /// encoder's, and a data shard's padding (a short last slice) is what
    /// shows it. (A debug build poisons fresh and recycled buffers alike;
    /// there `coded_store_leg_wire_bytes_are_unchanged` is what holds the
    /// padding to `rs_encode`'s.)
    #[test]
    fn frames_built_in_a_poisoned_recycled_buffer_equal_fresh_ones() {
        // A pool of this test's own, so that its hits are this test's.
        static POOL: std::sync::LazyLock<Pool> = std::sync::LazyLock::new(Pool::default);
        let pool = &POOL;
        for code in [RS22, Code::Rs { n: 3, m: 2 }, Code::Xor { n: 3 }] {
            for len in [3 << 18, (3 << 18) + 1, (1 << 20) - 1] {
                let p = payload(len);
                let fresh = coded_frames(pool, code, 9, &p).expect("frames");
                // Lend and return one poisoned buffer per frame while the
                // fresh frames stay outstanding.
                let poisoned: Vec<_> = (fresh.iter())
                    .map(|frame| {
                        let mut buf = pool.take(frame.len());
                        buf.put(&vec![0xAA; frame.len()]);
                        buf
                    })
                    .collect();
                for buf in poisoned {
                    drop(pool.share(buf));
                }
                let hits = pool.stats().hits;
                let recycled = coded_frames(pool, code, 9, &p).expect("frames");
                assert_eq!(pool.stats().hits - hits, fresh.len() as u64);
                assert!(fresh == recycled, "{code:?}, {len} bytes");
            }
        }
    }

    #[test]
    fn a_received_frame_is_held_to_version_slot_and_length() {
        let p = payload(9);
        let good = coded_frames(cluster().pool(), RS22, 4, &p).expect("frames")[1].clone();
        assert_eq!(check_frame(&good, RS22, 4, 2), Ok(9));
        // Not even a header.
        assert!(matches!(
            check_frame(&good[..16], RS22, 4, 2),
            Err(RedError::Mpi(MpiError::TypeMismatch {
                expected: 17,
                got: 16
            }))
        ));
        // Another version's frame, and the frame of another slot.
        for (version, index) in [(5, 2), (4, 1), (4, 3)] {
            assert!(
                matches!(
                    check_frame(&good, RS22, version, index),
                    Err(RedError::Codec(CodecError::BadGeometry(_)))
                ),
                "version {version}, index {index}"
            );
        }
        // A shard one byte short or long of ceil(9 / 2) = 5, and a recorded
        // length no 5-byte shards can hold.
        let shard = &good[HEADER_LEN..];
        for damaged in [
            frame(4, 9, 2, &shard[..4]),
            frame(4, 9, 2, &[shard, &[0]].concat()),
            frame(4, 11, 2, shard),
            frame(4, u64::MAX, 2, shard),
        ] {
            assert!(
                matches!(
                    check_frame(&damaged, RS22, 4, 2),
                    Err(RedError::Codec(CodecError::ShardSizeMismatch { .. }))
                ),
                "{damaged:?}"
            );
        }
    }

    #[test]
    fn reconstruct_round_trips_and_rejects_senders_that_disagree() {
        let p = payload(9);
        let cluster = cluster();
        let pool = cluster.pool();
        let frames = coded_frames(pool, RS22, 4, &p).expect("frames");
        // Shard 0 died with its owner; any two of the other three do.
        for lost in 1..4 {
            let sent: Vec<(usize, Bytes)> = (1..4)
                .zip(frames.iter().cloned())
                .filter(|(index, _)| *index != lost)
                .collect();
            let rebuilt = reconstruct(pool, RS22, 4, &sent).map(|b| b.to_vec());
            assert_eq!(rebuilt, Ok(p.clone()), "lost {lost}");
        }
        // One sender's frame twice: the second is not the shard of its slot.
        let twice = [(1, frames[0].clone()), (2, frames[0].clone())];
        assert!(matches!(
            reconstruct(pool, RS22, 4, &twice),
            Err(RedError::Codec(CodecError::BadGeometry(_)))
        ));
        // Two well-formed frames of payloads of 9 and 10 bytes: both have
        // 5-byte shards, so only the recorded lengths tell them apart.
        let other = coded_frames(cluster.pool(), RS22, 4, &payload(10)).expect("frames");
        let mixed = [(1, frames[0].clone()), (2, other[1].clone())];
        assert!(matches!(
            reconstruct(pool, RS22, 4, &mixed),
            Err(RedError::Codec(CodecError::BadGeometry(_)))
        ));
        // Too few senders is the codec's typed error, not a panic.
        assert_eq!(
            reconstruct(pool, RS22, 4, &[(1, frames[0].clone())]),
            Err(RedError::Codec(CodecError::TooManyErasures {
                available: 1,
                needed: 2
            }))
        );
    }

    #[test]
    fn a_damaged_exchange_turns_the_commit_off_on_every_rank() {
        use cluster::{Cluster, ClusterConfig, TimeScale};
        use simmpi::{FaultPlan, Universe, UniverseConfig};

        // Four ranks on four nodes: one RS 2+2 group, rank 0 first in it —
        // so its frame is the first each peer receives. In the second round
        // rank 0 plays its side of `store_with` by hand and sends every
        // peer a well-formed frame of the wrong slot.
        let cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            ranks_per_node: 1,
            time_scale: TimeScale::instant(),
            ..ClusterConfig::default()
        });
        let plan = Arc::new(FaultPlan::none());
        let report = Universe::launch(&cluster, UniverseConfig::default(), plan, |ctx| {
            let store = RedStore::new();
            let comm = ctx.world().clone();
            let group = RedundancyGroup::new(Arc::clone(&store), &comm, None);
            let me = comm.rank();
            let mine = Bytes::from(payload(300 + me));
            group.store(0, 1, mine.clone()).expect("round 1 commits");

            let tag = RedundancyGroup::tag(0, 0);
            if me == 0 {
                // Shard `i` belongs with rank `i`; send it one further.
                let pool = comm.router().cluster().pool();
                let frames = coded_frames(pool, RS22, 2, &mine).expect("frames");
                for (frame, dst) in frames.into_iter().zip([2, 3, 1]) {
                    comm.send_bytes(dst, tag, frame)?;
                }
                for from in 1..4 {
                    comm.recv_bytes(Some(from), tag)?;
                }
                let seq = RedundancyGroup::commit_seq(0, 2);
                assert_eq!(comm.agree(seq, 1)?.flags & 1, 0, "a peer voted no");
            } else {
                // The header check fails before the agreement, so the vote
                // is no on every rank and round 1 stays the commit.
                assert!(matches!(
                    group.store(0, 2, mine.clone()),
                    Err(RedError::Codec(CodecError::BadGeometry(_)))
                ));
                assert_eq!(store.latest_version(0), Some(1));
            }
            // Every frame of the damaged round left its mailbox: the next
            // round matches its own frames and commits.
            group.store(0, 3, mine).expect("round 3 commits");
            assert_eq!(store.latest_version(0), Some(3));
            Ok(())
        });
        assert!(report.all_ok(), "{:?}", report.outcomes);
    }

    #[test]
    fn commit_sequences_and_tags_keep_member_ids_apart_above_bit_15() {
        // Hashed ids are 31 bits wide: two that differ only above bit 15
        // (what `member << 48` used to shift out) must not share a key.
        let (a, b) = (0x0001_2345, 0x7ffe_2345);
        assert_eq!(a & 0xffff, b & 0xffff);
        assert_ne!(RedundancyGroup::tag(a, 0), RedundancyGroup::tag(b, 0));
        assert_ne!(RedundancyGroup::tag(a, 0), RedundancyGroup::tag(a, 1));
        let base_bit = RED_TAG_BASE as u32;
        assert_ne!(
            RedundancyGroup::tag(a, 0),
            RedundancyGroup::tag(a | base_bit, 0)
        );
        assert_ne!(
            RedundancyGroup::commit_seq(a, 9),
            RedundancyGroup::commit_seq(b, 9)
        );
        assert_ne!(
            RedundancyGroup::commit_seq(a, 9),
            RedundancyGroup::commit_seq(a, 10)
        );
        assert_ne!(
            RedundancyGroup::commit_seq(u32::MAX, 0),
            RedundancyGroup::commit_seq(u32::MAX - 1, u32::MAX as u64)
        );
    }

    #[test]
    fn a_peer_dying_between_two_ranks_sends_fails_the_store_everywhere() {
        use cluster::{Cluster, ClusterConfig};
        use simmpi::{Backend, FaultPlan, Universe, UniverseConfig};

        // One RS 2+2 group on four nodes. Rank 3 dies after rank 0's sends
        // have all landed and before rank 1 or 2 has sent anything: rank 0
        // is already receiving when the others meet a failed send. Each
        // of them must still send rank 0 its frame, or rank 0 waits for it
        // while they wait for rank 0 in the commit agreement.
        let cluster = Cluster::new(ClusterConfig {
            nodes: 4,
            ranks_per_node: 1,
            virtual_time: true,
            ..ClusterConfig::default()
        });
        let config = UniverseConfig {
            backend: Backend::Des { seed: 3 },
            ..UniverseConfig::default()
        };
        let plan = Arc::new(FaultPlan::none());
        let report = Universe::launch(&cluster, config, plan, |ctx| {
            let store = RedStore::new();
            let comm = ctx.world().clone();
            let group = RedundancyGroup::new(Arc::clone(&store), &comm, None);
            let me = comm.rank();
            const GATE: u64 = 77;
            match me {
                0 => {}
                3 => {
                    comm.recv_bytes(Some(0), RedundancyGroup::tag(0, 0))?;
                    return Err(ctx.die());
                }
                _ => assert!(matches!(
                    comm.recv_bytes(Some(3), GATE),
                    Err(MpiError::ProcFailed { .. })
                )),
            }
            let stored = group.store(0, 1, Bytes::from(payload(300 + me)));
            assert!(
                matches!(stored, Err(RedError::Mpi(MpiError::ProcFailed { .. }))),
                "rank {me}: {stored:?}"
            );
            assert_eq!(store.latest_version(0), None);
            Ok(())
        });
        assert!(!report.aborted, "the survivors deadlocked");
        assert_eq!(report.killed_ranks(), vec![3]);
        for o in &report.outcomes[..3] {
            assert_eq!(o.result, Ok(()), "rank {}", o.rank);
        }
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
                wire: Bytes::from(frame(3, 4, 1, b"xy")),
                offset: HEADER_LEN,
            },
        );
        assert_eq!(s.latest_version(0), Some(3));
        // The header is not counted: 4 own bytes and a 2-byte shard.
        assert_eq!(s.resident_bytes(), 6);
        s.clear();
        assert_eq!(s.resident_bytes(), 0);
    }
}
