//! Communicators: point-to-point messaging and collective operations.
//!
//! A [`Comm`] is a per-rank handle onto a communicator: an ordered group of
//! global ranks plus this rank's position in it. Collectives are implemented
//! with real message-passing algorithms (binomial trees, dissemination
//! barrier) so that each hop is charged to the modeled network and failures
//! are observed the way ULFM specifies — first by the neighbors of the dead
//! rank, with other ranks potentially stuck until the communicator is
//! revoked.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;

use crate::error::{MpiError, MpiResult};
use crate::pod::{self, Pod};
use crate::router::{CommId, Envelope, MatchSpec, Router};
use telemetry::MpiOp;

/// Message tag. User tags must keep the top bit clear; collective-internal
/// traffic uses the reserved space.
pub type Tag = u64;

const COLL_BIT: u64 = 1 << 63;

/// Collective kinds, folded into internal tags so concurrent collectives on
/// the same communicator cannot cross-match.
#[derive(Clone, Copy)]
#[repr(u8)]
enum Coll {
    Barrier = 1,
    Bcast = 2,
    Reduce = 3,
    Gather = 4,
}

/// Built-in reduction operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Min,
    Max,
}

/// Scalar element types usable with the built-in reduction operators.
pub trait Scalar: Pod + PartialOrd + Default {
    fn add(a: Self, b: Self) -> Self;
}

macro_rules! impl_scalar_int {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            // Wrapping: MPI sum reductions of integers wrap on overflow
            // rather than trapping (and digests rely on this).
            fn add(a: Self, b: Self) -> Self { a.wrapping_add(b) }
        }
    )*};
}
impl_scalar_int!(u8, i8, u16, i16, u32, i32, u64, i64, usize);

macro_rules! impl_scalar_float {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            fn add(a: Self, b: Self) -> Self { a + b }
        }
    )*};
}
impl_scalar_float!(f32, f64);

impl ReduceOp {
    /// Fold `src` element-wise into `acc`.
    pub fn apply<T: Scalar>(self, acc: &mut [T], src: &[T]) {
        assert_eq!(acc.len(), src.len(), "reduction buffer size mismatch");
        match self {
            ReduceOp::Sum => {
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a = T::add(*a, s);
                }
            }
            ReduceOp::Min => {
                for (a, &s) in acc.iter_mut().zip(src) {
                    if s < *a {
                        *a = s;
                    }
                }
            }
            ReduceOp::Max => {
                for (a, &s) in acc.iter_mut().zip(src) {
                    if s > *a {
                        *a = s;
                    }
                }
            }
        }
    }
}

/// A communicator's ordered member list — comm rank → global rank — with
/// the reverse index. Dereferences to the member slice. The world group and
/// Fenix's resilient group are one instance shared by every member's handle
/// (see [`Router::share_group`]).
#[derive(Debug)]
pub struct Group {
    members: Vec<usize>,
    rank_of: HashMap<usize, usize>,
}

impl Group {
    pub fn new(members: Vec<usize>) -> Self {
        let mut rank_of = HashMap::with_capacity(members.len());
        for (rank, &global) in members.iter().enumerate() {
            rank_of.entry(global).or_insert(rank);
        }
        Group { members, rank_of }
    }

    pub fn as_slice(&self) -> &[usize] {
        &self.members
    }

    /// Communicator rank of a global rank, if it is a member.
    pub fn rank_of(&self, global: usize) -> Option<usize> {
        self.rank_of.get(&global).copied()
    }
}

impl std::ops::Deref for Group {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.members
    }
}

/// A per-rank communicator handle.
///
/// Cloning a `Comm` yields another handle for the *same* rank (useful for
/// storing in several runtime layers); it is not a `comm_dup`.
pub struct Comm {
    router: Arc<Router>,
    id: CommId,
    epoch: u32,
    /// Comm rank → global rank.
    group: Arc<Group>,
    /// This rank's position in `group`.
    my_rank: usize,
    /// This rank's global (world) rank: `group[my_rank]`.
    my_global: usize,
    /// Per-handle collective sequence number. MPI requires all ranks to call
    /// collectives in the same order, which keeps these in sync.
    coll_seq: Cell<u64>,
}

impl Clone for Comm {
    fn clone(&self) -> Self {
        Comm {
            router: Arc::clone(&self.router),
            id: self.id,
            epoch: self.epoch,
            group: Arc::clone(&self.group),
            my_rank: self.my_rank,
            my_global: self.my_global,
            coll_seq: Cell::new(self.coll_seq.get()),
        }
    }
}

impl Comm {
    /// Build a communicator handle from an explicit member list. `my_global`
    /// must be a member.
    pub fn from_group(
        router: Arc<Router>,
        id: CommId,
        epoch: u32,
        members: Vec<usize>,
        my_global: usize,
    ) -> Self {
        Comm::on_group(router, id, epoch, Arc::new(Group::new(members)), my_global)
    }

    /// Build a handle on a group several handles share: the world group
    /// (`Universe::launch` builds it once for all ranks) or one obtained
    /// from [`Router::share_group`].
    pub fn on_group(
        router: Arc<Router>,
        id: CommId,
        epoch: u32,
        group: Arc<Group>,
        my_global: usize,
    ) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "a comm is built only on a group holding its rank"
        )]
        let my_rank = group
            .rank_of(my_global)
            .expect("rank not in communicator group");
        Comm {
            router,
            id,
            epoch,
            group,
            my_rank,
            my_global,
            coll_seq: Cell::new(0),
        }
    }

    pub fn id(&self) -> CommId {
        self.id
    }

    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// This rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    pub fn size(&self) -> usize {
        self.group.len()
    }

    /// Global (world) rank of a communicator rank.
    #[expect(
        clippy::indexing_slicing,
        reason = "callers pass a rank below size(); user-facing calls check_rank first"
    )]
    pub fn global_of(&self, comm_rank: usize) -> usize {
        self.group[comm_rank]
    }

    /// This rank's global (world) rank.
    pub fn my_global(&self) -> usize {
        self.my_global
    }

    /// Communicator rank of a global rank, if it is a member.
    pub fn rank_of_global(&self, global: usize) -> Option<usize> {
        self.group.rank_of(global)
    }

    pub fn group(&self) -> &Arc<Group> {
        &self.group
    }

    pub fn router(&self) -> &Arc<Router> {
        &self.router
    }

    /// Trace hook: forwards to the router's per-rank recorder (no-op unless
    /// `TelemetryConfig::record_mpi_calls` is set).
    fn trace_call(&self, op: MpiOp, peer: Option<usize>, bytes: usize) {
        self.router
            .record_mpi(self.my_global(), op, peer.map(|p| p as u32), bytes as u64);
    }

    fn check_rank(&self, rank: usize) -> MpiResult<()> {
        if rank >= self.size() {
            Err(MpiError::RankOutOfRange {
                rank,
                size: self.size(),
            })
        } else {
            Ok(())
        }
    }

    // ---- point-to-point ---------------------------------------------------

    /// Send raw bytes to a communicator rank.
    pub fn send_bytes(&self, dst: usize, tag: Tag, payload: Bytes) -> MpiResult<()> {
        self.check_rank(dst)?;
        self.trace_call(MpiOp::Send, Some(dst), payload.len());
        debug_assert!(tag & COLL_BIT == 0, "user tags must keep the top bit clear");
        self.router.send(
            self.global_of(dst),
            Envelope {
                comm: self.id,
                epoch: self.epoch,
                src: self.my_global(),
                tag,
                payload,
            },
        )
    }

    /// Receive raw bytes. `src = None` receives from any source. Returns the
    /// payload and the *communicator* rank of the sender.
    pub fn recv_bytes(&self, src: Option<usize>, tag: Tag) -> MpiResult<(Bytes, usize)> {
        if let Some(s) = src {
            self.check_rank(s)?;
        }
        let env = self.recv_internal(src, tag)?;
        #[expect(
            clippy::expect_used,
            reason = "a receive matches only senders in this group"
        )]
        let src_rank = self
            .rank_of_global(env.src)
            .expect("sender not in communicator group");
        self.trace_call(MpiOp::Recv, Some(src_rank), env.payload.len());
        Ok((env.payload, src_rank))
    }

    fn recv_internal(&self, src: Option<usize>, tag: Tag) -> MpiResult<Envelope> {
        self.router.recv(MatchSpec {
            comm: self.id,
            epoch: self.epoch,
            src: src.map(|s| self.global_of(s)),
            tag,
            group: &self.group,
            me: self.my_global(),
        })
    }

    /// Send a typed slice.
    pub fn send<T: Pod>(&self, dst: usize, tag: Tag, data: &[T]) -> MpiResult<()> {
        self.send_bytes(dst, tag, pod::to_bytes(data))
    }

    /// Receive into a typed buffer; the incoming payload must match its size
    /// exactly. Returns the sender's communicator rank.
    pub fn recv_into<T: Pod>(
        &self,
        src: Option<usize>,
        tag: Tag,
        buf: &mut [T],
    ) -> MpiResult<usize> {
        let (payload, from) = self.recv_bytes(src, tag)?;
        let want = std::mem::size_of_val(buf);
        if payload.len() != want {
            return Err(MpiError::TypeMismatch {
                expected: want,
                got: payload.len(),
            });
        }
        pod::copy_from_bytes(buf, &payload);
        Ok(from)
    }

    /// Receive a typed vector of any length.
    pub fn recv_vec<T: Pod + Default>(
        &self,
        src: Option<usize>,
        tag: Tag,
    ) -> MpiResult<(Vec<T>, usize)> {
        let (payload, from) = self.recv_bytes(src, tag)?;
        Ok((pod::vec_from_bytes(&payload), from))
    }

    /// Combined send+receive (halo exchanges). Sends are buffered, so a
    /// plain send-then-receive cannot deadlock.
    pub fn sendrecv<T: Pod>(
        &self,
        dst: usize,
        send_tag: Tag,
        send_data: &[T],
        src: usize,
        recv_tag: Tag,
        recv_buf: &mut [T],
    ) -> MpiResult<()> {
        self.trace_call(MpiOp::SendRecv, Some(dst), std::mem::size_of_val(send_data));
        self.send(dst, send_tag, send_data)?;
        self.recv_into(Some(src), recv_tag, recv_buf)?;
        Ok(())
    }

    // ---- collectives ------------------------------------------------------

    fn next_coll_tag(&self, kind: Coll, round: u32) -> Tag {
        // seq is advanced once per collective *call* (see coll_begin).
        let seq = self.coll_seq.get();
        COLL_BIT | ((kind as u64) << 56) | (seq << 8) | round as u64
    }

    /// Enter a collective of `kind`: advance the tag sequence and, in debug
    /// builds, show the call to the collective-sequence witness, which
    /// counts the rank inside the collective until the returned guard
    /// drops. Release builds keep no witness and return the kind.
    #[cfg_attr(debug_assertions, track_caller)]
    fn coll_begin(&self, kind: &'static str) -> impl Sized + '_ {
        self.coll_seq
            .set(self.coll_seq.get().wrapping_add(1) & 0x0000_ffff_ffff_ffff);
        #[cfg(debug_assertions)]
        let inside = {
            let witness = &self.router.witness;
            witness.enter(self.id, self.epoch, &self.group, self.my_global, kind)
        };
        #[cfg(not(debug_assertions))]
        let inside = kind;
        inside
    }

    fn coll_send(&self, kind: Coll, round: u32, dst: usize, payload: Bytes) -> MpiResult<()> {
        self.check_rank(dst)?;
        self.router.send(
            self.global_of(dst),
            Envelope {
                comm: self.id,
                epoch: self.epoch,
                src: self.my_global(),
                tag: self.next_coll_tag(kind, round),
                payload,
            },
        )
    }

    fn coll_recv(&self, kind: Coll, round: u32, src: usize) -> MpiResult<Bytes> {
        let env = self.router.recv(MatchSpec {
            comm: self.id,
            epoch: self.epoch,
            src: Some(self.global_of(src)),
            tag: self.next_coll_tag(kind, round),
            group: &self.group,
            me: self.my_global(),
        })?;
        Ok(env.payload)
    }

    /// Dissemination barrier.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn barrier(&self) -> MpiResult<()> {
        self.trace_call(MpiOp::Barrier, None, 0);
        let _inside = self.coll_begin("barrier");
        let n = self.size();
        if n <= 1 {
            return Ok(());
        }
        let me = self.my_rank;
        let mut round = 0u32;
        let mut dist = 1usize;
        while dist < n {
            let dst = (me + dist) % n;
            let src = (me + n - dist) % n;
            self.coll_send(Coll::Barrier, round, dst, Bytes::new())?;
            self.coll_recv(Coll::Barrier, round, src)?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// Binomial-tree broadcast of raw bytes from `root`. On non-root ranks
    /// the returned payload replaces `data`'s role.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn bcast_bytes(&self, root: usize, data: Bytes) -> MpiResult<Bytes> {
        self.check_rank(root)?;
        self.trace_call(MpiOp::Bcast, Some(root), data.len());
        let _inside = self.coll_begin("bcast");
        let n = self.size();
        if n <= 1 {
            return Ok(data);
        }
        let vr = (self.my_rank + n - root) % n;

        // Receive phase: find the lowest set bit of vr.
        let mut mask = 1usize;
        let mut payload = data;
        while mask < n {
            if vr & mask != 0 {
                let parent = (vr - mask + root) % n;
                payload = self.coll_recv(Coll::Bcast, 0, parent)?;
                break;
            }
            mask <<= 1;
        }
        // Send phase: fan out below my lowest set bit.
        mask >>= 1;
        while mask > 0 {
            if vr + mask < n {
                let child = (vr + mask + root) % n;
                self.coll_send(Coll::Bcast, 0, child, payload.clone())?;
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    /// Typed broadcast: `buf` is the source at root and the destination
    /// elsewhere.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn bcast<T: Pod>(&self, root: usize, buf: &mut [T]) -> MpiResult<()> {
        let payload = if self.my_rank == root {
            pod::to_bytes(buf)
        } else {
            Bytes::new()
        };
        let out = self.bcast_bytes(root, payload)?;
        if self.my_rank != root {
            if out.len() != std::mem::size_of_val(buf) {
                return Err(MpiError::TypeMismatch {
                    expected: std::mem::size_of_val(buf),
                    got: out.len(),
                });
            }
            pod::copy_from_bytes(buf, &out);
        }
        Ok(())
    }

    /// Binomial-tree reduction to `root` with a caller-provided combiner.
    /// On return, `buf` at root holds the reduction; elsewhere its content is
    /// unspecified (it is used as scratch).
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn reduce_with<T: Pod + Default>(
        &self,
        root: usize,
        buf: &mut [T],
        combine: impl Fn(&mut [T], &[T]),
    ) -> MpiResult<()> {
        self.check_rank(root)?;
        self.trace_call(MpiOp::Reduce, Some(root), std::mem::size_of_val(buf));
        let _inside = self.coll_begin("reduce");
        let n = self.size();
        if n <= 1 {
            return Ok(());
        }
        let vr = (self.my_rank + n - root) % n;
        let mut recv_buf = vec![T::default(); buf.len()];
        let mut mask = 1usize;
        while mask < n {
            if vr & mask != 0 {
                let dst = (vr - mask + root) % n;
                self.coll_send(Coll::Reduce, mask as u32, dst, pod::to_bytes(buf))?;
                break;
            }
            let peer = vr + mask;
            if peer < n {
                let src = (peer + root) % n;
                let payload = self.coll_recv(Coll::Reduce, mask as u32, src)?;
                if payload.len() != std::mem::size_of_val(buf) {
                    return Err(MpiError::TypeMismatch {
                        expected: std::mem::size_of_val(buf),
                        got: payload.len(),
                    });
                }
                pod::copy_from_bytes(&mut recv_buf, &payload);
                combine(buf, &recv_buf);
            }
            mask <<= 1;
        }
        Ok(())
    }

    /// Reduce with a built-in operator.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn reduce<T: Scalar>(&self, root: usize, buf: &mut [T], op: ReduceOp) -> MpiResult<()> {
        self.reduce_with(root, buf, |acc, src| op.apply(acc, src))
    }

    /// Allreduce = reduce to rank 0 + broadcast.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn allreduce<T: Scalar>(&self, buf: &mut [T], op: ReduceOp) -> MpiResult<()> {
        self.trace_call(MpiOp::Allreduce, None, std::mem::size_of_val(buf));
        self.reduce(0, buf, op)?;
        self.bcast(0, buf)
    }

    /// Allreduce with a caller-provided combiner.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn allreduce_with<T: Pod + Default>(
        &self,
        buf: &mut [T],
        combine: impl Fn(&mut [T], &[T]),
    ) -> MpiResult<()> {
        self.trace_call(MpiOp::Allreduce, None, std::mem::size_of_val(buf));
        self.reduce_with(0, buf, combine)?;
        self.bcast(0, buf)
    }

    /// Convenience: allreduce a single scalar.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn allreduce_scalar<T: Scalar>(&self, value: T, op: ReduceOp) -> MpiResult<T> {
        let mut buf = [value];
        self.allreduce(&mut buf, op)?;
        Ok(buf[0])
    }

    /// Gather equal-sized contributions to `root`. Returns
    /// `Some(concatenated-in-rank-order)` at root, `None` elsewhere.
    #[cfg_attr(debug_assertions, track_caller)]
    #[expect(
        clippy::indexing_slicing,
        reason = "`out` holds one `data.len()` block for each of the `n` ranks"
    )]
    pub fn gather<T: Pod + Default>(&self, root: usize, data: &[T]) -> MpiResult<Option<Vec<T>>> {
        self.check_rank(root)?;
        self.trace_call(MpiOp::Gather, Some(root), std::mem::size_of_val(data));
        let _inside = self.coll_begin("gather");
        let n = self.size();
        if self.my_rank == root {
            let mut out = vec![T::default(); data.len() * n];
            out[root * data.len()..(root + 1) * data.len()].copy_from_slice(data);
            for r in 0..n {
                if r == root {
                    continue;
                }
                let payload = self.coll_recv(Coll::Gather, r as u32, r)?;
                if payload.len() != std::mem::size_of_val(data) {
                    return Err(MpiError::TypeMismatch {
                        expected: std::mem::size_of_val(data),
                        got: payload.len(),
                    });
                }
                pod::copy_from_bytes(&mut out[r * data.len()..(r + 1) * data.len()], &payload);
            }
            Ok(Some(out))
        } else {
            self.coll_send(Coll::Gather, self.my_rank as u32, root, pod::to_bytes(data))?;
            Ok(None)
        }
    }

    /// Allgather = gather to rank 0 + broadcast.
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn allgather<T: Pod + Default>(&self, data: &[T]) -> MpiResult<Vec<T>> {
        self.trace_call(MpiOp::Allgather, None, std::mem::size_of_val(data));
        let gathered = self.gather(0, data)?;
        let mut full = match gathered {
            Some(v) => v,
            None => vec![T::default(); data.len() * self.size()],
        };
        self.bcast(0, &mut full)?;
        Ok(full)
    }

    /// `MPI_Comm_split`: collectively partition the communicator by
    /// `color`; within a color, new ranks are ordered by `(key, old rank)`.
    /// Returns this rank's new communicator. (Unlike MPI there is no
    /// `MPI_UNDEFINED` color — every rank lands in some sub-communicator.)
    #[cfg_attr(debug_assertions, track_caller)]
    pub fn split(&self, color: u64, key: u64) -> MpiResult<Comm> {
        self.trace_call(MpiOp::Split, None, 0);
        // Everyone learns everyone's (color, key).
        let all = self.allgather(&[color, key])?;
        let mut members: Vec<(u64, usize)> = all
            .chunks_exact(2)
            .enumerate()
            .filter_map(|(r, pair)| match *pair {
                [c, key] if c == color => Some((key, r)),
                _ => None,
            })
            .collect();
        members.sort_unstable();
        let group: Vec<usize> = members.iter().map(|&(_, r)| self.global_of(r)).collect();
        // Deterministic child id: same inputs on every member.
        let id = Router::derive_comm_id(
            self.id(),
            0x5B17_0000u64 ^ color ^ ((self.epoch() as u64) << 40),
        );
        Ok(Comm::from_group(
            Arc::clone(&self.router),
            id,
            0,
            group,
            self.my_global(),
        ))
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("id", &self.id)
            .field("epoch", &self.epoch)
            .field("rank", &self.my_rank)
            .field("size", &self.size())
            .finish()
    }
}
