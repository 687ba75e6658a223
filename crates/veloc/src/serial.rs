//! The checkpoint frame format, its one writer and its one reader.
//!
//! One checkpoint = the protected regions of one rank in a single
//! integrity-framed blob. Every tier stores the same frame: node-local
//! scratch and the parallel filesystem (VeloC), and peer memory (the
//! redundancy store behind `FenixImr`, `FenixRedstore` and the Kokkos
//! Resilience redstore backend), which only ever writes full frames.
//!
//! ```text
//! [4  bytes magic "VCF2"]
//! [u32 crc32(meta)]            // over `meta` only; payloads carry their own
//! meta:
//!   [u64 base_ref]             // 0 = full frame; else base_version + 1
//!   [u32 changed_count]
//!   [u32 unchanged_count]      // must be 0 when base_ref is 0
//!   repeat unchanged_count times: [u32 region_id]
//!   repeat changed_count   times: [u32 region_id][u64 payload_len][u32 crc32(payload)]
//! payloads: changed payloads concatenated, in `changed` order
//! ```
//!
//! A frame is *incremental* when `base_ref` is set: regions whose
//! dirty-tracking generation did not move since the last committed version
//! are referenced by id only; their payloads live in the frame of
//! `base_version` (which may itself be a delta — restart walks the chain).
//! Integrity is one CRC over the meta block plus one per payload, so a
//! frame's changed payloads are checkable without the base frames in hand,
//! and restart can walk a chain by meta alone ([`parse_meta`]) before paying
//! for the payload checksums ([`FrameMeta::verify_payloads`]).
//!
//! [`pack`] is the only writer: it lays the frame out up front and
//! serializes each region straight into its payload slot
//! ([`FrameBuilder`], [`crate::Protected::snapshot_into`]). [`unpack`] is
//! the only reader of whole frames. Restores match regions by id, so a
//! restart can tolerate registration in a different order (Kokkos
//! Resilience re-registers views after a context reset).
//!
//! The CRCs exist because the structural checks alone cannot catch a
//! flipped byte *inside* a region payload — without them, a corrupted blob
//! would silently restore garbage application state. [`unpack`] rejects
//! any blob whose checksums do not match, turning silent corruption into
//! the typed [`crate::VelocError::Corrupt`] the restart path degrades on.
//!
//! The `chaos-mutants` feature re-enables the garbage-restore bug by
//! skipping both checksum comparisons (structure is still parsed). It
//! exists only so the chaos campaign can prove it catches exactly this
//! class of bug (`crates/chaos/tests/mutant.rs`); never enable it in
//! normal builds.

use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use crate::region::Protected;

/// Leading magic of a checkpoint frame.
pub const MAGIC: [u8; 4] = *b"VCF2";

/// Lookup tables for [`crc32_slice16`], built at compile time from the
/// bitwise recurrence. `CRC_TABLES[0]` is the classic one-byte-at-a-time
/// table; `CRC_TABLES[k]` carries a byte through `k` further zero bytes, so
/// one loop iteration folds 16 input bytes at once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 == 1 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1usize;
    while k < 16 {
        let mut i = 0usize;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 (IEEE 802.3, reflected) of `data` — the checksum every frame
/// carries and every restart verifies.
///
/// One function, two kernels, chosen from what the CPU reports (nothing to
/// configure): on x86-64 with `pclmulqdq` and `sse4.1` a carry-less-multiply
/// fold ([`clmul`], memory speed); everywhere else, under Miri, and for
/// inputs shorter than one fold block, the portable [`crc32_slice16`]. Both
/// compute the same function, so frames and stored CRCs do not depend on
/// the host. [`crc32_bitwise`] is the definitional form both are
/// property-tested against; [`crc32_kernel`] names the choice.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available()` just confirmed at run time that this CPU has
        // every feature `clmul::fold` is compiled for — its one requirement.
        let (state, tail) = unsafe { clmul::fold(0xFFFF_FFFF, data) };
        // The kernel leaves the last `len % 16` bytes to the table.
        return slice16_update(state, tail) ^ 0xFFFF_FFFF;
    }
    crc32_slice16(data)
}

/// Which kernel [`crc32`] runs on this host for inputs of a fold block or
/// more: `"pclmulqdq"` or `"slice16"`. Recorded beside benchmark numbers.
pub fn crc32_kernel() -> &'static str {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if clmul::available() {
        return "pclmulqdq";
    }
    "slice16"
}

/// The carry-less-multiply CRC kernel (x86-64 only; compiled out under
/// Miri, which does not model the intrinsics).
///
/// The scheme of Intel's "Fast CRC Computation for Generic Polynomials
/// Using PCLMULQDQ" for the bit-reflected IEEE polynomial. The message is a
/// polynomial over GF(2); appending bytes multiplies the running remainder
/// by a power of `x`, and multiplication by a *constant* power of `x`
/// modulo `P` is one carry-less multiply per 64-bit half. So four 128-bit
/// accumulators each absorb every fourth 16-byte lane (`x^512` apart), are
/// folded into one (`x^128` apart), which absorbs the remaining whole
/// lanes, and a last 128 → 64 → 32-bit reduction (Barrett, with the
/// precomputed quotient `MU`) yields the raw CRC register.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_srli_si128,
        _mm_xor_si128,
    };

    /// One fold-by-four block: the least the kernel can start from.
    pub(super) const MIN_LEN: usize = 64;

    // Bit-reflected `x^n mod P` for the distances folded over (values from
    // the Intel paper; `tests/serial_props.rs` holds the kernel to the
    // bitwise definition at every boundary length, so a wrong digit fails).
    // `x^(512+32)`, `x^(512-32)`: carry a lane four lanes ahead.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    // `x^(128+32)`, `x^(128-32)`: carry a lane one lane ahead.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    // `x^64`: fold the upper 32 bits of the 96-bit remainder.
    const K5: i64 = 0x1_63cd_6124;
    // The polynomial `P` itself and `MU = floor(x^64 / P)`, both reflected.
    const POLY: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// Whether this CPU can run [`fold`]. `is_x86_feature_detected!` caches
    /// its answer, so this is a load and a mask per call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Run the raw CRC register `state` (no inversions) over `data` and
    /// return the new register together with the bytes *not* consumed: the
    /// kernel takes whole 16-byte lanes once it has a first 64-byte block,
    /// so the remainder is under 16 bytes — or all of `data` when there is
    /// no such block.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`, `sse2` and `sse4.1` (ask
    /// [`available`]). Any `data` is fine.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    pub(super) unsafe fn fold(state: u32, data: &[u8]) -> (u32, &[u8]) {
        let zero = _mm_setzero_si128();
        let load = |lane: &[u8]| {
            debug_assert_eq!(lane.len(), 16);
            // SAFETY: every lane passed below is a `chunks_exact(16)` item,
            // so 16 readable bytes, and `_mm_loadu_si128` has no alignment
            // requirement.
            unsafe { _mm_loadu_si128(lane.as_ptr().cast::<__m128i>()) }
        };
        // `a.lo · keys.lo + a.hi · keys.hi + b`: carry accumulator `a`
        // forward over the distance `keys` encodes and absorb lane `b`.
        let fold_into = |a: __m128i, b: __m128i, keys: __m128i| {
            let lo = _mm_clmulepi64_si128(a, keys, 0x00);
            let hi = _mm_clmulepi64_si128(a, keys, 0x11);
            _mm_xor_si128(_mm_xor_si128(b, lo), hi)
        };

        let mut blocks = data.chunks_exact(MIN_LEN);
        let Some(first) = blocks.next() else {
            return (state, data);
        };
        // Four accumulators, one per lane of a block; the incoming register
        // joins the first 32 bits of the message.
        let mut acc = [_mm_cvtsi32_si128(state as i32), zero, zero, zero];
        for (a, lane) in acc.iter_mut().zip(first.chunks_exact(16)) {
            *a = _mm_xor_si128(*a, load(lane));
        }
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks.by_ref() {
            for (a, lane) in acc.iter_mut().zip(block.chunks_exact(16)) {
                *a = fold_into(*a, load(lane), k1k2);
            }
        }
        // Four → one, then the whole lanes short of another block.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [x0, x1, x2, x3] = acc;
        let mut x = fold_into(x0, x1, k3k4);
        x = fold_into(x, x2, k3k4);
        x = fold_into(x, x3, k3k4);
        let mut lanes = blocks.remainder().chunks_exact(16);
        for lane in lanes.by_ref() {
            x = fold_into(x, load(lane), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett, 64 → 32 bits: T1 = (R mod x^32)·MU, T2 = (T1 mod x^32)·P,
        // register = (R + T2) div x^32.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
        let state = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        (state, lanes.remainder())
    }
}

/// Advance the raw (un-inverted) CRC register over `data`, 16 bytes per
/// iteration through [`CRC_TABLES`].
fn slice16_update(mut crc: u32, data: &[u8]) -> u32 {
    // Lookup with the index masked to a byte: infallible by construction,
    // and expressed via `get` (not `[...]`) so the recovery path carries no
    // reachable panic — the mask proves the bound, so the fallback folds
    // away in codegen.
    #[inline(always)]
    fn tab(t: &[u32; 256], i: u32) -> u32 {
        t.get((i & 0xFF) as usize).copied().unwrap_or(0)
    }
    let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &CRC_TABLES;
    let mut bytes = data;
    while let [b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15, rest @ ..] =
        bytes
    {
        let folded = crc ^ u32::from_le_bytes([*b0, *b1, *b2, *b3]);
        crc = tab(t15, folded)
            ^ tab(t14, folded >> 8)
            ^ tab(t13, folded >> 16)
            ^ tab(t12, folded >> 24)
            ^ tab(t11, *b4 as u32)
            ^ tab(t10, *b5 as u32)
            ^ tab(t9, *b6 as u32)
            ^ tab(t8, *b7 as u32)
            ^ tab(t7, *b8 as u32)
            ^ tab(t6, *b9 as u32)
            ^ tab(t5, *b10 as u32)
            ^ tab(t4, *b11 as u32)
            ^ tab(t3, *b12 as u32)
            ^ tab(t2, *b13 as u32)
            ^ tab(t1, *b14 as u32)
            ^ tab(t0, *b15 as u32);
        bytes = rest;
    }
    for &b in bytes {
        crc = tab(t0, crc ^ b as u32) ^ (crc >> 8);
    }
    crc
}

/// CRC32 (IEEE 802.3, reflected) of `data`, portable: sixteen compile-time
/// tables fold 16 bytes per iteration where the bit loop needed 128
/// shift-and-mask steps. The kernel [`crc32`] runs where the CPU offers no
/// carry-less multiply, and the one that finishes every input's tail. Every
/// table index is a single byte, so no corrupted length can steer a lookup
/// out of bounds.
pub fn crc32_slice16(data: &[u8]) -> u32 {
    slice16_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// CRC32 (IEEE 802.3, reflected) of `data`, one bit at a time — the
/// polynomial's definition. Kept solely as the oracle [`crc32`] and
/// [`crc32_slice16`] are property-tested against (`tests/serial_props.rs`
/// and the bench's measured-speedup gate); no production path calls it.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// A decoded checkpoint frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// `None` for a self-contained full frame; `Some(v)` for a delta whose
    /// `unchanged` regions live in (the chain rooted at) version `v`.
    pub base_version: Option<u64>,
    /// Regions whose payloads this frame carries.
    pub changed: Vec<(u32, Bytes)>,
    /// Regions unchanged since `base_version` (ids only).
    pub unchanged: Vec<u32>,
}

impl Frame {
    /// Whether this frame is self-contained (no base reference).
    pub fn is_full(&self) -> bool {
        self.base_version.is_none()
    }
}

/// Pack one checkpoint frame from live regions — the only writer of the
/// format. A full frame passes `base_version: None` and an empty
/// `unchanged` list; a delta frame references the committed version its
/// unchanged regions live under.
///
/// The frame is laid out up front from each region's `byte_len` and every
/// region serializes *straight into its payload slot* — one copy from
/// protected memory to the frame — and is checksummed there. A region whose
/// byte length drifted between planning and serialization (a concurrent
/// resize) invalidates the planned layout; the frame is then planned again
/// from owned snapshots, whose lengths cannot move.
pub fn pack(
    base_version: Option<u64>,
    changed: &[(u32, Arc<dyn Protected>)],
    unchanged: &[u32],
) -> Bytes {
    let plan: Vec<(u32, usize)> = changed.iter().map(|(id, r)| (*id, r.byte_len())).collect();
    let mut builder = FrameBuilder::new(base_version, &plan, unchanged);
    let filled = changed.iter().enumerate().all(|(i, (_, r))| {
        let slot = builder.payload_mut(i);
        let fits = r.snapshot_into(slot);
        if fits {
            let crc = crc32(slot);
            builder.set_crc(i, crc);
        }
        fits
    });
    if filled {
        return builder.seal();
    }
    let snaps: Vec<Bytes> = changed.iter().map(|(_, r)| r.snapshot()).collect();
    let plan: Vec<(u32, usize)> = changed
        .iter()
        .zip(&snaps)
        .map(|((id, _), snap)| (*id, snap.len()))
        .collect();
    let mut builder = FrameBuilder::new(base_version, &plan, unchanged);
    for (i, snap) in snaps.iter().enumerate() {
        builder.payload_mut(i).copy_from_slice(snap);
        builder.set_crc(i, crc32(snap));
    }
    builder.seal()
}

/// The copying packer: the format written the obvious way, payload by
/// payload into a growing buffer. Kept solely as the byte-identity oracle
/// [`FrameBuilder`] is property-tested against
/// (`frame_builder_matches_pack_frame` in `tests/serial_props.rs`), like
/// [`crc32_bitwise`] for [`crc32`]; no production path calls it.
pub fn pack_frame(base_version: Option<u64>, changed: &[(u32, Bytes)], unchanged: &[u32]) -> Bytes {
    let meta_len = 16 + 4 * unchanged.len() + 16 * changed.len();
    let mut meta = BytesMut::with_capacity(meta_len);
    meta.put_u64_le(match base_version {
        None => 0,
        Some(v) => v.saturating_add(1),
    });
    meta.put_u32_le(changed.len() as u32);
    meta.put_u32_le(unchanged.len() as u32);
    for id in unchanged {
        meta.put_u32_le(*id);
    }
    for (id, payload) in changed {
        meta.put_u32_le(*id);
        meta.put_u64_le(payload.len() as u64);
        meta.put_u32_le(crc32(payload));
    }
    let meta = meta.freeze();
    let payload_len: usize = changed.iter().map(|(_, p)| p.len()).sum();
    let mut buf = BytesMut::with_capacity(8 + meta.len() + payload_len);
    buf.put_slice(&MAGIC);
    buf.put_u32_le(crc32(&meta));
    buf.put_slice(&meta);
    for (_, payload) in changed {
        buf.put_slice(payload);
    }
    buf.freeze()
}

fn put_u32_at(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64_at(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Zero-copy frame assembler — what [`pack`] writes through.
///
/// `FrameBuilder` allocates the finished frame up front from the planned
/// layout and hands out its `&mut [u8]` payload slots, so regions
/// serialize *straight into their final location*
/// ([`crate::Protected::snapshot_into`]) with no intermediate `Bytes`
/// snapshot. [`FrameBuilder::seal`] stamps the meta CRC and freezes; the
/// output is byte-identical to the copying [`pack_frame`] on the same
/// content (`builder_output_matches_pack_frame` below holds the two
/// together).
pub struct FrameBuilder {
    buf: Vec<u8>,
    /// Per changed region: offset of its CRC field in the meta table.
    crc_offsets: Vec<usize>,
    /// Per changed region: `(payload offset, len)` in `buf`.
    payload_slots: Vec<(usize, usize)>,
    /// End of the meta section (= start of the payload section).
    meta_end: usize,
}

impl FrameBuilder {
    /// Lay out a frame for `changed` regions `(id, byte length)` in frame
    /// order, plus `unchanged` references. Payload slots come back zeroed;
    /// the caller fills each and records its CRC via [`Self::set_crc`].
    pub fn new(base_version: Option<u64>, changed: &[(u32, usize)], unchanged: &[u32]) -> Self {
        debug_assert!(
            base_version.is_some() || unchanged.is_empty(),
            "a full frame cannot reference unchanged regions"
        );
        let meta_len = 16 + 4 * unchanged.len() + 16 * changed.len();
        let payload_len: usize = changed.iter().map(|&(_, len)| len).sum();
        let mut buf = vec![0u8; 8 + meta_len + payload_len];
        buf[..4].copy_from_slice(&MAGIC);
        let mut w = 8usize;
        // `base_version + 1` so 0 can mean "full"; versions are iteration
        // numbers, nowhere near u64::MAX (saturating keeps this panic-free).
        put_u64_at(
            &mut buf,
            w,
            match base_version {
                None => 0,
                Some(v) => v.saturating_add(1),
            },
        );
        w += 8;
        put_u32_at(&mut buf, w, changed.len() as u32);
        w += 4;
        put_u32_at(&mut buf, w, unchanged.len() as u32);
        w += 4;
        for id in unchanged {
            put_u32_at(&mut buf, w, *id);
            w += 4;
        }
        let mut crc_offsets = Vec::with_capacity(changed.len());
        let mut payload_slots = Vec::with_capacity(changed.len());
        let mut p = 8 + meta_len;
        for &(id, len) in changed {
            put_u32_at(&mut buf, w, id);
            w += 4;
            put_u64_at(&mut buf, w, len as u64);
            w += 8;
            crc_offsets.push(w); // CRC written later by `set_crc`
            w += 4;
            payload_slots.push((p, len));
            p += len;
        }
        FrameBuilder {
            buf,
            crc_offsets,
            payload_slots,
            meta_end: 8 + meta_len,
        }
    }

    /// Number of changed-payload slots.
    pub fn payload_count(&self) -> usize {
        self.payload_slots.len()
    }

    /// Payload slot `i`, mutable.
    pub fn payload_mut(&mut self, i: usize) -> &mut [u8] {
        // Out-of-range slots yield an empty slice rather than indexing:
        // the pack path runs during recovery, where a panic kills the rank.
        let (off, len) = self.payload_slots.get(i).copied().unwrap_or((0, 0));
        self.buf.get_mut(off..off + len).unwrap_or(&mut [])
    }

    /// Record the CRC of payload slot `i` in the meta table.
    pub fn set_crc(&mut self, i: usize, crc: u32) {
        if let Some(&off) = self.crc_offsets.get(i) {
            put_u32_at(&mut self.buf, off, crc);
        }
    }

    /// Stamp the meta CRC and freeze the frame. The caller must have
    /// filled every payload slot and set every CRC — `seal` cannot tell an
    /// unfilled slot from genuine zeroes.
    pub fn seal(mut self) -> Bytes {
        let crc = crc32(&self.buf[8..self.meta_end]);
        put_u32_at(&mut self.buf, 4, crc);
        Bytes::from(self.buf)
    }
}

/// The structural half of a decoded checkpoint frame: everything *except*
/// the payload bytes, which stay unverified until
/// [`FrameMeta::verify_payloads`] runs against the same blob.
///
/// Splitting decode in two lets restart walk a delta chain — and fail on a
/// missing or malformed base — from each frame's meta alone (a few dozen
/// bytes, verified by the meta CRC) before it pays for the expensive half,
/// checksumming megabytes of payload.
#[derive(Clone, Debug)]
pub struct FrameMeta {
    /// `None` for a self-contained full frame; `Some(v)` for a delta.
    pub base_version: Option<u64>,
    /// Regions unchanged since `base_version` (ids only).
    pub unchanged: Vec<u32>,
    /// Changed regions in frame order: `(id, payload offset in blob, len,
    /// stored payload CRC)`.
    entries: Vec<(u32, usize, usize, u32)>,
}

impl FrameMeta {
    /// Total changed-payload bytes this frame carries — the work
    /// [`Self::verify_payloads`] will checksum.
    pub fn payload_bytes(&self) -> usize {
        self.entries.iter().map(|&(_, _, len, _)| len).sum()
    }

    /// Verify the payload checksums against `blob` — which must be the
    /// blob this meta was parsed from. This is the expensive half of
    /// decode.
    pub fn verify_payloads(&self, blob: &Bytes) -> bool {
        // The seeded chaos mutant skips payload verification here and the
        // meta check in `parse_meta`, re-enabling the garbage-restore path.
        #[cfg(feature = "chaos-mutants")]
        {
            let _ = blob;
            true
        }
        #[cfg(not(feature = "chaos-mutants"))]
        self.entries
            .iter()
            .all(|&(_, off, len, crc)| blob.get(off..off + len).is_some_and(|p| crc32(p) == crc))
    }

    /// Ids of the changed regions, in frame order.
    pub fn changed_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|&(id, ..)| id)
    }

    /// Zero-copy payload views `(id, bytes)` in frame order. Slices of the
    /// blob's allocation — no payload is copied. Only meaningful after
    /// [`Self::verify_payloads`] passed on the same blob.
    pub fn payloads(&self, blob: &Bytes) -> Vec<(u32, Bytes)> {
        self.entries
            .iter()
            .map(|&(id, off, len, _)| (id, blob.slice(off..off + len)))
            .collect()
    }
}

/// Parse a blob into a [`FrameMeta`] without touching the payload bytes.
/// All structural checks run here — magic, counts, payload extents,
/// trailing garbage, and the meta CRC — so a `Some` return means the
/// frame's *shape* and chain reference are trustworthy; only the payload
/// checksums remain. Returns `None` on anything malformed.
pub fn parse_meta(blob: &Bytes) -> Option<FrameMeta> {
    if blob.get(..4)? != MAGIC.as_slice() {
        return None;
    }
    let stored_crc = u32::from_le_bytes(blob.get(4..8)?.try_into().ok()?);
    let body = blob.get(8..)?;
    let mut off = 0usize;
    let take = |off: &mut usize, n: usize| -> Option<&[u8]> {
        let s = body.get(*off..*off + n)?;
        *off += n;
        Some(s)
    };
    let base_ref = u64::from_le_bytes(take(&mut off, 8)?.try_into().ok()?);
    let changed_count = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?) as usize;
    let unchanged_count = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?) as usize;
    // Guard against absurd counts from corrupt headers before allocating.
    let meta_need = changed_count
        .saturating_mul(16)
        .saturating_add(unchanged_count.saturating_mul(4));
    if meta_need > body.len() {
        return None;
    }
    let mut unchanged = Vec::with_capacity(unchanged_count);
    for _ in 0..unchanged_count {
        unchanged.push(u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?));
    }
    let mut raw_entries = Vec::with_capacity(changed_count);
    for _ in 0..changed_count {
        let id = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?);
        let len = u64::from_le_bytes(take(&mut off, 8)?.try_into().ok()?) as usize;
        let crc = u32::from_le_bytes(take(&mut off, 4)?.try_into().ok()?);
        raw_entries.push((id, len, crc));
    }
    // The seeded chaos mutant skips the meta check here and the payload
    // checks in `FrameMeta::verify_payloads`, re-enabling the
    // garbage-restore path the CRCs exist to close.
    #[cfg(not(feature = "chaos-mutants"))]
    if crc32(body.get(..off)?) != stored_crc {
        return None;
    }
    #[cfg(feature = "chaos-mutants")]
    let _ = stored_crc;

    let mut entries = Vec::with_capacity(changed_count);
    for (id, len, crc) in raw_entries {
        if len > body.len() || off.checked_add(len)? > body.len() {
            return None;
        }
        entries.push((id, 8 + off, len, crc));
        off += len;
    }
    if off != body.len() {
        return None; // trailing garbage
    }
    let base_version = base_ref.checked_sub(1);
    if base_version.is_none() && !unchanged.is_empty() {
        return None; // a full frame cannot reference unchanged regions
    }
    Some(FrameMeta {
        base_version,
        unchanged,
        entries,
    })
}

/// Unpack a checkpoint blob into a [`Frame`]: the sequential composition of
/// the two decode halves. Returns `None` on any malformed blob — wrong
/// magic, checksum mismatch, truncation, bad counts — a restart from a
/// corrupt checkpoint must fail cleanly, not panic, and must never silently
/// return wrong data. For a delta this checks *the frame itself* (meta +
/// carried payloads); whether its base chain is intact is the client's
/// chain walk to decide.
pub fn unpack(blob: &Bytes) -> Option<Frame> {
    let meta = parse_meta(blob)?;
    if !meta.verify_payloads(blob) {
        return None;
    }
    Some(Frame {
        base_version: meta.base_version,
        changed: meta.payloads(blob),
        unchanged: meta.unchanged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::VecRegion;

    #[test]
    fn roundtrip_empty() {
        let frame = unpack(&pack_frame(None, &[], &[])).unwrap();
        assert!(frame.is_full());
        assert!(frame.changed.is_empty() && frame.unchanged.is_empty());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value, from every implementation.
        for crc in [crc32, crc32_slice16, crc32_bitwise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
    }

    #[test]
    fn crc32_kernels_agree_with_bitwise_at_chunk_boundaries() {
        // Lengths straddling the table's 16-byte step and the hardware
        // kernel's 64-byte block, and a large buffer exercising many folded
        // iterations plus a remainder. (`tests/serial_props.rs` sweeps every
        // length and alignment.)
        for len in (0..=17)
            .chain(31..=33)
            .chain(63..=65)
            .chain(127..=129)
            .chain([255, 256, 4096 + 5])
        {
            let data: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
                .collect();
            assert_eq!(crc32(&data), crc32_bitwise(&data), "len {len}");
            assert_eq!(crc32_slice16(&data), crc32_bitwise(&data), "len {len}");
        }
    }

    #[test]
    fn builder_output_matches_pack_frame() {
        // The zero-copy assembler must be byte-identical to the copying
        // oracle on the same content.
        let payloads: Vec<(u32, Bytes)> = vec![
            (2, Bytes::from_static(b"changed-two")),
            (5, Bytes::from_static(b"")),
            (9, Bytes::from(vec![0xAB; 100])),
        ];
        let unchanged = [1u32, 3];
        for base in [None, Some(0u64), Some(7)] {
            let unchanged: &[u32] = if base.is_none() { &[] } else { &unchanged };
            let reference = pack_frame(base, &payloads, unchanged);

            let plan: Vec<(u32, usize)> = payloads.iter().map(|(id, p)| (*id, p.len())).collect();
            let mut b = FrameBuilder::new(base, &plan, unchanged);
            assert_eq!(b.payload_count(), payloads.len());
            for (i, (_, p)) in payloads.iter().enumerate() {
                b.payload_mut(i).copy_from_slice(p);
                b.set_crc(i, crc32(p));
            }
            assert_eq!(&b.seal()[..], &reference[..], "base {base:?}");
        }
    }

    #[test]
    fn seal_hands_over_the_builders_buffer() {
        // The frame a region serialized into *is* the sealed blob: `seal`
        // moves the buffer into the `Bytes`, it does not copy it.
        let mut b = FrameBuilder::new(None, &[(1, 4096), (2, 16)], &[]);
        let slots: Vec<*const u8> = (0..2).map(|i| b.payload_mut(i).as_ptr()).collect();
        let blob = b.seal();
        let meta = parse_meta(&blob).expect("well-formed");
        let sealed: Vec<*const u8> = meta
            .payloads(&blob)
            .iter()
            .map(|(_, p)| p.as_ptr())
            .collect();
        assert_eq!(slots, sealed);
    }

    #[test]
    fn pack_of_live_regions_matches_the_oracle() {
        // Payloads below and above the hardware CRC kernel's first block.
        for len in [16usize, 64 * 1024] {
            let regions: Vec<(u32, Arc<dyn Protected>)> = (0..3u32)
                .map(|i| {
                    let r: Arc<dyn Protected> = Arc::new(VecRegion::new(vec![i as u8 + 1; len]));
                    (i * 2, r)
                })
                .collect();
            let snaps: Vec<(u32, Bytes)> =
                regions.iter().map(|(id, r)| (*id, r.snapshot())).collect();
            assert_eq!(pack(None, &regions, &[]), pack_frame(None, &snaps, &[]));
            assert_eq!(
                pack(Some(4), &regions, &[9]),
                pack_frame(Some(4), &snaps, &[9])
            );
        }
    }

    /// A region that resized after planning: `byte_len` still reports the
    /// old length, every serialization sees the new one.
    struct Resized(Vec<u8>);

    impl Protected for Resized {
        fn snapshot(&self) -> Bytes {
            Bytes::from(self.0.clone())
        }
        fn restore(&self, _data: &[u8]) {}
        fn byte_len(&self) -> usize {
            self.0.len() - 1
        }
    }

    #[test]
    fn length_drift_replans_from_the_snapshots() {
        let steady: Arc<dyn Protected> = Arc::new(VecRegion::new(vec![7u8; 5]));
        let moved: Arc<dyn Protected> = Arc::new(Resized(b"grown".to_vec()));
        let blob = pack(None, &[(1, steady), (2, moved)], &[]);
        let frame = unpack(&blob).expect("the re-planned frame is well-formed");
        assert_eq!(
            frame.changed,
            vec![
                (1, Bytes::from(vec![7u8; 5])),
                (2, Bytes::from_static(b"grown"))
            ]
        );
    }

    #[test]
    fn parse_meta_then_verify_equals_unpack() {
        let blobs = [
            delta_frame(),
            pack_frame(None, &[(1, Bytes::from_static(b"alpha"))], &[]),
        ];
        for blob in &blobs {
            let meta = parse_meta(blob).expect("intact blob parses");
            assert!(meta.verify_payloads(blob));
            let frame = unpack(blob).unwrap();
            assert_eq!(meta.base_version, frame.base_version);
            assert_eq!(meta.unchanged, frame.unchanged);
            assert_eq!(meta.payloads(blob), frame.changed);
            assert_eq!(
                meta.payload_bytes(),
                frame.changed.iter().map(|(_, p)| p.len()).sum::<usize>()
            );
        }
    }

    #[cfg(not(feature = "chaos-mutants"))]
    #[test]
    fn parse_meta_splits_corruption_by_section() {
        // A payload flip leaves the meta parseable (the split's point) but
        // fails payload verification; a meta flip fails parse outright.
        let blob = delta_frame();
        let mut payload_flip = blob.to_vec();
        let last = payload_flip.len() - 1;
        payload_flip[last] ^= 0xFF;
        let corrupted = Bytes::from(payload_flip);
        let meta = parse_meta(&corrupted).expect("meta section is untouched");
        assert!(!meta.verify_payloads(&corrupted));

        let mut meta_flip = blob.to_vec();
        meta_flip[24] ^= 0xFF; // first unchanged id (8 header + 16 fixed meta)
        assert!(parse_meta(&Bytes::from(meta_flip)).is_none());
    }

    fn delta_frame() -> Bytes {
        pack_frame(
            Some(7),
            &[
                (2, Bytes::from_static(b"changed-two")),
                (5, Bytes::from_static(b"")),
            ],
            &[1, 3],
        )
    }

    #[test]
    fn vcf2_full_frame_roundtrip() {
        let regions = vec![
            (1, Bytes::from_static(b"alpha")),
            (7, Bytes::from_static(b"")),
        ];
        let frame = unpack(&pack_frame(None, &regions, &[])).unwrap();
        assert!(frame.is_full());
        assert_eq!(frame.changed, regions);
        assert!(frame.unchanged.is_empty());
    }

    #[test]
    fn vcf2_delta_frame_roundtrip() {
        let frame = unpack(&delta_frame()).unwrap();
        assert_eq!(frame.base_version, Some(7));
        assert_eq!(frame.unchanged, vec![1, 3]);
        assert_eq!(
            frame.changed,
            vec![
                (2, Bytes::from_static(b"changed-two")),
                (5, Bytes::from_static(b""))
            ]
        );
    }

    #[test]
    fn vcf2_base_version_zero_is_representable() {
        let blob = pack_frame(Some(0), &[(1, Bytes::from_static(b"x"))], &[2]);
        let frame = unpack(&blob).unwrap();
        assert_eq!(frame.base_version, Some(0));
        assert!(!frame.is_full());
    }

    #[test]
    fn retired_and_unknown_magics_are_rejected() {
        // '1' is the retired whole-body-CRC format's version digit: nothing
        // writes it any more and nothing may accept it.
        for digit in [b'1', b'9'] {
            let mut raw = delta_frame().to_vec();
            raw[3] = digit;
            let blob = Bytes::from(raw);
            assert!(parse_meta(&blob).is_none());
            assert!(unpack(&blob).is_none());
        }
    }

    #[test]
    fn vcf2_truncation_fails_cleanly() {
        let blob = delta_frame();
        for cut in [0, 3, 7, 9, 20, blob.len() - 1] {
            let truncated = blob.slice(0..cut);
            assert!(unpack(&truncated).is_none(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn vcf2_trailing_garbage_fails() {
        let mut raw = delta_frame().to_vec();
        raw.push(0xFF);
        assert!(unpack(&Bytes::from(raw)).is_none());
    }

    #[cfg(not(feature = "chaos-mutants"))]
    #[test]
    fn vcf2_payload_byte_flip_is_detected() {
        // A flip in the last payload byte passes every structural check —
        // only the per-region CRC catches it. This is the exact bug class
        // the chaos mutant re-introduces.
        let mut raw = delta_frame().to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        assert!(unpack(&Bytes::from(raw)).is_none());
    }

    #[cfg(not(feature = "chaos-mutants"))]
    #[test]
    fn vcf2_meta_flip_is_detected() {
        // Flip an unchanged-region id (meta section, structurally valid) —
        // only the meta CRC catches it.
        let blob = delta_frame();
        let mut raw = blob.to_vec();
        raw[24] ^= 0xFF; // first unchanged id (8 header + 16 fixed meta)
        assert!(unpack(&Bytes::from(raw)).is_none());
    }

    #[test]
    fn vcf2_full_frame_with_unchanged_rejected() {
        // Hand-build base_ref=0 with unchanged_count=1: structurally
        // parseable but semantically void — must be rejected even though
        // its CRCs are valid.
        let mut meta = BytesMut::new();
        meta.put_u64_le(0);
        meta.put_u32_le(0);
        meta.put_u32_le(1);
        meta.put_u32_le(42);
        let meta = meta.freeze();
        let mut buf = BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u32_le(crc32(&meta));
        buf.put_slice(&meta);
        assert!(unpack(&buf.freeze()).is_none());
    }

    #[cfg(not(feature = "chaos-mutants"))]
    #[test]
    fn vcf2_corrupt_counts_fail() {
        let mut raw = delta_frame().to_vec();
        // changed_count lives at body offset 8 (blob offset 16).
        raw[16] = 0xFF;
        raw[17] = 0xFF;
        raw[18] = 0xFF;
        raw[19] = 0x7F;
        assert!(unpack(&Bytes::from(raw)).is_none());
    }
}
