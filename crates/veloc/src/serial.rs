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
//! [`pack`] is the only writer: it lays the frame out up front and copies
//! each region straight into its payload slot, checksumming as it copies
//! ([`FrameBuilder`], [`crate::Protected::with_bytes`], [`copy_crc`]).
//! [`unpack`] is the only reader of whole frames. Restores match regions by
//! id, so a restart can tolerate registration in a different order (Kokkos
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

use std::mem::MaybeUninit;
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};
use cluster::{Cursor, Pool, PoolBuf, Unfilled};

use crate::region::Protected;

/// Leading magic of a checkpoint frame.
pub const MAGIC: [u8; 4] = *b"VCF2";

/// Lookup tables for [`crc32_slice16`], built at compile time from the
/// bitwise recurrence. `CRC_TABLES[0]` is the classic one-byte-at-a-time
/// table; `CRC_TABLES[k]` carries a byte through `k` further zero bytes, so
/// one loop iteration folds 16 input bytes at once.
#[expect(
    clippy::indexing_slicing,
    reason = "evaluated at compile time: an index out of range fails the build"
)]
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
/// carries and every restart verifies: [`Crc32`] over `data` in one update.
///
/// One function, three kernels, chosen from what the CPU reports (nothing
/// to configure): on x86-64 with `pclmulqdq` and `sse4.1` a carry-less-
/// multiply fold over 128-bit registers ([`clmul`]), and where the CPU also
/// has `avx512f` and `vpclmulqdq`, the same fold over 512-bit registers for
/// inputs of 256 bytes or more; everywhere else, under Miri, and for inputs
/// shorter than one fold block, the portable [`crc32_slice16`]. All compute
/// the same function, so frames and stored CRCs do not depend on the host.
/// [`crc32_bitwise`] is the definitional form they are property-tested
/// against; [`crc32_kernel`] names the choice.
pub fn crc32(data: &[u8]) -> u32 {
    Crc32::new().update(data).finish()
}

/// A running CRC32: [`crc32`] of a message fed in pieces. Any split gives
/// the same checksum (`tests/serial_props.rs`), so a writer can fold each
/// block in while it is still in cache ([`copy_crc`]).
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The checksum of nothing so far.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Append `data` to the message, through the kernel [`crc32`] names.
    pub fn update(self, data: &[u8]) -> Self {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if data.len() >= clmul::MIN_LEN && clmul::available() {
            let (state, tail) = if data.len() >= clmul::WIDE_MIN_LEN && clmul::wide_available() {
                // SAFETY: `wide_available()` just confirmed at run time that
                // this CPU has every feature `clmul::fold_wide` is compiled
                // for — its one requirement.
                unsafe { clmul::fold_wide(self.0, data) }
            } else {
                // SAFETY: `available()` just confirmed at run time that this
                // CPU has every feature `clmul::fold` is compiled for — its
                // one requirement.
                unsafe { clmul::fold(self.0, data) }
            };
            // The kernels leave the last `len % 16` bytes to the table.
            return Crc32(slice16_update(state, tail));
        }
        Crc32(slice16_update(self.0, data))
    }

    /// The CRC32 of everything appended.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// How much [`copy_crc`] copies before it checksums: small enough that the
/// block and its source, 32 KiB together, are still in L1 when the CRC
/// reads the block.
const COPY_CRC_BLOCK: usize = 16 << 10;

/// Copy `src` into `dst`, unwritten bytes of the same length, and return
/// them written together with [`crc32`] of the copy, in one pass: each
/// block is checksummed right after it is written, while it is still in
/// L1, instead of read back from L3 or memory after the whole copy. No byte
/// of `dst` is read or written before its copy ([`Cursor`]).
///
/// # Panics
/// If the two slices differ in length, as [`slice::copy_from_slice`] does.
pub fn copy_crc<'d>(dst: &'d mut [MaybeUninit<u8>], src: &[u8]) -> (&'d mut [u8], u32) {
    assert_eq!(dst.len(), src.len(), "copy_crc between different lengths");
    let mut out = Cursor::new(dst);
    let crc =
        (src.chunks(COPY_CRC_BLOCK)).fold(Crc32::new(), |crc, block| crc.update(out.put(block)));
    (out.finish(), crc.finish())
}

/// Which kernel [`crc32`] runs on this host for large inputs:
/// `"vpclmulqdq"`, `"pclmulqdq"` or `"slice16"`. Recorded beside benchmark
/// numbers.
pub fn crc32_kernel() -> &'static str {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if clmul::wide_available() {
        return "vpclmulqdq";
    } else if clmul::available() {
        return "pclmulqdq";
    }
    "slice16"
}

/// The carry-less-multiply CRC kernels (x86-64 only; compiled out under
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
/// precomputed quotient `MU`) yields the raw CRC register. [`fold_wide`]
/// runs the same scheme on 512-bit registers, each holding four lanes.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod clmul {
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_broadcast_i32x4, _mm512_clmulepi64_epi128,
        _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_setzero_si512, _mm512_xor_si512,
        _mm512_zextsi128_si512, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128,
        _mm_extract_epi32, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128,
        _mm_srli_si128, _mm_xor_si128,
    };

    /// One fold-by-four block: the least [`fold`] can start from.
    pub(super) const MIN_LEN: usize = 64;
    /// One fold-by-four block of 512-bit registers: the least [`fold_wide`]
    /// can start from.
    pub(super) const WIDE_MIN_LEN: usize = 256;

    // Bit-reflected `x^n mod P` for the distances folded over (values from
    // the Intel paper, the 2048-bit pair computed the same way;
    // `tests/serial_props.rs` holds the kernels to the bitwise definition at
    // every boundary length, so a wrong digit fails).
    // `x^(2048+32)`, `x^(2048-32)`: carry a 64-byte block four blocks ahead.
    const K1_WIDE: i64 = 0x1_1542_778a;
    const K2_WIDE: i64 = 0x1_322d_1430;
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

    /// Whether this CPU can run [`fold_wide`] (and so [`fold`]).
    pub(super) fn wide_available() -> bool {
        available() && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("vpclmulqdq")
    }

    /// One 16-byte lane.
    #[target_feature(enable = "sse2")]
    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is 16 readable bytes, and `_mm_loadu_si128` has no
        // alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast::<__m128i>()) }
    }

    /// `a.lo · keys.lo + a.hi · keys.hi + b`: carry accumulator `a` forward
    /// over the distance `keys` encodes and absorb lane `b`.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn fold_into(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
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
        let (blocks, rest) = data.as_chunks::<MIN_LEN>();
        let Some((first, blocks)) = blocks.split_first() else {
            return (state, data);
        };
        // Four accumulators, one per lane of a block; the incoming register
        // joins the first 32 bits of the message.
        let mut acc = [_mm_cvtsi32_si128(state as i32), zero, zero, zero];
        for (a, lane) in acc.iter_mut().zip(first.as_chunks::<16>().0) {
            *a = _mm_xor_si128(*a, load(lane));
        }
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            for (a, lane) in acc.iter_mut().zip(block.as_chunks::<16>().0) {
                *a = fold_into(*a, load(lane), k1k2);
            }
        }
        finish(acc, rest)
    }

    /// [`fold`] on 512-bit registers, same contract, for inputs of
    /// [`WIDE_MIN_LEN`] bytes or more (all of a shorter `data` comes back
    /// unconsumed). Four accumulators each absorb every fourth 64-byte
    /// block (`x^2048` apart) and are folded into one (`x^512` apart),
    /// which absorbs the remaining whole blocks. Its four 128-bit lanes are
    /// then exactly [`fold`]'s four accumulators after its last block, and
    /// the rest is [`fold`]'s. Each instruction does four of [`fold`]'s
    /// carry-less multiplies.
    ///
    /// # Safety
    /// The CPU must support `avx512f`, `vpclmulqdq`, `pclmulqdq`, `sse2`
    /// and `sse4.1` (ask [`wide_available`]). Any `data` is fine.
    #[target_feature(
        enable = "avx512f",
        enable = "vpclmulqdq",
        enable = "pclmulqdq",
        enable = "sse2",
        enable = "sse4.1"
    )]
    pub(super) unsafe fn fold_wide(state: u32, data: &[u8]) -> (u32, &[u8]) {
        let load_block = |block: &[u8; 64]| {
            // SAFETY: `block` is 64 readable bytes, and `_mm512_loadu_si512`
            // has no alignment requirement.
            unsafe { _mm512_loadu_si512(block.as_ptr().cast::<__m512i>()) }
        };
        // `fold_into` in each of the four lanes.
        let fold_block = |a: __m512i, b: __m512i, keys: __m512i| {
            let lo = _mm512_clmulepi64_epi128(a, keys, 0x00);
            let hi = _mm512_clmulepi64_epi128(a, keys, 0x11);
            _mm512_xor_si512(_mm512_xor_si512(b, lo), hi)
        };

        let (chunks, rest) = data.as_chunks::<WIDE_MIN_LEN>();
        let Some((first, chunks)) = chunks.split_first() else {
            return (state, data);
        };
        // Four accumulators, one per block of a chunk; the incoming register
        // joins the first 32 bits of the message.
        let zero = _mm512_setzero_si512();
        let mut acc = [
            _mm512_zextsi128_si512(_mm_cvtsi32_si128(state as i32)),
            zero,
            zero,
            zero,
        ];
        for (a, block) in acc.iter_mut().zip(first.as_chunks::<64>().0) {
            *a = _mm512_xor_si512(*a, load_block(block));
        }
        let wide = _mm512_broadcast_i32x4(_mm_set_epi64x(K2_WIDE, K1_WIDE));
        for chunk in chunks {
            for (a, block) in acc.iter_mut().zip(chunk.as_chunks::<64>().0) {
                *a = fold_block(*a, load_block(block), wide);
            }
        }
        // Four → one, then the whole blocks short of another chunk.
        let k1k2 = _mm512_broadcast_i32x4(_mm_set_epi64x(K2, K1));
        let [a0, a1, a2, a3] = acc;
        let mut x = fold_block(a0, a1, k1k2);
        x = fold_block(x, a2, k1k2);
        x = fold_block(x, a3, k1k2);
        let (rest_blocks, rest) = rest.as_chunks::<64>();
        for block in rest_blocks {
            x = fold_block(x, load_block(block), k1k2);
        }
        let lanes = [
            _mm512_extracti32x4_epi32::<0>(x),
            _mm512_extracti32x4_epi32::<1>(x),
            _mm512_extracti32x4_epi32::<2>(x),
            _mm512_extracti32x4_epi32::<3>(x),
        ];
        finish(lanes, rest)
    }

    /// The end both folds share: four accumulators over consecutive lanes
    /// become one (`x^128` apart), which absorbs the whole lanes of `rest`;
    /// then 128 → 64 → 32 bits. Returns the raw register and the bytes of
    /// `rest` short of a lane.
    #[target_feature(enable = "pclmulqdq", enable = "sse2", enable = "sse4.1")]
    fn finish(acc: [__m128i; 4], rest: &[u8]) -> (u32, &[u8]) {
        let k3k4 = _mm_set_epi64x(K4, K3);
        let [x0, x1, x2, x3] = acc;
        let mut x = fold_into(x0, x1, k3k4);
        x = fold_into(x, x2, k3k4);
        x = fold_into(x, x3, k3k4);
        let (lanes, tail) = rest.as_chunks::<16>();
        for lane in lanes {
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
        (state, tail)
    }
}

/// Advance the raw (un-inverted) CRC register over `data`, 16 bytes per
/// iteration through [`CRC_TABLES`].
fn slice16_update(mut crc: u32, data: &[u8]) -> u32 {
    // Lookup with the index masked to a byte: infallible by construction,
    // and expressed via `get` (not `[...]`, which the crate denies) — the
    // mask proves the bound, so the fallback folds away in codegen.
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
/// The frame is laid out up front from each region's `byte_len`, and every
/// region's bytes are copied *straight into its payload slot* — one copy
/// from protected memory to the frame — and checksummed block by block as
/// they land ([`copy_crc`]), so each payload byte is written once and read
/// back from L1. A region whose byte length drifted between planning and
/// serialization (a concurrent resize) invalidates the planned layout; the
/// frame is then planned again from owned snapshots, whose lengths cannot
/// move. The frame's buffer comes from, and goes back to, the cluster's
/// `pool` ([`FrameBuilder`]).
pub fn pack(
    pool: &'static Pool,
    base_version: Option<u64>,
    changed: &[(u32, Arc<dyn Protected>)],
    unchanged: &[u32],
) -> Bytes {
    let plan: Vec<(u32, usize)> = changed.iter().map(|(id, r)| (*id, r.byte_len())).collect();
    let mut builder = FrameBuilder::new(pool, base_version, &plan, unchanged);
    let filled = changed.iter().all(|(_, r)| {
        let mut put = false;
        r.with_bytes(&mut |src| put = put || builder.put_payload(src));
        put
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
    let mut builder = FrameBuilder::new(pool, base_version, &plan, unchanged);
    for snap in &snaps {
        builder.put_payload(snap);
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

#[expect(
    clippy::indexing_slicing,
    reason = "offsets inside the frame FrameBuilder::new sized for them"
)]
fn put_u32_at(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Zero-copy frame assembler — what [`pack`] writes through.
///
/// `FrameBuilder` takes the finished frame's buffer up front, sized from
/// the planned layout, and writes it front to back exactly once: the head
/// and every meta byte in [`FrameBuilder::new`] (each CRC field a
/// placeholder), then each region's bytes *straight into its final
/// location* ([`FrameBuilder::put_payload`], fed by
/// [`crate::Protected::with_bytes`]), with no intermediate `Bytes`
/// snapshot. [`FrameBuilder::seal`] stamps the CRCs into the written meta
/// and freezes; the output is byte-identical to the copying [`pack_frame`]
/// on the same content (`builder_output_matches_pack_frame` below holds the
/// two together).
///
/// The buffer is the process pool's (`cluster::pool`): a recycled one when
/// the pool has one that fits, else a fresh one the pool allocates (on huge
/// pages from 2 MiB up), unwritten either way. The sealed frame hands it
/// back to the pool when its last holder drops it.
pub struct FrameBuilder {
    pool: &'static Pool,
    buf: PoolBuf,
    /// Per changed region: offset of its CRC field in the meta table, and
    /// its payload's planned length.
    slots: Vec<(usize, usize)>,
    /// Payload slots written so far.
    next: usize,
    /// End of the meta section (= start of the payload section).
    meta_end: usize,
}

impl FrameBuilder {
    /// Lay out a frame for `changed` regions `(id, byte length)` in frame
    /// order, plus `unchanged` references, in a buffer from `pool`, and
    /// write its head and meta. The caller then puts every payload, in
    /// order ([`Self::put_payload`]).
    pub fn new(
        pool: &'static Pool,
        base_version: Option<u64>,
        changed: &[(u32, usize)],
        unchanged: &[u32],
    ) -> Self {
        debug_assert!(
            base_version.is_some() || unchanged.is_empty(),
            "a full frame cannot reference unchanged regions"
        );
        let meta_len = 16 + 4 * unchanged.len() + 16 * changed.len();
        let payload_len: usize = changed.iter().map(|&(_, len)| len).sum();
        let mut buf = pool.take(8 + meta_len + payload_len);
        buf.put(&MAGIC);
        // The meta CRC, stamped by `seal`.
        buf.put(&[0; 4]);
        // `base_version + 1` so 0 can mean "full"; versions are iteration
        // numbers, nowhere near u64::MAX (saturating keeps this panic-free).
        let base_ref = base_version.map_or(0, |v| v.saturating_add(1));
        buf.put(&base_ref.to_le_bytes());
        buf.put(&(changed.len() as u32).to_le_bytes());
        buf.put(&(unchanged.len() as u32).to_le_bytes());
        for id in unchanged {
            buf.put(&id.to_le_bytes());
        }
        let mut slots = Vec::with_capacity(changed.len());
        for &(id, len) in changed {
            buf.put(&id.to_le_bytes());
            buf.put(&(len as u64).to_le_bytes());
            // The payload's CRC, stamped by `put_payload`.
            slots.push((buf.len(), len));
            buf.put(&[0; 4]);
        }
        FrameBuilder {
            pool,
            buf,
            slots,
            next: 0,
            meta_end: 8 + meta_len,
        }
    }

    /// Copy `src` into the next payload slot, checksumming it as it lands
    /// ([`copy_crc`]), and record its CRC in the meta table. Writes
    /// nothing and returns `false` if `src` is not the slot's planned
    /// length, or every slot is written.
    pub fn put_payload(&mut self, src: &[u8]) -> bool {
        let Some(&(crc_at, len)) = self.slots.get(self.next) else {
            return false;
        };
        if src.len() != len {
            return false;
        }
        let crc = self.buf.fill_with(|rest| {
            let slot = rest.get_mut(..len).unwrap_or_default();
            copy_crc(slot, src)
        });
        put_u32_at(&mut self.buf, crc_at, crc);
        self.next += 1;
        true
    }

    /// Stamp the meta CRC and freeze the frame, lent from the pool.
    ///
    /// # Panics
    /// Unless every payload was put: the pool shares no buffer with bytes
    /// left unwritten.
    pub fn seal(mut self) -> Bytes {
        #[expect(
            clippy::indexing_slicing,
            reason = "new() wrote the frame past meta_end"
        )]
        let crc = crc32(&self.buf[8..self.meta_end]);
        put_u32_at(&mut self.buf, 4, crc);
        self.pool.share(self.buf)
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
    use cluster::{Cluster, ClusterConfig};

    /// A pool for tests that do not count its hits: one cluster's, shared.
    fn pool() -> &'static Pool {
        static CLUSTER: std::sync::OnceLock<Cluster> = std::sync::OnceLock::new();
        CLUSTER
            .get_or_init(|| Cluster::new(ClusterConfig::default()))
            .pool()
    }

    #[test]
    fn roundtrip_empty() {
        let frame = unpack(&pack_frame(None, &[], &[])).unwrap();
        assert!(frame.is_full());
        assert!(frame.changed.is_empty() && frame.unchanged.is_empty());
    }

    /// `crc32` dispatches inputs of 256 bytes or more to `fold_wide` where
    /// the CPU has it, so on such a host the dispatch tests reach `fold`
    /// only below 256 bytes: here it runs at every length.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn narrow_fold_equals_bitwise_at_every_length() {
        if !clmul::available() {
            return;
        }
        let data: Vec<u8> = (0..70_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (0..=1_024).chain([65_536 + 17, 70_000]) {
            let data = &data[..len];
            // SAFETY: `available()` confirmed every feature `fold` needs.
            let (state, tail) = unsafe { clmul::fold(0xFFFF_FFFF, data) };
            let crc = slice16_update(state, tail) ^ 0xFFFF_FFFF;
            assert_eq!(crc, crc32_bitwise(data), "len {len}");
        }
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
        // Lengths straddling the table's 16-byte step, the hardware kernels'
        // 64- and 256-byte blocks, and a large buffer exercising many folded
        // iterations plus a remainder. (`tests/serial_props.rs` sweeps every
        // length and alignment.)
        for len in (0..=17)
            .chain(31..=33)
            .chain(63..=65)
            .chain(127..=129)
            .chain(255..=257)
            .chain(319..=321)
            .chain(511..=513)
            .chain([4096 + 5])
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
            let mut b = FrameBuilder::new(pool(), base, &plan, unchanged);
            for (_, p) in &payloads {
                assert!(b.put_payload(p));
            }
            assert!(!b.put_payload(b""), "every slot is written");
            assert_eq!(&b.seal()[..], &reference[..], "base {base:?}");
        }
    }

    #[test]
    // Checksumming megabytes is minutes under Miri, where the advice is a
    // no-op that every smaller frame here already runs.
    #[cfg_attr(miri, ignore)]
    fn a_frame_advised_onto_huge_pages_matches_pack_frame() {
        // Over 4 MiB: a fresh pool buffer 2 MiB-aligned, its first two
        // whole spans advised onto huge pages (`cluster::pool`).
        let payloads: Vec<(u32, Bytes)> = vec![
            (1, Bytes::from(vec![0x5A; 16])),
            (
                4,
                Bytes::from((0..5 << 20).map(|i| i as u8).collect::<Vec<u8>>()),
            ),
        ];
        let plan: Vec<(u32, usize)> = payloads.iter().map(|(id, p)| (*id, p.len())).collect();
        let mut b = FrameBuilder::new(pool(), None, &plan, &[]);
        for (_, p) in &payloads {
            assert!(b.put_payload(p));
        }
        assert!(b.seal() == pack_frame(None, &payloads, &[]));
    }

    #[test]
    fn seal_hands_over_the_builders_buffer() {
        // The frame a region serialized into *is* the sealed blob: `seal`
        // moves the buffer into the `Bytes`, it does not copy it.
        let mut b = FrameBuilder::new(pool(), None, &[(1, 4096), (2, 16)], &[]);
        assert!(b.put_payload(&[1; 4096]));
        assert!(!b.put_payload(&[2; 15]), "a payload of another length");
        assert!(b.put_payload(&[2; 16]));
        let written = b.buf.as_ptr();
        assert_eq!(b.seal().as_ptr(), written);
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
            assert_eq!(
                pack(pool(), None, &regions, &[]),
                pack_frame(None, &snaps, &[])
            );
            assert_eq!(
                pack(pool(), Some(4), &regions, &[9]),
                pack_frame(Some(4), &snaps, &[9])
            );
        }
    }

    /// A frame packed into a recycled buffer that the pool's previous user
    /// left full of `0xAA` (in a debug build, the pool's `0xA5` poison) is
    /// byte for byte the frame packed into a fresh one: a full frame, a
    /// delta with unchanged references, and a frame re-planned from
    /// snapshots after a region grew or shrank.
    #[test]
    fn a_frame_packed_in_a_poisoned_recycled_buffer_equals_a_fresh_one() {
        // A pool of this test's own, so that its hits are this test's.
        static POOL: std::sync::LazyLock<Pool> = std::sync::LazyLock::new(Pool::default);
        let pool = &POOL;
        let regions: Vec<(u32, Arc<dyn Protected>)> = [(3u32, 300_001usize), (8, 77)]
            .into_iter()
            .map(|(id, len)| {
                let bytes = (0..len).map(|i| (i * 7 + id as usize) as u8).collect();
                let r: Arc<dyn Protected> = Arc::new(VecRegion::new(bytes));
                (id, r)
            })
            .collect();
        let full = (None, &[][..]);
        let delta = (Some(4), &[1u32, 5, 6][..]);
        let cases = [
            (full, None),
            (delta, None),
            (full, Some(-1)),
            (full, Some(1)),
        ];
        for ((base, unchanged), drift) in cases {
            let mut regions = regions.clone();
            if let Some(planned) = drift {
                let r = Resized(vec![0x3C; 70_000], planned);
                regions.push((11, Arc::new(r)));
            }
            // A drifted pack takes two buffers: the planned frame's, given
            // up, then the re-planned one's.
            let takes = 1 + drift.is_some() as usize;
            let fresh: Vec<Bytes> = (0..=takes)
                .map(|_| pack(pool, base, &regions, unchanged))
                .collect();
            // Lend and return one poisoned buffer per take while the fresh
            // frames stay outstanding; each is one byte over the frame, to
            // fit a plan one byte longer too.
            let poisoned: Vec<_> = (0..takes)
                .map(|_| {
                    let mut buf = pool.take(fresh[0].len() + 1);
                    buf.put(&vec![0xAA; fresh[0].len() + 1]);
                    buf
                })
                .collect();
            for buf in poisoned {
                drop(pool.share(buf));
            }
            let hits = pool.stats().hits;
            let recycled = pack(pool, base, &regions, unchanged);
            assert_eq!(
                pool.stats().hits,
                hits + takes as u64,
                "the poisoned buffers were reused"
            );
            assert!(recycled == fresh[0], "{base:?}, drift {drift:?}");
        }
    }

    /// A region that resized after planning: `byte_len` still reports the
    /// old length, the new one offset by `.1`, and every serialization
    /// sees the new one.
    struct Resized(Vec<u8>, isize);

    impl Protected for Resized {
        fn snapshot(&self) -> Bytes {
            Bytes::from(self.0.clone())
        }
        fn restore(&self, _data: &[u8]) {}
        fn byte_len(&self) -> usize {
            self.0.len().checked_add_signed(self.1).unwrap()
        }
    }

    #[test]
    fn length_drift_replans_from_the_snapshots() {
        // Planned one byte short of the snapshot, then one byte over it.
        for (now, planned) in [(&b"grown"[..], -1), (b"shrunk", 1)] {
            let steady: Arc<dyn Protected> = Arc::new(VecRegion::new(vec![7u8; 5]));
            let moved: Arc<dyn Protected> = Arc::new(Resized(now.to_vec(), planned));
            let blob = pack(pool(), None, &[(1, steady), (2, moved)], &[]);
            let frame = unpack(&blob).expect("the re-planned frame is well-formed");
            assert_eq!(
                frame.changed,
                vec![
                    (1, Bytes::from(vec![7u8; 5])),
                    (2, Bytes::copy_from_slice(now))
                ]
            );
        }
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
