//! GF(2^8) arithmetic for the Reed–Solomon codec.
//!
//! The field is GF(256) with the conventional AES-adjacent reduction
//! polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11d) and generator 2. Every
//! table is built at compile time. The scalar operations ([`mul`], [`inv`],
//! [`div`] — Cauchy coefficients and matrix inversion) are single lookups.
//!
//! The codec's inner loop is [`mul_acc`]: one function over two kernels,
//! chosen from what the CPU reports (nothing to configure). On x86-64 with
//! `ssse3` the product `c · s` is split over the nibbles of `s` —
//! `c · s = c · (s & 0x0f) ⊕ c · (s & 0xf0)`, multiplication being linear
//! over XOR — so two 16-entry tables per coefficient, applied with `pshufb`,
//! multiply 16 bytes per step ([`ssse3`]). Everywhere else, under Miri, and
//! for the last `len % 16` bytes, [`mul_acc_portable`] walks the
//! coefficient's 256-entry row of the product table, one branch-free
//! lookup per byte. Both compute the same function, so shards and wire
//! frames do not depend on the host; [`mul_bitwise`] is the definitional
//! form both are property-tested against, and [`kernel`] names the choice.
//!
//! The encoder's loop is [`rows_into`]: every row of a coefficient matrix
//! over the same sources in one pass, into unwritten rows
//! (`&mut [MaybeUninit<u8>]`), each output byte written once and never read
//! before it is. Where the CPU has `gfni`, `avx512bw` and `avx512f`
//! ([`gfni`]), a product `c · s` is one `gf2p8affineqb`: multiplication by
//! `c` is linear over GF(2), so it is an 8×8 bit matrix ([`affine`]) applied
//! to 64 bytes at a time, and up to four rows accumulate in registers while
//! each 64-byte block of the sources is loaded once. Everywhere else, and
//! under Miri, [`rows_into_per_row`] writes each row as its first product
//! ([`mul_into`], which only stores) and accumulates the other sources into
//! it with [`mul_acc`], one pass per source; [`rows_kernel`] names the
//! choice.
//!
//! On the CI container, an Intel Xeon with `gfni` and AVX-512 (one pinned
//! CPU, minimum of 41 samples): `mul_acc` through `ssse3` reads 8–14 GiB/s
//! on 1 MiB (`gf_mul_acc_1m`), 5.6–7.8× the portable kernel; `rows_into`
//! over two rows of two sources reads 16–19 GiB/s of source on
//! cache-resident slices and 8–11 GiB/s on 1 MiB slices, against 5–7 and
//! 3.3–3.9 GiB/s for `rows_into_per_row`. Built into recycled buffers, the
//! three RS(2+2) wire frames of a 2 MiB payload take 0.40–0.46 ms with the
//! parity in one pass and 0.69–0.76 ms per row (`store::coded_frames`
//! against `store::coded_frames_per_row`).

use std::mem::MaybeUninit;

use cluster::Cursor;

/// Reduction polynomial for GF(256): x^8 + x^4 + x^3 + x^2 + 1.
const POLY: u16 = 0x11d;

/// `EXP[i] = 2^i` over a doubled period, so `EXP[a + b]` needs no modulo
/// for `a, b < 255`, and `LOG`, its inverse on the nonzero elements.
#[expect(
    clippy::indexing_slicing,
    reason = "evaluated at compile time: an index out of range fails the build"
)]
const EXP_LOG: ([u8; 512], [u8; 256]) = {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0usize;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    (exp, log)
};
const EXP: [u8; 512] = EXP_LOG.0;
const LOG: [u8; 256] = EXP_LOG.1;

/// The product table: `MUL[c][s] = c · s`. Row `c` is what the portable
/// kernel walks, and where the SIMD kernel reads its two nibble tables.
#[expect(
    clippy::indexing_slicing,
    reason = "evaluated at compile time: an index out of range fails the build"
)]
static MUL: [[u8; 256]; 256] = {
    let mut t = [[0u8; 256]; 256];
    let mut c = 1usize;
    while c < 256 {
        let mut s = 1usize;
        while s < 256 {
            t[c][s] = EXP[LOG[c] as usize + LOG[s] as usize];
            s += 1;
        }
        c += 1;
    }
    t
};

/// `INV[a] = 1 / a` (and 0 for the element that has no inverse).
#[expect(
    clippy::indexing_slicing,
    reason = "evaluated at compile time: an index out of range fails the build"
)]
static INV: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut a = 1usize;
    while a < 256 {
        t[a] = EXP[255 - LOG[a] as usize];
        a += 1;
    }
    t
};

// Lookups at run time go through `get`, not `[…]`: the crate denies
// `clippy::indexing_slicing` (DESIGN §10). A `u8` always indexes a
// 256-entry table, so the fallbacks fold away in codegen.

/// Row `c` of [`MUL`].
#[inline(always)]
fn row(c: u8) -> &'static [u8; 256] {
    MUL.get(c as usize).unwrap_or(&[0; 256])
}

/// `table[i]`.
#[inline(always)]
fn at(table: &[u8; 256], i: u8) -> u8 {
    table.get(i as usize).copied().unwrap_or(0)
}

/// Field addition (= subtraction): XOR.
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Field multiplication.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    at(row(a), b)
}

/// Multiplicative inverse. Panics on zero (a singular matrix is a caller
/// bug — the Cauchy construction guarantees nonsingularity).
#[inline]
pub fn inv(a: u8) -> u8 {
    assert_ne!(a, 0, "zero has no inverse in GF(256)");
    at(&INV, a)
}

/// Field division: `a / b`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    mul(a, inv(b))
}

/// Field multiplication from the definition: carry-less multiply reduced by
/// [`POLY`], bit by bit. The oracle the tables and both [`mul_acc`] kernels
/// are tested against; no production path calls it.
pub fn mul_bitwise(mut a: u8, mut b: u8) -> u8 {
    let mut acc = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let carry = a & 0x80 != 0;
        a <<= 1;
        if carry {
            a ^= (POLY & 0xff) as u8;
        }
        b >>= 1;
    }
    acc
}

/// `acc[i] ^= coeff · src[i]` for every `i` both slices have — the codec's
/// inner loop. A `src` shorter than `acc` is a shard whose zero padding was
/// never materialised: `coeff · 0 = 0`, so the bytes past it stay as they
/// are.
pub fn mul_acc(acc: &mut [u8], src: &[u8], coeff: u8) {
    if coeff == 0 {
        return;
    }
    let n = acc.len().min(src.len());
    #[expect(
        clippy::indexing_slicing,
        reason = "n is the shorter of the two lengths"
    )]
    let (acc, src) = (&mut acc[..n], &src[..n]);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    let (acc, src) = if ssse3::available() {
        // SAFETY: `available()` just confirmed at run time that this CPU has
        // every feature `ssse3::mul_acc` is compiled for — its one
        // requirement.
        unsafe { ssse3::mul_acc(acc, src, row(coeff)) }
    } else {
        (acc, src)
    };
    mul_acc_portable(acc, src, coeff);
}

/// The portable [`mul_acc`] kernel, callable by name so that tests and the
/// bench reach it on hosts where the dispatch never does for whole lanes.
pub fn mul_acc_portable(acc: &mut [u8], src: &[u8], coeff: u8) {
    let row = row(coeff);
    for (a, s) in acc.iter_mut().zip(src) {
        *a ^= at(row, *s);
    }
}

/// `out[i] = coeff · src[i]` for every `i` both slices have, and zero past
/// the end of `src`: the first product of a row, written into unwritten
/// bytes, every one of them, and returned as bytes. Whole 16-byte lanes go
/// through the `pshufb` kernel where [`mul_acc`]'s does, which only stores;
/// the rest through the product table, a stack block at a time.
pub fn mul_into<'o>(out: &'o mut [MaybeUninit<u8>], src: &[u8], coeff: u8) -> &'o mut [u8] {
    let src = src.get(..out.len()).unwrap_or(src);
    let mut out = Cursor::new(out);
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    let src = if ssse3::available() {
        let lanes = out.put_with(|rest| {
            // SAFETY: `available()` just confirmed at run time that this
            // CPU has every feature `ssse3::mul_into` is compiled for — its
            // one requirement.
            let lanes = unsafe { ssse3::mul_into(rest, src, row(coeff)) };
            let n = lanes.len();
            (lanes, n)
        });
        src.get(lanes..).unwrap_or_default()
    } else {
        src
    };
    let row = row(coeff);
    let mut block = [0u8; 64];
    for chunk in src.chunks(block.len()) {
        for (b, s) in block.iter_mut().zip(chunk) {
            *b = at(row, *s);
        }
        out.put(block.get(..chunk.len()).unwrap_or_default());
    }
    out.put_bytes(0, out.remaining());
    out.finish()
}

/// Which kernel [`mul_acc`] runs on this host for whole 16-byte lanes:
/// `"ssse3"` or `"portable"`. Recorded beside benchmark numbers.
pub fn kernel() -> &'static str {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if ssse3::available() {
        return "ssse3";
    }
    "portable"
}

/// `rows[i] = Σ_j coeffs[i·n + j] · srcs[j]` for every row `i`, `n` being
/// `srcs.len()` — the encoder's loop. Every byte of every row is written,
/// and none is read first: the rows are unwritten capacity, returned as
/// bytes in the same order. A source shorter than a row is zero past its
/// end (`c · 0 = 0`), and one longer is read only as far as the row
/// reaches. A coefficient missing from `coeffs` counts as 0.
pub fn rows_into<'o>(
    rows: Vec<&'o mut [MaybeUninit<u8>]>,
    srcs: &[&[u8]],
    coeffs: &[u8],
) -> Vec<&'o mut [u8]> {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if gfni::available() {
        let mats: Vec<u64> = (0..rows.len() * srcs.len())
            .map(|k| affine(coeffs.get(k).copied().unwrap_or(0)))
            .collect();
        // SAFETY: `available()` just confirmed at run time that this CPU has
        // every feature `gfni::rows_into` is compiled for — its one
        // requirement.
        return unsafe { gfni::rows_into(rows, srcs, &mats) };
    }
    rows_into_per_row(rows, srcs, coeffs)
}

/// The per-row [`rows_into`] kernel: each row written as its first
/// source's product ([`mul_into`]), then one [`mul_acc`] pass per further
/// source. Callable by name so that tests and the bench reach it on hosts
/// where the dispatch never does.
pub fn rows_into_per_row<'o>(
    rows: Vec<&'o mut [MaybeUninit<u8>]>,
    srcs: &[&[u8]],
    coeffs: &[u8],
) -> Vec<&'o mut [u8]> {
    let n = srcs.len();
    let rows = rows.into_iter().enumerate().map(|(i, row)| {
        let coeff = |j: usize| coeffs.get(i * n + j).copied().unwrap_or(0);
        let row = mul_into(row, srcs.first().copied().unwrap_or_default(), coeff(0));
        for (j, src) in srcs.iter().enumerate().skip(1) {
            mul_acc(row, src, coeff(j));
        }
        row
    });
    rows.collect()
}

/// Which kernel [`rows_into`] runs on this host: `"gfni"` or `"per_row"`.
/// Recorded beside benchmark numbers.
pub fn rows_kernel() -> &'static str {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if gfni::available() {
        return "gfni";
    }
    "per_row"
}

/// Multiplication by `c` as the 8×8 bit matrix `gf2p8affineqb` takes: bit
/// `i` of `c · x` is the parity of `x` masked by row `i`, stored in byte
/// `7 − i` of the `u64`, and bit `k` of row `i` is bit `i` of `c · 2^k`.
fn affine(c: u8) -> u64 {
    let mut m = 0u64;
    for i in 0..8 {
        let row = (0..8).fold(0u8, |row, k| row | (((mul(c, 1 << k) >> i) & 1) << k));
        m |= (row as u64) << (8 * (7 - i));
    }
    m
}

/// The split-nibble `pshufb` kernel (x86-64 only; compiled out under Miri,
/// which does not model the intrinsics) — the scheme of Plank, Greenan and
/// Miller, "Screaming Fast Galois Field Arithmetic Using Intel SIMD
/// Instructions" (FAST '13) for `w = 8`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod ssse3 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8, _mm_srli_epi64,
        _mm_storeu_si128, _mm_xor_si128,
    };
    use std::mem::MaybeUninit;

    /// Whether this CPU can run [`mul_acc`]. `is_x86_feature_detected!`
    /// caches its answer, so this is a load and a mask per call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("ssse3")
    }

    /// `acc[i] ^= row[src[i]]` over the whole 16-byte lanes the two slices
    /// share, `row` being one coefficient's row of the product table.
    /// Returns the bytes *not* consumed: under 16 of each when the slices
    /// are equally long.
    ///
    /// # Safety
    /// The CPU must support `ssse3` and `sse2` (ask [`available`]). Any
    /// slices are fine.
    #[target_feature(enable = "ssse3", enable = "sse2")]
    pub(super) unsafe fn mul_acc<'a>(
        acc: &'a mut [u8],
        src: &'a [u8],
        row: &[u8; 256],
    ) -> (&'a mut [u8], &'a [u8]) {
        let times = Times::new(row);
        let mut lanes = acc.chunks_exact_mut(16);
        let mut srcs = src.chunks_exact(16);
        for (a, s) in lanes.by_ref().zip(srcs.by_ref()) {
            let sum = _mm_xor_si128(load(a), times.lane(load(s)));
            // SAFETY: `a` is a `chunks_exact_mut(16)` item, so 16 writable
            // bytes, and `_mm_storeu_si128` has no alignment requirement.
            unsafe { _mm_storeu_si128(a.as_mut_ptr().cast::<__m128i>(), sum) }
        }
        (lanes.into_remainder(), srcs.remainder())
    }

    /// `out[i] = row[src[i]]` over the whole 16-byte lanes the two slices
    /// share: stores only, no byte of `out` is read. Returns those lanes,
    /// written.
    ///
    /// # Safety
    /// The CPU must support `ssse3` and `sse2` (ask [`available`]). Any
    /// slices are fine.
    #[target_feature(enable = "ssse3", enable = "sse2")]
    pub(super) unsafe fn mul_into<'a>(
        out: &'a mut [MaybeUninit<u8>],
        src: &[u8],
        row: &[u8; 256],
    ) -> &'a mut [u8] {
        let times = Times::new(row);
        let whole = out.len().min(src.len()) / 16 * 16;
        let out = out.get_mut(..whole).unwrap_or_default();
        for (o, s) in out.chunks_exact_mut(16).zip(src.chunks_exact(16)) {
            // SAFETY: `o` is a `chunks_exact_mut(16)` item, so 16 writable
            // bytes, and `_mm_storeu_si128` has no alignment requirement.
            unsafe { _mm_storeu_si128(o.as_mut_ptr().cast::<__m128i>(), times.lane(load(s))) }
        }
        // SAFETY: `out` is `whole` bytes, a multiple of 16, and the loop
        // stored every one of its lanes (`src` has at least `whole` bytes).
        unsafe { out.assume_init_mut() }
    }

    /// A 16-byte lane of a slice, loaded.
    #[target_feature(enable = "sse2")]
    fn load(lane: &[u8]) -> __m128i {
        debug_assert_eq!(lane.len(), 16);
        // SAFETY: every lane passed in is a `chunks_exact(16)` item or a
        // 16-byte array, so 16 readable bytes, and `_mm_loadu_si128` has
        // no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast::<__m128i>()) }
    }

    /// Multiplication by one coefficient, 16 bytes at a time: its two
    /// nibble tables.
    struct Times {
        lo: __m128i,
        hi: __m128i,
    }

    impl Times {
        /// From the coefficient's row of the product table: `row[x]` for
        /// the low nibbles is the row's first 16 entries; for the high
        /// nibbles every sixteenth.
        #[target_feature(enable = "sse2")]
        fn new(row: &[u8; 256]) -> Self {
            let mut high = [0u8; 16];
            for (h, product) in high.iter_mut().zip(row.iter().step_by(16)) {
                *h = *product;
            }
            Times {
                lo: load(row.first_chunk::<16>().unwrap_or(&[0; 16])),
                hi: load(&high),
            }
        }

        /// The product of every byte of `x`.
        #[target_feature(enable = "ssse3", enable = "sse2")]
        fn lane(&self, x: __m128i) -> __m128i {
            let nibble = _mm_set1_epi8(0x0f);
            let lo = _mm_shuffle_epi8(self.lo, _mm_and_si128(x, nibble));
            let hi = _mm_shuffle_epi8(self.hi, _mm_and_si128(_mm_srli_epi64(x, 4), nibble));
            _mm_xor_si128(lo, hi)
        }
    }
}

/// The `gf2p8affineqb` rows kernel (x86-64 only; compiled out under Miri,
/// which does not model the intrinsics).
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod gfni {
    use std::arch::x86_64::{
        __m512i, _mm512_gf2p8affine_epi64_epi8, _mm512_loadu_si512, _mm512_mask_storeu_epi8,
        _mm512_maskz_loadu_epi8, _mm512_set1_epi64, _mm512_setzero_si512, _mm512_storeu_si512,
        _mm512_xor_si512,
    };
    use std::mem::MaybeUninit;

    /// Rows accumulated in registers per pass over the sources.
    const TILE: usize = 4;

    /// Whether this CPU can run [`rows_into`]. `is_x86_feature_detected!`
    /// caches its answer, so this is a few loads and masks per call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("gfni")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512f")
    }

    /// The mask of the first `len` of a block's 64 bytes.
    fn mask(len: usize) -> u64 {
        u64::MAX.checked_shr(64 - len.min(64) as u32).unwrap_or(0)
    }

    /// `rows[i] = Σ_j mats[i·n + j] · srcs[j]` over GF(256), `mats` holding
    /// each coefficient as its [`super::affine`] matrix, into unwritten
    /// rows, returned written. The rows go in tiles of up to [`TILE`], each
    /// tile one pass over the sources ([`tile_pass`]).
    ///
    /// # Safety
    /// The CPU must support `gfni`, `avx512bw` and `avx512f` (ask
    /// [`available`]). Any slices are fine.
    #[target_feature(enable = "gfni", enable = "avx512bw", enable = "avx512f")]
    pub(super) unsafe fn rows_into<'o>(
        mut rows: Vec<&'o mut [MaybeUninit<u8>]>,
        srcs: &[&[u8]],
        mats: &[u64],
    ) -> Vec<&'o mut [u8]> {
        let n = srcs.len();
        for (t, tile) in rows.chunks_mut(TILE).enumerate() {
            // Coefficient `(t·TILE + r, j)` broadcast to a register once:
            // `coeffs[j][r]`; a row the tile lacks gets the zero matrix.
            let coeffs: Vec<[__m512i; TILE]> = (0..n)
                .map(|j| {
                    std::array::from_fn(|r| {
                        let m = mats.get((t * TILE + r) * n + j).copied().unwrap_or(0);
                        _mm512_set1_epi64(m as i64)
                    })
                })
                .collect();
            // SAFETY: this function's own contract — the CPU has every
            // feature `tile_pass` is compiled for.
            unsafe {
                match tile.len() {
                    1 => tile_pass::<1>(tile, srcs, &coeffs),
                    2 => tile_pass::<2>(tile, srcs, &coeffs),
                    3 => tile_pass::<3>(tile, srcs, &coeffs),
                    _ => tile_pass::<TILE>(tile, srcs, &coeffs),
                }
            }
        }
        let rows = rows.into_iter().map(|row| {
            // SAFETY: `tile_pass` stored every byte of every row of its
            // tile (its contract), and every row was in one tile.
            unsafe { row.assume_init_mut() }
        });
        rows.collect()
    }

    /// The first `R` rows of `tile` (the rows are `R` long at most) from
    /// the sources, in 64-byte blocks: per block, each source's block is
    /// loaded once, takes one affine product per row, and each row's block
    /// is stored once: every byte of every row is stored, none is read. A
    /// block that a slice holds whole is loaded or stored
    /// plainly; the last, partial block of a slice goes through a masked
    /// load or store, and a source that has ended contributes nothing, so
    /// no byte outside a slice is touched and tails need no second kernel.
    ///
    /// # Safety
    /// The CPU must support `gfni`, `avx512bw` and `avx512f`.
    #[target_feature(enable = "gfni", enable = "avx512bw", enable = "avx512f")]
    unsafe fn tile_pass<const R: usize>(
        tile: &mut [&mut [MaybeUninit<u8>]],
        srcs: &[&[u8]],
        coeffs: &[[__m512i; TILE]],
    ) {
        let len = tile.iter().map(|row| row.len()).max().unwrap_or(0);
        for at in (0..len).step_by(64) {
            let mut acc = [_mm512_setzero_si512(); R];
            for (src, c) in srcs.iter().zip(coeffs) {
                let x = match src.get(at..at + 64) {
                    // SAFETY: `block` is 64 readable bytes, and
                    // `_mm512_loadu_si512` needs no alignment.
                    Some(block) => unsafe { _mm512_loadu_si512(block.as_ptr().cast()) },
                    None => match src.get(at..) {
                        Some(block) if !block.is_empty() => {
                            // SAFETY: the mask covers the `block.len()`
                            // bytes the slice has from `at`, and a masked
                            // load reads (and faults on) no byte outside it.
                            unsafe {
                                _mm512_maskz_loadu_epi8(mask(block.len()), block.as_ptr().cast())
                            }
                        }
                        _ => continue,
                    },
                };
                for (a, c) in acc.iter_mut().zip(c) {
                    *a = _mm512_xor_si512(*a, _mm512_gf2p8affine_epi64_epi8::<0>(x, *c));
                }
            }
            for (row, a) in tile.iter_mut().zip(acc) {
                if let Some(block) = row.get_mut(at..at + 64) {
                    // SAFETY: `block` is 64 writable bytes of the mutably
                    // borrowed row, and `_mm512_storeu_si512` needs no
                    // alignment.
                    unsafe { _mm512_storeu_si512(block.as_mut_ptr().cast(), a) };
                } else if let Some(block) = row.get_mut(at..) {
                    // SAFETY: the mask covers the `block.len()` bytes the
                    // row has from `at`, all inside the mutably borrowed
                    // row, and a masked store writes no byte outside it.
                    unsafe {
                        _mm512_mask_storeu_epi8(block.as_mut_ptr().cast(), mask(block.len()), a)
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_matches_schoolbook() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), mul_bitwise(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_an_inverse() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "inv({a})");
        }
    }

    #[test]
    fn mul_acc_is_linear_and_stops_at_the_shorter_slice() {
        // 37 bytes: two whole lanes and a tail for the dispatching kernel.
        let src: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(29) ^ 0xa5).collect();
        for kernel in [mul_acc as fn(&mut [u8], &[u8], u8), mul_acc_portable] {
            for coeff in [0u8, 1, 2, 0x53, 0xff] {
                let mut acc = [9u8; 40];
                kernel(&mut acc, &src, coeff);
                for (i, a) in acc.iter().enumerate() {
                    let want = src.get(i).map_or(9, |s| 9 ^ mul_bitwise(*s, coeff));
                    assert_eq!(*a, want, "coeff {coeff}, byte {i}");
                }
            }
        }
    }

    /// What `gf2p8affineqb` computes for one byte with `imm8 = 0`, written
    /// out: the oracle [`affine`] is tested against on any host.
    fn affine_apply(m: u64, x: u8) -> u8 {
        (0..8).fold(0u8, |out, i| {
            let row = (m >> (8 * (7 - i))) as u8;
            out | ((((row & x).count_ones() & 1) as u8) << i)
        })
    }

    #[test]
    fn the_affine_matrix_of_c_multiplies_by_c() {
        for c in 0..=255u8 {
            let m = affine(c);
            for x in 0..=255u8 {
                assert_eq!(affine_apply(m, x), mul_bitwise(c, x), "{c} * {x}");
            }
        }
        assert_eq!(affine(1), 0x0102_0408_1020_4080, "1 is the identity");
    }

    #[test]
    fn rows_kernels_write_every_byte_of_every_row() {
        // Rows of 130 bytes: two whole blocks and a tail for the GFNI
        // kernel, poisoned first; sources full, short and empty.
        let full: Vec<u8> = (0..130u8).map(|i| i.wrapping_mul(29) ^ 0xa5).collect();
        let srcs: [&[u8]; 3] = [&full, &full[..77], &[]];
        let coeffs = [1u8, 2, 3, 0x53, 0, 0xff];
        type Kernel =
            for<'o> fn(Vec<&'o mut [MaybeUninit<u8>]>, &[&[u8]], &[u8]) -> Vec<&'o mut [u8]>;
        for kernel in [rows_into as Kernel, rows_into_per_row] {
            let (mut a, mut b) = ([MaybeUninit::new(0xAA); 130], [MaybeUninit::new(0xAA); 130]);
            let rows = kernel(vec![&mut a, &mut b], &srcs, &coeffs);
            for (i, row) in rows.iter().enumerate() {
                for (k, got) in row.iter().enumerate() {
                    let want = (0..3).fold(0, |acc, j| {
                        let s = srcs[j].get(k).copied().unwrap_or(0);
                        acc ^ mul_bitwise(coeffs[i * 3 + j], s)
                    });
                    assert_eq!(*got, want, "row {i}, byte {k}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no inverse")]
    fn inverse_of_zero_panics() {
        inv(0);
    }
}
