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
//! multiply 16 bytes per step ([`ssse3`]; 13–15 GiB/s on 1–2 MiB on the CI
//! container). Everywhere else, under Miri, and for the last `len % 16`
//! bytes, [`mul_acc_portable`] walks the coefficient's 256-entry row of the
//! product table, one branch-free lookup per byte (2.5 GiB/s). Both compute
//! the same function, so shards and wire frames do not depend on the host;
//! [`mul_bitwise`] is the definitional form both are property-tested
//! against, and [`kernel`] names the choice.

/// Reduction polynomial for GF(256): x^8 + x^4 + x^3 + x^2 + 1.
const POLY: u16 = 0x11d;

/// `EXP[i] = 2^i` over a doubled period, so `EXP[a + b]` needs no modulo
/// for `a, b < 255`, and `LOG`, its inverse on the nonzero elements.
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
static INV: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut a = 1usize;
    while a < 256 {
        t[a] = EXP[255 - LOG[a] as usize];
        a += 1;
    }
    t
};

// Lookups at run time go through `get`, not `[…]`, so that the recovery
// path — `RedundancyGroup::restore` decodes with these — carries no
// reachable panic site (`panic-reach`, DESIGN §10). A `u8` always indexes a
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

/// Which kernel [`mul_acc`] runs on this host for whole 16-byte lanes:
/// `"ssse3"` or `"portable"`. Recorded beside benchmark numbers.
pub fn kernel() -> &'static str {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if ssse3::available() {
        return "ssse3";
    }
    "portable"
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
        let load = |lane: &[u8]| {
            debug_assert_eq!(lane.len(), 16);
            // SAFETY: every lane passed below is a `chunks_exact(16)` item
            // or a 16-byte array, so 16 readable bytes, and
            // `_mm_loadu_si128` has no alignment requirement.
            unsafe { _mm_loadu_si128(lane.as_ptr().cast::<__m128i>()) }
        };
        // `row[x]` for the low nibbles is the row's first 16 entries; for
        // the high nibbles every sixteenth.
        let mut high = [0u8; 16];
        for (h, product) in high.iter_mut().zip(row.iter().step_by(16)) {
            *h = *product;
        }
        let (lo_tab, hi_tab) = (load(&row[..16]), load(&high));
        let nibble = _mm_set1_epi8(0x0f);

        let mut lanes = acc.chunks_exact_mut(16);
        let mut srcs = src.chunks_exact(16);
        for (a, s) in lanes.by_ref().zip(srcs.by_ref()) {
            let x = load(s);
            let lo = _mm_shuffle_epi8(lo_tab, _mm_and_si128(x, nibble));
            let hi = _mm_shuffle_epi8(hi_tab, _mm_and_si128(_mm_srli_epi64(x, 4), nibble));
            let sum = _mm_xor_si128(load(a), _mm_xor_si128(lo, hi));
            // SAFETY: `a` is a `chunks_exact_mut(16)` item, so 16 writable
            // bytes, and `_mm_storeu_si128` has no alignment requirement.
            unsafe { _mm_storeu_si128(a.as_mut_ptr().cast::<__m128i>(), sum) }
        }
        (lanes.into_remainder(), srcs.remainder())
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

    #[test]
    #[should_panic(expected = "no inverse")]
    fn inverse_of_zero_panics() {
        inv(0);
    }
}
