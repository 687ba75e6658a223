//! Property suite for the erasure codecs: encode → erase → decode must
//! round-trip bitwise for arbitrary payloads (zero-length and
//! non-shard-multiple sizes included), and erasures beyond the code's
//! tolerance must surface as a typed error — never a panic. Both GF(256)
//! kernel families (`mul_acc`, `rows_into`) are held to the field's
//! definition, and the one-pass parity encoder to the per-row one.

use std::mem::MaybeUninit;

use cluster::{Cluster, ClusterConfig};
use proptest::prelude::*;
use redstore::codec::{rs_decode, rs_encode, xor_decode, xor_encode, Code, CodecError};
use redstore::gf256::{
    mul_acc, mul_acc_portable, mul_bitwise, mul_into, rows_into, rows_into_per_row, rows_kernel,
};

/// A rows kernel: unwritten rows in, the same rows written out.
type RowsKernel = for<'o> fn(Vec<&'o mut [MaybeUninit<u8>]>, &[&[u8]], &[u8]) -> Vec<&'o mut [u8]>;

/// Deterministic erasure pattern: kill `holes` distinct slots chosen by a
/// seed, spread over the slot space.
fn erase(shards: &mut [Option<Vec<u8>>], holes: usize, seed: usize) {
    let total = shards.len();
    let mut killed = 0;
    let mut at = seed % total;
    while killed < holes {
        if shards[at].is_some() {
            shards[at] = None;
            killed += 1;
        }
        at = (at + 1) % total;
    }
}

proptest! {
    #[test]
    fn xor_roundtrips_under_single_erasure(
        payload in proptest::collection::vec(any::<u8>(), 0..400),
        n in 1usize..8,
        hole in 0usize..8,
    ) {
        let encoded = xor_encode(&payload, n).expect("encode");
        prop_assert_eq!(encoded.len(), n + 1);
        let mut slots: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        slots[hole % (n + 1)] = None;
        let decoded = xor_decode(&slots, n, payload.len()).expect("decode");
        prop_assert_eq!(decoded, payload);
    }

    #[test]
    fn xor_beyond_tolerance_is_typed_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        n in 2usize..8,
        seed in 0usize..64,
    ) {
        let mut slots: Vec<Option<Vec<u8>>> =
            xor_encode(&payload, n).expect("encode").into_iter().map(Some).collect();
        erase(&mut slots, 2, seed);
        let got = xor_decode(&slots, n, payload.len());
        prop_assert!(
            matches!(got, Err(CodecError::TooManyErasures { .. })),
            "expected typed error, got {:?}", got
        );
    }

    #[test]
    fn rs_roundtrips_under_up_to_m_erasures(
        payload in proptest::collection::vec(any::<u8>(), 0..400),
        n in 1usize..6,
        m in 1usize..4,
        holes in 0usize..4,
        seed in 0usize..64,
    ) {
        let holes = holes.min(m);
        let encoded = rs_encode(&payload, n, m).expect("encode");
        prop_assert_eq!(encoded.len(), n + m);
        let mut slots: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        erase(&mut slots, holes, seed);
        let decoded = rs_decode(&slots, n, m, payload.len()).expect("decode");
        prop_assert_eq!(decoded, payload);
    }

    #[test]
    fn rs_beyond_tolerance_is_typed_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        n in 1usize..6,
        m in 1usize..4,
        extra in 1usize..3,
        seed in 0usize..64,
    ) {
        let mut slots: Vec<Option<Vec<u8>>> =
            rs_encode(&payload, n, m).expect("encode").into_iter().map(Some).collect();
        let holes = (m + extra).min(n + m);
        erase(&mut slots, holes, seed);
        let got = rs_decode(&slots, n, m, payload.len());
        if holes > m {
            prop_assert!(
                matches!(got, Err(CodecError::TooManyErasures { .. })),
                "expected typed error, got {:?}", got
            );
        } else {
            // holes capped at the slot count can still be within tolerance
            // for tiny codes; then the round-trip must hold instead.
            prop_assert_eq!(got.expect("within tolerance"), payload);
        }
    }

    #[test]
    fn rs_survives_exactly_m_erasures_at_every_offset(
        len in 0usize..300,
        seed in 0usize..32,
    ) {
        // The acceptance shape: n+2 RS loses any 2 shards and still
        // round-trips bitwise, whatever the payload size (including 0 and
        // non-multiples of the shard count).
        let payload: Vec<u8> = (0..len).map(|i| (i * 131 + seed) as u8).collect();
        let (n, m) = (2usize, 2usize);
        let encoded = rs_encode(&payload, n, m).expect("encode");
        for a in 0..n + m {
            for b in (a + 1)..n + m {
                let mut slots: Vec<Option<Vec<u8>>> =
                    encoded.iter().cloned().map(Some).collect();
                slots[a] = None;
                slots[b] = None;
                let decoded = rs_decode(&slots, n, m, payload.len()).expect("decode");
                prop_assert_eq!(&decoded, &payload, "holes {} {}", a, b);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Both `mul_acc` kernels vs the schoolbook oracle. `mul_acc` dispatches on
// the CPU (split-nibble `pshufb` where the host has SSSE3, else
// `mul_acc_portable`, which also finishes every tail); `mul_bitwise` is the
// carry-less multiply reduced bit by bit, kept solely as this oracle. All
// three must agree on every input — in particular around the SIMD kernel's
// 16-byte lane, at every alignment of both slices (it loads and stores
// unaligned), and where its nibble tables could be wrong: for every
// coefficient. Naming `mul_acc_portable` here is what exercises the portable
// kernel on hosts where `mul_acc` never reaches it for whole lanes.
// ---------------------------------------------------------------------------

/// Run both kernels over `acc ^= coeff · src` and hold each to the oracle.
/// `offsets` (of `acc` and `src` in their buffers) only label a failure.
fn check_kernels(acc: &[u8], src: &[u8], coeff: u8, offsets: (usize, usize)) {
    let want: Vec<u8> = acc
        .iter()
        .zip(src)
        .map(|(a, s)| a ^ mul_bitwise(coeff, *s))
        .collect();
    for (name, kernel) in [
        ("dispatch", mul_acc as fn(&mut [u8], &[u8], u8)),
        ("portable", mul_acc_portable),
    ] {
        let mut got = acc.to_vec();
        kernel(&mut got, src, coeff);
        assert!(
            got == want,
            "{name} kernel, coeff {coeff}, len {}, offsets {offsets:?}",
            src.len()
        );
    }
}

/// Longest slice of the exhaustive grid.
const MAX_LEN: usize = 130;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn gf256_kernels_equal_schoolbook(
        seed in any::<u64>(),
        small in proptest::collection::vec(any::<u8>(), 2 * (MAX_LEN + 16)..2 * (MAX_LEN + 16) + 1),
        big in proptest::collection::vec(any::<u8>(), 2 * 65_537..200_000),
    ) {
        let (acc, src) = small.split_at(MAX_LEN + 16);
        let grid = |coeff: u8, a_off: usize, s_off: usize| {
            for len in 0..=MAX_LEN {
                let (a, s) = (&acc[a_off..a_off + len], &src[s_off..s_off + len]);
                check_kernels(a, s, coeff, (a_off, s_off));
            }
        };
        // All 256 coefficients (every pair of nibble tables) at every
        // length 0..=130 (straddling the 16-byte lane eight times over),
        // the start offsets of `acc` and `src` rotating with the
        // coefficient through all 16 × 16 pairs...
        for coeff in 0..=255u8 {
            grid(coeff, coeff as usize / 16, coeff as usize % 16);
        }
        // ...and every offset pair outright for coefficient 1 (XOR parity)
        // and one the seed picks.
        for coeff in [1, seed as u8 | 2] {
            for pair in 0..256 {
                grid(coeff, pair / 16, pair % 16);
            }
        }
        // Past 64 KiB (a real shard's size class): many lanes, then
        // whatever tail the length leaves.
        let long = big.len() / 2;
        let (big_acc, big_src) = (&big[..long], &big[long..2 * long]);
        let coeff = (seed >> 8) as u8 | 2;
        for off in [0, 1, 15] {
            check_kernels(&big_acc[off..], &big_src[off..], coeff, (off, off));
        }
        // A `src` shorter than `acc` — the unpadded last slice of a
        // payload: the common prefix is multiplied, the rest stays.
        let mut got = big_acc.to_vec();
        mul_acc(&mut got, &big_src[..long - 21], coeff);
        check_kernels(&big_acc[..long - 21], &big_src[..long - 21], coeff, (0, 0));
        prop_assert!(got[long - 21..] == big_acc[long - 21..], "bytes past a short src moved");
    }
}

// ---------------------------------------------------------------------------
// The rows kernels. `gf256::rows_into` dispatches to the `gf2p8affineqb`
// kernel where the CPU has GFNI and AVX-512 and runs `rows_into_per_row`
// (each row its first product by `mul_into`, then one `mul_acc` pass per
// further source) elsewhere; `Code::parity_into` is the encoder over it.
// Both kernels must agree with the field's definition (`mul_bitwise`) on
// every coefficient, around the GFNI kernel's 64-byte block (it masks its
// loads and stores), at every alignment, with sources shorter than the
// rows or empty, and on rows that hold garbage before the call (a recycled
// buffer): every byte is written.
// ---------------------------------------------------------------------------

/// `TABLE[c][s] = c · s` from the bit-by-bit definition.
fn schoolbook_table() -> Vec<[u8; 256]> {
    (0..=255u8)
        .map(|c| {
            let mut row = [0u8; 256];
            for (s, p) in row.iter_mut().enumerate() {
                *p = mul_bitwise(c, s as u8);
            }
            row
        })
        .collect()
}

/// Run both rows kernels over poisoned rows of `len` bytes at offset
/// `row_off` and hold each to the schoolbook sum. `label` names a failure.
fn check_rows(
    table: &[[u8; 256]],
    len: usize,
    row_off: usize,
    srcs: &[&[u8]],
    coeffs: &[u8],
    label: &str,
) {
    let m = coeffs.len() / srcs.len().max(1);
    let want: Vec<Vec<u8>> = (0..m)
        .map(|i| {
            (0..len)
                .map(|k| {
                    srcs.iter().enumerate().fold(0u8, |acc, (j, s)| {
                        let x = s.get(k).copied().unwrap_or(0);
                        acc ^ table[coeffs[i * srcs.len() + j] as usize][x as usize]
                    })
                })
                .collect()
        })
        .collect();
    for (name, kernel) in [
        ("dispatch", rows_into as RowsKernel),
        ("per_row", rows_into_per_row),
    ] {
        let mut bufs: Vec<Vec<MaybeUninit<u8>>> = (0..m)
            .map(|_| vec![MaybeUninit::new(0xAA); row_off + len])
            .collect();
        let rows = kernel(
            bufs.iter_mut().map(|b| &mut b[row_off..]).collect(),
            srcs,
            coeffs,
        );
        assert_eq!(rows.len(), m);
        for (i, (got, want)) in rows.iter().zip(&want).enumerate() {
            assert!(
                got[..] == want[..],
                "{name} kernel ({}), {label}, row {i}, len {len}",
                rows_kernel()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]
    #[test]
    fn rows_kernels_equal_schoolbook(
        seed in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 3 * 400..3 * 400 + 1),
        big in proptest::collection::vec(any::<u8>(), 2 * 65_600..140_000),
    ) {
        let table = schoolbook_table();
        // Two rows over three sources: one as long as the rows, one short
        // by an amount that rotates with the length, one empty or short.
        // Every length 0..=300 (straddling the 64-byte block four times),
        // all 256 coefficients in every slot of the matrix as the length
        // advances, and the start offsets of rows and sources rotating
        // through all 64 positions of a block.
        let (a, rest) = data.split_at(400);
        let (b, c) = rest.split_at(400);
        for len in 0..=300usize {
            let base = (len as u8).wrapping_mul(7) ^ seed as u8;
            let coeffs: Vec<u8> = (0..6u8).map(|k| base.wrapping_add(k.wrapping_mul(43))).collect();
            let (s_off, r_off) = (len % 64, (len * 5 + (seed as usize >> 8)) % 64);
            let short = len.saturating_sub(1 + len % 70);
            let third = if len % 3 == 0 { 0 } else { len / 2 };
            let srcs: [&[u8]; 3] = [&a[s_off..s_off + len], &b[s_off..s_off + short], &c[..third]];
            check_rows(&table, len, r_off, &srcs, &coeffs, &format!("offsets {s_off}/{r_off}"));
        }
        // Every coefficient at one block and a tail, as the only source.
        for coeff in 0..=255u8 {
            let off = coeff as usize % 64;
            check_rows(&table, 100, off, &[&a[off..off + 100]], &[coeff], "single source");
        }
        // Past 64 KiB (a real shard's size class), at a few alignments.
        let long = big.len() / 2;
        let (x, y) = big.split_at(long);
        for off in [0usize, 1, 63] {
            let coeffs = [seed as u8, (seed >> 8) as u8 | 1, 1, (seed >> 16) as u8];
            let srcs: [&[u8]; 2] = [&x[off..], &y[off..long - 37]];
            check_rows(&table, long - off, off, &srcs, &coeffs, "past 64 KiB");
        }
    }

    /// `parity_into` writes exactly the parity shards `shard_into` writes
    /// one row at a time, both into buffers that held garbage: payloads of
    /// every length up to 300 bytes and past 64 KiB, at rotating start
    /// offsets, with short and empty last slices (a length under
    /// `n · (shard_len − 1)` leaves whole slices empty), on codes up to the
    /// n + m = 256 limit.
    #[test]
    fn parity_into_equals_shard_into_row_by_row(
        seed in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 70_000..70_001),
    ) {
        let check = |code: Code, payload: &[u8]| {
            let len = code.shard_len(payload.len()).expect("geometry");
            let shards = code.shards().expect("geometry");
            let m = code.parity_shards().expect("geometry");
            let mut bufs: Vec<Vec<MaybeUninit<u8>>> =
                (0..m).map(|_| vec![MaybeUninit::new(0xAA); len]).collect();
            let rows = bufs.iter_mut().map(|b| &mut b[..]).collect();
            let parity = code.parity_into(payload, rows).expect("parity");
            for (row, got) in parity.iter().enumerate() {
                let mut want = vec![MaybeUninit::new(0x5A); len];
                let want = code.shard_into(payload, shards - m + row, &mut want).expect("shard");
                assert!(
                    got[..] == want[..],
                    "{code:?}, {} bytes, parity row {row} ({})",
                    payload.len(),
                    rows_kernel()
                );
            }
        };
        for plen in 0..=300usize {
            let n = 1 + (plen + seed as usize) % 7;
            let m = 1 + plen % 4;
            let off = (plen * 13) % 64;
            let payload = &data[off..off + plen];
            check(Code::Rs { n, m }, payload);
            check(Code::Xor { n }, payload);
        }
        for (n, m) in [(252, 4), (128, 128), (2, 2), (3, 2)] {
            for plen in [0, 1, 300, 65_537, 69_999] {
                check(Code::Rs { n, m }, &data[1..1 + plen]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The writers into unwritten bytes against their initialised-slice oracles:
// `mul_into` against the schoolbook product, `shard_into` against slices
// of a zero-padded copy of the payload (a data shard) or `mul_acc` over
// zeroed rows (a parity shard), and `decode_with`, into a pool buffer and a
// `Vec`, against the payload itself. Lengths sit at and around the
// `pshufb` kernel's 16-byte lanes, the GFNI kernel's 64-byte blocks and
// the shard boundaries of every `n` up to 5.
// ---------------------------------------------------------------------------

/// Coefficient of data slice `j` in parity row `row` of a code with `n`
/// data shards: the parity shard of a one-byte-per-slice payload that is 1
/// in slice `j` and 0 elsewhere.
fn coeff(code: Code, n: usize, row: usize, j: usize) -> u8 {
    let mut unit = vec![0u8; n];
    unit[j] = 1;
    let mut out = [MaybeUninit::uninit(); 1];
    code.shard_into(&unit, n + row, &mut out)
        .expect("one-byte shard")[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn unwritten_byte_writers_equal_their_initialised_oracles(
        data in proptest::collection::vec(any::<u8>(), 5 * 130..5 * 130 + 1),
        seed in any::<usize>(),
    ) {
        let table = schoolbook_table();
        let cluster = Cluster::new(ClusterConfig::default());
        for len in (0..=2).chain(15..=17).chain(63..=65).chain(127..=129) {
            let c = (seed.wrapping_add(len * 37) % 256) as u8;
            let src = &data[len % 7..len % 7 + len];
            let mut out = vec![MaybeUninit::new(0xAA); len + 3];
            let got = mul_into(&mut out, &src[..len.saturating_sub(len % 3)], c);
            let mut want: Vec<u8> = src.iter().map(|s| table[c as usize][*s as usize]).collect();
            want.truncate(len.saturating_sub(len % 3));
            want.resize(len + 3, 0);
            prop_assert_eq!(&got[..], &want[..], "mul_into, len {}, coeff {}", len, c);
        }
        for n in 1..=5usize {
            let m = 1 + seed % 3;
            for code in [Code::Rs { n, m }, Code::Xor { n }] {
                let m = code.parity_shards().expect("geometry");
                for shard_len in (0..=2).chain(15..=17).chain(63..=65).chain([129]) {
                    for short in 0..n.min(shard_len.max(1)) {
                        let plen = (n * shard_len).saturating_sub(short);
                        let payload = &data[..plen];
                        let len = code.shard_len(plen).expect("geometry");
                        let mut padded = payload.to_vec();
                        padded.resize(n * len, 0);
                        for index in 0..n + m {
                            let mut out = vec![MaybeUninit::new(0xAA); len];
                            let got = code.shard_into(payload, index, &mut out).expect("shard");
                            let want = match index.checked_sub(n) {
                                None => padded[index * len..][..len].to_vec(),
                                Some(row) => {
                                    let mut acc = vec![0u8; len];
                                    for j in 0..n {
                                        mul_acc(&mut acc, &padded[j * len..][..len], coeff(code, n, row, j));
                                    }
                                    acc
                                }
                            };
                            prop_assert_eq!(&got[..], &want[..], "{:?}, {} bytes, shard {}", code, plen, index);
                        }
                        let mut slots: Vec<Option<Vec<u8>>> = (0..n + m)
                            .map(|index| {
                                let mut out = vec![MaybeUninit::uninit(); len];
                                Some(code.shard_into(payload, index, &mut out).expect("shard").to_vec())
                            })
                            .collect();
                        for k in 0..m {
                            slots[(seed + k * 2 + short) % (n + m)] = None;
                        }
                        let pool = cluster.pool();
                        let pooled = code.decode_with(&slots, plen, |len| pool.take(len)).expect("decode");
                        prop_assert_eq!(pool.share(pooled), payload.to_vec(), "{:?} into the pool, {} bytes", code, plen);
                        let mut vec = vec![9u8];
                        vec.reserve(plen);
                        let vec = code.decode_with(&slots, plen, |_| vec).expect("decode");
                        prop_assert_eq!(&vec[1..], payload, "{:?} into a Vec, {} bytes", code, plen);
                    }
                }
            }
        }
    }
}
