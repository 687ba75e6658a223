//! Property suite for the erasure codecs: encode → erase → decode must
//! round-trip bitwise for arbitrary payloads (zero-length and
//! non-shard-multiple sizes included), and erasures beyond the code's
//! tolerance must surface as a typed error — never a panic.

use proptest::prelude::*;
use redstore::codec::{rs_decode, rs_encode, xor_decode, xor_encode, CodecError};
use redstore::gf256::{mul_acc, mul_acc_portable, mul_bitwise};

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
