//! Erasure codecs over opaque checkpoint payloads.
//!
//! A payload (one rank's packed checkpoint frame) is split into `n` equal
//! data shards (the last one zero-padded; the original length travels with
//! the commit) and extended with parity ([`Code`]):
//!
//! * [`Code::Xor`] — single XOR parity shard (`n+1`, tolerates 1 erasure),
//! * [`Code::Rs`] — `m` Reed–Solomon parity shards over GF(256) built
//!   from a Cauchy matrix (`n+m`, tolerates any `m` erasures — MDS).
//!
//! There is one encoder, [`Code::shard_into`]: it writes any one shard of a
//! payload into a buffer the caller owns, reading the payload where it lies
//! — which is how the store builds a wire frame in one pass — and one
//! decoder, [`Code::decode`], which borrows the survivors. [`xor_encode`],
//! [`rs_encode`], [`xor_decode`] and [`rs_decode`] are the same two over
//! one `Vec` per shard.
//!
//! Decoding never panics on bad inputs: missing too many shards or
//! inconsistent shard sizes surface as a typed [`CodecError`], because a
//! multi-failure that exceeds coverage is an expected runtime outcome the
//! resilience stack must convert into a clean job-level error.

use crate::gf256;

/// Typed codec failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer than `needed` shards survive: the erasure count exceeds the
    /// code's tolerance and the payload is unrecoverable.
    TooManyErasures { available: usize, needed: usize },
    /// A shard's length disagrees with the others (transport damage).
    ShardSizeMismatch { expected: usize, got: usize },
    /// Shard geometry is impossible (zero data shards, > 256 total, or a
    /// recorded original length that cannot fit the shards).
    BadGeometry(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::TooManyErasures { available, needed } => {
                write!(
                    f,
                    "unrecoverable: {available} shards survive, {needed} needed"
                )
            }
            CodecError::ShardSizeMismatch { expected, got } => {
                write!(f, "shard size mismatch: expected {expected}, got {got}")
            }
            CodecError::BadGeometry(msg) => write!(f, "bad shard geometry: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A systematic erasure code over `n` data shards. The two codes differ
/// only in their parity coefficients, so they share one encoder
/// ([`Code::shard_into`]) and one decoder ([`Code::decode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Code {
    /// One XOR parity shard (`n + 1`, tolerates 1 erasure): every
    /// coefficient is 1.
    Xor { n: usize },
    /// `m` Reed–Solomon parity shards over GF(256) built from a Cauchy
    /// matrix (`n + m`, tolerates any `m` erasures — MDS).
    Rs { n: usize, m: usize },
}

/// Cauchy coefficient of parity row `i` and data column `j` for an
/// `(n, m)` code: `1 / (x_i ⊕ y_j)` with `x_i = i`, `y_j = m + j`. The two
/// index sets are disjoint, so the denominator is never zero and every
/// square submatrix of the extended matrix is nonsingular (MDS).
fn cauchy(i: usize, j: usize, m: usize) -> u8 {
    gf256::inv((i as u8) ^ ((m + j) as u8))
}

impl Code {
    /// `(data shards, parity shards)`, or the typed error for a shape no
    /// code has. A shard's index travels as one byte and the Cauchy points
    /// are field elements, hence the limit of 256 shards.
    fn geometry(self) -> Result<(usize, usize), CodecError> {
        let (n, m) = match self {
            Code::Xor { n } => (n, 1),
            Code::Rs { n, m } => (n, m),
        };
        if n == 0 {
            return Err(CodecError::BadGeometry("zero data shards".into()));
        }
        if m == 0 {
            return Err(CodecError::BadGeometry("zero parity shards".into()));
        }
        if n.saturating_add(m) > 256 {
            return Err(CodecError::BadGeometry(format!(
                "{n}+{m} shards exceed the GF(256) limit"
            )));
        }
        Ok((n, m))
    }

    /// Data plus parity shards.
    pub fn shards(self) -> Result<usize, CodecError> {
        self.geometry().map(|(n, m)| n + m)
    }

    /// Length of every shard of a `payload_len`-byte payload.
    pub fn shard_len(self, payload_len: usize) -> Result<usize, CodecError> {
        self.geometry().map(|(n, _)| payload_len.div_ceil(n))
    }

    /// Coefficient of data column `j` in parity row `i`.
    fn coeff(self, i: usize, j: usize) -> u8 {
        match self {
            Code::Xor { .. } => 1,
            Code::Rs { m, .. } => cauchy(i, j, m),
        }
    }

    /// Row `index` of the generator matrix: identity for a data shard,
    /// the parity coefficients for a parity shard.
    fn generator_row(self, index: usize, n: usize) -> Vec<u8> {
        (0..n)
            .map(|j| match index.checked_sub(n) {
                None => (index == j) as u8,
                Some(row) => self.coeff(row, j),
            })
            .collect()
    }

    /// Write shard `index` of `payload`'s encoding into `out`, which must be
    /// one shard long and all zero. A data shard is one copy of its slice
    /// of the payload, the zero padding of the last one being what `out`
    /// already holds. A parity shard is accumulated in place from the
    /// payload's `n` slices, borrowed and unpadded: a short last slice
    /// contributes nothing past its end (`c · 0 = 0`).
    pub fn shard_into(
        self,
        payload: &[u8],
        index: usize,
        out: &mut [u8],
    ) -> Result<(), CodecError> {
        let (n, m) = self.geometry()?;
        let len = payload.len().div_ceil(n);
        if out.len() != len {
            return Err(CodecError::ShardSizeMismatch {
                expected: len,
                got: out.len(),
            });
        }
        // Past the payload's end the slices are empty.
        let mut slices = payload
            .chunks(len.max(1))
            .chain(std::iter::repeat(&[] as &[u8]))
            .take(n);
        match index.checked_sub(n) {
            None => {
                if let Some(slice) = slices.nth(index) {
                    out[..slice.len()].copy_from_slice(slice);
                }
            }
            Some(row) if row < m => {
                for (j, slice) in slices.enumerate() {
                    gf256::mul_acc(out, slice, self.coeff(row, j));
                }
            }
            Some(_) => {
                return Err(CodecError::BadGeometry(format!(
                    "shard {index} of a {n}+{m} code"
                )));
            }
        }
        Ok(())
    }

    /// Every shard of `payload`, data first, each in a buffer of its own.
    fn encode(self, payload: &[u8]) -> Result<Vec<Vec<u8>>, CodecError> {
        let len = self.shard_len(payload.len())?;
        (0..self.shards()?)
            .map(|index| {
                let mut shard = vec![0u8; len];
                self.shard_into(payload, index, &mut shard)?;
                Ok(shard)
            })
            .collect()
    }

    /// Reassemble a payload of `orig_len` bytes from one slot per shard
    /// (`None` = erased): any `n` survivors do. The survivors are borrowed;
    /// a surviving data shard is copied to its place in the one output
    /// buffer and a missing one is decoded straight into its place.
    pub fn decode<S: AsRef<[u8]>>(
        self,
        shards: &[Option<S>],
        orig_len: usize,
    ) -> Result<Vec<u8>, CodecError> {
        let (n, m) = self.geometry()?;
        if shards.len() != n + m {
            return Err(CodecError::BadGeometry(format!(
                "a {n}+{m} code expects {} slots, got {}",
                n + m,
                shards.len()
            )));
        }
        let survivors = shards
            .iter()
            .enumerate()
            .filter_map(|(index, s)| Some((index, s.as_ref()?.as_ref())));
        let picked: Vec<(usize, &[u8])> = survivors.clone().take(n).collect();
        if picked.len() < n {
            return Err(CodecError::TooManyErasures {
                available: survivors.count(),
                needed: n,
            });
        }
        let len = picked.first().map_or(0, |(_, s)| s.len());
        if let Some((_, odd)) = picked.iter().find(|(_, s)| s.len() != len) {
            return Err(CodecError::ShardSizeMismatch {
                expected: len,
                got: odd.len(),
            });
        }
        let capacity = n.saturating_mul(len);
        if orig_len > capacity {
            return Err(CodecError::BadGeometry(format!(
                "original length {orig_len} exceeds shard capacity {capacity}"
            )));
        }
        // Survivors come in slot order, so unless the picked ones are
        // exactly the data shards some data row has to be solved for.
        let inverse = if picked.iter().map(|(index, _)| *index).eq(0..n) {
            Vec::new()
        } else {
            let rows = picked
                .iter()
                .map(|(index, _)| self.generator_row(*index, n));
            invert(rows.collect()).ok_or_else(|| {
                CodecError::BadGeometry("singular decode matrix (corrupted shard set)".into())
            })?
        };
        let mut out = vec![0u8; capacity];
        for (row, place) in out.chunks_exact_mut(len.max(1)).enumerate() {
            match picked.iter().find(|(index, _)| *index == row) {
                Some((_, shard)) => place.copy_from_slice(shard),
                None => {
                    let coeffs = inverse.get(row).into_iter().flatten();
                    for (coeff, (_, shard)) in coeffs.zip(&picked) {
                        gf256::mul_acc(place, shard, *coeff);
                    }
                }
            }
        }
        out.truncate(orig_len);
        Ok(out)
    }
}

/// XOR encode: `n` data shards + 1 parity shard (tolerates 1 erasure).
pub fn xor_encode(payload: &[u8], n: usize) -> Result<Vec<Vec<u8>>, CodecError> {
    Code::Xor { n }.encode(payload)
}

/// XOR decode from `n + 1` slots (`None` = erased). At most one erasure is
/// recoverable.
pub fn xor_decode(
    shards: &[Option<Vec<u8>>],
    n: usize,
    orig_len: usize,
) -> Result<Vec<u8>, CodecError> {
    Code::Xor { n }.decode(shards, orig_len)
}

/// Reed–Solomon encode: `n` data shards + `m` Cauchy parity shards
/// (tolerates any `m` erasures).
pub fn rs_encode(payload: &[u8], n: usize, m: usize) -> Result<Vec<Vec<u8>>, CodecError> {
    Code::Rs { n, m }.encode(payload)
}

/// Reed–Solomon decode from `n + m` slots (`None` = erased). Any `n`
/// surviving shards reconstruct the payload.
pub fn rs_decode(
    shards: &[Option<Vec<u8>>],
    n: usize,
    m: usize,
    orig_len: usize,
) -> Result<Vec<u8>, CodecError> {
    Code::Rs { n, m }.decode(shards, orig_len)
}

/// Invert a square GF(256) matrix given by rows: Gauss–Jordan on the
/// augmented rows `[A | I]`. Returns `None` when singular — impossible for
/// Cauchy-derived submatrices, but decode treats it as a typed error
/// anyway rather than trusting the proof.
fn invert(rows: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let n = rows.len();
    let mut aug: Vec<Vec<u8>> = rows
        .into_iter()
        .enumerate()
        .map(|(i, mut row)| {
            row.extend((0..n).map(|j| (i == j) as u8));
            row
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| {
            aug.get(r)
                .and_then(|row| row.get(col))
                .is_some_and(|x| *x != 0)
        })?;
        aug.swap(col, pivot);
        let (above, rest) = aug.split_at_mut(col);
        let (pivot_row, below) = rest.split_first_mut()?;
        let scale = gf256::inv(*pivot_row.get(col)?);
        for x in pivot_row.iter_mut() {
            *x = gf256::mul(*x, scale);
        }
        for row in above.iter_mut().chain(below) {
            let factor = *row.get(col)?;
            gf256::mul_acc(row, pivot_row, factor);
        }
    }
    Some(aug.into_iter().map(|mut row| row.split_off(n)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 37 + 11) as u8).collect()
    }

    #[test]
    fn data_shards_are_the_padded_payload_and_decode_truncates() {
        let p = payload(10);
        let shards = xor_encode(&p, 3).unwrap();
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.len() == 4));
        assert_eq!(shards[..3].concat(), [&p[..], &[0, 0]].concat());
        let slots: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        assert_eq!(xor_decode(&slots, 3, 10).unwrap(), p);
        assert!(matches!(
            xor_decode(&slots, 3, 13),
            Err(CodecError::BadGeometry(_))
        ));
    }

    #[test]
    fn a_payload_shorter_than_the_shard_count_leaves_empty_slices() {
        // One byte over two data shards: shard 1 is all padding, and both
        // parity rows see an empty second slice.
        let encoded = rs_encode(&[0xAB], 2, 2).unwrap();
        assert_eq!(encoded[0], [0xAB]);
        assert_eq!(encoded[1], [0]);
        let mut slots: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        slots[0] = None;
        slots[1] = None;
        assert_eq!(rs_decode(&slots, 2, 2, 1).unwrap(), [0xAB]);
    }

    #[test]
    fn shard_into_checks_the_buffer_and_the_index() {
        let code = Code::Rs { n: 2, m: 2 };
        let p = payload(9);
        assert_eq!(code.shard_len(p.len()), Ok(5));
        assert_eq!(
            code.shard_into(&p, 2, &mut [0; 4]),
            Err(CodecError::ShardSizeMismatch {
                expected: 5,
                got: 4
            })
        );
        assert!(matches!(
            code.shard_into(&p, 4, &mut [0; 5]),
            Err(CodecError::BadGeometry(_))
        ));
    }

    #[test]
    fn xor_recovers_any_single_erasure() {
        let p = payload(100);
        for hole in 0..4 {
            let mut shards: Vec<Option<Vec<u8>>> =
                xor_encode(&p, 3).unwrap().into_iter().map(Some).collect();
            shards[hole] = None;
            assert_eq!(xor_decode(&shards, 3, 100).unwrap(), p, "hole {hole}");
        }
    }

    #[test]
    fn xor_two_erasures_is_typed_error() {
        let p = payload(64);
        let mut shards: Vec<Option<Vec<u8>>> =
            xor_encode(&p, 3).unwrap().into_iter().map(Some).collect();
        shards[0] = None;
        shards[2] = None;
        assert_eq!(
            xor_decode(&shards, 3, 64),
            Err(CodecError::TooManyErasures {
                available: 2,
                needed: 3
            })
        );
    }

    #[test]
    fn rs_recovers_any_m_erasures() {
        let (n, m) = (3, 2);
        let p = payload(257); // non-multiple of n
        let encoded = rs_encode(&p, n, m).unwrap();
        for a in 0..n + m {
            for b in a + 1..n + m {
                let mut shards: Vec<Option<Vec<u8>>> = encoded.iter().cloned().map(Some).collect();
                shards[a] = None;
                shards[b] = None;
                assert_eq!(rs_decode(&shards, n, m, 257).unwrap(), p, "holes {a},{b}");
            }
        }
    }

    #[test]
    fn rs_zero_length_payload_roundtrips() {
        let encoded = rs_encode(&[], 2, 2).unwrap();
        let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        assert_eq!(rs_decode(&shards, 2, 2, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rs_exceeding_tolerance_is_typed_error() {
        let p = payload(40);
        let mut shards: Vec<Option<Vec<u8>>> =
            rs_encode(&p, 2, 1).unwrap().into_iter().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        assert!(matches!(
            rs_decode(&shards, 2, 1, 40),
            Err(CodecError::TooManyErasures {
                available: 1,
                needed: 2
            })
        ));
    }

    #[test]
    fn mismatched_shard_sizes_are_typed_errors() {
        let mut shards: Vec<Option<Vec<u8>>> = rs_encode(&payload(40), 2, 2)
            .unwrap()
            .into_iter()
            .map(Some)
            .collect();
        shards[3].as_mut().unwrap().push(0);
        shards[0] = None; // decode must pick shards 1, 2 … and the bad 3
        shards[1] = None;
        assert!(matches!(
            rs_decode(&shards, 2, 2, 40),
            Err(CodecError::ShardSizeMismatch { .. })
        ));
    }

    #[test]
    fn geometry_errors_are_typed() {
        assert!(matches!(
            xor_encode(b"x", 0),
            Err(CodecError::BadGeometry(_))
        ));
        assert!(matches!(
            rs_encode(b"x", 200, 100),
            Err(CodecError::BadGeometry(_))
        ));
        assert!(matches!(
            rs_encode(b"x", 2, 0),
            Err(CodecError::BadGeometry(_))
        ));
        assert!(matches!(
            xor_decode(&[None, None], 3, 0),
            Err(CodecError::BadGeometry(_))
        ));
    }
}
