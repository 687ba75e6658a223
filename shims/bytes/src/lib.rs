//! Offline stand-in for the `bytes` crate.
//!
//! Provides the [`Bytes`] subset this workspace uses: a cheaply cloneable,
//! immutable, sliceable byte buffer over one shared `Arc<Vec<u8>>`.
//!
//! What each operation costs in payload bytes:
//!
//! * **take ownership, O(1), no copy** — `From<Vec<u8>>`, `From<Box<[u8]>>`,
//!   `FromIterator<u8>` (the collected `Vec` is the buffer) and
//!   [`BytesMut::freeze`]. The bytes stay where the `Vec` had them; only the
//!   few words of the shared header are allocated.
//! * **copy once** — [`Bytes::copy_from_slice`], [`Bytes::from_static`] and
//!   `From<&'static [u8]>` (borrowed bytes have to be moved into owned
//!   storage), and [`Bytes::to_vec`] on the way out.
//! * **share** — `clone` and [`Bytes::slice`] bump a reference count.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// A cheaply cloneable slice of an immutable, shared byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// The empty buffer. Allocates the shared header (a few words), no
    /// payload storage.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// Copy a static slice into a new shared buffer — one copy; unlike the
    /// published crate this stand-in does not borrow `'static` data.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copy a slice into a new shared buffer — one copy.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-slice sharing this buffer's storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of bounds for Bytes of length {}",
            self.len
        );
        Bytes {
            data: Arc::clone(&self.data),
            off: self.off + start,
            len: end - start,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Takes ownership of the `Vec`'s buffer: O(1), the bytes do not move.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            data: Arc::new(v),
            off: 0,
            len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

/// Takes ownership of the box's buffer: O(1), the bytes do not move.
impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Bytes::from(v.into_vec())
    }
}

/// Collects into a `Vec` and takes ownership of it — no second copy.
impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == &other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes(len={})", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_slice_share_storage() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.len(), 3);
        let c = b.clone();
        assert_eq!(c, b);
        assert!(Arc::ptr_eq(&c.data, &s.data));
    }

    #[test]
    fn from_vec_and_freeze_take_ownership() {
        let v = vec![7u8; 4096];
        let before = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ref().as_ptr(), before, "From<Vec<u8>> moved the bytes");
        // Clones and slices still share that one buffer.
        assert_eq!(b.clone().as_ref().as_ptr(), before);
        assert_eq!(b.slice(16..32).as_ref().as_ptr(), before.wrapping_add(16));

        let mut m = BytesMut::with_capacity(64);
        m.put_slice(&[1, 2, 3, 4]);
        let before = m.as_ptr();
        let frozen = m.freeze();
        assert_eq!(frozen.as_ref().as_ptr(), before, "freeze moved the bytes");
        assert_eq!(frozen.slice(1..).as_ref().as_ptr(), before.wrapping_add(1));

        let boxed: Box<[u8]> = vec![9u8; 128].into_boxed_slice();
        let before = boxed.as_ptr();
        assert_eq!(Bytes::from(boxed).as_ref().as_ptr(), before);
    }

    #[test]
    fn open_ranges() {
        let b = Bytes::from(vec![9u8; 4]);
        assert_eq!(b.slice(..).len(), 4);
        assert_eq!(b.slice(2..).len(), 2);
        assert_eq!(b.slice(..1).len(), 1);
    }

    #[test]
    fn empty_and_static() {
        assert!(Bytes::new().is_empty());
        assert_eq!(&Bytes::from_static(b"abc")[..], b"abc");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_oob_panics() {
        Bytes::from(vec![0u8; 2]).slice(0..3);
    }
}

/// Write-side trait matching the subset of `bytes::BufMut` the workspace
/// uses (little-endian integer puts and slice appends).
pub trait BufMut {
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_slice(&mut self, src: &[u8]);
}

/// Growable byte buffer that freezes into a [`Bytes`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Hand the accumulated buffer over as a [`Bytes`]: O(1), no copy.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl BufMut for BytesMut {
    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod bytes_mut_tests {
    use super::*;

    #[test]
    fn put_and_freeze() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u32_le(7);
        b.put_u64_le(9);
        b.put_slice(b"xy");
        let frozen = b.freeze();
        assert_eq!(frozen.len(), 14);
        assert_eq!(&frozen[0..4], &7u32.to_le_bytes());
        assert_eq!(&frozen[12..], b"xy");
    }
}
