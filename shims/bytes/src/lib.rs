//! Offline stand-in for the `bytes` crate.
//!
//! Provides the [`Bytes`] subset this workspace uses: a cheaply cloneable,
//! immutable, sliceable byte buffer over one shared owner of its storage —
//! a `Vec<u8>`, or whatever [`Bytes::from_owner`] was handed.
//!
//! What each operation costs in payload bytes:
//!
//! * **take ownership, O(1), no copy** — `From<Vec<u8>>`, `From<Box<[u8]>>`,
//!   `FromIterator<u8>` (the collected `Vec` is the buffer),
//!   [`BytesMut::freeze`] and [`Bytes::from_owner`]. The bytes stay where
//!   the owner had them; only the few words of the shared header are
//!   allocated. `From<Arc<[u8]>>` allocates nothing: the slice's own
//!   reference count is the handle's.
//! * **copy once** — [`Bytes::copy_from_slice`], [`Bytes::from_static`] and
//!   `From<&'static [u8]>` (borrowed bytes have to be moved into owned
//!   storage), and [`Bytes::to_vec`] on the way out.
//! * **share** — `clone` and [`Bytes::slice`] bump a reference count.
//! * **nothing** — an empty buffer ([`Bytes::new`], or an empty `Vec`),
//!   and a copied one of at most [`Bytes::INLINE`] bytes (a scalar
//!   reduction's contribution), has no owner: its bytes are held in the
//!   handle, 8-aligned, so it allocates nothing and its clones and slices
//!   copy at most that much.

// No host clock, threads or blocking waits (clippy.toml) and no hash-order
// iteration on a rank's path (DESIGN.md §10).
#![cfg_attr(
    not(test),
    deny(clippy::disallowed_methods, clippy::iter_over_hash_type)
)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// What a [`Bytes`] shares: the owner of its storage.
type Owner = dyn AsRef<[u8]> + Send + Sync;

/// A cheaply cloneable slice of an immutable, shared byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Bytes `off..off + len` of a shared owner's.
    Shared {
        owner: Arc<Owner>,
        off: usize,
        len: usize,
    },
    /// Bytes `off..off + len` of a reference-counted slice.
    Slice {
        data: Arc<[u8]>,
        off: usize,
        len: usize,
    },
    /// The first `len` bytes of `bytes`.
    Inline { len: u8, bytes: Aligned },
}

/// [`Bytes::INLINE`] bytes, 8-aligned like a `u64` or `f64` they may hold.
#[derive(Clone, Copy)]
#[repr(align(8))]
struct Aligned([u8; Bytes::INLINE]);

impl Bytes {
    /// The most bytes a handle holds itself, with no owner.
    pub const INLINE: usize = 16;

    /// The empty buffer. Allocates nothing.
    pub const fn new() -> Self {
        Bytes {
            repr: Repr::Inline {
                len: 0,
                bytes: Aligned([0; Bytes::INLINE]),
            },
        }
    }

    /// `data` held in the handle, if it fits.
    fn inline(data: &[u8]) -> Option<Self> {
        let len = u8::try_from(data.len())
            .ok()
            .filter(|&n| usize::from(n) <= Bytes::INLINE)?;
        let mut bytes = Aligned([0; Bytes::INLINE]);
        bytes.0.iter_mut().zip(data).for_each(|(b, d)| *b = *d);
        Some(Bytes {
            repr: Repr::Inline { len, bytes },
        })
    }

    /// Share `owner`'s bytes `off..off + len`.
    fn shared(owner: Arc<Owner>, off: usize, len: usize) -> Self {
        Bytes {
            repr: Repr::Shared { owner, off, len },
        }
    }

    /// Copy a static slice into a new shared buffer — one copy; unlike the
    /// published crate this stand-in does not borrow `'static` data.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copy a slice into a new shared buffer — one copy; into the handle
    /// itself when it is at most [`Self::INLINE`] bytes.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::inline(data).unwrap_or_else(|| Bytes::from(data.to_vec()))
    }

    /// Share `owner`'s bytes without copying them: O(1). `owner` is dropped
    /// when the last handle to it is, so its `Drop` can hand the storage
    /// back to whoever lent it. The published crate's `from_owner` (1.9 and
    /// later), except that the owner must also be `Sync` and its `as_ref`
    /// must return the same bytes on every call: this stand-in reads
    /// through it on each access instead of caching a pointer.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + Sync + 'static,
    {
        let len = owner.as_ref().len();
        Bytes::shared(Arc::new(owner), 0, len)
    }

    pub fn len(&self) -> usize {
        match self.repr {
            Repr::Shared { len, .. } | Repr::Slice { len, .. } => len,
            Repr::Inline { len, .. } => usize::from(len),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        match &self.repr {
            Repr::Shared { owner, off, .. } => {
                Bytes::shared(Arc::clone(owner), off + start, end - start)
            }
            Repr::Slice { data, off, .. } => Bytes {
                repr: Repr::Slice {
                    data: Arc::clone(data),
                    off: off + start,
                    len: end - start,
                },
            },
            Repr::Inline { .. } => Bytes::inline(&self[start..end]).unwrap_or_default(),
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
        match &self.repr {
            Repr::Shared { owner, off, len } => &(**owner).as_ref()[*off..off + len],
            Repr::Slice { data, off, len } => &data[*off..off + len],
            Repr::Inline { len, bytes } => &bytes.0[..usize::from(*len)],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

/// Takes ownership of the `Vec`'s buffer: O(1), the bytes do not move. An
/// empty `Vec` becomes [`Bytes::new`].
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        Bytes::shared(Arc::new(v), 0, len)
    }
}

/// Shares the slice as it is: O(1), and no allocation.
impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Self {
        let len = data.len();
        Bytes {
            repr: Repr::Slice { data, off: 0, len },
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
        write!(f, "Bytes(len={})", self.len())
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
        let (Repr::Shared { owner: c, .. }, Repr::Shared { owner: s, .. }) = (&c.repr, &s.repr)
        else {
            panic!("a buffer from a Vec has an owner");
        };
        assert!(Arc::ptr_eq(c, s));
    }

    #[test]
    fn short_copies_are_held_in_the_handle_aligned() {
        let inline = |b: &Bytes| matches!(b.repr, Repr::Inline { .. });
        for n in 0..=Bytes::INLINE + 1 {
            let data: Vec<u8> = (1..=n as u8).collect();
            let b = Bytes::copy_from_slice(&data);
            assert_eq!(&b[..], &data[..]);
            assert_eq!(inline(&b), n <= Bytes::INLINE, "{n} bytes");
            assert!(b.as_ptr().cast::<u64>().is_aligned());
            if n >= 4 {
                let s = b.slice(1..n - 1);
                assert_eq!(&s[..], &data[1..n - 1]);
                assert!(s.as_ptr().cast::<u64>().is_aligned() || !inline(&s));
            }
            assert_eq!(b.clone(), b);
        }
        // The inline bytes take no room of their own: a shared handle's
        // fat pointer, offset, length and variant tag are larger.
        assert_eq!(
            std::mem::size_of::<Bytes>(),
            5 * std::mem::size_of::<usize>()
        );
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
    fn from_owner_shares_the_owners_bytes_and_drops_it_with_the_last_handle() {
        use std::sync::atomic::{AtomicBool, Ordering};

        struct Lent(Vec<u8>, Arc<AtomicBool>);
        impl AsRef<[u8]> for Lent {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }
        impl Drop for Lent {
            fn drop(&mut self) {
                self.1.store(true, Ordering::SeqCst);
            }
        }

        let returned = Arc::new(AtomicBool::new(false));
        let v = vec![3u8; 256];
        let before = v.as_ptr();
        let b = Bytes::from_owner(Lent(v, Arc::clone(&returned)));
        assert_eq!(b.len(), 256);
        assert_eq!(b.as_ref().as_ptr(), before, "from_owner moved the bytes");
        let s = b.slice(8..16);
        drop(b);
        assert!(!returned.load(Ordering::SeqCst), "a slice still holds it");
        assert_eq!(&s[..], &[3u8; 8]);
        drop(s);
        assert!(returned.load(Ordering::SeqCst), "the last handle drops it");
    }

    #[test]
    fn a_counted_slice_is_shared_as_it_is() {
        let data: Arc<[u8]> = Arc::from(&[5u8, 6, 7, 8][..]);
        let at = data.as_ptr();
        let b = Bytes::from(Arc::clone(&data));
        let s = b.slice(1..3);
        assert_eq!((b.as_ptr(), &s[..]), (at, &[6u8, 7][..]));
        assert_eq!(s.as_ptr(), at.wrapping_add(1));
        assert_eq!(Arc::strong_count(&data), 3);
        drop((b, s));
        assert_eq!(Arc::strong_count(&data), 1);
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
        let ownerless = |b: Bytes| matches!(b.repr, Repr::Inline { len: 0, .. });
        assert!(ownerless(Bytes::new()), "the empty buffer has no owner");
        assert!(ownerless(Bytes::from(Vec::with_capacity(8))));
        assert_eq!(&Bytes::new().slice(..)[..], b"");
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
