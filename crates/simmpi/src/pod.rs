//! Plain-old-data marshalling between typed slices and byte payloads.
//!
//! MPI moves raw bytes; the typed convenience API needs a cheap, safe-enough
//! bridge. `Pod` is restricted to primitive numeric types whose every bit
//! pattern is valid and which carry no padding, so the slice casts below are
//! sound. This mirrors what `bytemuck::Pod` provides without adding the
//! dependency.

use bytes::Bytes;

/// Types that can be viewed as raw bytes and reconstructed from them.
///
/// # Safety
///
/// Implementors must be `Copy`, have no padding bytes, no interior
/// mutability, and every bit pattern must be a valid value.
pub unsafe trait Pod: Copy + Send + Sync + 'static {}

// SAFETY: (this comment applies to every impl below, which cite it) each
// type is a primitive numeric —
// `Copy`, exactly `size_of` bytes with no padding, no interior mutability,
// no pointers/references, and every bit pattern is a valid value (for the
// floats, any bit pattern is some f32/f64, NaNs included).
unsafe impl Pod for u8 {}
// SAFETY: see the block comment above the u8 impl.
unsafe impl Pod for i8 {}
// SAFETY: see the block comment above the u8 impl.
unsafe impl Pod for u16 {}
// SAFETY: see the block comment above the u8 impl.
unsafe impl Pod for i16 {}
// SAFETY: see the block comment above the u8 impl.
unsafe impl Pod for u32 {}
// SAFETY: see the block comment above the u8 impl.
unsafe impl Pod for i32 {}
// SAFETY: see the block comment above the u8 impl.
unsafe impl Pod for u64 {}
// SAFETY: see the block comment above the u8 impl.
unsafe impl Pod for i64 {}
// SAFETY: usize is a fixed-width integer (platform word) with no padding;
// every bit pattern is a valid value.
unsafe impl Pod for usize {}
// SAFETY: see the block comment above the u8 impl.
unsafe impl Pod for f32 {}
// SAFETY: see the block comment above the u8 impl.
unsafe impl Pod for f64 {}

/// View a typed slice as its underlying bytes (zero copy).
pub fn as_bytes<T: Pod>(slice: &[T]) -> &[u8] {
    // SAFETY: T is Pod (no padding, all bit patterns valid), and u8 has
    // alignment 1, so reinterpreting the memory of the slice is sound.
    unsafe { std::slice::from_raw_parts(slice.as_ptr().cast::<u8>(), std::mem::size_of_val(slice)) }
}

/// The number of whole `T`s in `bytes`. Panics unless `bytes` starts at an
/// address aligned for `T` and holds a whole number of them.
fn whole<T: Pod>(bytes: &[u8]) -> usize {
    let sz = std::mem::size_of::<T>();
    assert!(
        bytes.as_ptr().cast::<T>().is_aligned() && bytes.len().is_multiple_of(sz),
        "{} bytes at {:p} are not a whole, aligned slice of {sz}-byte elements",
        bytes.len(),
        bytes.as_ptr()
    );
    bytes.len() / sz
}

/// View bytes as the typed slice they hold (zero copy). Panics unless
/// they are aligned for `T` and a whole number of `T`s long.
pub fn cast_slice<T: Pod>(bytes: &[u8]) -> &[T] {
    if bytes.is_empty() && !bytes.as_ptr().cast::<T>().is_aligned() {
        // Empty bytes may sit anywhere (an empty `Bytes` owns no storage).
        return &[];
    }
    let n = whole::<T>(bytes);
    // SAFETY: `whole` checked the start is aligned for T and the length is
    // `n` whole Ts; T is Pod, so every byte pattern is a valid value, and
    // the borrow of `bytes` carries over.
    unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), n) }
}

/// [`cast_slice`], mutably: writing any T leaves valid bytes behind.
pub fn cast_slice_mut<T: Pod>(bytes: &mut [u8]) -> &mut [T] {
    if bytes.is_empty() && !bytes.as_ptr().cast::<T>().is_aligned() {
        return &mut [];
    }
    let n = whole::<T>(bytes);
    // SAFETY: as in `cast_slice`; the unique borrow of `bytes` carries
    // over, and a T (Pod, no padding) written through it leaves every byte
    // initialised.
    unsafe { std::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast::<T>(), n) }
}

/// Copy a typed slice into an owned byte payload.
pub fn to_bytes<T: Pod>(slice: &[T]) -> Bytes {
    Bytes::copy_from_slice(as_bytes(slice))
}

/// Copy a byte payload into a typed buffer. Panics if lengths mismatch or
/// the payload length is not a multiple of `size_of::<T>()`.
pub fn copy_from_bytes<T: Pod>(dst: &mut [T], src: &[u8]) {
    let want = std::mem::size_of_val(dst);
    assert_eq!(
        src.len(),
        want,
        "payload is {} bytes but buffer wants {}",
        src.len(),
        want
    );
    // SAFETY: dst is Pod; writing arbitrary bytes over it yields valid values.
    let dst_bytes = unsafe { std::slice::from_raw_parts_mut(dst.as_mut_ptr().cast::<u8>(), want) };
    dst_bytes.copy_from_slice(src);
}

/// Decode a byte payload into a freshly allocated `Vec<T>`.
pub fn vec_from_bytes<T: Pod + Default>(src: &[u8]) -> Vec<T> {
    let sz = std::mem::size_of::<T>();
    assert!(
        src.len().is_multiple_of(sz),
        "payload length {} is not a multiple of element size {}",
        src.len(),
        sz
    );
    let mut v = vec![T::default(); src.len() / sz];
    copy_from_bytes(&mut v, src);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        let xs = [1.5f64, -2.25, 0.0, f64::MAX];
        let b = to_bytes(&xs);
        let mut ys = [0.0f64; 4];
        copy_from_bytes(&mut ys, &b);
        assert_eq!(xs, ys);
    }

    #[test]
    fn roundtrip_vec_u32() {
        let xs = vec![1u32, 2, 3, u32::MAX];
        let b = to_bytes(&xs);
        assert_eq!(vec_from_bytes::<u32>(&b), xs);
    }

    #[test]
    fn cast_slice_views_aligned_bytes_as_elements() {
        let xs = [1.5f64, -2.0, 3.25];
        let bytes = as_bytes(&xs);
        assert_eq!(cast_slice::<f64>(bytes), xs);
        assert_eq!(cast_slice::<u32>(&as_bytes(&xs)[8..16]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "not a whole, aligned slice")]
    fn cast_slice_refuses_a_misaligned_start() {
        let xs = [0u64; 2];
        cast_slice::<u64>(&as_bytes(&xs)[1..9]);
    }

    #[test]
    fn empty_bytes_cast_at_any_address() {
        let xs = [0u64; 2];
        let odd = &as_bytes(&xs)[1..1];
        assert!(cast_slice::<f64>(odd).is_empty());
        assert!(cast_slice::<u64>(&[]).is_empty());
    }

    #[test]
    fn empty_slice_is_empty_bytes() {
        let xs: [f64; 0] = [];
        assert!(to_bytes(&xs).is_empty());
    }

    #[test]
    #[should_panic(expected = "payload")]
    fn size_mismatch_panics() {
        let mut ys = [0.0f64; 2];
        copy_from_bytes(&mut ys, &[0u8; 9]);
    }

    #[test]
    fn bytes_are_little_endian_native() {
        let xs = [0x0102_0304u32];
        let b = to_bytes(&xs);
        assert_eq!(u32::from_ne_bytes([b[0], b[1], b[2], b[3]]), xs[0]);
    }
}
