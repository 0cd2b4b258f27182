//! Cheaply-cloneable, refcounted, immutable byte buffer.
//!
//! The forwarding fast path receives a frame once, decodes it, and sends
//! the payload onward — possibly to several neighbors. With `Vec<u8>`
//! payloads every hop deep-copies; with [`Bytes`] a clone is an atomic
//! refcount bump and a forwarded payload is a view into the original read
//! buffer. Slicing ([`Bytes::slice`]) shares the same allocation, so the
//! TCP ingest path can freeze one socket read and hand out zero-copy
//! payload windows for every PDU inside it.
//!
//! Trade-off, by design: a small payload sliced from a large read batch
//! keeps the whole batch alive until the last PDU referencing it drops.
//! Read batches are bounded (one socket buffer), so the pinned memory is
//! bounded too; see DESIGN.md "Data-path performance".

use std::sync::Arc;

/// An immutable, refcounted byte buffer. Cloning and slicing are O(1) and
/// never copy the underlying bytes.
#[derive(Clone)]
pub struct Bytes {
    /// `None` encodes the empty buffer without touching an allocation.
    data: Option<Arc<Vec<u8>>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// The empty buffer (no allocation).
    pub fn new() -> Bytes {
        Bytes { data: None, off: 0, len: 0 }
    }

    /// Takes ownership of a `Vec` without copying it.
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        if v.is_empty() {
            return Bytes::new();
        }
        let len = v.len();
        Bytes { data: Some(Arc::new(v)), off: 0, len }
    }

    /// Copies a slice into a fresh buffer (the one unavoidable copy when
    /// the source is borrowed).
    pub fn copy_from_slice(s: &[u8]) -> Bytes {
        Bytes::from_vec(s.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.data {
            Some(d) => &d[self.off..self.off + self.len],
            None => &[],
        }
    }

    /// A zero-copy sub-window sharing this buffer's allocation.
    ///
    /// # Panics
    /// If the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Bytes {
        assert!(start <= end && end <= self.len, "Bytes::slice out of bounds");
        if start == end {
            return Bytes::new();
        }
        Bytes { data: self.data.clone(), off: self.off + start, len: end - start }
    }

    /// Copies out to an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Number of strong references to the underlying allocation (1 for
    /// unshared; 0 for the empty buffer). Test/diagnostic aid.
    pub fn ref_count(&self) -> usize {
        self.data.as_ref().map_or(0, Arc::strong_count)
    }

    /// Length of the whole allocation this window keeps alive (0 for the
    /// empty buffer). Test/diagnostic aid.
    pub fn backing_len(&self) -> usize {
        self.data.as_ref().map_or(0, |d| d.len())
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

// Equality and hashing are content-based: two buffers with the same bytes
// compare equal regardless of how the storage is shared or offset.
impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::copy_from_slice(s)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        // If we hold the only reference and span the whole allocation the
        // Vec can be recovered without copying.
        match b.data {
            Some(arc) if b.off == 0 => match Arc::try_unwrap(arc) {
                Ok(mut v) => {
                    v.truncate(b.len);
                    v
                }
                Err(arc) => arc[b.off..b.off + b.len].to_vec(),
            },
            Some(arc) => arc[b.off..b.off + b.len].to_vec(),
            None => Vec::new(),
        }
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from_vec(vec![1, 2, 3, 4]);
        let b = a.clone();
        assert_eq!(a.ref_count(), 2);
        assert_eq!(a, b);
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    #[test]
    fn slice_is_zero_copy() {
        let a = Bytes::from_vec((0..100).collect());
        let s = a.slice(10, 20);
        assert_eq!(s.len(), 10);
        assert_eq!(s.as_slice(), &a.as_slice()[10..20]);
        assert_eq!(s.as_slice().as_ptr(), a.as_slice()[10..].as_ptr());
        // Nested slices re-base correctly.
        let s2 = s.slice(2, 5);
        assert_eq!(s2.as_slice(), &a.as_slice()[12..15]);
    }

    #[test]
    fn empty_has_no_allocation() {
        let e = Bytes::new();
        assert!(e.is_empty());
        assert_eq!(e.ref_count(), 0);
        assert_eq!(Bytes::from_vec(Vec::new()).ref_count(), 0);
        let z = Bytes::from_vec(vec![1]).slice(1, 1);
        assert!(z.is_empty());
    }

    #[test]
    fn equality_is_content_based() {
        let a = Bytes::from_vec(vec![9, 9, 5, 6, 9]);
        assert_eq!(a.slice(2, 4), Bytes::from_vec(vec![5, 6]));
        assert_eq!(a.slice(2, 4), vec![5u8, 6]);
        assert_eq!(a.slice(2, 4), [5u8, 6]);
        assert_ne!(a.slice(0, 2), a.slice(2, 4));
    }

    #[test]
    fn into_vec_recovers_unique_allocation() {
        let v = vec![1u8, 2, 3];
        let ptr = v.as_ptr();
        let b = Bytes::from_vec(v);
        let back: Vec<u8> = b.into();
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!(back.as_ptr(), ptr);
    }

    #[test]
    fn out_of_bounds_slice_panics() {
        let a = Bytes::from_vec(vec![1, 2, 3]);
        assert!(std::panic::catch_unwind(|| a.slice(1, 5)).is_err());
    }
}
