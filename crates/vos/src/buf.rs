//! A vendored `Bytes`-style shared byte buffer.
//!
//! [`Buf`] is the payload currency of the whole vos data plane: a
//! server's `write` lands in the peer stream's inbox as a `Buf`, a
//! `read` hands back a `Buf` sliced out of that inbox without copying,
//! and the *same* allocation is then reference-shared — not cloned —
//! into the MVE leader's `SyscallRecord`, across the event ring,
//! into the follower's identity comparison and into obs forensics.
//! Cloning and slicing are O(1) (an `Arc` refcount bump plus two
//! offsets); the bytes themselves are immutable once wrapped.
//!
//! Equality and hashing are by content, so `Buf` drops into record
//! types (`Syscall`, `SysRet`) that derive `PartialEq`/`Eq` for the
//! divergence check; equality takes a pointer-identity fast path when
//! both sides view the same region of the same allocation.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, RangeBounds};
use std::sync::{Arc, OnceLock};

/// The shared empty allocation behind [`Buf::new`], so empty buffers
/// (EOF reads, zero-byte writes) never allocate.
fn empty_storage() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..])).clone()
}

/// A cheaply cloneable, cheaply sliceable, immutable byte buffer.
#[derive(Clone)]
pub struct Buf {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl Buf {
    /// The empty buffer. Does not allocate.
    pub fn new() -> Self {
        Buf {
            data: empty_storage(),
            off: 0,
            len: 0,
        }
    }

    /// Wraps an owned vector without copying its contents.
    pub fn from_vec(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Buf::new();
        }
        let len = v.len();
        Buf {
            data: Arc::from(v),
            off: 0,
            len,
        }
    }

    /// Copies a slice into a fresh buffer — the single copy paid at the
    /// boundary where a caller hands the data plane a borrowed slice.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        if s.is_empty() {
            return Buf::new();
        }
        Buf {
            data: Arc::from(s),
            off: 0,
            len: s.len(),
        }
    }

    /// Number of bytes viewed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// A sub-view of this buffer sharing the same allocation. O(1).
    ///
    /// # Panics
    /// Panics if the range is out of bounds, mirroring slice indexing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Buf {
        use std::ops::Bound;
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
        assert!(start <= end && end <= self.len, "slice out of bounds");
        if start == end {
            return Buf::new();
        }
        Buf {
            data: self.data.clone(),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Splits off and returns the first `n` bytes, leaving the rest in
    /// `self`. O(1) — both halves share the allocation.
    ///
    /// # Panics
    /// Panics if `n > len`.
    pub fn split_to(&mut self, n: usize) -> Buf {
        assert!(n <= self.len, "split_to out of bounds");
        let head = self.slice(..n);
        self.off += n;
        self.len -= n;
        head
    }

    /// Drops the first `n` bytes from the view. O(1).
    ///
    /// # Panics
    /// Panics if `n > len`.
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len, "advance out of bounds");
        self.off += n;
        self.len -= n;
    }

    /// True when `self` and `other` are the *same view of the same
    /// allocation* — no bytes were copied between them. This is what the
    /// zero-copy identity tests assert across ring transit.
    pub fn ptr_eq(&self, other: &Buf) -> bool {
        Arc::ptr_eq(&self.data, &other.data) && self.off == other.off && self.len == other.len
    }

    /// True when `self` and `other` share the same backing allocation
    /// (possibly viewing different regions of it).
    pub fn same_storage(&self, other: &Buf) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Copies the viewed bytes into an owned vector (interop with APIs
    /// that demand `Vec<u8>`).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Buf {
    fn default() -> Self {
        Buf::new()
    }
}

impl Deref for Buf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Buf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Buf {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Buf {
    fn from(v: Vec<u8>) -> Self {
        Buf::from_vec(v)
    }
}

impl From<&[u8]> for Buf {
    fn from(s: &[u8]) -> Self {
        Buf::copy_from_slice(s)
    }
}

impl<const N: usize> From<&[u8; N]> for Buf {
    fn from(s: &[u8; N]) -> Self {
        Buf::copy_from_slice(s)
    }
}

impl PartialEq for Buf {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for Buf {}

impl PartialEq<[u8]> for Buf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Buf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Buf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Buf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Buf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Buf> for Vec<u8> {
    fn eq(&self, other: &Buf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Buf> for [u8] {
    fn eq(&self, other: &Buf) -> bool {
        self == other.as_slice()
    }
}

impl Hash for Buf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Buf {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Buf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for Buf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Buf({:?})", self.as_slice())
    }
}

impl FromIterator<u8> for Buf {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Buf::from_vec(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Buf {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffers_share_storage_and_compare() {
        let a = Buf::new();
        let b = Buf::from_vec(Vec::new());
        let c = Buf::copy_from_slice(&[]);
        assert!(a.same_storage(&b) && b.same_storage(&c));
        assert!(a.is_empty());
        assert_eq!(a, b);
        assert_eq!(a, Vec::<u8>::new());
    }

    #[test]
    fn from_vec_does_not_copy_semantics() {
        let b = Buf::from_vec(b"hello world".to_vec());
        assert_eq!(b.len(), 11);
        assert_eq!(b, b"hello world");
        assert_eq!(b.as_slice(), b"hello world");
    }

    #[test]
    fn clone_and_slice_share_the_allocation() {
        let b = Buf::from_vec(b"abcdefgh".to_vec());
        let c = b.clone();
        assert!(b.ptr_eq(&c));
        let mid = b.slice(2..6);
        assert_eq!(mid, b"cdef");
        assert!(mid.same_storage(&b));
        assert!(!mid.ptr_eq(&b));
        // Slicing the slice still shares.
        let inner = mid.slice(1..3);
        assert_eq!(inner, b"de");
        assert!(inner.same_storage(&b));
    }

    #[test]
    fn split_to_and_advance() {
        let mut b = Buf::from_vec(b"0123456789".to_vec());
        let head = b.split_to(4);
        assert_eq!(head, b"0123");
        assert_eq!(b, b"456789");
        assert!(head.same_storage(&b));
        b.advance(2);
        assert_eq!(b, b"6789");
        let rest = b.split_to(b.len());
        assert_eq!(rest, b"6789");
        assert!(b.is_empty());
    }

    #[test]
    fn equality_is_by_content_with_ptr_fast_path() {
        let a = Buf::from_vec(b"same".to_vec());
        let b = Buf::from_vec(b"same".to_vec());
        assert_eq!(a, b);
        assert!(!a.ptr_eq(&b));
        assert_ne!(a, Buf::from_vec(b"diff".to_vec()));
    }

    #[test]
    fn hash_matches_slice_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Buf::from_vec(b"key".to_vec()));
        assert!(set.contains(&b"key"[..]));
    }

    #[test]
    fn slice_bounds_checked() {
        let b = Buf::from_vec(b"abc".to_vec());
        assert!(std::panic::catch_unwind(|| b.slice(1..5)).is_err());
    }

    #[test]
    fn deref_gives_slice_ops() {
        let b = Buf::from_vec(b"GET k\r\n".to_vec());
        assert!(b.starts_with(b"GET"));
        assert_eq!(b.iter().filter(|c| **c == b'\r').count(), 1);
    }
}
