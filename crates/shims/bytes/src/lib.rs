//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small slice of the `bytes` API it actually uses: an
//! immutable, cheaply-cloneable byte buffer backed by `Arc<[u8]>`.
//! Clones share the allocation, exactly like upstream `Bytes` — the
//! property the NAND model relies on ("reading hands back cheap clones").
//! [`Bytes::try_into_mut`] and [`BytesMut::freeze`] round-trip a uniquely
//! owned buffer through a mutable view without copying, as upstream's do.

use std::borrow::Borrow;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Reference-counted immutable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// Empty buffer (no allocation shared with anything else).
    pub fn new() -> Self {
        Bytes { data: Arc::from(&[][..]) }
    }

    /// Wrap a static slice (copies; the zero-copy trick is irrelevant here).
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes { data: Arc::from(bytes) }
    }

    /// Copy an arbitrary slice into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes { data: Arc::from(data) }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.data.to_vec()
    }

    /// Convert into a [`BytesMut`] without copying if this is the only
    /// handle to the allocation; otherwise hand `self` back unchanged.
    pub fn try_into_mut(mut self) -> Result<BytesMut, Bytes> {
        if Arc::get_mut(&mut self.data).is_some() {
            Ok(BytesMut { data: self.data })
        } else {
            Err(self)
        }
    }
}

/// Uniquely owned, mutable byte buffer of fixed length (the shim covers
/// in-place edits, not upstream's growable API).
#[derive(PartialEq, Eq)]
pub struct BytesMut {
    /// Invariant: the only handle to this allocation, so
    /// `Arc::get_mut` always succeeds.
    data: Arc<[u8]>,
}

impl BytesMut {
    /// A buffer of `len` zero bytes.
    pub fn zeroed(len: usize) -> Self {
        BytesMut { data: Arc::from(vec![0u8; len]) }
    }

    /// Make the buffer immutable and shareable, without copying.
    pub fn freeze(self) -> Bytes {
        Bytes { data: self.data }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.data).expect("BytesMut is the only handle to its allocation")
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        self
    }
}

impl From<&[u8]> for BytesMut {
    fn from(s: &[u8]) -> Self {
        BytesMut { data: Arc::from(s) }
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.data.len())
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Self {
        Bytes::copy_from_slice(s)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<str> for Bytes {
    fn eq(&self, other: &str) -> bool {
        self[..] == *other.as_bytes()
    }
}

impl PartialEq<&str> for Bytes {
    fn eq(&self, other: &&str) -> bool {
        self[..] == *other.as_bytes()
    }
}

impl PartialEq<String> for Bytes {
    fn eq(&self, other: &String) -> bool {
        self[..] == *other.as_bytes()
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.data.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;

    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_storage() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.data, &b.data));
    }

    #[test]
    fn slice_semantics() {
        let a = Bytes::copy_from_slice(b"hello");
        assert_eq!(&a[..], b"hello");
        assert_eq!(a.len(), 5);
        assert!(!a.is_empty());
        assert!(Bytes::new().is_empty());
        assert_eq!(a.to_vec(), b"hello".to_vec());
    }

    #[test]
    fn unique_buffers_round_trip_through_mut_without_copying() {
        let a = Bytes::from(vec![1, 2, 3]);
        let ptr = a.as_ptr();
        let mut m = a.try_into_mut().expect("unique");
        m[0] = 9;
        let a = m.freeze();
        assert_eq!(a, vec![9, 2, 3]);
        assert_eq!(a.as_ptr(), ptr, "no copy");

        let shared = a.clone();
        let back = a.try_into_mut().expect_err("shared buffers stay immutable");
        assert!(Arc::ptr_eq(&back.data, &shared.data));
        let mut copy = BytesMut::from(&back[..]);
        copy[1] = 0;
        assert_eq!(shared, vec![9, 2, 3]);
        assert_eq!(&BytesMut::zeroed(2)[..], &[0, 0]);
    }

    #[test]
    fn equality_against_plain_buffers() {
        let a = Bytes::from_static(b"xy");
        assert_eq!(a, *b"xy".as_slice());
        assert_eq!(a, vec![b'x', b'y']);
    }
}
