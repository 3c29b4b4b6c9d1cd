//! Fixed-size pages with checksums.
//!
//! Appendix A of the paper argues for small (4 KiB) data pages: 4 KiB is the
//! minimum SSD transfer size, minimizes transfer times, and improves cache
//! behaviour for workloads with poor locality. Index pages generally fit in
//! RAM and are sized by key length, not by the device.

use std::sync::Arc;

use crate::codec::crc32c;
use crate::device::Device;
use crate::error::{Result, StorageError};

/// Page size in bytes. The paper opts for 4 KiB pages (§5.3, Appendix A),
/// versus InnoDB's 16 KiB.
pub const PAGE_SIZE: usize = 4096;

/// Number of header bytes reserved at the start of every page:
/// `crc32c (4) | page_type (1) | reserved (3)`.
pub const PAGE_HEADER_LEN: usize = 8;

/// Usable payload bytes per page.
pub const PAGE_PAYLOAD_LEN: usize = PAGE_SIZE - PAGE_HEADER_LEN;

/// Identifies a page by its index on the device (byte offset / PAGE_SIZE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Byte offset of this page on the device.
    pub fn offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Page type tags stored in the header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageType {
    /// Unused / zeroed page.
    Free = 0,
    /// Sorted run data page (sstable leaf).
    Data = 1,
    /// Sstable index page.
    Index = 2,
    /// Sstable footer page.
    Footer = 3,
    /// Serialized Bloom filter page.
    Bloom = 4,
    /// B-Tree internal node (baseline engine).
    BTreeInternal = 5,
    /// B-Tree leaf node (baseline engine).
    BTreeLeaf = 6,
    /// Continuation of a record that spans multiple pages.
    Overflow = 7,
    /// Sorted run data page, v2 layout: same entry encoding as [`Data`]
    /// but with a trailing entry-offset table enabling in-page binary
    /// search. Spanning records never use this type.
    ///
    /// [`Data`]: PageType::Data
    DataV2 = 8,
}

impl PageType {
    /// Decodes a page type tag.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] on an unknown tag value.
    pub fn from_u8(v: u8) -> Result<PageType> {
        Ok(match v {
            0 => PageType::Free,
            1 => PageType::Data,
            2 => PageType::Index,
            3 => PageType::Footer,
            4 => PageType::Bloom,
            5 => PageType::BTreeInternal,
            6 => PageType::BTreeLeaf,
            7 => PageType::Overflow,
            8 => PageType::DataV2,
            _ => return Err(StorageError::InvalidFormat(format!("bad page type {v}"))),
        })
    }
}

/// A fixed-size page. Stored boxed so moving a `Page` never copies 4 KiB.
#[derive(Clone)]
pub struct Page {
    buf: Box<[u8; PAGE_SIZE]>,
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("type", &self.buf[4])
            .finish_non_exhaustive()
    }
}

impl Page {
    /// A zeroed page of type `ty`.
    pub fn new(ty: PageType) -> Page {
        let mut p = Page {
            buf: Box::new([0u8; PAGE_SIZE]),
        };
        p.buf[4] = ty as u8;
        p
    }

    /// The page's type tag.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if the header byte is not
    /// a known page type.
    pub fn page_type(&self) -> Result<PageType> {
        PageType::from_u8(self.buf[4])
    }

    /// Immutable payload (excludes the header).
    pub fn payload(&self) -> &[u8] {
        &self.buf[PAGE_HEADER_LEN..]
    }

    /// Mutable payload (excludes the header).
    pub fn payload_mut(&mut self) -> &mut [u8] {
        &mut self.buf[PAGE_HEADER_LEN..]
    }

    /// Raw page bytes including the header.
    pub fn raw(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// Recomputes and stores the checksum. Must be called before writeback.
    pub fn seal(&mut self) {
        let crc = crc32c(&self.buf[4..]);
        self.buf[..4].copy_from_slice(&crc.to_le_bytes());
    }

    /// Serializes to device bytes (seals first).
    pub fn to_bytes(mut self) -> [u8; PAGE_SIZE] {
        self.seal();
        *self.buf
    }

    /// Deserializes from device bytes, verifying the checksum.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] on a length mismatch and
    /// with [`StorageError::Corruption`] if the stored CRC does not
    /// match the page contents.
    pub fn from_bytes(bytes: &[u8], pid: PageId) -> Result<Page> {
        check_image(bytes, pid)?;
        let mut buf = Box::new([0u8; PAGE_SIZE]);
        buf.copy_from_slice(bytes);
        Ok(Page { buf })
    }

    /// Overwrites this page with the image stored at `pid` on `device`
    /// and verifies its checksum where it landed: a cache miss reads into
    /// a page buffer it already owns instead of copying a stack image
    /// into a fresh one. On error the contents are unspecified.
    ///
    /// # Errors
    ///
    /// Fails if the device read fails, and with
    /// [`StorageError::Corruption`] if the stored CRC does not match the
    /// page contents.
    pub(crate) fn read_from(&mut self, device: &dyn Device, pid: PageId) -> Result<()> {
        device.read_at(pid.offset(), &mut self.buf[..])?;
        check_image(&self.buf[..], pid)
    }
}

/// Checks a raw page image's length and stored CRC.
fn check_image(bytes: &[u8], pid: PageId) -> Result<()> {
    if bytes.len() != PAGE_SIZE {
        return Err(StorageError::InvalidFormat(format!(
            "page {pid} has length {}",
            bytes.len()
        )));
    }
    let stored = crate::codec::le_u32(&bytes[..4]);
    let actual = crc32c(&bytes[4..]);
    if stored != actual {
        return Err(StorageError::corruption(
            crate::error::ComponentId::Page,
            Some(pid.offset()),
            format!("page {pid} checksum mismatch: stored {stored:#x}, computed {actual:#x}"),
        ));
    }
    Ok(())
}

/// Verifies a raw page image in place, without copying it into a `Page`.
///
/// Returns the page type on success. This is the zero-copy counterpart of
/// [`Page::from_bytes`] for callers that keep the image inside a larger
/// shared buffer (e.g. a prefetched chunk) and slice payloads out of it.
///
/// # Errors
///
/// Fails with [`StorageError::InvalidFormat`] on a length mismatch or an
/// unknown page-type tag, and with [`StorageError::Corruption`] if the
/// stored CRC does not match the page contents.
pub fn verify_page_image(bytes: &[u8], pid: PageId) -> Result<PageType> {
    check_image(bytes, pid)?;
    PageType::from_u8(bytes[4])
}

impl AsRef<[u8]> for Page {
    fn as_ref(&self) -> &[u8] {
        &self.buf[..]
    }
}

/// Shared, immutable page handle as cached by the buffer pool.
pub type SharedPage = Arc<Page>;

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn page_roundtrip() {
        let mut p = Page::new(PageType::Data);
        p.payload_mut()[..5].copy_from_slice(b"hello");
        let bytes = p.to_bytes();
        let p2 = Page::from_bytes(&bytes, PageId(0)).unwrap();
        assert_eq!(p2.page_type().unwrap(), PageType::Data);
        assert_eq!(&p2.payload()[..5], b"hello");
    }

    #[test]
    fn checksum_catches_corruption() {
        let mut p = Page::new(PageType::Data);
        p.payload_mut()[0] = 42;
        let mut bytes = p.to_bytes();
        bytes[100] ^= 0xff;
        assert!(matches!(
            Page::from_bytes(&bytes, PageId(7)),
            Err(StorageError::Corruption {
                offset: Some(offset),
                ..
            }) if offset == PageId(7).offset()
        ));
    }

    #[test]
    fn page_id_offset() {
        assert_eq!(PageId(0).offset(), 0);
        assert_eq!(PageId(3).offset(), 3 * 4096);
    }

    #[test]
    fn all_page_types_roundtrip() {
        for ty in [
            PageType::Free,
            PageType::Data,
            PageType::Index,
            PageType::Footer,
            PageType::Bloom,
            PageType::BTreeInternal,
            PageType::BTreeLeaf,
            PageType::Overflow,
            PageType::DataV2,
        ] {
            assert_eq!(PageType::from_u8(ty as u8).unwrap(), ty);
        }
        assert!(PageType::from_u8(99).is_err());
    }

    #[test]
    fn verify_image_matches_from_bytes() {
        let mut p = Page::new(PageType::DataV2);
        p.payload_mut()[..3].copy_from_slice(b"abc");
        let bytes = p.to_bytes();
        assert_eq!(
            verify_page_image(&bytes, PageId(1)).unwrap(),
            PageType::DataV2
        );
        let mut bad = bytes;
        bad[200] ^= 1;
        assert!(matches!(
            verify_page_image(&bad, PageId(1)),
            Err(StorageError::Corruption { .. })
        ));
        assert!(verify_page_image(&bytes[..100], PageId(1)).is_err());
    }
}
