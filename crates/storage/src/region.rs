//! Region (extent) allocator.
//!
//! §4.4.2: "its region allocator allows us to allocate chunks of disk that
//! are guaranteed contiguous, eliminating the possibility of disk
//! fragmentation and other overheads inherent in general-purpose
//! filesystems." Tree components, the WAL and Bloom filter images each live
//! in contiguous page ranges handed out by this allocator, so sequential
//! scans of a component really are sequential on the device.
//!
//! Allocation is first-fit over a coalescing free list; freed regions merge
//! with their neighbours. The allocator's state is tiny and is persisted in
//! the manifest.

use std::collections::BTreeMap;

use crate::codec::{self, Reader};
use crate::error::Result;
use crate::page::PageId;

/// A contiguous run of pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First page of the region.
    pub start: PageId,
    /// Length in pages.
    pub pages: u64,
}

impl Region {
    /// Byte offset of the region start.
    pub fn offset(&self) -> u64 {
        self.start.offset()
    }

    /// The `i`-th page of the region. Panics if out of range.
    pub fn page(&self, i: u64) -> PageId {
        assert!(
            i < self.pages,
            "page {i} out of region of {} pages",
            self.pages
        );
        PageId(self.start.0 + i)
    }

    /// Iterator over the region's page ids.
    pub fn iter_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        (self.start.0..self.start.0 + self.pages).map(PageId)
    }
}

/// First-fit extent allocator with a coalescing free list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionAllocator {
    /// First page past all allocations (the device high-water mark).
    next_page: u64,
    /// Free extents: start page -> length in pages.
    free: BTreeMap<u64, u64>,
}

impl RegionAllocator {
    /// Creates an allocator whose first allocatable page is `first_page`
    /// (pages below that are reserved, e.g. for the manifest slots).
    pub fn new(first_page: u64) -> RegionAllocator {
        RegionAllocator {
            next_page: first_page,
            free: BTreeMap::new(),
        }
    }

    /// Allocates a contiguous region of `pages` pages.
    pub fn alloc(&mut self, pages: u64) -> Region {
        assert!(pages > 0, "cannot allocate an empty region");
        // First fit within the free list.
        let fit = self
            .free
            .iter()
            .find(|(_, &len)| len >= pages)
            .map(|(&s, &l)| (s, l));
        if let Some((start, len)) = fit {
            self.free.remove(&start);
            if len > pages {
                self.free.insert(start + pages, len - pages);
            }
            return Region {
                start: PageId(start),
                pages,
            };
        }
        // Extend the high-water mark.
        let start = self.next_page;
        self.next_page += pages;
        Region {
            start: PageId(start),
            pages,
        }
    }

    /// Returns a region to the free list, coalescing with neighbours.
    pub fn free(&mut self, region: Region) {
        let mut start = region.start.0;
        let mut len = region.pages;
        assert!(
            self.free.range(start..start + len).next().is_none(),
            "double free of pages around {start}"
        );
        // Coalesce with predecessor.
        if let Some((&ps, &pl)) = self.free.range(..start).next_back() {
            assert!(ps + pl <= start, "double free of pages around {start}");
            if ps + pl == start {
                self.free.remove(&ps);
                start = ps;
                len += pl;
            }
        }
        // Coalesce with successor.
        if let Some((&ss, &sl)) = self.free.range(start + len..).next() {
            if start + len == ss {
                self.free.remove(&ss);
                len += sl;
            }
        }
        // A free extent that reaches the high-water mark shrinks it.
        if start + len == self.next_page {
            self.next_page = start;
        } else {
            self.free.insert(start, len);
        }
    }

    /// First page past all allocations.
    pub fn high_water(&self) -> u64 {
        self.next_page
    }

    /// Total free pages currently tracked (excludes space past high-water).
    pub fn free_pages(&self) -> u64 {
        self.free.values().sum()
    }

    /// Serializes allocator state (for the manifest).
    pub fn encode(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.next_page);
        codec::put_varint(out, self.free.len() as u64);
        for (&start, &len) in &self.free {
            codec::put_varint(out, start);
            codec::put_varint(out, len);
        }
    }

    /// Deserializes allocator state.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`](crate::StorageError::InvalidFormat) if the reader runs out of
    /// bytes or a varint is malformed.
    pub fn decode(r: &mut Reader<'_>) -> Result<RegionAllocator> {
        let next_page = r.u64()?;
        let n = r.varint()?;
        let mut free = BTreeMap::new();
        for _ in 0..n {
            let start = r.varint()?;
            let len = r.varint()?;
            free.insert(start, len);
        }
        Ok(RegionAllocator { next_page, free })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn alloc_is_contiguous_and_disjoint() {
        let mut a = RegionAllocator::new(1);
        let r1 = a.alloc(4);
        let r2 = a.alloc(2);
        assert_eq!(r1.start, PageId(1));
        assert_eq!(r2.start, PageId(5));
        assert_eq!(a.high_water(), 7);
    }

    #[test]
    fn free_then_alloc_reuses_space() {
        let mut a = RegionAllocator::new(0);
        let r1 = a.alloc(4);
        let _r2 = a.alloc(4); // keeps high water up
        a.free(r1);
        let r3 = a.alloc(3);
        assert_eq!(r3.start, r1.start, "first-fit should reuse the freed hole");
        let r4 = a.alloc(1);
        assert_eq!(r4.start, PageId(3), "remainder of the hole");
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut a = RegionAllocator::new(0);
        let r1 = a.alloc(2);
        let r2 = a.alloc(2);
        let r3 = a.alloc(2);
        let _guard = a.alloc(1); // keep high water above r3
        a.free(r1);
        a.free(r3);
        assert_eq!(a.free_pages(), 4);
        a.free(r2); // bridges r1 and r3
        assert_eq!(a.free_pages(), 6);
        let big = a.alloc(6);
        assert_eq!(big.start, PageId(0), "coalesced hole satisfies a big alloc");
    }

    #[test]
    fn freeing_tail_shrinks_high_water() {
        let mut a = RegionAllocator::new(0);
        let r1 = a.alloc(2);
        let r2 = a.alloc(8);
        a.free(r2);
        assert_eq!(a.high_water(), 2);
        a.free(r1);
        assert_eq!(a.high_water(), 0);
        assert_eq!(a.free_pages(), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut a = RegionAllocator::new(3);
        let r1 = a.alloc(5);
        let _r2 = a.alloc(7);
        a.free(r1);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        let b = RegionAllocator::decode(&mut Reader::new(&buf)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn region_page_iteration() {
        let r = Region {
            start: PageId(10),
            pages: 3,
        };
        let pages: Vec<_> = r.iter_pages().collect();
        assert_eq!(pages, vec![PageId(10), PageId(11), PageId(12)]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = RegionAllocator::new(0);
        let r1 = a.alloc(2);
        let _r2 = a.alloc(2);
        a.free(r1);
        a.free(r1);
    }
}
