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
//! with their neighbours. Nothing of the allocator is persisted: the tree
//! is append-only, so after a restart every page no live component holds
//! is free, and [`RegionAllocator::around`] rebuilds the state from the
//! live regions alone.

use std::collections::BTreeMap;

use crate::error::{ComponentId, Result, StorageError};
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

    /// The allocator whose only allocations are `live`: below the highest
    /// live page, every page no live region holds is free. This is how
    /// recovery rebuilds the allocator from a manifest's components.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Corruption`] on the manifest if a region
    /// starts below `first_page`, overlaps another, or runs past the page
    /// space: a root like that would hand the same pages out twice.
    pub fn around(
        first_page: u64,
        live: impl IntoIterator<Item = Region>,
    ) -> Result<RegionAllocator> {
        let mut live: Vec<Region> = live.into_iter().collect();
        live.sort_by_key(|r| r.start.0);
        let mut a = RegionAllocator::new(first_page);
        for r in live {
            let end = r.start.0.checked_add(r.pages);
            let (Some(end), true) = (end, r.start.0 >= a.next_page) else {
                return Err(StorageError::corruption(
                    ComponentId::Manifest,
                    None,
                    format!("region {r:?} overlaps the manifest slots or another region"),
                ));
            };
            if r.start.0 > a.next_page {
                a.free.insert(a.next_page, r.start.0 - a.next_page);
            }
            a.next_page = end;
        }
        Ok(a)
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
    fn around_live_regions_equals_the_allocator_that_made_them() {
        let mut a = RegionAllocator::new(3);
        let r1 = a.alloc(5);
        let r2 = a.alloc(7);
        let r3 = a.alloc(2);
        let r4 = a.alloc(4);
        a.free(r1);
        a.free(r3);
        a.free(r4);
        assert_eq!(RegionAllocator::around(3, [r2]).unwrap(), a);
        assert_eq!(a.high_water(), r2.start.0 + r2.pages);
        assert_eq!(
            RegionAllocator::around(3, []).unwrap(),
            RegionAllocator::new(3)
        );
    }

    #[test]
    fn around_rejects_overlapping_or_reserved_regions() {
        let region = |start, pages| Region {
            start: PageId(start),
            pages,
        };
        for live in [
            vec![region(10, 5), region(14, 2)],
            vec![region(20, 4), region(10, 11)],
            vec![region(2, 4)],
            vec![region(10, u64::MAX)],
        ] {
            let err = RegionAllocator::around(3, live.clone()).unwrap_err();
            assert!(
                matches!(
                    err,
                    StorageError::Corruption {
                        component: ComponentId::Manifest,
                        ..
                    }
                ),
                "{live:?}: {err}"
            );
        }
        // Regions that merely touch are fine.
        let a = RegionAllocator::around(3, [region(3, 4), region(7, 1)]).unwrap();
        assert_eq!((a.high_water(), a.free_pages()), (8, 0));
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
