//! A Bloom-positive point lookup whose pages are all cached performs no
//! heap allocation: the leaf is searched in place and the value handed
//! back aliases the cached page (DESIGN.md §13).
//!
//! Its own test binary, because the counting allocator below is the
//! process's global allocator.

#![allow(clippy::unwrap_used, missing_debug_implementations)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;

use blsm_memtable::Versioned;
use blsm_sstable::SstableBuilder;
use blsm_storage::{BufferPool, MemDevice, PageId, Region};

thread_local! {
    /// Allocations made by this thread: the test harness's other threads
    /// do not disturb the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every operation is delegated to `System` unchanged; the
// thread-local counter is const-initialised and has no destructor, so
// touching it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RECORDS: u64 = 5_000;
const GETS: u64 = 10_000;

fn key(id: u64) -> Bytes {
    Bytes::from(format!("user{id:012}").into_bytes())
}

#[test]
fn a_cached_bloom_positive_get_allocates_nothing() {
    for value_size in [100usize, 1_000] {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDevice::new()), 4096));
        let region = Region {
            start: PageId(0),
            pages: 4096,
        };
        let mut b = SstableBuilder::new(pool, region, RECORDS);
        for id in 0..RECORDS {
            let value = Bytes::from(vec![(id % 251) as u8; value_size]);
            b.add(&key(id), &Versioned::put(id + 1, value)).unwrap();
        }
        let table = b.finish().unwrap();
        // Warm every leaf, and build the probe keys before counting.
        let keys: Vec<Bytes> = (0..GETS).map(|i| key(i * 7919 % RECORDS)).collect();
        for k in &keys {
            assert!(table.get(k).unwrap().is_some());
        }

        let before = ALLOCS.with(Cell::get);
        for k in &keys {
            std::hint::black_box(table.get(k).unwrap());
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(
            allocs, 0,
            "{allocs} heap allocations over {GETS} cached gets of {value_size}-byte values"
        );
    }
}
