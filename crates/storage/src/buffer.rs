//! Sharded buffer pool with CLOCK (second-chance) eviction.
//!
//! Stasis — the substrate the original bLSM was built on — replaced LRU with
//! CLOCK because LRU was a concurrency bottleneck, and added a writeback
//! policy providing "predictable latencies and high-bandwidth sequential
//! writes" (§4.4.2). We keep both properties: eviction uses second-chance
//! reference bits, and [`BufferPool::flush`] writes dirty pages in page-id
//! order so the device sees mostly-sequential I/O.
//!
//! The pool is split into independent CLOCK **shards**, each behind its own
//! mutex, with the shard chosen by a multiplicative hash of the `PageId`.
//! Concurrent readers on different shards never contend, which matters
//! because every disk-backed `get`/`scan` passes through here — with one
//! global lock the pool was the residual serial section left after the
//! tree-level read path went lock-free. Statistics are plain atomic
//! counters, so [`BufferPool::stats`] never takes a lock either. Small
//! pools (below [`MIN_PAGES_PER_SHARD`] per shard) collapse to a single
//! shard, preserving exact global CLOCK semantics where capacity is tight.
//!
//! Pages are cached as `Arc<Page>`: readers keep a page alive independent of
//! the cache, so eviction never invalidates an outstanding reference and no
//! pin counts are needed.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::device::SharedDevice;
use crate::error::Result;
use crate::page::{Page, PageId, SharedPage, PAGE_SIZE};

/// Maximum number of CLOCK shards.
pub const MAX_SHARDS: usize = 16;

/// Minimum per-shard capacity before the pool stops splitting. Tiny shards
/// evict erratically (a single hot page can thrash a 4-page shard), so the
/// pool only shards when each shard still holds a useful working set.
pub const MIN_PAGES_PER_SHARD: usize = 64;

/// Counters the pool keeps; cache hit rate drives every experiment in §5.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Reads served from cache.
    pub hits: u64,
    /// Reads that went to the device.
    pub misses: u64,
    /// Frames evicted.
    pub evictions: u64,
    /// Dirty pages written back (on eviction or flush).
    pub writebacks: u64,
}

/// Lock-free counter cell backing [`PoolStats`]. Monotonic counters sampled
/// for reporting: a reader that misses the latest bump sees a momentarily
/// stale total, which all callers tolerate (same discipline as
/// `core::stats`).
#[derive(Default)]
struct AtomicPoolStats {
    hits: AtomicU64,       // ordering: Relaxed (statistic; snapshots may tear)
    misses: AtomicU64,     // ordering: Relaxed (statistic; snapshots may tear)
    evictions: AtomicU64,  // ordering: Relaxed (statistic; snapshots may tear)
    writebacks: AtomicU64, // ordering: Relaxed (statistic; snapshots may tear)
}

impl AtomicPoolStats {
    fn snapshot(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }
}

struct Frame {
    page: SharedPage,
    referenced: bool,
    dirty: bool,
}

struct ShardInner {
    frames: HashMap<PageId, Frame>,
    /// CLOCK order; may contain stale ids for pages already discarded.
    clock: VecDeque<PageId>,
}

struct Shard {
    /// Page budget for this shard; eviction triggers past this.
    capacity: usize,
    inner: Mutex<ShardInner>,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            capacity,
            inner: Mutex::new(ShardInner {
                frames: HashMap::new(),
                clock: VecDeque::new(),
            }),
        }
    }
}

/// A page cache over a [`SharedDevice`].
pub struct BufferPool {
    device: SharedDevice,
    capacity: usize,
    /// Power-of-two number of shards; index derived from the PageId hash.
    shards: Box<[Shard]>,
    stats: AtomicPoolStats,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

/// Power-of-two shard count keeping every shard at or above
/// [`MIN_PAGES_PER_SHARD`] pages, capped at [`MAX_SHARDS`].
fn shard_count_for(capacity: usize) -> usize {
    let mut n = 1;
    while n < MAX_SHARDS && capacity / (n * 2) >= MIN_PAGES_PER_SHARD {
        n *= 2;
    }
    n
}

impl BufferPool {
    /// Creates a pool caching at most `capacity` pages, with the shard
    /// count chosen automatically from the capacity.
    pub fn new(device: SharedDevice, capacity: usize) -> BufferPool {
        let shards = shard_count_for(capacity);
        BufferPool::with_shards(device, capacity, shards)
    }

    /// Creates a pool with an explicit shard count (rounded up to a power
    /// of two). Used by tests that need deterministic shard placement.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    pub fn with_shards(device: SharedDevice, capacity: usize, shards: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        assert!(shards > 0, "buffer pool needs at least one shard");
        let nshards = shards.next_power_of_two();
        let per_shard = capacity.div_ceil(nshards);
        let shards: Vec<Shard> = (0..nshards).map(|_| Shard::new(per_shard)).collect();
        BufferPool {
            device,
            capacity,
            shards: shards.into_boxed_slice(),
            stats: AtomicPoolStats::default(),
        }
    }

    /// The shard caching `pid`. Fibonacci (multiplicative) hash: sequential
    /// page ids — the common case for a chunk-written sstable — spread
    /// evenly instead of striding one shard.
    fn shard(&self, pid: PageId) -> &Shard {
        let h = pid.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let idx = (h >> 32) as usize & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// The device this pool caches.
    pub fn device(&self) -> &SharedDevice {
        &self.device
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of CLOCK shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Reads a page, from cache if possible.
    ///
    /// # Errors
    ///
    /// Fails if the device read fails, the page's checksum does not
    /// verify, or a dirty victim cannot be written back during eviction.
    pub fn read(&self, pid: PageId) -> Result<SharedPage> {
        let shard = self.shard(pid);
        {
            let mut inner = shard.inner.lock();
            if let Some(frame) = inner.frames.get_mut(&pid) {
                frame.referenced = true;
                let page = frame.page.clone();
                drop(inner);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(page);
            }
        }
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        // Read outside the lock: single-writer engines never race here, and
        // a duplicate read under concurrency is correct (last insert wins).
        let mut buf = [0u8; PAGE_SIZE];
        self.device.read_at(pid.offset(), &mut buf)?;
        let page = SharedPage::new(Page::from_bytes(&buf, pid)?);
        let mut inner = shard.inner.lock();
        self.insert_frame(shard, &mut inner, pid, page.clone(), false)?;
        Ok(page)
    }

    /// Installs a new or modified page as dirty. The page is sealed
    /// (checksummed) immediately; writeback happens on eviction or
    /// [`flush`](Self::flush).
    ///
    /// # Errors
    ///
    /// Fails if making room requires evicting a dirty page and that
    /// writeback fails.
    pub fn write(&self, pid: PageId, mut page: Page) -> Result<()> {
        page.seal();
        let shard = self.shard(pid);
        let mut inner = shard.inner.lock();
        self.insert_frame(shard, &mut inner, pid, SharedPage::new(page), true)
    }

    fn insert_frame(
        &self,
        shard: &Shard,
        inner: &mut ShardInner,
        pid: PageId,
        page: SharedPage,
        dirty: bool,
    ) -> Result<()> {
        match inner.frames.get_mut(&pid) {
            Some(frame) => {
                frame.page = page;
                frame.referenced = true;
                frame.dirty |= dirty;
            }
            None => {
                inner.frames.insert(
                    pid,
                    Frame {
                        page,
                        referenced: true,
                        dirty,
                    },
                );
                inner.clock.push_back(pid);
            }
        }
        while inner.frames.len() > shard.capacity {
            self.evict_one(inner)?;
        }
        Ok(())
    }

    /// Second-chance eviction of a single frame, writing it back if dirty.
    fn evict_one(&self, inner: &mut ShardInner) -> Result<()> {
        loop {
            let Some(pid) = inner.clock.pop_front() else {
                return Err(crate::error::StorageError::PoolExhausted);
            };
            let Some(frame) = inner.frames.get_mut(&pid) else {
                continue; // stale clock entry: page was discarded
            };
            if frame.referenced {
                frame.referenced = false;
                inner.clock.push_back(pid);
                continue;
            }
            let Some(frame) = inner.frames.remove(&pid) else {
                continue; // unreachable: presence checked above, same lock held
            };
            if frame.dirty {
                self.device.write_at(pid.offset(), frame.page.raw())?;
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
    }

    /// Writes back every dirty page, in global page-id order
    /// (sequential-friendly, per Stasis' improved writeback policy),
    /// leaving them cached clean.
    ///
    /// The dirty set is gathered shard by shard, sorted globally, then each
    /// page is re-locked in its shard for the writeback. A page that raced
    /// to clean (evicted, discarded) in the window is skipped; one that was
    /// re-dirtied is simply written with its newer contents.
    ///
    /// # Errors
    ///
    /// Fails if any page writeback fails; earlier pages may already have
    /// been written.
    pub fn flush(&self) -> Result<()> {
        let mut dirty: Vec<PageId> = Vec::new();
        for shard in &self.shards {
            let inner = shard.inner.lock();
            dirty.extend(
                inner
                    .frames
                    .iter()
                    .filter(|(_, f)| f.dirty)
                    .map(|(pid, _)| *pid),
            );
        }
        dirty.sort_unstable();
        for pid in dirty {
            let shard = self.shard(pid);
            let mut inner = shard.inner.lock();
            let Some(frame) = inner.frames.get_mut(&pid) else {
                continue; // evicted or discarded since the scan
            };
            if !frame.dirty {
                continue; // already written back by a concurrent eviction
            }
            self.device.write_at(pid.offset(), frame.page.raw())?;
            frame.dirty = false;
            self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Drops a page from the cache without writeback. Used when a region is
    /// freed (the merged-away tree component's pages are garbage).
    pub fn discard(&self, pid: PageId) {
        let mut inner = self.shard(pid).inner.lock();
        inner.frames.remove(&pid);
        // The stale clock entry is skipped lazily by evict_one.
    }

    /// Drops every *clean* cached page. Benchmarks use this to start an
    /// experiment cold, as §5's "uncached" measurements require.
    pub fn drop_clean(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            inner.frames.retain(|_, f| f.dirty);
            let live: std::collections::HashSet<PageId> = inner.frames.keys().copied().collect();
            inner.clock.retain(|pid| live.contains(pid));
        }
    }

    /// Number of cached pages.
    pub fn cached_pages(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().frames.len())
            .sum()
    }

    /// Whether `pid` is currently cached.
    pub fn contains(&self, pid: PageId) -> bool {
        self.shard(pid).inner.lock().frames.contains_key(&pid)
    }

    /// Hit/miss/eviction counters. Lock-free: reads the atomic cells.
    pub fn stats(&self) -> PoolStats {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::device::Device;
    use crate::device::MemDevice;
    use crate::page::PageType;
    use std::sync::Arc;

    fn pool(capacity: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemDevice::new()), capacity)
    }

    fn data_page(tag: u8) -> Page {
        let mut p = Page::new(PageType::Data);
        p.payload_mut()[0] = tag;
        p
    }

    #[test]
    fn small_pools_use_one_shard() {
        for cap in [1, 3, 16, 127] {
            assert_eq!(pool(cap).shard_count(), 1, "capacity {cap}");
        }
        assert_eq!(pool(128).shard_count(), 2);
        assert_eq!(pool(1 << 20).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn sharded_capacity_covers_requested_total() {
        let p = pool(1000);
        assert!(p.shard_count() > 1);
        let per_shard = 1000usize.div_ceil(p.shard_count());
        assert!(per_shard * p.shard_count() >= 1000);
    }

    #[test]
    fn write_then_read_hits_cache() {
        let pool = pool(4);
        pool.write(PageId(1), data_page(7)).unwrap();
        let p = pool.read(PageId(1)).unwrap();
        assert_eq!(p.payload()[0], 7);
        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let pool = pool(2);
        for i in 0..5u64 {
            pool.write(PageId(i), data_page(i as u8)).unwrap();
        }
        assert!(pool.cached_pages() <= 2);
        // Every evicted page must be readable from the device.
        for i in 0..5u64 {
            let p = pool.read(PageId(i)).unwrap();
            assert_eq!(p.payload()[0], i as u8, "page {i}");
        }
        assert!(pool.stats().writebacks >= 3);
    }

    #[test]
    fn second_chance_protects_referenced_pages() {
        let pool = pool(3);
        pool.write(PageId(0), data_page(0)).unwrap();
        pool.write(PageId(1), data_page(1)).unwrap();
        pool.write(PageId(2), data_page(2)).unwrap();
        pool.flush().unwrap();
        // Touch page 0 repeatedly, then insert new pages: page 0 should
        // survive longer than 1 and 2 because its ref bit keeps being set.
        pool.read(PageId(0)).unwrap();
        pool.write(PageId(3), data_page(3)).unwrap();
        pool.read(PageId(0)).unwrap();
        pool.write(PageId(4), data_page(4)).unwrap();
        assert!(pool.contains(PageId(0)));
    }

    #[test]
    fn flush_clears_dirty_state() {
        let pool = pool(8);
        for i in 0..4u64 {
            pool.write(PageId(i), data_page(i as u8)).unwrap();
        }
        pool.flush().unwrap();
        assert_eq!(pool.stats().writebacks, 4);
        pool.flush().unwrap(); // nothing left to write
        assert_eq!(pool.stats().writebacks, 4);
    }

    #[test]
    fn flush_is_sequential_on_device() {
        let dev = Arc::new(MemDevice::new());
        let pool = BufferPool::new(dev.clone(), 16);
        // Insert out of order; flush must sort by page id.
        for i in [5u64, 1, 3, 2, 4] {
            pool.write(PageId(i), data_page(i as u8)).unwrap();
        }
        let before = dev.stats();
        pool.flush().unwrap();
        let d = dev.stats().delta_since(&before);
        // Pages 1..=5 are contiguous: first write seeks, rest are sequential.
        assert_eq!(d.random_writes, 1);
        assert_eq!(d.sequential_writes, 4);
    }

    #[test]
    fn flush_is_sequential_across_shards() {
        let dev = Arc::new(MemDevice::new());
        let pool = BufferPool::with_shards(dev.clone(), 256, 4);
        assert_eq!(pool.shard_count(), 4);
        // Contiguous ids land in different shards (fibonacci hash), yet
        // flush must still write them in global page-id order.
        for i in [9u64, 2, 7, 4, 1, 8, 3, 6, 5] {
            pool.write(PageId(i), data_page(i as u8)).unwrap();
        }
        let before = dev.stats();
        pool.flush().unwrap();
        let d = dev.stats().delta_since(&before);
        assert_eq!(d.random_writes, 1);
        assert_eq!(d.sequential_writes, 8);
    }

    #[test]
    fn discard_drops_without_writeback() {
        let dev = Arc::new(MemDevice::new());
        let pool = BufferPool::new(dev.clone(), 4);
        pool.write(PageId(9), data_page(9)).unwrap();
        pool.discard(PageId(9));
        assert!(!pool.contains(PageId(9)));
        pool.flush().unwrap();
        assert_eq!(dev.stats().bytes_written, 0);
    }

    #[test]
    fn drop_clean_keeps_dirty() {
        let pool = pool(8);
        pool.write(PageId(0), data_page(0)).unwrap();
        pool.write(PageId(1), data_page(1)).unwrap();
        pool.flush().unwrap();
        pool.write(PageId(2), data_page(2)).unwrap(); // dirty
        pool.drop_clean();
        assert!(!pool.contains(PageId(0)));
        assert!(!pool.contains(PageId(1)));
        assert!(pool.contains(PageId(2)));
    }

    #[test]
    fn drop_clean_spans_all_shards() {
        let pool = BufferPool::with_shards(Arc::new(MemDevice::new()), 256, 8);
        for i in 0..64u64 {
            pool.write(PageId(i), data_page(i as u8)).unwrap();
        }
        pool.flush().unwrap();
        pool.drop_clean();
        assert_eq!(pool.cached_pages(), 0);
    }

    #[test]
    fn read_miss_goes_to_device() {
        let dev = Arc::new(MemDevice::new());
        let pool = BufferPool::new(dev.clone(), 4);
        pool.write(PageId(0), data_page(42)).unwrap();
        pool.flush().unwrap();
        pool.discard(PageId(0));
        let p = pool.read(PageId(0)).unwrap();
        assert_eq!(p.payload()[0], 42);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn concurrent_hammer_across_shards() {
        // Readers and writers race over a working set larger than the
        // pool, so hits, misses, evictions and writebacks all happen
        // under contention. Every page must always read back the value
        // its id implies, and the lock-free stats must stay coherent.
        let dev = Arc::new(MemDevice::new());
        let pool = Arc::new(BufferPool::with_shards(dev, 64, 8));
        const PAGES: u64 = 256;
        for i in 0..PAGES {
            pool.write(PageId(i), data_page(i as u8)).unwrap();
        }
        pool.flush().unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut state = 0x5eed_u64 + t;
                    for _ in 0..5_000 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let id = (state >> 33) % PAGES;
                        if t == 0 && state.is_multiple_of(7) {
                            // One writer thread rewrites the same tag, so
                            // the read-side invariant below never breaks.
                            pool.write(PageId(id), data_page(id as u8)).unwrap();
                        } else {
                            let p = pool.read(PageId(id)).unwrap();
                            assert_eq!(p.payload()[0], id as u8, "page {id}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert!(s.hits + s.misses >= 15_000, "stats lost updates: {s:?}");
        assert!(pool.cached_pages() <= 64);
        pool.flush().unwrap();
        for i in 0..PAGES {
            assert_eq!(pool.read(PageId(i)).unwrap().payload()[0], i as u8);
        }
    }

    #[test]
    fn outstanding_arc_survives_eviction() {
        let pool = pool(1);
        pool.write(PageId(0), data_page(1)).unwrap();
        let held = pool.read(PageId(0)).unwrap();
        pool.write(PageId(1), data_page(2)).unwrap();
        pool.write(PageId(2), data_page(3)).unwrap();
        // Page 0 may be long evicted, but our Arc is still valid.
        assert_eq!(held.payload()[0], 1);
    }
}
