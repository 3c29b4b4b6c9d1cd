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
//!
//! Each shard keeps its frames in a slot array: a page table (keyed by a
//! multiplicative page-id hash) maps a cached page to its slot, and the
//! CLOCK queue is a ring linked through the slots, so the hand sweeps
//! without hashing and a discarded page leaves the queue at once. A miss
//! reads the device straight into a page buffer and verifies it there;
//! the buffer is the one the shard's last eviction freed when no reader
//! still held that page (`Arc::try_unwrap`), so a pool that misses
//! steadily allocates no page buffers.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::device::SharedDevice;
use crate::error::Result;
use crate::page::{Page, PageId, PageType, SharedPage};

/// Maximum number of CLOCK shards.
pub const MAX_SHARDS: usize = 16;

/// Minimum per-shard capacity before the pool stops splitting. Tiny shards
/// evict erratically (a single hot page can thrash a 4-page shard), so the
/// pool only shards when each shard still holds a useful working set.
pub const MIN_PAGES_PER_SHARD: usize = 64;

/// Fibonacci hashing constant: 2^64 / φ, odd.
const FIBONACCI: u64 = 0x9e37_79b9_7f4a_7c15;

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

/// Page-table hasher: one multiplication by [`FIBONACCI`]. Page ids are
/// dense integers the engine allocates, not outside input, so SipHash's
/// flooding resistance buys nothing here; the product's high bits (the
/// table's tag) and low bits (its bucket) both spread sequential ids.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(FIBONACCI);
    }
}

type PageTable = HashMap<PageId, u32, BuildHasherDefault<PageIdHasher>>;

struct Frame {
    pid: PageId,
    page: SharedPage,
    referenced: bool,
    dirty: bool,
}

/// A frame slot and its links in the shard's CLOCK ring. The links mean
/// something only while the slot holds a frame.
struct Slot {
    frame: Option<Frame>,
    prev: u32,
    next: u32,
}

struct ShardInner {
    /// Frame slots. A slot keeps its index while its page is cached; an
    /// empty slot is listed in `free`. Never more than capacity + 1
    /// long: a new frame goes in before its victim leaves.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Which slot holds each cached page.
    table: PageTable,
    /// The CLOCK hand: the front of the queue, which runs from here along
    /// `next` links through exactly the occupied slots, so the queue is
    /// never longer than the frames cached. `None` when the shard is
    /// empty.
    hand: Option<u32>,
    /// A page buffer no reader holds, left by an eviction or discard;
    /// the shard's next miss reads into it.
    spare: Option<Page>,
}

impl ShardInner {
    /// The frame caching `pid`, if any.
    fn cached(&mut self, pid: PageId) -> Option<&mut Frame> {
        let slot = *self.table.get(&pid)?;
        self.slots[slot as usize].frame.as_mut()
    }

    /// Puts a new frame in a free slot and enters it in the page table
    /// and at the back of the CLOCK queue, just behind the hand.
    fn occupy(&mut self, frame: Frame) {
        let pid = frame.pid;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].frame = Some(frame);
                slot
            }
            None => {
                self.slots.push(Slot {
                    frame: Some(frame),
                    prev: 0,
                    next: 0,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.table.insert(pid, slot);
        let (prev, next) = match self.hand {
            Some(hand) => (self.slots[hand as usize].prev, hand),
            None => {
                self.hand = Some(slot);
                (slot, slot)
            }
        };
        self.slots[slot as usize].prev = prev;
        self.slots[slot as usize].next = next;
        self.slots[prev as usize].next = slot;
        self.slots[next as usize].prev = slot;
    }

    /// Empties `slot`, dropping its page from the page table and its
    /// entry from the CLOCK queue.
    fn vacate(&mut self, slot: u32) -> Option<Frame> {
        let frame = self.slots[slot as usize].frame.take()?;
        self.table.remove(&frame.pid);
        self.free.push(slot);
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if next == slot {
            self.hand = None;
        } else {
            self.slots[prev as usize].next = next;
            self.slots[next as usize].prev = prev;
            if self.hand == Some(slot) {
                self.hand = Some(next);
            }
        }
        Some(frame)
    }

    /// Keeps `page`'s buffer for the next miss if no reader holds it.
    fn recycle(&mut self, page: SharedPage) {
        if self.spare.is_none() {
            self.spare = SharedPage::try_unwrap(page).ok();
        }
    }
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
                slots: Vec::new(),
                free: Vec::new(),
                table: PageTable::default(),
                hand: None,
                spare: None,
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
        let h = pid.0.wrapping_mul(FIBONACCI);
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
        let spare = {
            let mut inner = shard.inner.lock();
            if let Some(frame) = inner.cached(pid) {
                frame.referenced = true;
                let page = frame.page.clone();
                drop(inner);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(page);
            }
            inner.spare.take()
        };
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        // Read outside the lock: single-writer engines never race here, and
        // a duplicate read under concurrency is correct (last insert wins).
        let mut page = spare.unwrap_or_else(|| Page::new(PageType::Free));
        page.read_from(self.device.as_ref(), pid)?;
        let page = SharedPage::new(page);
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
        match inner.cached(pid) {
            Some(frame) => {
                let old = std::mem::replace(&mut frame.page, page);
                frame.referenced = true;
                frame.dirty |= dirty;
                inner.recycle(old);
            }
            None => inner.occupy(Frame {
                pid,
                page,
                referenced: true,
                dirty,
            }),
        }
        while inner.table.len() > shard.capacity {
            self.evict_one(inner)?;
        }
        Ok(())
    }

    /// Second-chance eviction of a single frame, writing it back if dirty.
    fn evict_one(&self, inner: &mut ShardInner) -> Result<()> {
        loop {
            let Some(slot) = inner.hand else {
                return Err(crate::error::StorageError::PoolExhausted);
            };
            let Slot { frame, next, .. } = &mut inner.slots[slot as usize];
            let Some(frame) = frame.as_mut() else {
                // unreachable: the ring links occupied slots only
                return Err(crate::error::StorageError::PoolExhausted);
            };
            if frame.referenced {
                // Second chance: the front entry moves to the back.
                frame.referenced = false;
                inner.hand = Some(*next);
                continue;
            }
            let Some(frame) = inner.vacate(slot) else {
                continue; // unreachable: occupancy checked above, same lock held
            };
            if frame.dirty {
                self.device.write_at(frame.pid.offset(), frame.page.raw())?;
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            inner.recycle(frame.page);
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
                    .slots
                    .iter()
                    .filter_map(|s| s.frame.as_ref())
                    .filter(|f| f.dirty)
                    .map(|f| f.pid),
            );
        }
        dirty.sort_unstable();
        for pid in dirty {
            let shard = self.shard(pid);
            let mut inner = shard.inner.lock();
            let Some(frame) = inner.cached(pid) else {
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
        if let Some(&slot) = inner.table.get(&pid) {
            if let Some(frame) = inner.vacate(slot) {
                inner.recycle(frame.page);
            }
        }
    }

    /// Drops every *clean* cached page. Benchmarks use this to start an
    /// experiment cold, as §5's "uncached" measurements require.
    pub fn drop_clean(&self) {
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            for slot in 0..inner.slots.len() as u32 {
                if matches!(&inner.slots[slot as usize].frame, Some(f) if !f.dirty) {
                    inner.vacate(slot);
                }
            }
        }
    }

    /// Number of cached pages.
    pub fn cached_pages(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().table.len()).sum()
    }

    /// Whether `pid` is currently cached.
    pub fn contains(&self, pid: PageId) -> bool {
        self.shard(pid).inner.lock().table.contains_key(&pid)
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
    use crate::device::SharedDevice;
    use crate::page::{PageType, PAGE_SIZE};
    use std::collections::{HashMap, HashSet, VecDeque};
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

    /// Entries in the pool's CLOCK queues, walking each ring both ways.
    fn clock_len(pool: &BufferPool) -> usize {
        let mut total = 0;
        for shard in pool.shards.iter() {
            let inner = shard.inner.lock();
            let Some(hand) = inner.hand else {
                continue;
            };
            let walk = |step: &dyn Fn(&Slot) -> u32| {
                let (mut n, mut at) = (1, step(&inner.slots[hand as usize]));
                while at != hand {
                    assert!(
                        inner.slots[at as usize].frame.is_some(),
                        "ring links a free slot"
                    );
                    assert!(n < inner.slots.len(), "ring does not close");
                    n += 1;
                    at = step(&inner.slots[at as usize]);
                }
                n
            };
            let forward = walk(&|s| s.next);
            assert_eq!(forward, walk(&|s| s.prev), "prev and next links disagree");
            total += forward;
        }
        total
    }

    #[test]
    fn discard_leaves_the_clock_queue_bounded() {
        // A pool that never fills never evicts, so nothing but discard
        // itself can take a discarded page's entry out of the queue.
        let dev: SharedDevice = Arc::new(MemDevice::new());
        for i in 0..100u64 {
            dev.write_at(PageId(i).offset(), &data_page(i as u8).to_bytes())
                .unwrap();
        }
        let pool = BufferPool::new(dev, 64);
        for i in 0..10_000u64 {
            let pid = PageId(i % 100);
            assert_eq!(pool.read(pid).unwrap().payload()[0], (i % 100) as u8);
            pool.discard(pid);
            assert!(clock_len(&pool) <= pool.capacity(), "cycle {i}");
        }
        assert_eq!(clock_len(&pool), 0);
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn a_held_page_is_never_recycled() {
        let pool = pool(1);
        for i in 0..4u64 {
            pool.write(PageId(i), data_page(i as u8)).unwrap();
        }
        pool.flush().unwrap();
        pool.drop_clean();
        let spare = |pool: &BufferPool| {
            let inner = pool.shards[0].inner.lock();
            inner.spare.as_ref().map(|p| p.raw().as_ptr())
        };
        let held = pool.read(PageId(0)).unwrap();
        let one = pool.read(PageId(1)).unwrap().raw().as_ptr(); // evicts page 0
        assert_eq!(
            spare(&pool),
            None,
            "a page a reader holds must not be recycled"
        );
        pool.read(PageId(2)).unwrap(); // evicts page 1, unshared
        assert_eq!(
            spare(&pool),
            Some(one),
            "an unshared victim's buffer is kept"
        );
        let three = pool.read(PageId(3)).unwrap();
        assert_eq!(three.raw().as_ptr(), one, "the next miss reads into it");
        assert_eq!(three.payload()[0], 3);
        assert_eq!(held.payload()[0], 0);
    }

    /// The CLOCK pool as it was before the frame table — a `HashMap` of
    /// frames and a `VecDeque` of page ids per shard — kept as the
    /// reference whose hits, misses, evictions, writebacks, victims and
    /// bytes the frame table must reproduce exactly. Its one change: a
    /// discard drops the page's queue entry (O(n) here, O(1) in the ring).
    struct ReferenceShard {
        capacity: usize,
        frames: HashMap<PageId, (SharedPage, bool, bool)>, // page, referenced, dirty
        clock: VecDeque<PageId>,
    }

    struct ReferencePool {
        device: SharedDevice,
        shards: Vec<ReferenceShard>,
        stats: PoolStats,
        victims: Vec<PageId>,
    }

    impl ReferencePool {
        fn new(device: SharedDevice, capacity: usize, shards: usize) -> ReferencePool {
            let per_shard = capacity.div_ceil(shards);
            ReferencePool {
                device,
                shards: (0..shards)
                    .map(|_| ReferenceShard {
                        capacity: per_shard,
                        frames: HashMap::new(),
                        clock: VecDeque::new(),
                    })
                    .collect(),
                stats: PoolStats::default(),
                victims: Vec::new(),
            }
        }

        fn shard(&self, pid: PageId) -> usize {
            let h = pid.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (h >> 32) as usize & (self.shards.len() - 1)
        }

        fn read(&mut self, pid: PageId) -> SharedPage {
            let s = self.shard(pid);
            if let Some(frame) = self.shards[s].frames.get_mut(&pid) {
                frame.1 = true;
                self.stats.hits += 1;
                return frame.0.clone();
            }
            self.stats.misses += 1;
            let mut buf = [0u8; PAGE_SIZE];
            self.device.read_at(pid.offset(), &mut buf).unwrap();
            let page = SharedPage::new(Page::from_bytes(&buf, pid).unwrap());
            self.insert(s, pid, page.clone(), false);
            page
        }

        fn write(&mut self, pid: PageId, mut page: Page) {
            page.seal();
            let s = self.shard(pid);
            self.insert(s, pid, SharedPage::new(page), true);
        }

        fn insert(&mut self, s: usize, pid: PageId, page: SharedPage, dirty: bool) {
            let shard = &mut self.shards[s];
            match shard.frames.get_mut(&pid) {
                Some(frame) => *frame = (page, true, frame.2 | dirty),
                None => {
                    shard.frames.insert(pid, (page, true, dirty));
                    shard.clock.push_back(pid);
                }
            }
            while self.shards[s].frames.len() > self.shards[s].capacity {
                self.evict_one(s);
            }
        }

        fn evict_one(&mut self, s: usize) {
            let shard = &mut self.shards[s];
            loop {
                let pid = shard.clock.pop_front().unwrap();
                let Some(frame) = shard.frames.get_mut(&pid) else {
                    continue; // stale
                };
                if frame.1 {
                    frame.1 = false;
                    shard.clock.push_back(pid);
                    continue;
                }
                let (page, _, dirty) = shard.frames.remove(&pid).unwrap();
                if dirty {
                    self.device.write_at(pid.offset(), page.raw()).unwrap();
                    self.stats.writebacks += 1;
                }
                self.stats.evictions += 1;
                self.victims.push(pid);
                return;
            }
        }

        fn flush(&mut self) {
            let mut dirty: Vec<PageId> = self
                .shards
                .iter()
                .flat_map(|s| s.frames.iter().filter(|(_, f)| f.2).map(|(p, _)| *p))
                .collect();
            dirty.sort_unstable();
            for pid in dirty {
                let s = self.shard(pid);
                let frame = self.shards[s].frames.get_mut(&pid).unwrap();
                self.device.write_at(pid.offset(), frame.0.raw()).unwrap();
                frame.2 = false;
                self.stats.writebacks += 1;
            }
        }

        fn discard(&mut self, pid: PageId) {
            let s = self.shard(pid);
            self.shards[s].frames.remove(&pid);
            self.shards[s].clock.retain(|p| *p != pid);
        }

        fn drop_clean(&mut self) {
            for shard in &mut self.shards {
                shard.frames.retain(|_, f| f.2);
                let live: HashSet<PageId> = shard.frames.keys().copied().collect();
                shard.clock.retain(|pid| live.contains(pid));
            }
        }

        fn contains(&self, pid: PageId) -> bool {
            self.shards[self.shard(pid)].frames.contains_key(&pid)
        }
    }

    fn seeded_device(pages: u64) -> SharedDevice {
        let dev: SharedDevice = Arc::new(MemDevice::new());
        for i in 0..pages {
            dev.write_at(PageId(i).offset(), &data_page(i as u8).to_bytes())
                .unwrap();
        }
        dev
    }

    #[test]
    fn frame_table_matches_the_reference_clock() {
        const PAGES: u64 = 96;
        for (seed, capacity, shards) in [(1u64, 16, 1), (2, 7, 1), (3, 256, 4), (4, 40, 2)] {
            let pool = BufferPool::with_shards(seeded_device(PAGES), capacity, shards);
            let mut reference = ReferencePool::new(seeded_device(PAGES), capacity, shards);
            let mut state = seed;
            for step in 0..6_000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let roll = (state >> 33) % 100;
                // A narrow hot range keeps hits, second chances and
                // re-reads of discarded pages frequent.
                let hot = (state >> 20) % 4 != 0;
                let pid = PageId((state >> 40) % if hot { PAGES / 3 } else { PAGES });
                let before: Vec<bool> = (0..PAGES).map(|i| pool.contains(PageId(i))).collect();
                let victims_before = reference.victims.len();
                let ctx = format!("seed {seed} step {step} roll {roll} {pid}");
                match roll {
                    0..=59 => {
                        let got = pool.read(pid).unwrap();
                        let want = reference.read(pid);
                        assert_eq!(got.raw()[..], want.raw()[..], "{ctx}");
                    }
                    60..=79 => {
                        let page = data_page((state >> 8) as u8);
                        pool.write(pid, page.clone()).unwrap();
                        reference.write(pid, page);
                    }
                    80..=91 => {
                        pool.discard(pid);
                        reference.discard(pid);
                    }
                    92..=97 => {
                        pool.flush().unwrap();
                        reference.flush();
                    }
                    _ => {
                        pool.drop_clean();
                        reference.drop_clean();
                    }
                }
                assert_eq!(pool.stats(), reference.stats, "{ctx}");
                if roll < 80 {
                    // The pool's victims: what was cached (or just
                    // arrived) and no longer is.
                    let victims: Vec<PageId> = (0..PAGES)
                        .map(PageId)
                        .filter(|&p| (before[p.0 as usize] || p == pid) && !pool.contains(p))
                        .collect();
                    let mut want = reference.victims[victims_before..].to_vec();
                    want.sort_unstable();
                    assert_eq!(victims, want, "{ctx}");
                }
                for i in 0..PAGES {
                    assert_eq!(
                        pool.contains(PageId(i)),
                        reference.contains(PageId(i)),
                        "{ctx} p{i}"
                    );
                }
                assert_eq!(clock_len(&pool), pool.cached_pages(), "{ctx}");
            }
            // The devices end byte-identical, so every writeback matched.
            pool.flush().unwrap();
            reference.flush();
            for i in 0..PAGES {
                let (mut a, mut b) = ([0u8; PAGE_SIZE], [0u8; PAGE_SIZE]);
                pool.device().read_at(PageId(i).offset(), &mut a).unwrap();
                reference
                    .device
                    .read_at(PageId(i).offset(), &mut b)
                    .unwrap();
                assert_eq!(a[..], b[..], "seed {seed}: device page {i}");
            }
        }
    }
}
