//! LevelDB-style multi-level LSM baseline.
//!
//! The paper compares against 2012-era LevelDB, "a state-of-the-art
//! LSM-Tree variant ... a multi-level tree that does not make use of Bloom
//! filters and uses a partition scheduler to schedule merges" (§1). The
//! three differences from bLSM that the paper isolates are all reproduced
//! here:
//!
//! 1. **Many levels** (`L0` + exponentially-sized `L1..L6`), so point
//!    lookups probe `O(log n)` files — one seek each (Table 1).
//! 2. **No Bloom filters**: every file whose key range covers the probe
//!    costs a real read ("we also confirmed that LevelDB performs
//!    multiple disk seeks per read", §5.3).
//! 3. **A partition scheduler** (Figure 3): compaction picks a level by
//!    score and a file within it round-robin. Writes are *slowed* when
//!    `L0` reaches `l0_slowdown` files and *stopped* when it reaches
//!    `l0_stop` — the mechanism behind the long pauses of Figure 7
//!    (right).
//!
//! Like the real system, compaction work is interleaved with writes; when
//! the partition scheduler falls behind on uniform inserts, `L0` fills and
//! writes block for an entire `L0→L1` compaction — exactly the throughput
//! collapse §3.2 predicts for fair partition schedulers.

use std::sync::Arc;

use bytes::Bytes;

use blsm_memtable::{Entry, Memtable, MergeOperator, Versioned};
use blsm_sstable::{EntryRef, EntryStream, MergeIter, ReadMode, Sstable, SstableBuilder};
use blsm_storage::page::PAGE_PAYLOAD_LEN;
use blsm_storage::{BufferPool, Region, RegionAllocator, Result, StorageError};

/// Tuning knobs, defaulting to scaled-down versions of LevelDB's.
#[derive(Debug, Clone)]
pub struct LevelDbConfig {
    /// Memtable flush threshold (LevelDB: 4 MB).
    pub write_buffer: usize,
    /// Target output file size (LevelDB: 2 MB).
    pub max_file_size: u64,
    /// `L0` file count that triggers write slowdown (LevelDB: 8).
    pub l0_slowdown: usize,
    /// `L0` file count that stops writes (LevelDB: 12).
    pub l0_stop: usize,
    /// `L0` file count that triggers compaction (LevelDB: 4).
    pub l0_compact: usize,
    /// Size target of `L1`; each deeper level is ×`level_multiplier`
    /// (LevelDB: 10 MB and ×10).
    pub level_base: u64,
    /// Level-to-level size ratio.
    pub level_multiplier: u64,
    /// Number of levels including `L0`.
    pub max_levels: usize,
    /// Compaction input bytes processed inline per write at steady state.
    pub work_per_write: u64,
}

impl Default for LevelDbConfig {
    fn default() -> Self {
        LevelDbConfig {
            write_buffer: 4 << 20,
            max_file_size: 2 << 20,
            l0_slowdown: 8,
            l0_stop: 12,
            l0_compact: 4,
            level_base: 10 << 20,
            level_multiplier: 10,
            max_levels: 7,
            work_per_write: 16 << 10,
        }
    }
}

/// Counters for experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct LevelDbStats {
    /// Writes that hit the `L0` stop trigger and blocked on a compaction.
    pub write_stops: u64,
    /// Writes that hit the slowdown trigger.
    pub write_slowdowns: u64,
    /// Completed compactions.
    pub compactions: u64,
    /// Memtable flushes (new `L0` files).
    pub flushes: u64,
    /// Files probed by gets (each is a potential seek).
    pub files_probed: u64,
    /// Point lookups served.
    pub gets: u64,
}

/// An in-flight compaction.
struct Compaction {
    /// Level the inputs came from (`level` and `level + 1`).
    level: usize,
    /// Inputs from `level`.
    upper: Vec<Arc<Sstable>>,
    /// Inputs from `level + 1`.
    lower: Vec<Arc<Sstable>>,
    iter: MergeIter<'static>,
    // ordering: Relaxed — compaction pacing progress counter; readers
    // only need an eventually-fresh value.
    consumed: Arc<std::sync::atomic::AtomicU64>,
    builder: Option<SstableBuilder>,
    builder_full_region: Option<Region>,
    outputs: Vec<Arc<Sstable>>,
}

/// Surfaces a violated internal invariant as a recoverable error instead
/// of a panic.
fn invariant_err(what: &str) -> StorageError {
    StorageError::corruption(
        blsm_storage::ComponentId::Tree,
        None,
        format!("internal invariant violated: {what}"),
    )
}

/// The multi-level LSM engine.
pub struct LevelDbLike {
    pool: Arc<BufferPool>,
    allocator: RegionAllocator,
    op: Arc<dyn MergeOperator>,
    config: LevelDbConfig,
    mem: Memtable,
    /// `levels[0]` is unordered, newest file first; deeper levels hold
    /// disjoint files sorted by min key.
    levels: Vec<Vec<Arc<Sstable>>>,
    compaction: Option<Compaction>,
    /// Round-robin compaction cursor per level (the partition scheduler's
    /// fairness pointer).
    cursor: Vec<usize>,
    next_seqno: u64,
    stats: LevelDbStats,
}

impl std::fmt::Debug for LevelDbLike {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelDbLike")
            .field("levels", &self.levels.len())
            .field("compaction_active", &self.compaction.is_some())
            .finish_non_exhaustive()
    }
}

impl LevelDbLike {
    /// Creates an engine over `pool`.
    pub fn new(pool: Arc<BufferPool>, config: LevelDbConfig, op: Arc<dyn MergeOperator>) -> Self {
        let levels = vec![Vec::new(); config.max_levels];
        let cursor = vec![0; config.max_levels];
        LevelDbLike {
            pool,
            allocator: RegionAllocator::new(1),
            op,
            config,
            mem: Memtable::new(),
            levels,
            compaction: None,
            cursor,
            next_seqno: 1,
            stats: LevelDbStats::default(),
        }
    }

    /// Engine counters.
    pub fn stats(&self) -> LevelDbStats {
        self.stats
    }

    /// The buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Files per level (diagnostics).
    pub fn level_file_counts(&self) -> Vec<usize> {
        self.levels.iter().map(Vec::len).collect()
    }

    /// Total user data bytes on disk.
    pub fn disk_data_bytes(&self) -> u64 {
        self.levels.iter().flatten().map(|t| t.data_bytes()).sum()
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Blind write (LevelDB's fast path; §5.2 "random inserts have high
    /// throughput, but only if we use blind-writes").
    pub fn put(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        self.write_entry(key.into(), Entry::Put(value.into()))
    }

    /// Deletion via tombstone.
    pub fn delete(&mut self, key: impl Into<Bytes>) -> Result<()> {
        self.write_entry(key.into(), Entry::Tombstone)
    }

    /// "Insert if not exists" — without Bloom filters this costs a full
    /// multi-level probe per call, which is why the paper found LevelDB
    /// unable to load-and-check its 50 GB dataset (§5.2).
    pub fn insert_if_not_exists(
        &mut self,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Result<bool> {
        let key = key.into();
        if self.get(&key)?.is_some() {
            return Ok(false);
        }
        self.put(key, value)?;
        Ok(true)
    }

    /// Read-modify-write.
    pub fn read_modify_write(
        &mut self,
        key: impl Into<Bytes>,
        f: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
    ) -> Result<()> {
        let key = key.into();
        let old = self.get(&key)?;
        match f(old.as_deref()) {
            Some(new) => self.put(key, new),
            None => self.delete(key),
        }
    }

    fn write_entry(&mut self, key: Bytes, entry: Entry) -> Result<()> {
        // Inline compaction pacing (the background thread's share of the
        // device), with LevelDB's slowdown/stop triggers.
        self.maybe_start_compaction()?;
        let l0 = self.levels[0].len();
        let mut work = self.config.work_per_write;
        if l0 >= self.config.l0_slowdown {
            self.stats.write_slowdowns += 1;
            work *= 8;
        }
        self.run_compaction(work)?;
        while self.levels[0].len() >= self.config.l0_stop {
            // Write stop: block until a whole compaction finishes.
            self.stats.write_stops += 1;
            self.maybe_start_compaction()?;
            if self.compaction.is_none() {
                break;
            }
            self.run_compaction(u64::MAX)?;
        }

        let seqno = self.next_seqno;
        self.next_seqno += 1;
        let op = self.op.clone();
        self.mem
            .insert(key, Versioned { seqno, entry }, op.as_ref());
        if self.mem.approx_bytes() >= self.config.write_buffer {
            self.flush_memtable()?;
        }
        Ok(())
    }

    /// Builds an `L0` file from the memtable.
    fn flush_memtable(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let est_bytes: u64 = self
            .mem
            .iter()
            .map(|(k, v)| (k.len() + v.entry.payload_len()) as u64)
            .sum();
        let entries = self.mem.len() as u64;
        let pages = Self::region_pages(est_bytes, entries);
        let region = self.allocator.alloc(pages);
        // LevelDB has no Bloom filters: size ours to a single word and
        // never consult it on reads.
        let mut b = SstableBuilder::new(self.pool.clone(), region, 1);
        let mem = self.mem.take();
        for (k, v) in mem.iter() {
            b.add(k, v)?;
        }
        let table = Arc::new(b.finish()?);
        free_tail(&mut self.allocator, region, table.region().pages);
        self.levels[0].insert(0, table);
        self.stats.flushes += 1;
        Ok(())
    }

    /// Region size for an output file, budgeting leaf fill at a 50%
    /// worst case (large entries can waste up to half a page); the unused
    /// tail is freed after the build.
    fn region_pages(est_bytes: u64, entries: u64) -> u64 {
        let payload = PAGE_PAYLOAD_LEN as u64;
        (est_bytes + entries * 24) * 2 / payload + entries / 32 + 24
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Point lookup: memtable, then every covering `L0` file newest
    /// first, then one file per deeper level — each file probe is a seek
    /// (no Bloom filters).
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Bytes>> {
        self.stats.gets += 1;
        let mut deltas: Vec<Bytes> = Vec::new();
        if let Some(v) = self.mem.get(key) {
            match &v.entry {
                Entry::Put(b) => return Ok(Some(self.fold(Some(b), &deltas))),
                Entry::Tombstone => return Ok(None),
                Entry::Delta(d) => deltas.push(d.clone()),
            }
        }
        let mut candidates: Vec<Arc<Sstable>> = Vec::new();
        for f in &self.levels[0] {
            if f.meta().min_key.as_ref() <= key && key <= f.meta().max_key.as_ref() {
                candidates.push(f.clone());
            }
        }
        for level in &self.levels[1..] {
            let idx = level.partition_point(|f| f.meta().min_key.as_ref() <= key);
            if idx > 0 {
                let f = &level[idx - 1];
                if key <= f.meta().max_key.as_ref() {
                    candidates.push(f.clone());
                }
            }
        }
        for f in candidates {
            self.stats.files_probed += 1;
            if let Some(v) = f.get(key)? {
                match v.entry {
                    Entry::Put(b) => return Ok(Some(self.fold(Some(&b), &deltas))),
                    Entry::Tombstone => {
                        if deltas.is_empty() {
                            return Ok(None);
                        }
                        return Ok(Some(self.fold(None, &deltas)));
                    }
                    Entry::Delta(d) => deltas.push(d),
                }
            }
        }
        if deltas.is_empty() {
            Ok(None)
        } else {
            Ok(Some(self.fold(None, &deltas)))
        }
    }

    fn fold(&self, base: Option<&[u8]>, deltas: &[Bytes]) -> Bytes {
        if deltas.is_empty() {
            return Bytes::copy_from_slice(base.unwrap_or_default());
        }
        let refs: Vec<&[u8]> = deltas.iter().map(Bytes::as_ref).collect();
        Bytes::from(self.op.fold(base, &refs))
    }

    /// Ordered scan: merges the memtable, all `L0` files and one stream
    /// per level — `O(levels)` seeks (Table 1).
    pub fn scan(&mut self, from: &[u8], limit: usize) -> Result<Vec<(Bytes, Bytes)>> {
        if limit == 0 {
            return Ok(Vec::new());
        }
        let mut streams: Vec<EntryStream<'_>> = Vec::new();
        streams.push(Box::new(self.mem.range_from(from).map(|(k, v)| {
            Ok(EntryRef {
                key: k.clone(),
                version: v.clone(),
            })
        })));
        for f in &self.levels[0] {
            streams.push(Box::new(f.iter_from(from, ReadMode::Pooled)));
        }
        for level in &self.levels[1..] {
            if level.is_empty() {
                continue;
            }
            streams.push(Box::new(LevelIter::new(level.clone(), from.to_vec())));
        }
        let merged = MergeIter::new(streams, self.op.clone(), true);
        // `limit` is a ceiling, not a row count: cap what is reserved.
        let mut out = Vec::with_capacity(limit.min(1024));
        for item in merged {
            let e = item?;
            if let Entry::Put(v) = e.version.entry {
                out.push((e.key, v));
                if out.len() >= limit {
                    break;
                }
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Compaction (partition scheduler)
    // ------------------------------------------------------------------

    fn level_limit(&self, level: usize) -> u64 {
        let mut limit = self.config.level_base;
        for _ in 1..level {
            limit = limit.saturating_mul(self.config.level_multiplier);
        }
        limit
    }

    fn level_bytes(&self, level: usize) -> u64 {
        self.levels[level].iter().map(|t| t.data_bytes()).sum()
    }

    /// The partition scheduler's pick: the level with the highest score;
    /// within it, the next file after the round-robin cursor (Figure 3's
    /// "decide which key partition to merge").
    fn maybe_start_compaction(&mut self) -> Result<()> {
        if self.compaction.is_some() {
            return Ok(());
        }
        let mut best: Option<(usize, f64)> = None;
        let l0_score = self.levels[0].len() as f64 / self.config.l0_compact as f64;
        if l0_score >= 1.0 {
            best = Some((0, l0_score));
        }
        for level in 1..self.levels.len() - 1 {
            let score = self.level_bytes(level) as f64 / self.level_limit(level) as f64;
            if score >= 1.0 && best.as_ref().is_none_or(|(_, s)| score > *s) {
                best = Some((level, score));
            }
        }
        let Some((level, _)) = best else {
            return Ok(());
        };
        self.start_compaction(level)
    }

    fn start_compaction(&mut self, level: usize) -> Result<()> {
        let upper: Vec<Arc<Sstable>> = if level == 0 {
            // All L0 files participate (they overlap each other).
            self.levels[0].clone()
        } else {
            let files = &self.levels[level];
            if files.is_empty() {
                return Ok(());
            }
            let idx = self.cursor[level] % files.len();
            self.cursor[level] = self.cursor[level].wrapping_add(1);
            vec![files[idx].clone()]
        };
        if upper.is_empty() {
            return Ok(());
        }
        // `upper` is non-empty (checked above), so min/max exist.
        let Some(min) = upper.iter().map(|f| f.meta().min_key.clone()).min() else {
            return Ok(());
        };
        let Some(max) = upper.iter().map(|f| f.meta().max_key.clone()).max() else {
            return Ok(());
        };
        let lower: Vec<Arc<Sstable>> = self.levels[level + 1]
            .iter()
            .filter(|f| f.meta().min_key <= max && min <= f.meta().max_key)
            .cloned()
            .collect();

        let consumed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut streams: Vec<EntryStream<'static>> = Vec::new();
        // Newest first: L0 files are already newest-first; upper level
        // precedes lower.
        for f in upper.iter().chain(lower.iter()) {
            streams.push(Box::new(Counting {
                inner: f.iter(ReadMode::Buffered(64)),
                counter: consumed.clone(),
            }));
        }
        // Tombstones may drop only when nothing lives below the target.
        let bottom = self.levels[level + 2..].iter().all(Vec::is_empty);
        let iter = MergeIter::new(streams, self.op.clone(), bottom);
        self.compaction = Some(Compaction {
            level,
            upper,
            lower,
            iter,
            consumed,
            builder: None,
            builder_full_region: None,
            outputs: Vec::new(),
        });
        Ok(())
    }

    /// Runs up to `budget` input bytes of the active compaction.
    pub fn run_compaction(&mut self, budget: u64) -> Result<()> {
        use std::sync::atomic::Ordering;
        let Some(c0) = self.compaction.as_ref() else {
            return Ok(());
        };
        let start = c0.consumed.load(Ordering::Relaxed);
        let max_file = self.config.max_file_size;
        loop {
            // Re-borrow each step; allocator and pool are disjoint fields.
            let Some(c) = self.compaction.as_mut() else {
                return Ok(());
            };
            if c.consumed.load(Ordering::Relaxed) - start >= budget {
                return Ok(());
            }
            // Seal a full output file and start another.
            if c.builder
                .as_ref()
                .is_some_and(|b| b.data_bytes() >= max_file)
            {
                let Some(b) = c.builder.take() else {
                    return Ok(()); // unreachable: presence checked above
                };
                let full = c
                    .builder_full_region
                    .take()
                    .ok_or_else(|| invariant_err("builder without recorded region"))?;
                let table = Arc::new(b.finish()?);
                let used = table.region().pages;
                c.outputs.push(table);
                free_tail(&mut self.allocator, full, used);
                continue;
            }
            match c.iter.next() {
                Some(e) => {
                    let e = e?;
                    if c.builder.is_none() {
                        let pages = Self::region_pages(max_file + (64 << 10), max_file / 256);
                        let region = self.allocator.alloc(pages);
                        c.builder = Some(SstableBuilder::new(self.pool.clone(), region, 1));
                        c.builder_full_region = Some(region);
                    }
                    c.builder
                        .as_mut()
                        .ok_or_else(|| invariant_err("builder vanished after creation"))?
                        .add(&e.key, &e.version)?;
                }
                None => {
                    return self.finish_compaction();
                }
            }
        }
    }

    fn finish_compaction(&mut self) -> Result<()> {
        let Some(mut c) = self.compaction.take() else {
            return Err(invariant_err("finish_compaction without active compaction"));
        };
        if let Some(b) = c.builder.take() {
            let full = c
                .builder_full_region
                .take()
                .ok_or_else(|| invariant_err("builder without recorded region"))?;
            let table = Arc::new(b.finish()?);
            let used = table.region().pages;
            if table.entry_count() > 0 {
                c.outputs.push(table);
            }
            free_tail(&mut self.allocator, full, used);
        }
        // Remove inputs from their levels and free their regions.
        let upper_ptrs: Vec<*const Sstable> = c.upper.iter().map(Arc::as_ptr).collect();
        let lower_ptrs: Vec<*const Sstable> = c.lower.iter().map(Arc::as_ptr).collect();
        self.levels[c.level].retain(|f| !upper_ptrs.contains(&(Arc::as_ptr(f) as *const _)));
        self.levels[c.level + 1].retain(|f| !lower_ptrs.contains(&(Arc::as_ptr(f) as *const _)));
        for f in c.upper.iter().chain(c.lower.iter()) {
            f.evict_from_pool();
            self.allocator.free(f.region());
        }
        // Install outputs into level+1, keeping min-key order.
        let target = &mut self.levels[c.level + 1];
        for out in c.outputs {
            let pos = target.partition_point(|f| f.meta().min_key < out.meta().min_key);
            target.insert(pos, out);
        }
        self.stats.compactions += 1;
        Ok(())
    }

    /// Drains the memtable and runs compactions until every level is
    /// within its limit (test/bench settling).
    pub fn compact_all(&mut self) -> Result<()> {
        self.flush_memtable()?;
        loop {
            self.maybe_start_compaction()?;
            if self.compaction.is_none() {
                return Ok(());
            }
            self.run_compaction(u64::MAX)?;
        }
    }
}

/// Returns the unused tail of an over-allocated output region.
fn free_tail(allocator: &mut RegionAllocator, full: Region, used: u64) {
    if used < full.pages {
        allocator.free(Region {
            start: blsm_storage::PageId(full.start.0 + used),
            pages: full.pages - used,
        });
    }
}

/// Counting wrapper for compaction progress.
struct Counting {
    inner: blsm_sstable::SstIterator,
    // ordering: Relaxed — bytes-consumed pacing counter (see `consumed`).
    counter: Arc<std::sync::atomic::AtomicU64>,
}

impl Iterator for Counting {
    type Item = Result<EntryRef>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next();
        if let Some(Ok(e)) = &item {
            self.counter.fetch_add(
                (e.key.len() + e.version.entry.payload_len()) as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
        }
        item
    }
}

/// Ordered iterator across a level's disjoint files.
struct LevelIter {
    files: Vec<Arc<Sstable>>,
    next_file: usize,
    current: Option<blsm_sstable::SstIterator>,
    from: Vec<u8>,
}

impl LevelIter {
    fn new(files: Vec<Arc<Sstable>>, from: Vec<u8>) -> LevelIter {
        // Skip files entirely below `from`.
        let next_file = files.partition_point(|f| f.meta().max_key.as_ref() < from.as_slice());
        LevelIter {
            files,
            next_file,
            current: None,
            from,
        }
    }
}

impl Iterator for LevelIter {
    type Item = Result<EntryRef>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(it) = &mut self.current {
                match it.next() {
                    Some(item) => return Some(item),
                    None => self.current = None,
                }
            }
            if self.next_file >= self.files.len() {
                return None;
            }
            let f = &self.files[self.next_file];
            self.next_file += 1;
            self.current = Some(f.iter_from(&self.from, ReadMode::Pooled));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use blsm_memtable::AppendOperator;
    use blsm_storage::MemDevice;

    fn engine(write_buffer: usize) -> LevelDbLike {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDevice::new()), 8192));
        let config = LevelDbConfig {
            write_buffer,
            max_file_size: 32 << 10,
            level_base: 128 << 10,
            work_per_write: 4 << 10,
            ..Default::default()
        };
        LevelDbLike::new(pool, config, Arc::new(AppendOperator))
    }

    fn key(i: u32) -> Bytes {
        Bytes::from(format!("user{i:08}"))
    }

    #[test]
    fn put_get_through_compactions() {
        let mut e = engine(16 << 10);
        let n = 8000u32;
        for i in 0..n {
            e.put(key(i % 3000), Bytes::from(format!("v{i}"))).unwrap();
        }
        assert!(e.stats().flushes > 5);
        assert!(e.stats().compactions > 0);
        // Last writer wins.
        for k in (0..3000u32).step_by(173) {
            let expected = (0..n).rev().find(|i| i % 3000 == k).unwrap();
            let v = e.get(&key(k)).unwrap().expect("present");
            assert_eq!(v, Bytes::from(format!("v{expected}")), "key {k}");
        }
    }

    #[test]
    fn multiple_levels_form() {
        let mut e = engine(8 << 10);
        for i in 0..20_000u32 {
            e.put(key(i), Bytes::from(vec![0u8; 64])).unwrap();
        }
        e.compact_all().unwrap();
        let counts = e.level_file_counts();
        let occupied = counts.iter().filter(|&&c| c > 0).count();
        assert!(occupied >= 2, "levels: {counts:?}");
        // Deeper levels respect disjointness.
        for level in &e.levels[1..] {
            for w in level.windows(2) {
                assert!(w[0].meta().max_key < w[1].meta().min_key);
            }
        }
    }

    #[test]
    fn delete_then_compact_drops_key() {
        let mut e = engine(8 << 10);
        for i in 0..2000u32 {
            e.put(key(i), Bytes::from_static(b"v")).unwrap();
        }
        e.delete(key(77)).unwrap();
        e.compact_all().unwrap();
        assert!(e.get(&key(77)).unwrap().is_none());
        assert!(e.get(&key(78)).unwrap().is_some());
    }

    #[test]
    fn scan_is_ordered_across_levels() {
        let mut e = engine(8 << 10);
        for i in (0..4000u32).rev() {
            e.put(key(i), Bytes::from(format!("v{i}"))).unwrap();
        }
        let rows = e.scan(&key(1000), 50).unwrap();
        assert_eq!(rows.len(), 50);
        for (j, (k, v)) in rows.iter().enumerate() {
            assert_eq!(k, &key(1000 + j as u32));
            assert_eq!(v, &Bytes::from(format!("v{}", 1000 + j as u32)));
        }
        // `limit` is a ceiling: 0 asks for nothing, and a huge one is not
        // a reservation (a wire `u32::MAX` used to abort in the allocator).
        assert!(e.scan(&key(0), 0).unwrap().is_empty());
        assert_eq!(e.scan(&key(3990), u32::MAX as usize).unwrap().len(), 10);
    }

    #[test]
    fn probes_multiple_files_per_get() {
        // The headline difference from bLSM: no Bloom filters means >1
        // file probe per lookup once levels overlap. Build overlap
        // explicitly: push all keys deep, then leave only the even keys in
        // the upper level — odd-key lookups probe the covering upper file
        // (miss) and then the deeper level.
        let mut e = engine(8 << 10);
        for i in 0..20_000u32 {
            e.put(key(i), Bytes::from(vec![0u8; 64])).unwrap();
        }
        e.compact_all().unwrap();
        for i in (0..20_000u32).step_by(2) {
            e.put(key(i), Bytes::from(vec![1u8; 64])).unwrap();
        }
        e.flush_memtable().unwrap();
        let before = e.stats();
        let mut gets = 0u64;
        for i in (1..20_000u32).step_by(61) {
            assert!(e.get(&key(i)).unwrap().is_some(), "key {i}");
            gets += 1;
        }
        let probes = e.stats().files_probed - before.files_probed;
        assert!(
            probes as f64 / gets as f64 > 1.1,
            "expected multi-file probes, got {probes} for {gets} gets"
        );
    }

    #[test]
    fn write_stops_fire_under_pressure() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDevice::new()), 8192));
        let config = LevelDbConfig {
            write_buffer: 4 << 10,
            max_file_size: 16 << 10,
            level_base: 32 << 10,
            work_per_write: 256, // starved compaction
            l0_compact: 2,
            l0_slowdown: 4,
            l0_stop: 6,
            ..Default::default()
        };
        let mut e = LevelDbLike::new(pool, config, Arc::new(AppendOperator));
        let mut state = 7u64;
        for _ in 0..30_000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (state >> 33) as u32 % 100_000;
            e.put(key(i), Bytes::from(vec![0u8; 64])).unwrap();
        }
        assert!(e.stats().write_slowdowns > 0, "slowdowns never fired");
        assert!(e.stats().write_stops > 0, "stops never fired");
    }

    #[test]
    fn rmw_and_check_insert() {
        let mut e = engine(8 << 10);
        assert!(e
            .insert_if_not_exists(key(1), Bytes::from_static(b"a"))
            .unwrap());
        assert!(!e
            .insert_if_not_exists(key(1), Bytes::from_static(b"b"))
            .unwrap());
        e.read_modify_write(key(1), |old| {
            let mut v = old.unwrap().to_vec();
            v.push(b'!');
            Some(v)
        })
        .unwrap();
        assert_eq!(e.get(&key(1)).unwrap().unwrap().as_ref(), b"a!");
    }
}
