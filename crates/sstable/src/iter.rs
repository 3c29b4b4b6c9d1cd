//! Ordered iteration over components and k-way merging.
//!
//! Two read modes mirror the two consumers in the paper:
//!
//! * [`ReadMode::Pooled`] — application scans: each leaf is fetched through
//!   the buffer pool (a cold scan costs one seek per component and then
//!   sequential reads, §3.3).
//! * [`ReadMode::Buffered`] — merge inputs: leaves are prefetched directly
//!   from the device in large chunks, amortizing the seek between the
//!   merge's read and write streams (the paper's merges are pure
//!   sequential-bandwidth costs, §2.1/§2.3.1).

use std::sync::Arc;

use bytes::Bytes;

use blsm_memtable::{merge_versions, MergeOperator, Versioned};
use blsm_storage::page::{verify_page_image, PageType, PAGE_HEADER_LEN, PAGE_SIZE};
use blsm_storage::{Result, StorageError};

use crate::format::{shared_payload, EntryRef, LeafPage, DATA_PAGE_HEADER};
use crate::table::Sstable;

/// How an iterator fetches pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadMode {
    /// Through the buffer pool, one page at a time (application reads).
    Pooled,
    /// Direct device reads with the given readahead in pages (merges).
    Buffered(usize),
}

/// Ordered iterator over one component. Owns a shared handle to the
/// table, so merge jobs can hold it across engine calls.
///
/// Entries are decoded one at a time off the open leaf's shared payload,
/// so a consumer that only peeks a stream's head (a short scan over
/// `C1`/`C1'`) pays for one entry, not for the ~30 its leaf holds.
pub struct SstIterator {
    table: Arc<Sstable>,
    /// Position in the leaf index of the next leaf to load.
    next_leaf_pos: usize,
    /// The open (non-spanning) leaf; `remaining` of its entries are still
    /// undecoded, the next one beginning at payload offset `next_off`.
    leaf: Option<LeafPage>,
    next_off: usize,
    remaining: usize,
    /// What positioning inside the first leaf met ([`Sstable::iter_from`]
    /// cannot fail); owed to the first `next`.
    seek_error: Option<StorageError>,
    mode: ReadMode,
    /// Prefetch buffer: raw page images starting at `buf_start`, held as a
    /// shared buffer so decoded entries can alias it zero-copy.
    buf: Bytes,
    buf_start: u64,
}

impl std::fmt::Debug for SstIterator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SstIterator")
            .field("next_leaf_pos", &self.next_leaf_pos)
            .field("remaining", &self.remaining)
            .finish_non_exhaustive()
    }
}

impl SstIterator {
    pub(crate) fn new(table: Arc<Sstable>, start_leaf_pos: usize, mode: ReadMode) -> SstIterator {
        SstIterator {
            table,
            next_leaf_pos: start_leaf_pos,
            leaf: None,
            next_off: 0,
            remaining: 0,
            seek_error: None,
            mode,
            buf: Bytes::new(),
            buf_start: 0,
        }
    }

    /// Reads the page at region-relative `idx`, honouring the read mode.
    /// Returns the page's payload as a zero-copy shared buffer plus its
    /// type: pooled pages alias the cached `Arc<Page>`, buffered pages
    /// alias the prefetch chunk (checksum-verified in place).
    fn fetch_page(&mut self, idx: u64) -> Result<(Bytes, PageType)> {
        match self.mode {
            ReadMode::Pooled => {
                let page = self.table.pool().read(self.table.region().page(idx))?;
                let ty = page.page_type()?;
                Ok((shared_payload(&page), ty))
            }
            ReadMode::Buffered(readahead) => {
                let have = self.buf.len() as u64 / PAGE_SIZE as u64;
                if idx < self.buf_start || idx >= self.buf_start + have {
                    // Prefetch a chunk, clamped to the data area.
                    let n_data = self.table.meta().n_data_pages;
                    let n = (readahead as u64)
                        .max(1)
                        .min(n_data.saturating_sub(idx))
                        .max(1);
                    let mut chunk = vec![0u8; (n as usize) * PAGE_SIZE];
                    let off = self.table.region().page(idx).offset();
                    self.table.pool().device().read_at(off, &mut chunk)?;
                    self.buf = Bytes::from(chunk);
                    self.buf_start = idx;
                }
                let off = ((idx - self.buf_start) as usize) * PAGE_SIZE;
                let pid = self.table.region().page(idx);
                let ty = verify_page_image(&self.buf[off..off + PAGE_SIZE], pid)?;
                let payload = self.buf.slice(off + PAGE_HEADER_LEN..off + PAGE_SIZE);
                Ok((payload, ty))
            }
        }
    }

    /// Fetches and parses the next leaf of the index, with its
    /// region-relative page. `None` at the end of the component.
    fn fetch_next_leaf(&mut self) -> Result<Option<(LeafPage, u64)>> {
        let Some(page) = self.table.leaf_index().page(self.next_leaf_pos) else {
            return Ok(None);
        };
        let leaf_idx = u64::from(page);
        self.next_leaf_pos += 1;
        let (payload, ty) = self.fetch_page(leaf_idx)?;
        let leaf = LeafPage::parse(payload, ty == PageType::DataV2)?;
        Ok(Some((leaf, leaf_idx)))
    }

    /// Positions the iterator on the first entry with key ≥ `from` of the
    /// leaf it is about to open: a binary search over a v2 leaf's offset
    /// table, one comparison on a lone-record v1 leaf, a key-only test
    /// (no overflow page read) of a spanning one. Later leaves hold only
    /// larger keys. A read or format error is kept for the first `next`.
    pub(crate) fn seek(&mut self, from: &[u8]) {
        if let Err(e) = self.try_seek(from) {
            self.seek_error = Some(e);
        }
    }

    fn try_seek(&mut self, from: &[u8]) -> Result<()> {
        let Some((leaf, _)) = self.fetch_next_leaf()? else {
            return Ok(());
        };
        if leaf.is_spanning() {
            if leaf.spanning_key()?.as_ref() >= from {
                self.next_leaf_pos -= 1; // wanted: `next` opens it again, in full
            }
            return Ok(());
        }
        let (below, off) = leaf.seek(from)?;
        self.next_off = off;
        self.remaining = leaf.count() - below;
        self.leaf = Some(leaf);
        Ok(())
    }

    fn next_entry(&mut self) -> Result<Option<EntryRef>> {
        loop {
            if let (Some(leaf), 1..) = (&self.leaf, self.remaining) {
                match leaf.entry_from(self.next_off) {
                    Ok((e, next_off)) => {
                        self.next_off = next_off;
                        self.remaining -= 1;
                        return Ok(Some(e));
                    }
                    Err(e) => {
                        self.remaining = 0; // abandon the leaf, do not retry it
                        return Err(e);
                    }
                }
            }
            let Some((leaf, leaf_idx)) = self.fetch_next_leaf()? else {
                return Ok(None);
            };
            if leaf.is_spanning() {
                let mut overflow = Vec::new();
                for i in 0..u64::from(leaf.overflow_pages()) {
                    let (opayload, _) = self.fetch_page(leaf_idx + 1 + i)?;
                    overflow.extend_from_slice(&opayload);
                }
                return leaf.spanning_entry(&overflow).map(Some);
            }
            self.next_off = DATA_PAGE_HEADER;
            self.remaining = leaf.count();
            self.leaf = Some(leaf);
        }
    }
}

impl Iterator for SstIterator {
    type Item = Result<EntryRef>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.seek_error.take() {
            return Some(Err(e));
        }
        self.next_entry().transpose()
    }
}

/// A boxed key-ordered entry stream. `Send` so merge state (and thus the
/// whole tree) can move across threads for the background merge driver.
pub type EntryStream<'a> = Box<dyn Iterator<Item = Result<EntryRef>> + Send + 'a>;

/// K-way merge over key-ordered entry streams.
///
/// Streams must be supplied **newest first**; when several streams hold the
/// same key, their versions are resolved with [`merge_versions`] in stream
/// order — position is freshness. A single stream may also carry
/// *several consecutive versions of one key* (newest first, all newer
/// than any same-key entry in later streams) — the `C0` snapshot of a
/// scan does this mid-merge-pass, when a fresh `Delta` in the deferred
/// table shadows a base that only lives in the drained (retained)
/// copies. Every tied version is collected before folding.
pub struct MergeIter<'a> {
    streams: Vec<std::iter::Peekable<EntryStream<'a>>>,
    op: Arc<dyn MergeOperator>,
    bottom: bool,
    errored: bool,
    /// The tied versions of the key being emitted — one buffer reused
    /// row after row, so the loop allocates nothing once it has grown.
    versions: Vec<Versioned>,
}

impl std::fmt::Debug for MergeIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergeIter")
            .field("streams", &self.streams.len())
            .field("bottom", &self.bottom)
            .field("errored", &self.errored)
            .finish_non_exhaustive()
    }
}

impl<'a> MergeIter<'a> {
    /// Creates a merge over `streams` (newest first).
    pub fn new(
        streams: Vec<EntryStream<'a>>,
        op: Arc<dyn MergeOperator>,
        bottom: bool,
    ) -> MergeIter<'a> {
        MergeIter {
            streams: streams.into_iter().map(Iterator::peekable).collect(),
            op,
            bottom,
            errored: false,
            versions: Vec::new(),
        }
    }
}

impl Iterator for MergeIter<'_> {
    type Item = Result<EntryRef>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.errored {
            return None;
        }
        loop {
            // The first stream whose head holds the smallest key. Heads are
            // compared in place: every stream lends its peeked key at once
            // (`iter_mut` hands out disjoint borrows), so no key is cloned.
            let mut min: Option<(usize, &Bytes)> = None;
            for (i, s) in self.streams.iter_mut().enumerate() {
                match s.peek() {
                    Some(Ok(e)) if min.is_none_or(|(_, m)| e.key < *m) => {
                        min = Some((i, &e.key));
                    }
                    Some(Ok(_)) => {}
                    Some(Err(_)) => {
                        self.errored = true;
                        // Surface the error by consuming it; peek() just
                        // returned Err, so next() must yield the same entry.
                        let err = match s.next() {
                            Some(Err(err)) => err,
                            _ => StorageError::corruption(
                                blsm_storage::ComponentId::Sstable,
                                None,
                                "error entry vanished between peek and next",
                            ),
                        };
                        return Some(Err(err));
                    }
                    None => {}
                }
            }
            let (first, _) = min?;
            // (The head was just peeked as `Ok`.)
            let EntryRef { key, version } = self.streams[first].next()?.ok()?;
            // Collect all versions of that key, newest stream first —
            // draining *every* consecutive same-key entry a stream holds,
            // not just its head (multi-version streams, see type docs).
            // Streams before `first` hold larger keys.
            self.versions.clear();
            self.versions.push(version);
            for s in &mut self.streams[first..] {
                while let Some(Ok(e)) = s.next_if(|h| matches!(h, Ok(e) if e.key == key)) {
                    self.versions.push(e.version);
                }
            }
            // A lone base record needs no folding (the common row).
            let resolved = match self.versions.as_slice() {
                [only] if only.entry.is_base() => self.versions.pop(),
                tied => merge_versions(self.op.as_ref(), tied, self.bottom),
            };
            // `None` means dropped (bottom-level tombstone): keep looping.
            if let Some(version) = resolved {
                return Some(Ok(EntryRef { key, version }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::builder::SstableBuilder;
    use blsm_memtable::{merge_versions, AddOperator, AppendOperator, Entry, Versioned};
    use blsm_storage::{BufferPool, MemDevice, PageId, Region};

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDevice::new()), 4096))
    }

    fn build_table(
        pool: &Arc<BufferPool>,
        start_page: u64,
        entries: &[(&str, Versioned)],
    ) -> Arc<Sstable> {
        let region = Region {
            start: PageId(start_page),
            pages: 1024,
        };
        let mut b = SstableBuilder::new(pool.clone(), region, entries.len() as u64);
        for (k, v) in entries {
            b.add(&Bytes::copy_from_slice(k.as_bytes()), v).unwrap();
        }
        Arc::new(b.finish().unwrap())
    }

    fn put(seq: u64, val: &str) -> Versioned {
        Versioned::put(seq, Bytes::copy_from_slice(val.as_bytes()))
    }

    #[test]
    fn full_scan_in_order() {
        let pool = pool();
        let entries: Vec<(String, Versioned)> = (0..3000u32)
            .map(|i| (format!("k{i:06}"), put(1, "v")))
            .collect();
        let refs: Vec<(&str, Versioned)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let t = build_table(&pool, 0, &refs);
        for mode in [ReadMode::Pooled, ReadMode::Buffered(16)] {
            let keys: Vec<_> = t.iter(mode).map(|r| r.unwrap().key).collect();
            assert_eq!(keys.len(), 3000, "{mode:?}");
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn iter_from_starts_at_bound() {
        let pool = pool();
        let entries: Vec<(String, Versioned)> = (0..100u32)
            .map(|i| (format!("k{i:03}"), put(1, "v")))
            .collect();
        let refs: Vec<(&str, Versioned)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let t = build_table(&pool, 0, &refs);
        let keys: Vec<_> = t
            .iter_from(b"k050", ReadMode::Pooled)
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(keys.len(), 50);
        assert_eq!(keys[0].as_ref(), b"k050");
        // A bound between keys starts at the next key.
        let keys: Vec<_> = t
            .iter_from(b"k0505", ReadMode::Pooled)
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(keys[0].as_ref(), b"k051");
    }

    #[test]
    fn iter_from_starts_at_bound_on_every_leaf_layout() {
        // Small rows (v2 leaves) around two records too large for a page
        // (spanning leaves, always v1): from any bound — a stored key, a
        // gap, inside a leaf, on a leaf's first key, on or just past a
        // spanning record, beyond the last key — both read modes yield
        // exactly the suffix.
        let big = "x".repeat(3 * PAGE_SIZE);
        let entries: Vec<(String, Versioned)> = (0..400u32)
            .map(|i| {
                let val = if i == 150 || i == 151 {
                    big.as_str()
                } else {
                    "v"
                };
                (format!("k{i:04}"), put(u64::from(i) + 1, val))
            })
            .collect();
        let pool = pool();
        let region = Region {
            start: PageId(0),
            pages: 1024,
        };
        let mut b = SstableBuilder::new(pool.clone(), region, entries.len() as u64);
        for (k, v) in &entries {
            b.add(&Bytes::copy_from_slice(k.as_bytes()), v).unwrap();
        }
        let t = Arc::new(b.finish().unwrap());
        let mut bounds: Vec<String> = (0..400u32).map(|i| format!("k{i:04}")).collect();
        bounds.extend((0..400u32).step_by(7).map(|i| format!("k{i:04}5")));
        bounds.extend(["".to_string(), "k".to_string(), "z".to_string()]);
        for bound in &bounds {
            let want: Vec<&(String, Versioned)> =
                entries.iter().filter(|(k, _)| k >= bound).collect();
            for mode in [ReadMode::Pooled, ReadMode::Buffered(8)] {
                let got: Vec<EntryRef> = t
                    .iter_from(bound.as_bytes(), mode)
                    .map(|r| r.unwrap())
                    .collect();
                assert_eq!(got.len(), want.len(), "{mode:?} from {bound:?}");
                for (g, (k, v)) in got.iter().zip(&want) {
                    assert_eq!(g.key.as_ref(), k.as_bytes(), "from {bound:?}");
                    assert_eq!(&g.version, v);
                }
            }
        }
    }

    #[test]
    fn iter_from_decodes_only_from_the_bound() {
        // The first `next` of a positioned iterator hands out the bound's
        // own entry; a read error met while positioning is not lost.
        let pool = pool();
        let entries: Vec<(String, Versioned)> = (0..100u32)
            .map(|i| (format!("k{i:03}"), put(1, "v")))
            .collect();
        let refs: Vec<(&str, Versioned)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let t = build_table(&pool, 0, &refs);
        let first = t
            .iter_from(b"k077", ReadMode::Pooled)
            .next()
            .unwrap()
            .unwrap();
        assert_eq!(first.key.as_ref(), b"k077");

        let leaf0 = t.region().page(0).offset();
        pool.device().write_at(leaf0 + 100, &[0xff; 8]).unwrap();
        pool.drop_clean();
        let mut it = t.iter_from(b"k001", ReadMode::Pooled);
        assert!(
            it.next().unwrap().is_err(),
            "positioning error must surface"
        );
    }

    #[test]
    fn buffered_scan_uses_few_device_reads() {
        use blsm_storage::device::Device;
        let dev = Arc::new(MemDevice::new());
        let pool = Arc::new(BufferPool::new(dev.clone(), 4096));
        let entries: Vec<(String, Versioned)> = (0..5000u32)
            .map(|i| (format!("k{i:06}"), put(1, &"x".repeat(100))))
            .collect();
        let refs: Vec<(&str, Versioned)> = entries
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let t = build_table(&pool, 0, &refs);
        pool.drop_clean();
        let before = dev.stats();
        let n = t.iter(ReadMode::Buffered(64)).count();
        assert_eq!(n, 5000);
        let d = dev.stats().delta_since(&before);
        let reads = d.random_reads + d.sequential_reads;
        assert!(reads < 10, "buffered scan did {reads} device reads");
    }

    #[test]
    fn merge_versions_newest_base_wins() {
        let op = AppendOperator;
        let v = merge_versions(&op, &[put(5, "new"), put(3, "old")], false).unwrap();
        assert_eq!(v.entry, Entry::Put(Bytes::from_static(b"new")));
        assert_eq!(v.seqno, 5);
    }

    #[test]
    fn merge_versions_folds_deltas_onto_base() {
        let op = AppendOperator;
        let v = merge_versions(
            &op,
            &[
                Versioned::delta(5, Bytes::from_static(b"c")),
                Versioned::delta(4, Bytes::from_static(b"b")),
                put(3, "a"),
            ],
            false,
        )
        .unwrap();
        assert_eq!(v.entry, Entry::Put(Bytes::from_static(b"abc")));
    }

    #[test]
    fn merge_versions_tombstone_handling() {
        let op = AppendOperator;
        // Tombstone at non-bottom level is preserved.
        let v = merge_versions(&op, &[Versioned::tombstone(5), put(3, "x")], false).unwrap();
        assert_eq!(v.entry, Entry::Tombstone);
        // At the bottom it is dropped.
        assert!(merge_versions(&op, &[Versioned::tombstone(5), put(3, "x")], true).is_none());
        // Deltas newer than a tombstone rebuild from nothing.
        let v = merge_versions(
            &op,
            &[
                Versioned::delta(6, Bytes::from_static(b"d")),
                Versioned::tombstone(5),
            ],
            false,
        )
        .unwrap();
        assert_eq!(v.entry, Entry::Put(Bytes::from_static(b"d")));
    }

    #[test]
    fn merge_versions_orphan_deltas() {
        let op = AddOperator;
        let d = |seq, n: i64| Versioned::delta(seq, Bytes::copy_from_slice(&n.to_le_bytes()));
        // Non-bottom: stays a (combined) delta.
        let v = merge_versions(&op, &[d(5, 3), d(4, 4)], false).unwrap();
        match &v.entry {
            Entry::Delta(b) => assert_eq!(i64::from_le_bytes(b[..8].try_into().unwrap()), 7),
            other => panic!("expected delta, got {other:?}"),
        }
        // Bottom: materialized as a base record.
        let v = merge_versions(&op, &[d(5, 3), d(4, 4)], true).unwrap();
        match &v.entry {
            Entry::Put(b) => assert_eq!(i64::from_le_bytes(b[..8].try_into().unwrap()), 7),
            other => panic!("expected put, got {other:?}"),
        }
    }

    #[test]
    fn merge_iter_two_tables() {
        let pool = pool();
        let old = build_table(
            &pool,
            0,
            &[
                ("a", put(1, "a-old")),
                ("b", put(2, "b-old")),
                ("d", put(3, "d-old")),
            ],
        );
        let new = build_table(
            &pool,
            2000,
            &[("b", put(10, "b-new")), ("c", put(11, "c-new"))],
        );
        let streams: Vec<EntryStream<'static>> = vec![
            Box::new(new.iter(ReadMode::Pooled)),
            Box::new(old.iter(ReadMode::Pooled)),
        ];
        let merged: Vec<_> = MergeIter::new(streams, Arc::new(AppendOperator), true)
            .map(|r| r.unwrap())
            .collect();
        let got: Vec<(String, String)> = merged
            .iter()
            .map(|e| {
                let val = match &e.version.entry {
                    Entry::Put(v) => String::from_utf8_lossy(v).to_string(),
                    other => panic!("{other:?}"),
                };
                (String::from_utf8_lossy(&e.key).to_string(), val)
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("a".into(), "a-old".into()),
                ("b".into(), "b-new".into()),
                ("c".into(), "c-new".into()),
                ("d".into(), "d-old".into()),
            ]
        );
    }

    #[test]
    fn merge_iter_folds_multi_version_stream() {
        // A stream carrying two consecutive versions of one key (newest
        // first) — the shape a C0 scan snapshot produces mid-merge-pass —
        // must have both folded into one output entry, not emitted twice.
        let pool = pool();
        let disk = build_table(&pool, 0, &[("a", put(1, "old")), ("c", put(1, "c"))]);
        let mem: Vec<std::result::Result<EntryRef, blsm_storage::StorageError>> = vec![
            Ok(EntryRef {
                key: Bytes::from_static(b"a"),
                version: Versioned::delta(9, Bytes::from_static(b"+d")),
            }),
            Ok(EntryRef {
                key: Bytes::from_static(b"a"),
                version: put(8, "base"),
            }),
        ];
        let streams: Vec<EntryStream<'static>> = vec![
            Box::new(mem.into_iter()),
            Box::new(disk.iter(ReadMode::Pooled)),
        ];
        let merged: Vec<_> = MergeIter::new(streams, Arc::new(AppendOperator), true)
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(merged.len(), 2, "no duplicate keys in the output");
        assert_eq!(merged[0].key.as_ref(), b"a");
        assert_eq!(
            merged[0].version.entry,
            Entry::Put(Bytes::from_static(b"base+d")),
            "delta folded over the same-stream base, shadowing disk"
        );
        assert_eq!(merged[1].key.as_ref(), b"c");
    }

    #[test]
    fn merge_iter_drops_bottom_tombstones() {
        let pool = pool();
        let old = build_table(&pool, 0, &[("a", put(1, "v")), ("b", put(1, "v"))]);
        let new = build_table(&pool, 2000, &[("a", Versioned::tombstone(9))]);
        let streams: Vec<EntryStream<'static>> = vec![
            Box::new(new.iter(ReadMode::Pooled)),
            Box::new(old.iter(ReadMode::Pooled)),
        ];
        let keys: Vec<_> = MergeIter::new(streams, Arc::new(AppendOperator), true)
            .map(|r| r.unwrap().key)
            .collect();
        assert_eq!(keys, vec![Bytes::from_static(b"b")]);
    }
}
