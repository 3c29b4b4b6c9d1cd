//! Incremental, write-only sstable construction.
//!
//! Merges write their output through this builder. What matters for
//! fidelity to the paper is **sequential writes**: completed pages
//! accumulate in a write buffer that is flushed to the device in
//! multi-page chunks, so the cost of interleaving merge reads and writes
//! on one spindle is one seek per chunk, not per page — this is what
//! makes LSM write amplification a *bandwidth* figure (§2.1).
//!
//! The paper's readers look inside the half-built `C1` for rows
//! snowshoveling already moved out of `C0` (§4.2). Here the builder
//! offers what of its output has reached the device: after each chunk
//! flush that ends on a complete leaf, [`SstableBuilder::flushed_prefix`]
//! is a read-only [`Sstable`] of those leaves. It copies neither the
//! Bloom filter nor the leaf index: it shares the builder's filter, which
//! keeps filling (§4.4.3's concurrently-updated filter), and the index
//! segments sealed at each flush point. It has no index, filter or footer
//! pages of its own; the finished table, which covers the same pages,
//! does. At finish the filter folds to the entries actually written
//! ([`blsm_bloom::BloomFilter::fold`]), so a builder sized for an upper
//! bound keeps no more filter than its output needs.

use std::sync::Arc;

use bytes::Bytes;

use blsm_bloom::{BloomParams, BloomWriter, TARGET_FP_RATE};
use blsm_memtable::{Entry, Versioned};
use blsm_storage::page::{Page, PageType, PAGE_PAYLOAD_LEN};
use blsm_storage::{BufferPool, Region, Result, StorageError, PAGE_SIZE};

use crate::format::{
    encode_entry, encoded_len, write_data_page_header, write_entry_offsets, DATA_PAGE_HEADER,
    ENTRY_OFFSET_SLOT,
};
use crate::index::LeafIndexBuilder;
use crate::table::{Sstable, SstableMeta};

/// Entry bytes that fit in one leaf page.
pub const LEAF_CAPACITY: usize = PAGE_PAYLOAD_LEN - DATA_PAGE_HEADER;

/// Write-buffer size in pages (256 KiB): the chunk granularity at which
/// merge output reaches the device, and so at which a flushed prefix grows.
pub const FLUSH_PAGES: usize = 64;

/// The builder's state as of the end of a leaf that reached the device:
/// what a flushed prefix covers.
#[derive(Debug, Clone)]
struct Flushed {
    pages: u64,
    entries: u64,
    data_bytes: u64,
    tombstones: u64,
    min_seqno: u64,
    max_seqno: u64,
    last_key: Bytes,
}

/// Streaming builder for one on-disk component.
pub struct SstableBuilder {
    pool: Arc<BufferPool>,
    region: Region,
    /// Open leaf: encoded entries waiting to fill a page.
    leaf: Vec<u8>,
    leaf_count: u16,
    leaf_first_key: Option<Bytes>,
    /// Payload offset of each open-leaf entry, for the v2 offset table.
    leaf_offsets: Vec<u16>,
    /// Sealed page images not yet flushed to the device.
    chunk: Vec<u8>,
    /// Region-relative index of the first page in `chunk`.
    chunk_start: u64,
    /// Next region-relative page index to assign.
    next_page: u64,
    index: LeafIndexBuilder,
    bloom: BloomWriter,
    entry_count: u64,
    data_bytes: u64,
    tombstones: u64,
    min_seqno: u64,
    max_seqno: u64,
    /// A private copy (see [`owned`](Self::owned)).
    min_key: Option<Bytes>,
    last_key: Option<Bytes>,
    /// The longest prefix of whole leaves known to be on the device.
    flushed: Option<Flushed>,
    /// One token per [`Sstable`] over this region (see
    /// [`Sstable::region_shared`]); the finished table inherits it.
    views: Arc<()>,
}

impl std::fmt::Debug for SstableBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SstableBuilder")
            .field("region", &self.region)
            .finish_non_exhaustive()
    }
}

impl SstableBuilder {
    /// Starts building into `region` (which must be generously sized; the
    /// unused tail can be freed after [`finish`](Self::finish)).
    /// `expected_keys` sizes the Bloom filter for the paper's <1% false
    /// positive rate.
    pub fn new(pool: Arc<BufferPool>, region: Region, expected_keys: u64) -> SstableBuilder {
        SstableBuilder {
            pool,
            region,
            leaf: Vec::with_capacity(LEAF_CAPACITY),
            leaf_count: 0,
            leaf_first_key: None,
            leaf_offsets: Vec::new(),
            chunk: Vec::new(),
            chunk_start: 0,
            next_page: 0,
            index: LeafIndexBuilder::default(),
            bloom: BloomWriter::new(
                BloomParams::for_fp_rate(expected_keys, TARGET_FP_RATE).foldable(),
            ),
            entry_count: 0,
            data_bytes: 0,
            tombstones: 0,
            min_seqno: u64::MAX,
            max_seqno: 0,
            min_key: None,
            last_key: None,
            flushed: None,
            views: Arc::new(()),
        }
    }

    /// User bytes (keys + payloads) added so far.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Adds the next entry. Keys must arrive in strictly increasing order
    /// (a component holds one version per key).
    pub fn add(&mut self, key: &Bytes, v: &Versioned) -> Result<()> {
        if let Some(last) = &self.last_key {
            assert!(
                key > last,
                "sstable entries must be added in strictly increasing key order"
            );
        }
        let len = encoded_len(key, v);
        // Each entry reserves a two-byte offset-table slot, so the sealed
        // leaf can always carry its table.
        let reserve = (self.leaf_offsets.len() + 1) * ENTRY_OFFSET_SLOT;
        if self.leaf.len() + len + reserve > LEAF_CAPACITY {
            self.seal_leaf()?;
        }
        let spanning = len > LEAF_CAPACITY;
        if spanning {
            self.add_spanning(key, v)?;
        } else {
            if self.leaf_first_key.is_none() {
                self.leaf_first_key = Some(key.clone());
            }
            self.leaf_offsets
                .push((DATA_PAGE_HEADER + self.leaf.len()) as u16);
            encode_entry(&mut self.leaf, key, v);
            self.leaf_count += 1;
        }
        self.bloom.insert(key);
        self.entry_count += 1;
        self.data_bytes += (key.len() + v.entry.payload_len()) as u64;
        if matches!(v.entry, Entry::Tombstone) {
            self.tombstones += 1;
        }
        self.min_seqno = self.min_seqno.min(v.seqno);
        self.max_seqno = self.max_seqno.max(v.seqno);
        if self.min_key.is_none() {
            self.min_key = Some(Self::owned(key));
        }
        self.last_key = Some(key.clone());
        if spanning {
            self.leaf_done();
        }
        Ok(())
    }

    /// Pages of the prefix [`flushed_prefix`](Self::flushed_prefix)
    /// returns (0 before the first): grows by about a chunk per flush.
    pub fn flushed_pages(&self) -> u64 {
        self.flushed.as_ref().map_or(0, |f| f.pages)
    }

    /// Entries added past the end of the flushed prefix: those in the
    /// open leaf and in sealed leaves not yet on the device.
    pub fn unflushed_entries(&self) -> u64 {
        self.entry_count - self.flushed.as_ref().map_or(0, |f| f.entries)
    }

    /// A read-only table of the whole leaves already on the device,
    /// keyed up to its `max_key` (the last of them). It shares the
    /// builder's Bloom filter, which holds every key of the prefix (and
    /// keeps taking keys above it: false positives there, never false
    /// negatives below), and the leaf index segments sealed so far; it
    /// copies only a short block list
    /// ([`take_prefix_copy_bytes`](Self::take_prefix_copy_bytes)). It has
    /// no index, filter or footer pages — [`Sstable::scrub`] checks it by
    /// its data pages — and shares its pages with the finished table.
    /// `None` before the first flush.
    pub fn flushed_prefix(&self) -> Option<Sstable> {
        let f = self.flushed.as_ref()?;
        let index = self.index.sealed().clone();
        let meta = SstableMeta {
            n_data_pages: f.pages,
            index_start: f.pages,
            n_index_pages: 0,
            bloom_start: f.pages,
            bloom_len: 0,
            entry_count: f.entries,
            data_bytes: f.data_bytes,
            tombstones: f.tombstones,
            min_seqno: f.min_seqno,
            max_seqno: f.max_seqno,
            min_key: self.min_key.clone().unwrap_or_default(),
            max_key: f.last_key.clone(),
        };
        let region = Region {
            start: self.region.start,
            pages: f.pages,
        };
        Some(Sstable::assemble(
            self.pool.clone(),
            region,
            meta,
            index,
            self.bloom.shared().clone(),
            self.views.clone(),
            false,
        ))
    }

    /// What sharing the index with flushed prefixes has copied since the
    /// last call, in bytes, counting one
    /// [`flushed_prefix`](Self::flushed_prefix) call: its list of index
    /// blocks (logarithmic in the segments sealed) and the frontier key
    /// copied at the flush point, plus the index blocks merged as segments
    /// were sealed (each segment's entry is copied at most `log2` of the
    /// segment count times over a build). The filter and the fences are
    /// shared.
    pub fn take_prefix_copy_bytes(&mut self) -> u64 {
        let frontier = self.flushed.as_ref().map_or(0, |f| f.last_key.len());
        (self.index.sealed().clone_bytes() + frontier + self.index.take_copied()) as u64
    }

    /// Called as each leaf completes. When its last page was the one that
    /// filled the chunk, every leaf so far is on the device: they become
    /// the flushed prefix, and the index segment holding them is sealed.
    /// A flush inside a spanning record leaves the prefix where it was
    /// until the next flush.
    fn leaf_done(&mut self) {
        if !self.chunk.is_empty() {
            return;
        }
        let Some(last_key) = &self.last_key else {
            return;
        };
        let last_key = Self::owned(last_key);
        self.index.seal();
        self.flushed = Some(Flushed {
            pages: self.next_page,
            entries: self.entry_count,
            data_bytes: self.data_bytes,
            tombstones: self.tombstones,
            min_seqno: self.min_seqno,
            max_seqno: self.max_seqno,
            last_key,
        });
    }

    /// A private copy of `key` for what outlives the build (the in-RAM
    /// index, the footer's key range). A merge input's key aliases its
    /// 256 KiB read-ahead chunk; keeping that alias would pin one chunk
    /// per leaf — the whole input component — for the finished table's
    /// life.
    fn owned(key: &Bytes) -> Bytes {
        Bytes::copy_from_slice(key)
    }

    /// Seals the open leaf into a data page.
    fn seal_leaf(&mut self) -> Result<()> {
        if self.leaf_count == 0 {
            return Ok(());
        }
        let Some(first_key) = self.leaf_first_key.take() else {
            return Err(StorageError::corruption(
                blsm_storage::ComponentId::Sstable,
                None,
                "open leaf has entries but no first key",
            ));
        };
        // `add` reserved a slot per entry, so the table fits — except for
        // a lone entry that fills the page so exactly that even one slot
        // cannot squeeze in, which seals in the v1 layout instead.
        let with_table =
            self.leaf.len() + self.leaf_offsets.len() * ENTRY_OFFSET_SLOT <= LEAF_CAPACITY;
        let mut page = if with_table {
            Page::new(PageType::DataV2)
        } else {
            Page::new(PageType::Data)
        };
        write_data_page_header(page.payload_mut(), self.leaf_count, 0);
        page.payload_mut()[DATA_PAGE_HEADER..DATA_PAGE_HEADER + self.leaf.len()]
            .copy_from_slice(&self.leaf);
        if with_table {
            write_entry_offsets(page.payload_mut(), &self.leaf_offsets);
        }
        let idx = self.emit_page(page)?;
        self.index.push(&first_key, idx as u32);
        self.leaf.clear();
        self.leaf_count = 0;
        self.leaf_offsets.clear();
        self.leaf_done();
        Ok(())
    }

    /// Emits a record too large for one page: a data page holding the entry
    /// header plus a value prefix filling the page exactly, followed by raw
    /// overflow pages.
    fn add_spanning(&mut self, key: &Bytes, v: &Versioned) -> Result<()> {
        debug_assert!(self.leaf_count == 0, "leaf sealed before spanning record");
        let val = match &v.entry {
            Entry::Put(val) | Entry::Delta(val) => val.clone(),
            Entry::Tombstone => unreachable!("tombstones never exceed a page"),
        };
        let mut head = Vec::new();
        encode_entry(&mut head, key, v);
        let header_len = head.len() - val.len();
        let in_page = LEAF_CAPACITY - header_len;
        let overflow_bytes = val.len() - in_page;
        let n_overflow = overflow_bytes.div_ceil(PAGE_PAYLOAD_LEN);
        assert!(n_overflow <= u16::MAX as usize, "record too large");

        let mut page = Page::new(PageType::Data);
        write_data_page_header(page.payload_mut(), 1, n_overflow as u16);
        page.payload_mut()[DATA_PAGE_HEADER..].copy_from_slice(&head[..LEAF_CAPACITY]);
        let idx = self.emit_page(page)?;
        self.index.push(key, idx as u32);

        let mut rest = &head[LEAF_CAPACITY..];
        for _ in 0..n_overflow {
            let mut page = Page::new(PageType::Overflow);
            let n = rest.len().min(PAGE_PAYLOAD_LEN);
            page.payload_mut()[..n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            self.emit_page(page)?;
        }
        debug_assert!(rest.is_empty());
        Ok(())
    }

    /// Appends a sealed page to the write buffer, flushing when full.
    /// Returns the page's region-relative index.
    fn emit_page(&mut self, page: Page) -> Result<u64> {
        let idx = self.next_page;
        if idx >= self.region.pages {
            return Err(StorageError::OutOfSpace { requested_pages: 1 });
        }
        self.chunk.extend_from_slice(&page.to_bytes());
        self.next_page += 1;
        if self.chunk.len() >= FLUSH_PAGES * PAGE_SIZE {
            self.flush_chunk()?;
        }
        Ok(idx)
    }

    /// Writes the buffered chunk to the device in one call — one seek,
    /// arbitrarily many pages of transfer.
    fn flush_chunk(&mut self) -> Result<()> {
        if self.chunk.is_empty() {
            return Ok(());
        }
        let offset = self.region.page(self.chunk_start).offset();
        self.pool.device().write_at(offset, &self.chunk)?;
        self.chunk_start = self.next_page;
        self.chunk.clear();
        Ok(())
    }

    /// Completes the component: seals the open leaf, writes index, Bloom
    /// filter and footer pages, and returns the finished table. The
    /// returned table's region is trimmed to the pages actually used; the
    /// caller should free the tail `[used, region.pages)` back to its
    /// allocator.
    pub fn finish(mut self) -> Result<Sstable> {
        self.seal_leaf()?;
        let n_data_pages = self.next_page;
        let index = std::mem::take(&mut self.index).finish();

        // Index pages.
        let index_start = self.next_page;
        let mut payload_buf: Vec<u8> = Vec::new();
        let mut count: u16 = 0;
        let mut serialized: Vec<(u16, Vec<u8>)> = Vec::new();
        for (key, page_idx) in index.iter() {
            let mut entry = Vec::with_capacity(key.len() + 8);
            blsm_storage::codec::put_bytes(&mut entry, key);
            blsm_storage::codec::put_u32(&mut entry, page_idx);
            if payload_buf.len() + entry.len() > PAGE_PAYLOAD_LEN - 2 {
                serialized.push((count, std::mem::take(&mut payload_buf)));
                count = 0;
            }
            payload_buf.extend_from_slice(&entry);
            count += 1;
        }
        if count > 0 || serialized.is_empty() {
            serialized.push((count, payload_buf));
        }
        for (count, body) in serialized {
            let mut page = Page::new(PageType::Index);
            page.payload_mut()[..2].copy_from_slice(&count.to_le_bytes());
            page.payload_mut()[2..2 + body.len()].copy_from_slice(&body);
            self.emit_page(page)?;
        }
        let n_index_pages = self.next_page - index_start;

        // Bloom pages: the filter folded to the entries written.
        let bloom_start = self.next_page;
        let bloom = self.bloom.folded(TARGET_FP_RATE);
        let bloom_bytes = bloom.to_bytes();
        for chunk in bloom_bytes.chunks(PAGE_PAYLOAD_LEN) {
            let mut page = Page::new(PageType::Bloom);
            page.payload_mut()[..chunk.len()].copy_from_slice(chunk);
            self.emit_page(page)?;
        }

        let meta = SstableMeta {
            n_data_pages,
            index_start,
            n_index_pages,
            bloom_start,
            bloom_len: bloom_bytes.len() as u64,
            entry_count: self.entry_count,
            data_bytes: self.data_bytes,
            tombstones: self.tombstones,
            min_seqno: if self.entry_count == 0 {
                0
            } else {
                self.min_seqno
            },
            max_seqno: self.max_seqno,
            min_key: self.min_key.clone().unwrap_or_default(),
            max_key: self.last_key.as_ref().map(Self::owned).unwrap_or_default(),
        };

        // Footer.
        let mut page = Page::new(PageType::Footer);
        let body = meta.encode();
        page.payload_mut()[..body.len()].copy_from_slice(&body);
        self.emit_page(page)?;
        self.flush_chunk()?;

        let used = Region {
            start: self.region.start,
            pages: self.next_page,
        };
        Ok(Sstable::assemble(
            self.pool.clone(),
            used,
            meta,
            index,
            bloom,
            self.views,
            true,
        ))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use blsm_storage::device::Device;
    use blsm_storage::{DiskModel, MemDevice, SimDevice};

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDevice::new()), 1024))
    }

    fn key(i: u32) -> Bytes {
        Bytes::from(format!("key{i:08}"))
    }

    #[test]
    fn build_and_read_back() {
        let pool = pool();
        let region = Region {
            start: blsm_storage::PageId(0),
            pages: 512,
        };
        let mut b = SstableBuilder::new(pool.clone(), region, 1000);
        for i in 0..1000u32 {
            b.add(
                &key(i),
                &Versioned::put(u64::from(i), Bytes::from(vec![i as u8; 100])),
            )
            .unwrap();
        }
        let table = b.finish().unwrap();
        assert_eq!(table.meta().entry_count, 1000);
        for i in (0..1000u32).step_by(37) {
            let v = table.get(&key(i)).unwrap().expect("present");
            assert_eq!(v.entry, Entry::Put(Bytes::from(vec![i as u8; 100])));
        }
        assert!(table.get(b"nope").unwrap().is_none());
    }

    #[test]
    fn finished_table_does_not_alias_its_input_buffers() {
        // Keys sliced out of one big buffer, as a merge input's keys are
        // slices of its read-ahead chunk.
        let mut raw = Vec::new();
        for i in 0..1000u32 {
            raw.extend_from_slice(key(i).as_ref());
        }
        let chunk = Bytes::from(raw);
        let inside = |b: &[u8]| chunk.as_ptr_range().contains(&b.as_ptr());
        let region = Region {
            start: blsm_storage::PageId(0),
            pages: 512,
        };
        let mut b = SstableBuilder::new(pool(), region, 1000);
        for i in 0..1000usize {
            let k = chunk.slice(i * 11..(i + 1) * 11);
            assert!(inside(&k));
            b.add(&k, &Versioned::put(1, Bytes::from(vec![0u8; 100])))
                .unwrap();
        }
        let table = b.finish().unwrap();
        assert!(table.leaf_index().len() > 10);
        assert!(!table.leaf_index().iter().any(|(k, _)| inside(k)));
        assert!(!inside(&table.meta().min_key) && !inside(&table.meta().max_key));
        assert_eq!(table.meta().max_key, key(999));
    }

    #[test]
    fn spanning_records_roundtrip() {
        let pool = pool();
        let region = Region {
            start: blsm_storage::PageId(0),
            pages: 512,
        };
        let mut b = SstableBuilder::new(pool, region, 10);
        let big = Bytes::from(vec![7u8; 20_000]);
        b.add(&key(0), &Versioned::put(1, Bytes::from_static(b"small")))
            .unwrap();
        b.add(&key(1), &Versioned::put(2, big.clone())).unwrap();
        b.add(&key(2), &Versioned::put(3, Bytes::from_static(b"after")))
            .unwrap();
        let table = b.finish().unwrap();
        assert_eq!(table.get(&key(1)).unwrap().unwrap().entry, Entry::Put(big));
        assert_eq!(
            table.get(&key(2)).unwrap().unwrap().entry,
            Entry::Put(Bytes::from_static(b"after"))
        );
    }

    #[test]
    fn v2_reserves_slots_and_falls_back_when_brim_full() {
        // Every v2 entry reserves a two-byte offset slot, so sealed
        // leaves carry their binary-search table regardless of how
        // densely entries pack.
        let region = Region {
            start: blsm_storage::PageId(0),
            pages: 512,
        };
        let build = |value: usize| {
            let pool = pool();
            let mut b = SstableBuilder::new(pool.clone(), region, 200);
            for i in 0..200u32 {
                b.add(&key(i), &Versioned::put(1, Bytes::from(vec![0u8; value])))
                    .unwrap();
            }
            let t = b.finish().unwrap();
            let types: Vec<PageType> = (0..t.meta().n_data_pages)
                .map(|i| pool.read(region.page(i)).unwrap().page_type().unwrap())
                .collect();
            (t.meta().n_data_pages, types)
        };

        let (_, small_types) = build(50);
        assert!(
            small_types.iter().all(|t| *t == PageType::DataV2),
            "dense small-value pages get the table: {small_types:?}"
        );

        // ~1006-byte entries: 4 per page with slack for 4 slots, so the
        // reservation costs no page at paper value sizes.
        let (big_pages, big_types) = build(990);
        assert_eq!(
            big_pages, 50,
            "slot reservation must not cost a page at paper value sizes"
        );
        assert!(
            big_types.iter().all(|t| *t == PageType::DataV2),
            "paper-sized pages get the table too: {big_types:?}"
        );

        // An entry that fills the page so exactly that even one slot
        // cannot fit seals alone in the v1 layout — and stays readable.
        let k = key(0);
        let probe = |vs: usize| encoded_len(&k, &Versioned::put(1, Bytes::from(vec![9u8; vs])));
        let mut vs = LEAF_CAPACITY - 32;
        while probe(vs) < LEAF_CAPACITY {
            vs += 1;
        }
        assert_eq!(
            probe(vs),
            LEAF_CAPACITY,
            "found an exactly page-filling entry"
        );
        let pool2 = pool();
        let mut b = SstableBuilder::new(pool2.clone(), region, 4);
        let brim = Bytes::from(vec![9u8; vs]);
        b.add(&key(0), &Versioned::put(1, brim.clone())).unwrap();
        b.add(&key(1), &Versioned::put(2, Bytes::from_static(b"after")))
            .unwrap();
        let t = b.finish().unwrap();
        assert_eq!(
            pool2.read(region.page(0)).unwrap().page_type().unwrap(),
            PageType::Data,
            "brim-full single-entry leaf falls back to v1"
        );
        assert_eq!(t.get(&key(0)).unwrap().unwrap().entry, Entry::Put(brim));
        assert_eq!(
            t.get(&key(1)).unwrap().unwrap().entry,
            Entry::Put(Bytes::from_static(b"after"))
        );

        // Mixed-density builds stay fully readable.
        let pool3 = pool();
        let mut b = SstableBuilder::new(pool3, region, 200);
        for i in 0..200u32 {
            b.add(&key(i), &Versioned::put(1, Bytes::from(vec![3u8; 990])))
                .unwrap();
        }
        let t = b.finish().unwrap();
        for i in (0..200u32).step_by(17) {
            assert_eq!(
                t.get(&key(i)).unwrap().unwrap().entry,
                Entry::Put(Bytes::from(vec![3u8; 990]))
            );
        }
    }

    #[test]
    fn flushed_prefix_reads_what_reached_the_device() {
        let dev = Arc::new(MemDevice::new());
        let pool = Arc::new(BufferPool::new(dev.clone(), 1024));
        let region = Region {
            start: blsm_storage::PageId(0),
            pages: 2048,
        };
        let mut b = SstableBuilder::new(pool, region, 3000);
        let value = |i: u32| Bytes::from(vec![i as u8; 300]);
        let mut i = 0;
        while b.flushed_pages() == 0 {
            assert!(b.flushed_prefix().is_none());
            b.add(&key(i), &Versioned::put(u64::from(i), value(i)))
                .unwrap();
            i += 1;
        }
        // The first flush ends on a whole leaf: 64 pages, every one of
        // them written, and the open leaf above the prefix.
        assert_eq!(b.flushed_pages(), FLUSH_PAGES as u64);
        assert_eq!(dev.len(), FLUSH_PAGES as u64 * PAGE_SIZE as u64);
        let prefix = Arc::new(b.flushed_prefix().unwrap());
        let last = prefix.meta().max_key.clone();
        let n = prefix.entry_count() as u32;
        assert_eq!(last, key(n - 1));
        assert!(n < i, "the key that sealed the leaf is not in the prefix");
        for j in 0..n {
            assert!(prefix.may_contain(&key(j)));
            let v = prefix.get(&key(j)).unwrap().unwrap();
            assert_eq!(v.entry, Entry::Put(value(j)));
        }
        assert!(prefix.get(&key(n)).unwrap().is_none());
        let scanned: Vec<Bytes> = prefix
            .iter_from(&key(n - 3), crate::ReadMode::Pooled)
            .map(|e| e.unwrap().key)
            .collect();
        assert_eq!(scanned, [key(n - 3), key(n - 2), key(n - 1)]);
        let report = prefix.scrub();
        assert!(report.is_clean(), "{:?}", report.errors);
        assert_eq!(report.entries_checked, u64::from(n));
        prefix.verify_integrity(usize::MAX, 0).unwrap();

        // The finished table covers the same pages: its region stays
        // shared while the prefix lives.
        for j in i..i + 200 {
            b.add(&key(j), &Versioned::put(u64::from(j), value(j)))
                .unwrap();
        }
        let table = b.finish().unwrap();
        assert!(table.region_shared());
        assert_eq!(prefix.get(&key(7)).unwrap(), table.get(&key(7)).unwrap());
        drop(prefix);
        assert!(!table.region_shared());
    }

    #[test]
    fn flushed_prefixes_share_the_filter_and_the_sealed_index() {
        let pool = pool();
        let region = Region {
            start: blsm_storage::PageId(0),
            pages: 4096,
        };
        // Sized for 8x what it gets, as a `C0:C1` pass sizes for its bound.
        let mut b = SstableBuilder::new(pool, region, 80_000);
        let value = |i: u32| Bytes::from(vec![i as u8; 100]);
        let mut i = 0;
        let mut add_until_flush = |b: &mut SstableBuilder| {
            let pages = b.flushed_pages();
            while b.flushed_pages() == pages {
                b.add(&key(i), &Versioned::put(u64::from(i), value(i)))
                    .unwrap();
                i += 1;
            }
        };
        add_until_flush(&mut b);
        let first = b.flushed_prefix().unwrap();
        // One block pointer and the frontier key.
        assert_eq!(b.take_prefix_copy_bytes(), 16 + 11);
        add_until_flush(&mut b);
        let second = b.flushed_prefix().unwrap();
        assert!(Arc::ptr_eq(first.bloom(), second.bloom()));
        assert!(first.leaf_index().shares_segments_with(second.leaf_index()));
        assert!(second.leaf_index().len() > first.leaf_index().len());
        // The two segments' blocks merged (two 16-byte entries), then one
        // block pointer and the frontier key.
        assert_eq!(b.take_prefix_copy_bytes(), 32 + 16 + 11);
        for j in 0..second.entry_count() as u32 {
            assert!(
                first.may_contain(&key(j)),
                "the shared filter keeps filling"
            );
        }
        while i < 10_000 {
            b.add(&key(i), &Versioned::put(u64::from(i), value(i)))
                .unwrap();
            i += 1;
        }
        let table = b.finish().unwrap();
        assert!(second.leaf_index().shares_segments_with(table.leaf_index()));
        // The finished filter folded to the 10 000 entries written: at
        // most twice the paper's ~9.6 bits per key, and a quarter or less
        // of what the prefixes share.
        let bits = table.bloom().params().bits;
        assert!(bits <= 20 * 10_000, "{bits} bits for 10 000 keys");
        assert!(bits * 4 <= first.bloom().params().bits);
        for j in 0..10_000u32 {
            assert!(table.may_contain(&key(j)));
        }
        assert!(table.scrub().is_clean());
    }

    #[test]
    fn out_of_order_add_panics() {
        let pool = pool();
        let region = Region {
            start: blsm_storage::PageId(0),
            pages: 64,
        };
        let mut b = SstableBuilder::new(pool, region, 10);
        b.add(&key(5), &Versioned::put(1, Bytes::new())).unwrap();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.add(&key(4), &Versioned::put(2, Bytes::new()))
        }));
        assert!(r.is_err());
    }

    #[test]
    fn region_overflow_is_an_error() {
        let pool = pool();
        let region = Region {
            start: blsm_storage::PageId(0),
            pages: 2,
        };
        let mut b = SstableBuilder::new(pool, region, 10);
        let val = Bytes::from(vec![0u8; 3000]);
        let mut hit_error = false;
        for i in 0..10u32 {
            if let Err(StorageError::OutOfSpace { .. }) =
                b.add(&key(i), &Versioned::put(1, val.clone()))
            {
                hit_error = true;
                break;
            }
        }
        assert!(hit_error);
    }

    #[test]
    fn chunked_writes_are_sequential_on_device() {
        let dev = Arc::new(SimDevice::new(DiskModel::hdd()));
        let pool = Arc::new(BufferPool::new(dev.clone(), 1024));
        let region = Region {
            start: blsm_storage::PageId(0),
            pages: 2048,
        };
        let mut b = SstableBuilder::new(pool, region, 2000);
        for i in 0..2000u32 {
            b.add(&key(i), &Versioned::put(1, Bytes::from(vec![0u8; 900])))
                .unwrap();
        }
        let table = b.finish().unwrap();
        let stats = dev.stats();
        // ~2000 entries * ~912B = ~450 pages; at 64-page chunks that is a
        // handful of device writes, all but the first sequential.
        assert!(
            stats.random_writes <= 2,
            "random writes: {}",
            stats.random_writes
        );
        assert!(stats.sequential_writes >= 5);
        assert!(table.meta().n_data_pages >= 400);
    }
}
