//! Finished, immutable on-disk components.

use std::sync::Arc;

use bytes::Bytes;

use blsm_bloom::BloomFilter;
use blsm_memtable::Versioned;
use blsm_storage::codec::{self, Reader};
use blsm_storage::page::{Page, PageType};
use blsm_storage::{BufferPool, ComponentId, Region, Result, StorageError, PAGE_SIZE};

use crate::format::{self, shared_payload, EntryRef, LeafPage};
use crate::index::{LeafIndex, LeafIndexBuilder};
use crate::iter::{ReadMode, SstIterator};

/// Component metadata persisted in the footer page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SstableMeta {
    /// Number of data + overflow pages (region-relative pages `0..n`).
    pub n_data_pages: u64,
    /// Region-relative page where the serialized index begins.
    pub index_start: u64,
    /// Number of index pages.
    pub n_index_pages: u64,
    /// Region-relative page where the Bloom filter image begins.
    pub bloom_start: u64,
    /// Byte length of the Bloom filter image.
    pub bloom_len: u64,
    /// Entries stored (one per key).
    pub entry_count: u64,
    /// User bytes (keys + payloads).
    pub data_bytes: u64,
    /// Tombstones among the entries.
    pub tombstones: u64,
    /// Smallest sequence number stored.
    pub min_seqno: u64,
    /// Largest sequence number stored.
    pub max_seqno: u64,
    /// Smallest key stored.
    pub min_key: Bytes,
    /// Largest key stored.
    pub max_key: Bytes,
}

/// Footer format: the fields followed by a crc32c over them, so the
/// footer carries its own checksum independent of the page framing.
const FOOTER_MAGIC: u32 = 0x3253_4C42; // "BLS2"

impl SstableMeta {
    /// Serializes the footer body (with trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(100 + self.min_key.len() + self.max_key.len());
        codec::put_u32(&mut out, FOOTER_MAGIC);
        codec::put_u64(&mut out, self.n_data_pages);
        codec::put_u64(&mut out, self.index_start);
        codec::put_u64(&mut out, self.n_index_pages);
        codec::put_u64(&mut out, self.bloom_start);
        codec::put_u64(&mut out, self.bloom_len);
        codec::put_u64(&mut out, self.entry_count);
        codec::put_u64(&mut out, self.data_bytes);
        codec::put_u64(&mut out, self.tombstones);
        codec::put_u64(&mut out, self.min_seqno);
        codec::put_u64(&mut out, self.max_seqno);
        codec::put_bytes(&mut out, &self.min_key);
        codec::put_bytes(&mut out, &self.max_key);
        let crc = codec::crc32c(&out);
        codec::put_u32(&mut out, crc);
        out
    }

    /// Deserializes a footer body, verifying its checksum. The
    /// un-checksummed original format ("BLSS" magic) is rejected like any
    /// other bad magic: accepting it would let one flipped magic bit
    /// switch the CRC off.
    pub fn decode(bytes: &[u8]) -> Result<SstableMeta> {
        let mut r = Reader::new(bytes);
        let magic = r.u32()?;
        if magic != FOOTER_MAGIC {
            return Err(StorageError::InvalidFormat(format!(
                "bad sstable footer magic {magic:#x}"
            )));
        }
        let meta = SstableMeta {
            n_data_pages: r.u64()?,
            index_start: r.u64()?,
            n_index_pages: r.u64()?,
            bloom_start: r.u64()?,
            bloom_len: r.u64()?,
            entry_count: r.u64()?,
            data_bytes: r.u64()?,
            tombstones: r.u64()?,
            min_seqno: r.u64()?,
            max_seqno: r.u64()?,
            min_key: Bytes::copy_from_slice(r.bytes()?),
            max_key: Bytes::copy_from_slice(r.bytes()?),
        };
        let body_len = r.position();
        let stored = r.u32()?;
        let actual = codec::crc32c(&bytes[..body_len]);
        if stored != actual {
            return Err(StorageError::corruption(
                ComponentId::Sstable,
                None,
                format!("footer checksum mismatch: stored {stored:#x}, computed {actual:#x}"),
            ));
        }
        Ok(meta)
    }
}

/// Outcome of a [`Sstable::scrub`] pass over one component.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Pages read back from the device and checksum-verified.
    pub pages_checked: u64,
    /// Logical entries walked during the structural pass.
    pub entries_checked: u64,
    /// Description of every problem found (empty ⇒ component is clean).
    pub errors: Vec<String>,
}

impl ScrubReport {
    /// True when the scrub found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Folds another component's report into this one.
    pub fn merge(&mut self, other: ScrubReport) {
        self.pages_checked += other.pages_checked;
        self.entries_checked += other.entries_checked;
        self.errors.extend(other.errors);
    }
}

/// An immutable on-disk tree component.
///
/// The leaf index and Bloom filter live in RAM (§2.2, §3.1), so an uncached
/// point lookup costs exactly one leaf-page read — read amplification 1.
pub struct Sstable {
    pool: Arc<BufferPool>,
    region: Region,
    meta: SstableMeta,
    /// `(first_key, region-relative page)` per leaf, in key order.
    index: LeafIndex,
    /// RAM held by `index`, computed once at assembly — stats calls must
    /// not re-walk the whole index.
    index_ram: usize,
    bloom: Arc<BloomFilter>,
    /// One token per `Sstable` over this region: a merge's flushed
    /// prefixes share theirs with the table the merge finishes.
    views: Arc<()>,
    /// False for a merge's flushed prefix
    /// ([`SstableBuilder::flushed_prefix`](crate::SstableBuilder::flushed_prefix)),
    /// which has only data pages.
    footer: bool,
}

impl std::fmt::Debug for Sstable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sstable")
            .field("region", &self.region)
            .field("meta", &self.meta)
            .finish_non_exhaustive()
    }
}

impl Sstable {
    pub(crate) fn assemble(
        pool: Arc<BufferPool>,
        region: Region,
        meta: SstableMeta,
        index: LeafIndex,
        bloom: Arc<BloomFilter>,
        views: Arc<()>,
        footer: bool,
    ) -> Sstable {
        let index_ram = index.ram_bytes();
        Sstable {
            pool,
            region,
            meta,
            index,
            index_ram,
            bloom,
            views,
            footer,
        }
    }

    /// Opens a component from a region whose last page is its footer —
    /// the recovery path. Reads footer, index and Bloom image (the paper
    /// does not persist filters and rebuilds at recovery, §4.4.3; we
    /// persist them with the component, a simplification documented in
    /// DESIGN.md, so recovery is a few page reads).
    pub fn open(pool: Arc<BufferPool>, region: Region) -> Result<Sstable> {
        assert!(region.pages >= 1, "region too small for a footer");
        let footer = pool.read(region.page(region.pages - 1))?;
        if footer.page_type()? != PageType::Footer {
            return Err(StorageError::InvalidFormat(
                "last region page is not a footer".into(),
            ));
        }
        let meta = SstableMeta::decode(footer.payload())?;

        // Index pages.
        let mut index = LeafIndexBuilder::default();
        for i in 0..meta.n_index_pages {
            let page = pool.read(region.page(meta.index_start + i))?;
            if page.page_type()? != PageType::Index {
                return Err(StorageError::InvalidFormat("expected index page".into()));
            }
            let payload = page.payload();
            let count = format::le_u16(&payload[..2]);
            let mut r = Reader::new(&payload[2..]);
            for _ in 0..count {
                let key = r.bytes()?;
                index.push(key, r.u32()?);
            }
        }

        // Bloom pages.
        let mut bloom_bytes = Vec::with_capacity(meta.bloom_len as usize);
        let mut remaining = meta.bloom_len as usize;
        let mut i = 0;
        while remaining > 0 {
            let page = pool.read(region.page(meta.bloom_start + i))?;
            if page.page_type()? != PageType::Bloom {
                return Err(StorageError::InvalidFormat("expected bloom page".into()));
            }
            let n = remaining.min(page.payload().len());
            bloom_bytes.extend_from_slice(&page.payload()[..n]);
            remaining -= n;
            i += 1;
        }
        let bloom = BloomFilter::from_bytes(&bloom_bytes).ok_or_else(|| {
            StorageError::corruption(
                ComponentId::Bloom,
                Some(region.page(meta.bloom_start).offset()),
                "bloom filter image fails to decode",
            )
        })?;

        Ok(Sstable::assemble(
            pool,
            region,
            meta,
            index.finish(),
            Arc::new(bloom),
            Arc::new(()),
            true,
        ))
    }

    /// Component metadata.
    pub fn meta(&self) -> &SstableMeta {
        &self.meta
    }

    /// The (exact-sized) region this component occupies.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Shared handle to the component's Bloom filter.
    pub fn bloom(&self) -> &Arc<BloomFilter> {
        &self.bloom
    }

    /// True while another `Sstable` over the same pages is alive: a
    /// finished merge output whose flushed prefixes a reader still holds.
    /// Its region must not be freed until this turns false.
    pub fn region_shared(&self) -> bool {
        Arc::strong_count(&self.views) > 1
    }

    /// The buffer pool this component reads through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// User bytes stored (keys + payloads).
    pub fn data_bytes(&self) -> u64 {
        self.meta.data_bytes
    }

    /// Entries stored.
    pub fn entry_count(&self) -> u64 {
        self.meta.entry_count
    }

    /// RAM consumed by the in-memory leaf index — the denominator of the
    /// paper's *read fanout* metric (§2.1): the fences, 8 bytes per leaf
    /// and the segment bookkeeping, exactly. Cached at assembly; O(1).
    pub fn index_ram_bytes(&self) -> usize {
        self.index_ram
    }

    /// Bloom filter probe. False ⇒ key definitely absent (0 seeks spent).
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.bloom.contains(key)
    }

    /// Leaf-index position for `key`: the leaf that could contain it.
    fn leaf_for(&self, key: &[u8]) -> Option<u64> {
        self.index.leaf_for(key).map(u64::from)
    }

    /// Reads and parses the leaf (data) page at region-relative `idx` into
    /// a lazily-decodable [`LeafPage`] (v1 or v2 dispatched on page type).
    pub(crate) fn read_leaf_page(&self, idx: u64) -> Result<LeafPage> {
        let page = self.pool.read(self.region.page(idx))?;
        let v2 = page.page_type()? == PageType::DataV2;
        LeafPage::parse(shared_payload(&page), v2)
    }

    /// Concatenated overflow-page payloads for the spanning leaf at `idx`.
    fn read_overflow(&self, idx: u64, n_overflow: u16) -> Result<Vec<u8>> {
        let mut overflow = Vec::new();
        for i in 0..u64::from(n_overflow) {
            let opage = self.pool.read(self.region.page(idx + 1 + i))?;
            overflow.extend_from_slice(opage.payload());
        }
        Ok(overflow)
    }

    /// Reads and fully decodes the leaf at region-relative `idx`,
    /// reassembling any overflow pages. Scans and integrity checks use
    /// this; point lookups go through [`read_leaf_page`] and decode lazily.
    ///
    /// [`read_leaf_page`]: Self::read_leaf_page
    pub(crate) fn read_leaf(&self, idx: u64) -> Result<Vec<EntryRef>> {
        let leaf = self.read_leaf_page(idx)?;
        if !leaf.is_spanning() {
            return leaf.entries();
        }
        let overflow = self.read_overflow(idx, leaf.overflow_pages())?;
        Ok(vec![leaf.spanning_entry(&overflow)?])
    }

    /// Point lookup without consulting the Bloom filter (at most one leaf
    /// read — plus overflow pages for huge records). Decoding is lazy and
    /// zero-copy: a v2 leaf is binary-searched via its offset table, a v1
    /// leaf is scanned with early exit, and non-matching entries are never
    /// materialized. A non-matching spanning leaf is rejected on its key
    /// alone, before any overflow page is touched.
    pub fn get(&self, key: &[u8]) -> Result<Option<Versioned>> {
        let Some(idx) = self.leaf_for(key) else {
            return Ok(None);
        };
        let leaf = self.read_leaf_page(idx)?;
        if leaf.is_spanning() {
            if leaf.spanning_key()? != key {
                return Ok(None);
            }
            let overflow = self.read_overflow(idx, leaf.overflow_pages())?;
            return Ok(Some(leaf.spanning_entry(&overflow)?.version));
        }
        Ok(leaf.find(key)?.map(|e| e.version))
    }

    /// Point lookup that consults the Bloom filter first: the paper's read
    /// path (§3.1). Returns `(value, probed_disk)`.
    pub fn get_filtered(&self, key: &[u8]) -> Result<(Option<Versioned>, bool)> {
        if !self.may_contain(key) {
            return Ok((None, false));
        }
        Ok((self.get(key)?, true))
    }

    /// Full-table iterator.
    pub fn iter(self: &Arc<Self>, mode: ReadMode) -> SstIterator {
        SstIterator::new(self.clone(), 0, mode)
    }

    /// Iterator from the first key ≥ `from`: the leaf index picks the one
    /// leaf that can hold keys below the bound, and the iterator is
    /// positioned inside it here, so its first `next` decodes the bound's
    /// entry and nothing before it.
    pub fn iter_from(self: &Arc<Self>, from: &[u8], mode: ReadMode) -> SstIterator {
        let start_leaf_pos = self.index.upto(from).saturating_sub(1);
        let mut iter = SstIterator::new(self.clone(), start_leaf_pos, mode);
        iter.seek(from);
        iter
    }

    /// The leaf index (first key + region-relative page per leaf).
    pub(crate) fn leaf_index(&self) -> &LeafIndex {
        &self.index
    }

    /// Verifies the component's structural invariants: the in-RAM leaf
    /// fences are strictly ascending and agree with the footer's key range,
    /// and — for up to `max_leaves` leaves sampled starting at `offset`
    /// (wrapping, so successive calls rotate coverage) — leaf entries are
    /// strictly ascending, sit inside their fence interval, and probe
    /// positive in the Bloom filter. A stored key the filter denies would
    /// be a lost read: §4.4.3 tolerates false positives, never false
    /// negatives.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Corruption`] naming the first violated
    /// invariant, or propagates device errors from the sampled leaf reads.
    pub fn verify_integrity(&self, max_leaves: usize, offset: usize) -> Result<()> {
        fn broken(what: String) -> StorageError {
            StorageError::corruption(
                ComponentId::Sstable,
                None,
                format!("sstable invariant violated: {what}"),
            )
        }
        if self.meta.entry_count == 0 {
            return Ok(());
        }
        if self.meta.min_key > self.meta.max_key {
            return Err(broken(format!(
                "footer key range inverted: {:?} > {:?}",
                self.meta.min_key, self.meta.max_key
            )));
        }
        let fences = || self.index.iter().map(|(k, _)| k);
        for (i, (a, b)) in fences().zip(fences().skip(1)).enumerate() {
            if a >= b {
                return Err(broken(format!(
                    "leaf fences out of order at {i}: {a:?} >= {b:?}"
                )));
            }
        }
        match self.index.fence(0) {
            Some(first) if first == self.meta.min_key.as_ref() => {}
            Some(first) => {
                return Err(broken(format!(
                    "first fence {first:?} != footer min_key {:?}",
                    self.meta.min_key
                )))
            }
            None => return Err(broken("entries recorded but no leaf fences".into())),
        }

        let n = self.index.len();
        let sample = max_leaves.min(n).max(1);
        for s in 0..sample {
            let li = (offset + s * n / sample) % n;
            let (Some(fence), Some(page_idx)) = (self.index.fence(li), self.index.page(li)) else {
                return Err(broken(format!("leaf {li} missing from an index of {n}")));
            };
            let upper = self.index.fence(li + 1);
            let page_idx = u64::from(page_idx);
            // v2 leaves: the offset table must agree with the real entry
            // boundaries (a wrong slot would silently misroute binary
            // search on the hot path).
            let leaf = self.read_leaf_page(page_idx)?;
            leaf.verify_offset_table()?;
            let entries = if leaf.is_spanning() {
                let overflow = self.read_overflow(page_idx, leaf.overflow_pages())?;
                vec![leaf.spanning_entry(&overflow)?]
            } else {
                leaf.entries()?
            };
            let mut prev: Option<&Bytes> = None;
            for e in &entries {
                if prev.is_some_and(|p| *p >= e.key) {
                    return Err(broken(format!(
                        "leaf {li} keys out of order: {prev:?} >= {:?}",
                        e.key
                    )));
                }
                prev = Some(&e.key);
                if e.key.as_ref() < fence || upper.is_some_and(|u| e.key.as_ref() >= u) {
                    return Err(broken(format!(
                        "leaf {li} key {:?} outside fence interval [{fence:?}, {upper:?})",
                        e.key
                    )));
                }
                if e.key > self.meta.max_key {
                    return Err(broken(format!(
                        "leaf {li} key {:?} above footer max_key {:?}",
                        e.key, self.meta.max_key
                    )));
                }
                if !self.bloom.contains(&e.key) {
                    return Err(broken(format!(
                        "bloom filter denies stored key {:?} (false negative)",
                        e.key
                    )));
                }
            }
            match entries.first() {
                Some(e) if e.key.as_ref() == fence => {}
                _ => {
                    return Err(broken(format!(
                        "leaf {li} first entry does not match its fence {fence:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Full verification sweep: every page of the region is read *directly
    /// from the device* (the buffer-pool cache would mask on-media
    /// corruption) and its checksum verified, the on-device footer is
    /// re-decoded (which re-checks the footer's own CRC) and compared to
    /// the in-memory metadata, and a complete [`verify_integrity`] pass
    /// walks every leaf checking ordering, fences, Bloom agreement, and
    /// the entry count against the footer. Problems are collected into the
    /// report rather than failing fast, so one bad page cannot hide
    /// another. A flushed prefix has no footer: it is checked by its data
    /// pages, index and filter alone.
    ///
    /// [`verify_integrity`]: Self::verify_integrity
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let device = self.pool.device();
        let mut buf = vec![0u8; PAGE_SIZE];
        for pid in self.region.iter_pages() {
            match device.read_at(pid.offset(), &mut buf) {
                Ok(()) => match Page::from_bytes(&buf, pid) {
                    Ok(_) => report.pages_checked += 1,
                    Err(e) => report.errors.push(e.to_string()),
                },
                Err(e) => report.errors.push(format!("page {pid} unreadable: {e}")),
            }
        }
        let footer_pid = self.region.page(self.region.pages - 1);
        if self.footer && device.read_at(footer_pid.offset(), &mut buf).is_ok() {
            match Page::from_bytes(&buf, footer_pid).and_then(|p| SstableMeta::decode(p.payload()))
            {
                Ok(meta) if meta == self.meta => {}
                Ok(_) => report
                    .errors
                    .push("on-device footer disagrees with in-memory metadata".into()),
                Err(e) => report.errors.push(format!("footer undecodable: {e}")),
            }
        }
        if let Err(e) = self.verify_integrity(self.index.len().max(1), 0) {
            report.errors.push(e.to_string());
        }
        let mut entries = 0u64;
        for (_, page_idx) in self.index.iter() {
            // Leaf reads go through the pool; physical damage was already
            // reported by the device pass above.
            if let Ok(es) = self.read_leaf(u64::from(page_idx)) {
                entries += es.len() as u64;
            }
        }
        report.entries_checked = entries;
        if entries != self.meta.entry_count && report.is_clean() {
            report.errors.push(format!(
                "leaves hold {entries} entries but footer records {}",
                self.meta.entry_count
            ));
        }
        report
    }

    /// Drops this component's pages from the buffer pool cache (used after
    /// a merge retires the component and its region is freed).
    pub fn evict_from_pool(&self) {
        for pid in self.region.iter_pages() {
            self.pool.discard(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::builder::SstableBuilder;
    use blsm_storage::{MemDevice, PageId};

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDevice::new()), 2048))
    }

    fn build(pool: &Arc<BufferPool>, n: u32, start_page: u64) -> Sstable {
        let region = Region {
            start: PageId(start_page),
            pages: 1024,
        };
        let mut b = SstableBuilder::new(pool.clone(), region, u64::from(n));
        for i in 0..n {
            b.add(
                &Bytes::from(format!("key{i:08}")),
                &Versioned::put(u64::from(i) + 1, Bytes::from(vec![i as u8; 64])),
            )
            .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn meta_roundtrip() {
        let m = SstableMeta {
            n_data_pages: 10,
            index_start: 10,
            n_index_pages: 1,
            bloom_start: 11,
            bloom_len: 123,
            entry_count: 42,
            data_bytes: 9000,
            tombstones: 3,
            min_seqno: 5,
            max_seqno: 99,
            min_key: Bytes::from_static(b"aaa"),
            max_key: Bytes::from_static(b"zzz"),
        };
        let enc = m.encode();
        assert_eq!(SstableMeta::decode(&enc).unwrap(), m);
        assert!(SstableMeta::decode(&enc[..10]).is_err());
    }

    #[test]
    fn decode_rejects_v1_footer_like_any_bad_magic() {
        let m = SstableMeta {
            n_data_pages: 10,
            index_start: 10,
            n_index_pages: 1,
            bloom_start: 11,
            bloom_len: 123,
            entry_count: 42,
            data_bytes: 9000,
            tombstones: 3,
            min_seqno: 5,
            max_seqno: 99,
            min_key: Bytes::from_static(b"aaa"),
            max_key: Bytes::from_static(b"zzz"),
        };
        // A v1 footer was these fields under the "BLSS" magic with no
        // trailing checksum.
        let mut v1 = m.encode();
        v1.truncate(v1.len() - 4);
        v1[..4].copy_from_slice(&0x5353_4C42u32.to_le_bytes());
        let mut garbage = m.encode();
        garbage[..4].copy_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        for bad in [v1, garbage] {
            let err = SstableMeta::decode(&bad).unwrap_err();
            assert!(
                matches!(&err, StorageError::InvalidFormat(msg) if msg.contains("footer magic")),
                "got {err}"
            );
        }
    }

    #[test]
    fn footer_checksum_catches_field_corruption() {
        let m = SstableMeta {
            n_data_pages: 10,
            index_start: 10,
            n_index_pages: 1,
            bloom_start: 11,
            bloom_len: 123,
            entry_count: 42,
            data_bytes: 9000,
            tombstones: 3,
            min_seqno: 5,
            max_seqno: 99,
            min_key: Bytes::from_static(b"aaa"),
            max_key: Bytes::from_static(b"zzz"),
        };
        let mut enc = m.encode();
        enc[12] ^= 0x01; // flip a bit inside index_start
        let err = SstableMeta::decode(&enc).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
    }

    #[test]
    fn scrub_clean_table_reports_no_errors() {
        let pool = pool();
        let t = build(&pool, 500, 0);
        let report = t.scrub();
        assert!(report.is_clean(), "errors: {:?}", report.errors);
        assert_eq!(report.pages_checked, t.region().pages);
        assert_eq!(report.entries_checked, 500);
    }

    #[test]
    fn scrub_detects_single_bit_flip_in_any_page() {
        use blsm_storage::device::Device;
        let dev = Arc::new(MemDevice::new());
        let pool = Arc::new(BufferPool::new(dev.clone(), 2048));
        let t = build(&pool, 500, 0);
        // Flip one bit in every page of the region in turn; the scrub must
        // flag each one, including index, bloom and footer pages.
        for pid in t.region().iter_pages() {
            let offset = pid.offset() + 1000;
            let mut byte = [0u8; 1];
            dev.read_at(offset, &mut byte).unwrap();
            dev.write_at(offset, &[byte[0] ^ 0x40]).unwrap();
            let report = t.scrub();
            assert!(!report.is_clean(), "bit flip in {pid} went undetected");
            dev.write_at(offset, &byte).unwrap();
        }
        assert!(t.scrub().is_clean());
    }

    #[test]
    fn corrupt_offset_table_surfaces_as_typed_corruption() {
        use blsm_storage::device::Device;
        use blsm_storage::page::{Page, PageType};
        let dev = Arc::new(MemDevice::new());
        let pool = Arc::new(BufferPool::new(dev.clone(), 2048));
        let t = build(&pool, 500, 0);

        // Craft a DataV2 page whose offset table points past the entry
        // bytes — a logically corrupt but correctly checksummed image, so
        // the page layer accepts it and the leaf parser must catch it.
        let mut page = Page::new(PageType::DataV2);
        let real = pool.read(t.region().page(0)).unwrap();
        page.payload_mut().copy_from_slice(real.payload());
        let payload_len = page.payload().len();
        page.payload_mut()[payload_len - 2..].copy_from_slice(&0xfff0u16.to_le_bytes());
        dev.write_at(t.region().page(0).offset(), &page.to_bytes())
            .unwrap();
        pool.drop_clean();

        let err = t.get(b"key00000000").unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        let report = t.scrub();
        assert!(
            report.errors.iter().any(|e| e.contains("offset table")),
            "scrub missed the bad table: {:?}",
            report.errors
        );
    }

    #[test]
    fn open_recovers_everything() {
        let pool = pool();
        let t = build(&pool, 2000, 0);
        let region = t.region();
        let meta = t.meta().clone();
        drop(t);
        pool.drop_clean();
        let t2 = Sstable::open(pool, region).unwrap();
        assert_eq!(t2.meta(), &meta);
        for i in (0..2000u32).step_by(113) {
            let key = format!("key{i:08}");
            assert!(t2.may_contain(key.as_bytes()));
            let v = t2.get(key.as_bytes()).unwrap().expect("present");
            assert_eq!(v.seqno, u64::from(i) + 1);
        }
        assert!(t2.get(b"absent").unwrap().is_none());
    }

    #[test]
    fn point_lookup_is_one_leaf_read() {
        use blsm_storage::device::Device;
        let dev = Arc::new(MemDevice::new());
        let pool = Arc::new(BufferPool::new(dev.clone(), 2048));
        let t = build(&pool, 2000, 0);
        pool.drop_clean(); // cold cache
        let before = dev.stats();
        let v = t.get(b"key00001000").unwrap();
        assert!(v.is_some());
        let d = dev.stats().delta_since(&before);
        assert_eq!(
            d.random_reads + d.sequential_reads,
            1,
            "exactly one page read"
        );
    }

    #[test]
    fn bloom_avoids_io_for_absent_keys() {
        use blsm_storage::device::Device;
        let dev = Arc::new(MemDevice::new());
        let pool = Arc::new(BufferPool::new(dev.clone(), 2048));
        let t = build(&pool, 2000, 0);
        pool.drop_clean();
        let before = dev.stats();
        let mut probed = 0u32;
        for i in 0..1000u32 {
            // In-range absent keys, so a Bloom false positive really costs
            // a leaf read.
            let (v, hit_disk) = t.get_filtered(format!("key{i:08}x").as_bytes()).unwrap();
            assert!(v.is_none());
            if hit_disk {
                probed += 1;
            }
        }
        let d = dev.stats().delta_since(&before);
        // ~1% false positive rate ⇒ ~10 probes out of 1000.
        assert!(
            probed <= 40,
            "bloom let {probed} of 1000 absent probes through"
        );
        // Each false positive costs at most one leaf read (repeat probes of
        // the same leaf hit the pool cache).
        assert!(d.bytes_read <= u64::from(probed) * 4096);
        assert!(d.bytes_read > 0);
    }

    #[test]
    fn get_min_max_key_boundaries() {
        let pool = pool();
        let t = build(&pool, 100, 0);
        assert_eq!(t.meta().min_key, Bytes::from(format!("key{:08}", 0)));
        assert_eq!(t.meta().max_key, Bytes::from(format!("key{:08}", 99)));
        // A key below min: no leaf could hold it, zero reads.
        assert!(t.get(b"a").unwrap().is_none());
    }

    #[test]
    fn empty_table_roundtrip() {
        let pool = pool();
        let region = Region {
            start: PageId(0),
            pages: 16,
        };
        let b = SstableBuilder::new(pool.clone(), region, 1);
        let t = b.finish().unwrap();
        assert_eq!(t.entry_count(), 0);
        assert!(t.get(b"x").unwrap().is_none());
        let region = t.region();
        drop(t);
        pool.drop_clean();
        let t2 = Sstable::open(pool, region).unwrap();
        assert_eq!(t2.entry_count(), 0);
    }

    #[test]
    fn index_ram_matches_read_fanout_model() {
        // Appendix A: read fanout ≈ page_size / key_size. With 11-byte keys
        // + 24 bytes of pointer overhead and ~50 entries per 4K page, the
        // index should be a small fraction of the data size.
        let pool = pool();
        let t = build(&pool, 5000, 0);
        let index_ram = t.index_ram_bytes();
        let data = t.data_bytes() as usize;
        assert!(index_ram * 10 < data, "index {index_ram}B vs data {data}B");
    }
}
