//! On-disk encoding of entries, data pages, index pages and footers.
//!
//! All multi-byte integers are little-endian; variable-length quantities
//! use LEB128 (see `blsm_storage::codec`).
//!
//! Entry encoding:
//! `varint key_len | key | kind(1) | varint seqno | [varint val_len | val]`
//! where `kind` is 0=Put, 1=Delta, 2=Tombstone (value present for 0 and 1).
//!
//! Data page payload (v1, `PageType::Data`):
//! `count(2) | overflow_pages(2) | entries...`
//! When the *last* entry's value does not fit, its remaining bytes continue
//! in `overflow_pages` raw overflow pages immediately following the leaf.
//!
//! Data page payload (v2, `PageType::DataV2`):
//! `count(2) | overflow_pages(2) | entries... | pad | offset_table`
//! identical to v1 except for a trailing table of `count` little-endian
//! `u16` payload offsets — one per entry, in entry order — that lets a
//! point lookup binary-search the leaf in O(log n) entry decodes instead
//! of scanning it. Spanning records (`overflow_pages > 0`) are always
//! written in the v1 layout; a v2 page claiming overflow pages is corrupt.
//!
//! Decoding is **zero-copy**: the page payload is held as an `Arc`-backed
//! [`Bytes`] and every decoded key and value is a subslice of it, so a
//! lookup that decodes a dozen non-matching entries performs no per-entry
//! heap allocation. The sole exception is reassembling a spanning value
//! from its overflow pages, which by nature concatenates buffers.

use bytes::Bytes;

use blsm_memtable::{Entry, Versioned};
use blsm_storage::codec::{self, Reader};
use blsm_storage::page::{SharedPage, PAGE_HEADER_LEN};
use blsm_storage::{ComponentId, Result, StorageError};

/// Borrowed view of a decoded entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryRef {
    /// The key.
    pub key: Bytes,
    /// The versioned record.
    pub version: Versioned,
}

/// Encodes one entry.
pub fn encode_entry(out: &mut Vec<u8>, key: &[u8], v: &Versioned) {
    codec::put_bytes(out, key);
    match &v.entry {
        Entry::Put(val) => {
            codec::put_u8(out, 0);
            codec::put_varint(out, v.seqno);
            codec::put_bytes(out, val);
        }
        Entry::Delta(val) => {
            codec::put_u8(out, 1);
            codec::put_varint(out, v.seqno);
            codec::put_bytes(out, val);
        }
        Entry::Tombstone => {
            codec::put_u8(out, 2);
            codec::put_varint(out, v.seqno);
        }
    }
}

/// Size in bytes [`encode_entry`] would produce.
pub fn encoded_len(key: &[u8], v: &Versioned) -> usize {
    let mut n = varint_len(key.len() as u64) + key.len() + 1 + varint_len(v.seqno);
    match &v.entry {
        Entry::Put(val) | Entry::Delta(val) => {
            n += varint_len(val.len() as u64) + val.len();
        }
        Entry::Tombstone => {}
    }
    n
}

fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
}

/// Decodes one entry zero-copy: the key and value of the result are
/// subslices of `payload`, not copies. `r` must be a cursor over exactly
/// `payload`'s bytes so its positions index into the shared buffer.
///
/// # Errors
///
/// Fails with [`StorageError::InvalidFormat`] on a truncated or malformed
/// encoding (unknown kind tag, field overruns the buffer).
pub fn decode_entry(payload: &Bytes, r: &mut Reader<'_>) -> Result<EntryRef> {
    let key_len = r.varint()? as usize;
    let key_start = r.position();
    r.skip(key_len)?;
    let key = payload.slice(key_start..key_start + key_len);
    let kind = r.u8()?;
    let seqno = r.varint()?;
    let entry = match kind {
        0 | 1 => {
            let val_len = r.varint()? as usize;
            let val_start = r.position();
            r.skip(val_len)?;
            let val = payload.slice(val_start..val_start + val_len);
            if kind == 0 {
                Entry::Put(val)
            } else {
                Entry::Delta(val)
            }
        }
        2 => Entry::Tombstone,
        other => {
            return Err(StorageError::InvalidFormat(format!(
                "bad entry kind {other}"
            )))
        }
    };
    Ok(EntryRef {
        key,
        version: Versioned { seqno, entry },
    })
}

/// Header bytes at the start of every data page payload.
pub const DATA_PAGE_HEADER: usize = 4;

/// Bytes per slot in the v2 trailing entry-offset table.
pub const ENTRY_OFFSET_SLOT: usize = 2;

/// Writes a data page payload header.
pub fn write_data_page_header(payload: &mut [u8], count: u16, overflow_pages: u16) {
    payload[0..2].copy_from_slice(&count.to_le_bytes());
    payload[2..4].copy_from_slice(&overflow_pages.to_le_bytes());
}

/// Writes the v2 trailing entry-offset table: `offsets[i]` is the payload
/// offset where entry `i` begins. The table occupies the last
/// `offsets.len() * 2` payload bytes.
///
/// # Panics
/// Panics if the table would not fit in `payload`.
pub fn write_entry_offsets(payload: &mut [u8], offsets: &[u16]) {
    let table_start = payload.len() - offsets.len() * ENTRY_OFFSET_SLOT;
    for (i, off) in offsets.iter().enumerate() {
        let at = table_start + i * ENTRY_OFFSET_SLOT;
        payload[at..at + 2].copy_from_slice(&off.to_le_bytes());
    }
}

/// Reads a little-endian `u16` from the first 2 bytes of `b`.
///
/// # Panics
/// Panics if `b` is shorter than 2 bytes.
pub(crate) fn le_u16(b: &[u8]) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(&b[..2]);
    u16::from_le_bytes(a)
}

/// Reads `(count, overflow_pages)` from a data page payload.
pub fn read_data_page_header(payload: &[u8]) -> (u16, u16) {
    let count = le_u16(&payload[0..2]);
    let overflow = le_u16(&payload[2..4]);
    (count, overflow)
}

/// The payload of a cached page as a zero-copy [`Bytes`] view: the page's
/// `Arc` backs the buffer, so slices of the payload stay valid for as long
/// as any of them is held, independent of the pool's eviction.
pub fn shared_payload(page: &SharedPage) -> Bytes {
    Bytes::from_owner(page.clone()).slice(PAGE_HEADER_LEN..)
}

/// A parsed data-page payload supporting lazy, zero-copy entry access.
///
/// Holds the payload as a shared buffer; entries are decoded on demand and
/// their keys/values alias the buffer. For v2 pages the trailing offset
/// table (validated at parse time) enables O(log n) in-page binary search.
#[derive(Debug, Clone)]
pub struct LeafPage {
    payload: Bytes,
    count: usize,
    n_overflow: u16,
    /// True for the v2 layout (trailing entry-offset table present).
    has_offsets: bool,
}

impl LeafPage {
    /// Parses a data-page payload. `has_offsets` is true for
    /// `PageType::DataV2` pages; their offset table is validated here
    /// (in-bounds, strictly ascending, first entry right after the header)
    /// so later access can trust it.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Corruption`] on an invalid offset table
    /// or a v2 page claiming overflow pages, and with
    /// [`StorageError::InvalidFormat`] on a malformed header or a v1 page
    /// not holding exactly one entry (no writer produces one).
    pub fn parse(payload: Bytes, has_offsets: bool) -> Result<LeafPage> {
        if payload.len() < DATA_PAGE_HEADER {
            return Err(StorageError::InvalidFormat(format!(
                "data page payload too short: {} bytes",
                payload.len()
            )));
        }
        let (count, n_overflow) = read_data_page_header(&payload);
        let count = count as usize;
        if n_overflow > 0 && has_offsets {
            return Err(StorageError::corruption(
                ComponentId::Sstable,
                None,
                "v2 data page claims overflow pages; spanning records use the v1 layout",
            ));
        }
        // The builder writes a page without an offset table only for a
        // lone record: a spanning one, or one so brim-full no slot fits.
        if !has_offsets && count != 1 {
            return Err(StorageError::InvalidFormat(format!(
                "v1 data page must hold exactly 1 entry, found {count}"
            )));
        }
        let leaf = LeafPage {
            payload,
            count,
            n_overflow,
            has_offsets,
        };
        if has_offsets {
            leaf.validate_offsets()?;
        }
        Ok(leaf)
    }

    /// Cheap structural validation of the v2 offset table: fits in the
    /// payload, strictly ascending, first entry starts right after the
    /// header, and no entry starts inside the table itself. O(count) u16
    /// reads, no entry decodes, no allocation.
    fn validate_offsets(&self) -> Result<()> {
        let corrupt = |what: String| {
            StorageError::corruption(
                ComponentId::Sstable,
                None,
                format!("entry-offset table corrupt: {what}"),
            )
        };
        let table_bytes = self.count * ENTRY_OFFSET_SLOT;
        let Some(entries_end) = self.payload.len().checked_sub(table_bytes) else {
            return Err(corrupt(format!(
                "{} entries need a {table_bytes}-byte table, payload is {} bytes",
                self.count,
                self.payload.len()
            )));
        };
        if entries_end < DATA_PAGE_HEADER {
            return Err(corrupt("table overlaps the page header".into()));
        }
        let mut prev = 0usize;
        for i in 0..self.count {
            let off = self.offset_of(i);
            if i == 0 && off != DATA_PAGE_HEADER {
                return Err(corrupt(format!(
                    "first entry offset {off} != header size {DATA_PAGE_HEADER}"
                )));
            }
            if i > 0 && off <= prev {
                return Err(corrupt(format!(
                    "offsets not strictly ascending at slot {i}: {prev} then {off}"
                )));
            }
            if off >= entries_end {
                return Err(corrupt(format!(
                    "slot {i} offset {off} reaches into the table (entries end at {entries_end})"
                )));
            }
            prev = off;
        }
        Ok(())
    }

    /// Entries on this page.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Overflow pages following this leaf (0 unless spanning).
    pub fn overflow_pages(&self) -> u16 {
        self.n_overflow
    }

    /// Whether this leaf holds a single record spanning overflow pages.
    pub fn is_spanning(&self) -> bool {
        self.n_overflow > 0
    }

    /// Payload offset of entry `i` from the v2 table (callers ensure
    /// `i < count` and `has_offsets`).
    fn offset_of(&self, i: usize) -> usize {
        let table_start = self.payload.len() - self.count * ENTRY_OFFSET_SLOT;
        le_u16(&self.payload[table_start + i * ENTRY_OFFSET_SLOT..]) as usize
    }

    /// The raw key bytes of entry `i` via the v2 offset table, without
    /// decoding the rest of the entry.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if the entry's key field
    /// is truncated.
    fn key_at(&self, i: usize) -> Result<&[u8]> {
        let mut r = Reader::new(&self.payload);
        r.skip(self.offset_of(i))?;
        let key_len = r.varint()? as usize;
        let start = r.position();
        r.skip(key_len)?;
        Ok(&self.payload[start..start + key_len])
    }

    /// Decodes the entry that begins at payload offset `off` (zero-copy)
    /// and returns it with the offset of the entry after it — the
    /// sequential step of an iterator, on either layout.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] on a malformed entry.
    pub fn entry_from(&self, off: usize) -> Result<(EntryRef, usize)> {
        let mut r = Reader::new(&self.payload);
        r.skip(off)?;
        let e = decode_entry(&self.payload, &mut r)?;
        Ok((e, r.position()))
    }

    /// Lower bound within a non-spanning leaf: how many entries sort
    /// below `key`, and the payload offset of the first that does not
    /// (meaningless when all of them do). v2 pages binary-search the
    /// offset table — O(log n) key decodes, no entry materialized; a v1
    /// page holds a lone record. Nothing is copied either way.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] on a malformed entry.
    pub fn seek(&self, key: &[u8]) -> Result<(usize, usize)> {
        debug_assert!(!self.is_spanning(), "spanning leaves use spanning_key");
        if self.has_offsets {
            let mut lo = 0usize;
            let mut hi = self.count;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                // Keys are strictly ascending, so an exact hit is the
                // bound: stop there (each probe is a fresh cache line).
                match self.key_at(mid)?.cmp(key) {
                    std::cmp::Ordering::Less => lo = mid + 1,
                    std::cmp::Ordering::Greater => hi = mid,
                    std::cmp::Ordering::Equal => return Ok((mid, self.offset_of(mid))),
                }
            }
            let off = if lo < self.count {
                self.offset_of(lo)
            } else {
                self.payload.len()
            };
            return Ok((lo, off));
        }
        // A v1 leaf holds one record (`parse` checks): one comparison.
        let (lone, _) = self.entry_from(DATA_PAGE_HEADER)?;
        Ok((usize::from(lone.key.as_ref() < key), DATA_PAGE_HEADER))
    }

    /// Point lookup within a non-spanning leaf: [`seek`](Self::seek), then
    /// decode the entry found there if its key matches. Only that entry
    /// is fully decoded.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] on a malformed entry.
    pub fn find(&self, key: &[u8]) -> Result<Option<EntryRef>> {
        let (below, off) = self.seek(key)?;
        if below == self.count {
            return Ok(None);
        }
        let (e, _) = self.entry_from(off)?;
        Ok((e.key.as_ref() == key).then_some(e))
    }

    /// Decodes every entry of a non-spanning leaf (zero-copy), in order.
    /// Iterators and integrity checks use this; point lookups use
    /// [`find`](Self::find).
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] on a malformed entry.
    pub fn entries(&self) -> Result<Vec<EntryRef>> {
        debug_assert!(!self.is_spanning(), "spanning leaves use spanning_entry");
        let mut r = Reader::new(&self.payload);
        r.skip(DATA_PAGE_HEADER)?;
        let mut out = Vec::with_capacity(self.count);
        for _ in 0..self.count {
            out.push(decode_entry(&self.payload, &mut r)?);
        }
        Ok(out)
    }

    /// Walks a v2 leaf start to end verifying that the offset table agrees
    /// with the actual entry boundaries: slot `i` must name exactly where
    /// entry `i` begins. Used by integrity checks; the hot path trusts the
    /// parse-time structural validation instead.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Corruption`] on any disagreement and
    /// with [`StorageError::InvalidFormat`] on a malformed entry.
    pub fn verify_offset_table(&self) -> Result<()> {
        if !self.has_offsets {
            return Ok(());
        }
        let mut r = Reader::new(&self.payload);
        r.skip(DATA_PAGE_HEADER)?;
        for i in 0..self.count {
            let off = self.offset_of(i);
            if r.position() != off {
                return Err(StorageError::corruption(
                    ComponentId::Sstable,
                    None,
                    format!(
                        "entry-offset table corrupt: slot {i} says {off}, entry {i} begins at {}",
                        r.position()
                    ),
                ));
            }
            decode_entry(&self.payload, &mut r)?;
        }
        let entries_end = self.payload.len() - self.count * ENTRY_OFFSET_SLOT;
        if r.position() > entries_end {
            return Err(StorageError::corruption(
                ComponentId::Sstable,
                None,
                format!(
                    "entry-offset table corrupt: entries end at {}, table begins at {entries_end}",
                    r.position()
                ),
            ));
        }
        Ok(())
    }

    /// The key of a spanning leaf's single record, zero-copy — so a lookup
    /// can reject a non-matching spanning leaf *before* reading any of its
    /// overflow pages.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if the key field is
    /// malformed.
    pub fn spanning_key(&self) -> Result<Bytes> {
        debug_assert!(self.is_spanning());
        let mut r = Reader::new(&self.payload);
        r.skip(DATA_PAGE_HEADER)?;
        let key_len = r.varint()? as usize;
        let start = r.position();
        r.skip(key_len)?;
        Ok(self.payload.slice(start..start + key_len))
    }

    /// Reassembles a spanning leaf's single record. `overflow` supplies the
    /// concatenated payloads of the leaf's overflow pages; the value is the
    /// one place decoding allocates, because it spans physical pages.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if the record is
    /// malformed, names a tombstone (tombstones never span), or promises
    /// more overflow bytes than were supplied.
    pub fn spanning_entry(&self, overflow: &[u8]) -> Result<EntryRef> {
        debug_assert!(self.is_spanning());
        let mut r = Reader::new(&self.payload);
        r.skip(DATA_PAGE_HEADER)?;
        let key_len = r.varint()? as usize;
        let key_start = r.position();
        r.skip(key_len)?;
        let key = self.payload.slice(key_start..key_start + key_len);
        let kind = r.u8()?;
        let seqno = r.varint()?;
        if kind == 2 {
            return Err(StorageError::InvalidFormat(
                "tombstone cannot span pages".into(),
            ));
        }
        if kind > 2 {
            return Err(StorageError::InvalidFormat(format!(
                "bad entry kind {kind}"
            )));
        }
        let val_len = r.varint()? as usize;
        let in_page = r.remaining();
        let from_page = &self.payload[self.payload.len() - in_page..];
        let needed_from_overflow = val_len.saturating_sub(in_page.min(val_len));
        if overflow.len() < needed_from_overflow {
            return Err(StorageError::InvalidFormat(format!(
                "spanning record needs {needed_from_overflow} overflow bytes, have {}",
                overflow.len()
            )));
        }
        let mut val = Vec::with_capacity(val_len);
        val.extend_from_slice(&from_page[..in_page.min(val_len)]);
        val.extend_from_slice(&overflow[..val_len - val.len()]);
        let entry = if kind == 0 {
            Entry::Put(Bytes::from(val))
        } else {
            Entry::Delta(Bytes::from(val))
        };
        Ok(EntryRef {
            key,
            version: Versioned { seqno, entry },
        })
    }
}

/// Parses all entries of a data page. `overflow` supplies the concatenated
/// payloads of the page's overflow pages (empty when the header says there
/// are none); `has_offsets` is true for v2 (`PageType::DataV2`) payloads.
///
/// # Errors
///
/// Fails with [`StorageError::InvalidFormat`] on malformed entries and
/// with [`StorageError::Corruption`] on an invalid v2 offset table.
pub fn parse_data_page(
    payload: &Bytes,
    overflow: &[u8],
    has_offsets: bool,
) -> Result<Vec<EntryRef>> {
    let leaf = LeafPage::parse(payload.clone(), has_offsets)?;
    if leaf.is_spanning() {
        Ok(vec![leaf.spanning_entry(overflow)?])
    } else {
        leaf.entries()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn v_put(seq: u64, val: &[u8]) -> Versioned {
        Versioned::put(seq, Bytes::copy_from_slice(val))
    }

    #[test]
    fn entry_roundtrip_all_kinds() {
        let cases = [
            ("k1", Versioned::put(7, Bytes::from_static(b"value"))),
            ("k2", Versioned::delta(8, Bytes::from_static(b"+1"))),
            ("k3", Versioned::tombstone(9)),
            ("", Versioned::put(0, Bytes::from_static(b""))),
        ];
        let mut buf = Vec::new();
        for (k, v) in &cases {
            let before = buf.len();
            encode_entry(&mut buf, k.as_bytes(), v);
            assert_eq!(buf.len() - before, encoded_len(k.as_bytes(), v));
        }
        let shared = Bytes::from(buf);
        let mut r = Reader::new(&shared);
        for (k, v) in &cases {
            let e = decode_entry(&shared, &mut r).unwrap();
            assert_eq!(e.key.as_ref(), k.as_bytes());
            assert_eq!(&e.version, v);
        }
    }

    #[test]
    fn decode_is_zero_copy() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, b"somekey", &v_put(1, b"somevalue"));
        let shared = Bytes::from(buf);
        let base = shared.as_slice().as_ptr() as usize;
        let end = base + shared.len();
        let mut r = Reader::new(&shared);
        let e = decode_entry(&shared, &mut r).unwrap();
        let kp = e.key.as_slice().as_ptr() as usize;
        assert!((base..end).contains(&kp), "key must alias the buffer");
        match &e.version.entry {
            Entry::Put(v) => {
                let vp = v.as_slice().as_ptr() as usize;
                assert!((base..end).contains(&vp), "value must alias the buffer");
            }
            other => panic!("expected Put, got {other:?}"),
        }
    }

    fn make_page(entries: &[(&[u8], Versioned)], v2: bool) -> Bytes {
        let mut payload = vec![0u8; 4088];
        let mut body = Vec::new();
        let mut offsets = Vec::new();
        for (k, v) in entries {
            offsets.push((DATA_PAGE_HEADER + body.len()) as u16);
            encode_entry(&mut body, k, v);
        }
        payload[DATA_PAGE_HEADER..DATA_PAGE_HEADER + body.len()].copy_from_slice(&body);
        write_data_page_header(&mut payload, entries.len() as u16, 0);
        if v2 {
            write_entry_offsets(&mut payload, &offsets);
        }
        Bytes::from(payload)
    }

    #[test]
    fn data_page_roundtrip_v1_and_v2() {
        let entries = [
            (b"alpha".as_slice(), v_put(1, b"one")),
            (b"beta".as_slice(), v_put(2, b"two")),
            (b"gamma".as_slice(), Versioned::tombstone(3)),
        ];
        // A v1 page holds a lone record; a v2 page any number.
        for (v2, entries) in [(false, &entries[1..2]), (true, &entries[..])] {
            let payload = make_page(entries, v2);
            let got = parse_data_page(&payload, &[], v2).unwrap();
            assert_eq!(got.len(), entries.len(), "v2={v2}");
            assert_eq!(got[0].key.as_ref(), entries[0].0);

            let leaf = LeafPage::parse(payload, v2).unwrap();
            leaf.verify_offset_table().unwrap();
            for (k, v) in entries {
                let e = leaf.find(k).unwrap().expect("present");
                assert_eq!(&e.version, v);
            }
            assert!(leaf.find(b"aaaa").unwrap().is_none());
            assert!(leaf.find(b"betaa").unwrap().is_none());
            assert!(leaf.find(b"zzz").unwrap().is_none());
        }
    }

    #[test]
    fn a_v1_page_with_two_entries_is_rejected() {
        // No writer produces one (the builder falls back to v1 only for a
        // lone record), so the lookup path does not walk one.
        let entries = [
            (b"aa".as_slice(), v_put(1, b"x")),
            (b"bb".as_slice(), v_put(2, b"y")),
        ];
        let err = LeafPage::parse(make_page(&entries, false), false).unwrap_err();
        assert!(matches!(err, StorageError::InvalidFormat(_)), "got {err}");
        assert!(parse_data_page(&make_page(&entries, false), &[], false).is_err());
        assert!(LeafPage::parse(make_page(&entries[..0], false), false).is_err());
        assert!(LeafPage::parse(make_page(&entries[..1], false), false).is_ok());
    }

    #[test]
    fn seek_lands_on_the_lower_bound_in_both_layouts() {
        let entries: Vec<(Vec<u8>, Versioned)> = (0..40u32)
            .map(|i| (format!("key{i:04}").into_bytes(), v_put(u64::from(i), b"v")))
            .collect();
        let refs: Vec<(&[u8], Versioned)> = entries
            .iter()
            .map(|(k, v)| (k.as_slice(), v.clone()))
            .collect();
        let leaf = LeafPage::parse(make_page(&refs, true), true).unwrap();
        assert_eq!(leaf.count(), 40);
        // An exact key, a bound between two keys, and one below all.
        for (bound, want) in [
            ("key0020", 20usize),
            ("key00205", 21),
            ("a", 0),
            ("key0039", 39),
        ] {
            let (below, mut off) = leaf.seek(bound.as_bytes()).unwrap();
            assert_eq!(below, want, "bound={bound}");
            // Walking on from there yields exactly the suffix.
            for (k, v) in &refs[want..] {
                let (e, next) = leaf.entry_from(off).unwrap();
                assert_eq!((e.key.as_ref(), &e.version), (*k, v));
                off = next;
            }
        }
        assert_eq!(leaf.seek(b"key0040").unwrap().0, 40, "past every key");

        // v1: the lone record is the bound unless it sorts below it.
        let lone = LeafPage::parse(make_page(&refs[20..21], false), false).unwrap();
        for (bound, want) in [("a", 0usize), ("key0020", 0), ("key00205", 1)] {
            assert_eq!(lone.seek(bound.as_bytes()).unwrap().0, want, "{bound}");
        }
    }

    #[test]
    fn corrupt_offset_tables_are_typed_corruption() {
        let entries = vec![
            (b"aa".as_slice(), v_put(1, b"x")),
            (b"bb".as_slice(), v_put(2, b"y")),
        ];
        let good = make_page(&entries, true);
        assert!(LeafPage::parse(good.clone(), true).is_ok());

        let table_start = good.len() - 2 * ENTRY_OFFSET_SLOT;
        // Non-ascending offsets.
        let mut bad = good.to_vec();
        bad[table_start + 2..table_start + 4].copy_from_slice(&2u16.to_le_bytes());
        let err = LeafPage::parse(Bytes::from(bad), true).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        // First offset not at the header boundary.
        let mut bad = good.to_vec();
        bad[table_start..table_start + 2].copy_from_slice(&9u16.to_le_bytes());
        let err = LeafPage::parse(Bytes::from(bad), true).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        // Offset pointing into the table region.
        let mut bad = good.to_vec();
        bad[table_start + 2..table_start + 4]
            .copy_from_slice(&((good.len() - 1) as u16).to_le_bytes());
        let err = LeafPage::parse(Bytes::from(bad), true).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        // A slot that parses but disagrees with the real entry boundary.
        let real_second = le_u16(&good[table_start + 2..]);
        let mut bad = good.to_vec();
        bad[table_start + 2..table_start + 4].copy_from_slice(&(real_second - 1).to_le_bytes());
        let leaf = LeafPage::parse(Bytes::from(bad), true).unwrap();
        let err = leaf.verify_offset_table().unwrap_err();
        assert!(err.is_corruption(), "got {err}");
        // A v2 page claiming overflow pages.
        let mut bad = good.to_vec();
        write_data_page_header(&mut bad, 1, 3);
        let err = LeafPage::parse(Bytes::from(bad), true).unwrap_err();
        assert!(err.is_corruption(), "got {err}");
    }

    #[test]
    fn spanning_record_reassembles() {
        let big_val = vec![0xabu8; 10_000];
        let mut full = Vec::new();
        encode_entry(&mut full, b"bigkey", &v_put(5, &big_val));
        // Split: page payload holds the header + first chunk; rest overflows.
        let page_cap = 4000usize;
        let mut payload = vec![0u8; page_cap];
        payload[DATA_PAGE_HEADER..].copy_from_slice(&full[..page_cap - DATA_PAGE_HEADER]);
        write_data_page_header(&mut payload, 1, 2);
        let payload = Bytes::from(payload);
        let overflow = &full[page_cap - DATA_PAGE_HEADER..];
        let leaf = LeafPage::parse(payload.clone(), false).unwrap();
        assert!(leaf.is_spanning());
        assert_eq!(leaf.spanning_key().unwrap().as_ref(), b"bigkey");
        let entries = parse_data_page(&payload, overflow, false).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].key.as_ref(), b"bigkey");
        match &entries[0].version.entry {
            Entry::Put(v) => assert_eq!(v.as_ref(), &big_val[..]),
            other => panic!("expected Put, got {other:?}"),
        }
    }

    #[test]
    fn bad_kind_is_rejected() {
        let mut buf = Vec::new();
        codec::put_bytes(&mut buf, b"k");
        codec::put_u8(&mut buf, 9);
        codec::put_varint(&mut buf, 1);
        let shared = Bytes::from(buf);
        let mut r = Reader::new(&shared);
        assert!(decode_entry(&shared, &mut r).is_err());
    }
}
