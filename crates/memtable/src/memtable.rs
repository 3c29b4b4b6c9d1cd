//! Ordered in-memory map with byte accounting.
//!
//! The memtable keeps exactly one [`Versioned`] entry per key by folding
//! incoming writes into the resident entry (a delta over a base record
//! produces a new base record; two deltas combine via the
//! [`MergeOperator`]). This mirrors the paper's observation that updates to
//! the same tuple must be "placed in tree levels consistent with their
//! ordering" (§3.1.1) — within `C0` the fold preserves that ordering while
//! keeping memory proportional to the live key set.

use std::collections::btree_map::{BTreeMap, Entry as Slot};
use std::ops::Bound;

use bytes::Bytes;

use crate::types::{check_newest_first, merge_versions, Entry, MergeOperator, Versioned};

/// Fixed per-entry overhead charged to the byte budget (map node, key and
/// value headers). The exact figure only needs to be stable, not precise.
pub const ENTRY_OVERHEAD: usize = 64;

/// An ordered in-memory component.
#[derive(Debug, Default, Clone)]
pub struct Memtable {
    map: BTreeMap<Bytes, Versioned>,
    bytes: usize,
}

impl Memtable {
    /// Creates an empty memtable.
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Number of distinct keys resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate bytes consumed, including per-entry overhead. This is
    /// the quantity the spring-and-gear scheduler watermarks (§4.3).
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    fn entry_cost(key: &Bytes, v: &Versioned) -> usize {
        ENTRY_OVERHEAD + key.len() + v.entry.payload_len()
    }

    /// Inserts a write, folding it into any resident entry for the key.
    ///
    /// Folding rules (new write vs resident entry):
    /// * `Put`/`Tombstone` replace whatever is resident.
    /// * `Delta` over resident `Put(v)` → `Put(apply(v, delta))`.
    /// * `Delta` over resident `Tombstone` → `Put(apply(None, delta))`.
    /// * `Delta` over resident `Delta(d)` → `Delta(merge_deltas(d, delta))`.
    /// * `Delta` with nothing resident stays a `Delta` — the base record
    ///   may live in a larger component.
    ///
    /// The write is the key's newest version: every write reaches `C0` in
    /// its seqno order (DESIGN §15.1), which a `strict-invariants` build
    /// asserts.
    pub fn insert(&mut self, key: Bytes, write: Versioned, op: &dyn MergeOperator) {
        self.fold_in(key, write, |resident, write| {
            check_newest_first(&write, resident);
            let Entry::Delta(d) = &write.entry else {
                return Some(write);
            };
            Some(match &resident.entry {
                Entry::Put(v) => Versioned::put(write.seqno, op.apply(Some(v), d)),
                Entry::Tombstone => Versioned::put(write.seqno, op.apply(None, d)),
                Entry::Delta(older) => Versioned::delta(write.seqno, op.merge_deltas(older, d)),
            })
        });
    }

    /// Stores `incoming` under `key` in one tree descent: as is when the
    /// key is absent, else whatever `fold(resident, incoming)` resolves
    /// the pair to (`None` leaves the resident entry alone).
    fn fold_in(
        &mut self,
        key: Bytes,
        incoming: Versioned,
        fold: impl FnOnce(&Versioned, Versioned) -> Option<Versioned>,
    ) {
        match self.map.entry(key) {
            Slot::Vacant(slot) => {
                self.bytes += Self::entry_cost(slot.key(), &incoming);
                slot.insert(incoming);
            }
            Slot::Occupied(mut slot) => {
                let Some(folded) = fold(slot.get(), incoming) else {
                    return;
                };
                // Same key, same overhead: only the payload moves the total.
                self.bytes -= slot.get().entry.payload_len();
                self.bytes += folded.entry.payload_len();
                slot.insert(folded);
            }
        }
    }

    /// Looks up the resident entry for `key`.
    pub fn get(&self, key: &[u8]) -> Option<&Versioned> {
        self.map.get(key)
    }

    /// Smallest resident key.
    pub fn first_key(&self) -> Option<&Bytes> {
        self.map.keys().next()
    }

    /// Largest resident key.
    pub fn last_key(&self) -> Option<&Bytes> {
        self.map.keys().next_back()
    }

    /// Removes and returns the smallest entry — the snowshovel drain step.
    pub fn pop_first(&mut self) -> Option<(Bytes, Versioned)> {
        let (key, v) = self.map.pop_first()?;
        self.bytes -= Self::entry_cost(&key, &v);
        Some((key, v))
    }

    /// Iterates all entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Bytes, &Versioned)> {
        self.map.iter()
    }

    /// Iterates entries with key ≥ `from` in key order.
    pub fn range_from<'a>(
        &'a self,
        from: &[u8],
    ) -> impl Iterator<Item = (&'a Bytes, &'a Versioned)> {
        self.map
            .range::<[u8], _>((Bound::Included(from), Bound::Unbounded))
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }

    /// Takes the whole table, leaving this one empty. Used to freeze `C0`
    /// into `C0'` in non-snowshovel mode.
    pub fn take(&mut self) -> Memtable {
        std::mem::take(self)
    }

    /// Removes every entry keyed at or below `last` and returns them as a
    /// table of their own; the entries above `last` stay.
    pub fn split_through(&mut self, last: &[u8]) -> Memtable {
        let first_above = self
            .map
            .range::<[u8], _>((Bound::Excluded(last), Bound::Unbounded))
            .next()
            .map(|(k, _)| k.clone());
        let above = match first_above {
            Some(k) => self.map.split_off(&k),
            None => BTreeMap::new(),
        };
        let map = std::mem::replace(&mut self.map, above);
        let bytes = map.iter().map(|(k, v)| Self::entry_cost(k, v)).sum();
        self.bytes -= bytes;
        Memtable { map, bytes }
    }

    /// Inserts an entry for a key known to be absent — no folding is
    /// needed or attempted. The snowshovel buffer uses this to retain
    /// drained entries for concurrent readers: a pass drains each key at
    /// most once, so the retained table never sees a duplicate.
    pub fn insert_unmerged(&mut self, key: Bytes, v: Versioned) {
        debug_assert!(
            !self.map.contains_key(&key),
            "insert_unmerged: key already resident"
        );
        self.bytes += Self::entry_cost(&key, &v);
        self.map.insert(key, v);
    }

    /// Inserts an entry older than anything resident for the key,
    /// folding the pair resident-first through
    /// [`merge_versions`](crate::merge_versions). A capped merge pass
    /// uses this to fold its undrained entries under the deferred ones.
    pub fn insert_older(&mut self, key: Bytes, older: Versioned, op: &dyn MergeOperator) {
        self.fold_in(key, older, |resident, older| {
            merge_versions(op, &[resident.clone(), older], false)
        });
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::types::{AddOperator, AppendOperator};

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut m = Memtable::new();
        m.insert(b("k1"), Versioned::put(1, b("v1")), &AppendOperator);
        m.insert(b("k2"), Versioned::put(2, b("v2")), &AppendOperator);
        assert_eq!(m.get(b"k1").unwrap().entry, Entry::Put(b("v1")));
        assert_eq!(m.get(b"k2").unwrap().seqno, 2);
        assert!(m.get(b"k3").is_none());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn put_overwrites_and_accounting_stays_consistent() {
        let mut m = Memtable::new();
        m.insert(b("k"), Versioned::put(1, b("short")), &AppendOperator);
        let after_first = m.approx_bytes();
        m.insert(
            b("k"),
            Versioned::put(2, b("a much longer value")),
            &AppendOperator,
        );
        assert!(m.approx_bytes() > after_first);
        m.insert(b("k"), Versioned::put(3, b("s")), &AppendOperator);
        assert_eq!(m.approx_bytes(), ENTRY_OVERHEAD + 1 + 1);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn delta_folds_into_base() {
        let mut m = Memtable::new();
        m.insert(b("k"), Versioned::put(1, b("base")), &AppendOperator);
        m.insert(b("k"), Versioned::delta(2, b("+d1")), &AppendOperator);
        let v = m.get(b"k").unwrap();
        assert_eq!(v.entry, Entry::Put(b("base+d1")));
        assert_eq!(v.seqno, 2);
    }

    #[test]
    fn delta_chain_combines() {
        let mut m = Memtable::new();
        m.insert(b("k"), Versioned::delta(1, b("a")), &AppendOperator);
        m.insert(b("k"), Versioned::delta(2, b("b")), &AppendOperator);
        // Stays a delta: the base may be on disk.
        assert_eq!(m.get(b"k").unwrap().entry, Entry::Delta(b("ab")));
    }

    #[test]
    fn delta_over_tombstone_becomes_base() {
        let mut m = Memtable::new();
        m.insert(b("k"), Versioned::tombstone(1), &AddOperator);
        m.insert(
            b("k"),
            Versioned::delta(2, Bytes::copy_from_slice(&7i64.to_le_bytes())),
            &AddOperator,
        );
        match &m.get(b"k").unwrap().entry {
            Entry::Put(v) => assert_eq!(i64::from_le_bytes(v[..8].try_into().unwrap()), 7),
            other => panic!("expected Put, got {other:?}"),
        }
    }

    #[test]
    fn tombstone_replaces_value() {
        let mut m = Memtable::new();
        m.insert(b("k"), Versioned::put(1, b("v")), &AppendOperator);
        m.insert(b("k"), Versioned::tombstone(2), &AppendOperator);
        assert_eq!(m.get(b"k").unwrap().entry, Entry::Tombstone);
    }

    #[test]
    fn pop_first_drains_in_key_order() {
        let mut m = Memtable::new();
        for k in ["c", "a", "b"] {
            m.insert(b(k), Versioned::put(1, b("v")), &AppendOperator);
        }
        let mut keys = Vec::new();
        while let Some((k, _)) = m.pop_first() {
            keys.push(k);
        }
        assert_eq!(keys, vec![b("a"), b("b"), b("c")]);
        assert_eq!(m.approx_bytes(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn range_from_is_inclusive() {
        let mut m = Memtable::new();
        for k in ["a", "b", "c", "d"] {
            m.insert(b(k), Versioned::put(1, b("v")), &AppendOperator);
        }
        let keys: Vec<_> = m.range_from(b"b").map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![b("b"), b("c"), b("d")]);
    }

    #[test]
    fn split_through_keeps_what_is_above_and_its_bytes() {
        let mut m = Memtable::new();
        for k in ["a", "b", "bb", "c"] {
            m.insert(b(k), Versioned::put(1, b("v")), &AppendOperator);
        }
        let total = m.approx_bytes();
        let below = m.split_through(b"b");
        let keys = |m: &Memtable| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(keys(&below), [b("a"), b("b")]);
        assert_eq!(keys(&m), [b("bb"), b("c")]);
        assert_eq!(below.approx_bytes() + m.approx_bytes(), total);
        assert!(m.split_through(b"a").is_empty());
        assert_eq!(m.split_through(b"z").len(), 2);
        assert_eq!(m.approx_bytes(), 0);
    }

    #[test]
    fn take_freezes() {
        let mut m = Memtable::new();
        m.insert(b("k"), Versioned::put(1, b("v")), &AppendOperator);
        let frozen = m.take();
        assert!(m.is_empty());
        assert_eq!(m.approx_bytes(), 0);
        assert_eq!(frozen.len(), 1);
        assert!(frozen.approx_bytes() > 0);
    }

    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "freshness inverted")]
    fn an_insert_older_than_the_resident_version_panics() {
        let mut m = Memtable::new();
        m.insert(b("k"), Versioned::put(6, b("new")), &AppendOperator);
        m.insert(b("k"), Versioned::put(5, b("old")), &AppendOperator);
    }

    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "freshness inverted")]
    fn an_insert_older_of_a_newer_version_panics() {
        let mut m = Memtable::new();
        m.insert(b("k"), Versioned::put(5, b("old")), &AppendOperator);
        m.insert_older(b("k"), Versioned::put(6, b("new")), &AppendOperator);
    }
}
