//! Property-based tests for on-disk components.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use blsm_memtable::{AppendOperator, Entry, Versioned};
use blsm_sstable::{EntryStream, MergeIter, ReadMode, Sstable, SstableBuilder};
use blsm_storage::{BufferPool, MemDevice, PageId, Region};

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(Arc::new(MemDevice::new()), 8192))
}

fn build(pool: &Arc<BufferPool>, start: u64, entries: &BTreeMap<Bytes, Versioned>) -> Arc<Sstable> {
    let region = Region {
        start: PageId(start),
        pages: 8192,
    };
    let mut b = SstableBuilder::new(pool.clone(), region, entries.len() as u64);
    for (k, v) in entries {
        b.add(k, v).unwrap();
    }
    Arc::new(b.finish().unwrap())
}

fn arb_entries(max: usize) -> impl Strategy<Value = BTreeMap<Bytes, Versioned>> {
    proptest::collection::btree_map(
        proptest::collection::vec(any::<u8>(), 1..24).prop_map(Bytes::from),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..2048),
            0u8..3,
        )
            .prop_map(|(seq, val, kind)| match kind {
                0 => Versioned::put(seq, Bytes::from(val)),
                1 => Versioned::delta(seq, Bytes::from(val)),
                _ => Versioned::tombstone(seq),
            }),
        1..max,
    )
}

/// Like [`arb_entries`] but with values up to 6 KiB, so some records span
/// overflow pages.
fn arb_entries_spanning(max: usize) -> impl Strategy<Value = BTreeMap<Bytes, Versioned>> {
    proptest::collection::btree_map(
        proptest::collection::vec(any::<u8>(), 1..24).prop_map(Bytes::from),
        (any::<u64>(), 1usize..6000)
            .prop_map(|(seq, len)| Versioned::put(seq, Bytes::from(vec![(seq % 251) as u8; len]))),
        1..max,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Build → read-back equivalence: every entry is retrievable by point
    /// lookup, iteration returns exactly the input in order, and the bloom
    /// filter has no false negatives.
    #[test]
    fn build_readback_roundtrip(entries in arb_entries(120)) {
        let pool = pool();
        let table = build(&pool, 0, &entries);
        prop_assert_eq!(table.entry_count(), entries.len() as u64);
        for (k, v) in &entries {
            prop_assert!(table.may_contain(k), "bloom false negative");
            let got = table.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        for mode in [ReadMode::Pooled, ReadMode::Buffered(8)] {
            let scanned: Vec<(Bytes, Versioned)> = table
                .iter(mode)
                .map(|r| r.unwrap())
                .map(|e| (e.key, e.version))
                .collect();
            let want: Vec<(Bytes, Versioned)> =
                entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(&scanned, &want);
        }
    }

    /// Page-spanning records (lone-record v1 leaves plus overflow pages,
    /// among v2 leaves) read back by point lookup and by scan, through
    /// the building pool and after a cold reopen from the device, and
    /// scrub clean: the layout is self-describing per page.
    #[test]
    fn spanning_records_read_back_and_survive_reopen(entries in arb_entries_spanning(40)) {
        let pool = pool();
        let table = build(&pool, 0, &entries);
        prop_assert_eq!(table.meta().entry_count, entries.len() as u64);
        for (k, v) in &entries {
            prop_assert_eq!(table.get(k).unwrap().as_ref(), Some(v));
        }
        let scanned: Vec<(Bytes, Versioned)> = table
            .iter(ReadMode::Pooled)
            .map(|r| r.unwrap())
            .map(|e| (e.key, e.version))
            .collect();
        let want: Vec<(Bytes, Versioned)> =
            entries.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(&scanned, &want);

        let region = table.region();
        drop(table);
        pool.drop_clean();
        let reopened = Sstable::open(pool, region).unwrap();
        for (k, v) in &entries {
            prop_assert_eq!(reopened.get(k).unwrap().as_ref(), Some(v));
        }
        let report = reopened.scrub();
        prop_assert!(report.errors.is_empty(), "scrub found: {:?}", report.errors);
    }

    /// Recovery equivalence: reopening the component from its region gives
    /// identical contents and metadata.
    #[test]
    fn open_recovers_identical_table(entries in arb_entries(60)) {
        let pool = pool();
        let table = build(&pool, 0, &entries);
        let region = table.region();
        let meta = table.meta().clone();
        drop(table);
        pool.drop_clean();
        let reopened = Sstable::open(pool, region).unwrap();
        prop_assert_eq!(reopened.meta(), &meta);
        for (k, v) in &entries {
            let got = reopened.get(k).unwrap();
            prop_assert_eq!(got.as_ref(), Some(v));
        }
    }

    /// iter_from(k) returns exactly the suffix of entries with key >= k.
    #[test]
    fn iter_from_is_exact_suffix(entries in arb_entries(80), probe in proptest::collection::vec(any::<u8>(), 0..24)) {
        let pool = pool();
        let table = build(&pool, 0, &entries);
        let probe = Bytes::from(probe);
        let got: Vec<Bytes> = table
            .iter_from(&probe, ReadMode::Pooled)
            .map(|r| r.unwrap().key)
            .collect();
        let want: Vec<Bytes> = entries.range(probe..).map(|(k, _)| k.clone()).collect();
        prop_assert_eq!(got, want);
    }

    /// A two-table MergeIter resolves to newest-wins with bottom-level
    /// tombstone elision, matching a map-overlay model.
    #[test]
    fn merge_iter_matches_overlay_model(
        old in arb_entries(60),
        new in arb_entries(60),
    ) {
        let pool = pool();
        // Force the "new" table to have strictly newer seqnos.
        let new: BTreeMap<Bytes, Versioned> = new
            .into_iter()
            .map(|(k, mut v)| {
                v.seqno |= 1 << 63;
                (k, v)
            })
            .collect();
        let old: BTreeMap<Bytes, Versioned> = old
            .into_iter()
            .map(|(k, mut v)| {
                v.seqno &= !(1 << 63);
                (k, v)
            })
            .collect();
        let t_old = build(&pool, 0, &old);
        let t_new = build(&pool, 20_000, &new);
        let streams: Vec<EntryStream<'static>> = vec![
            Box::new(t_new.iter(ReadMode::Pooled)),
            Box::new(t_old.iter(ReadMode::Pooled)),
        ];
        let merged: BTreeMap<Bytes, Versioned> =
            MergeIter::new(streams, Arc::new(AppendOperator), true)
                .map(|r| r.unwrap())
                .map(|e| (e.key, e.version))
                .collect();

        // Model: overlay new on old, resolve per §3.1.1 at the bottom.
        let mut keys: std::collections::BTreeSet<Bytes> = old.keys().cloned().collect();
        keys.extend(new.keys().cloned());
        for k in keys {
            let mut versions = Vec::new();
            if let Some(v) = new.get(&k) {
                versions.push(v.clone());
            }
            if let Some(v) = old.get(&k) {
                versions.push(v.clone());
            }
            let want = blsm_memtable::merge_versions(&AppendOperator, &versions, true);
            let got = merged.get(&k).cloned();
            prop_assert_eq!(got, want, "key {:?}", k);
            if let Some(v) = merged.get(&k) {
                prop_assert!(
                    matches!(v.entry, Entry::Put(_)),
                    "bottom-level merge output must be base records"
                );
            }
        }
    }
}
