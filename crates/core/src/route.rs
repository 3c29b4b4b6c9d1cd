//! Key-range routing: how one keyspace is split over N trees by sorted
//! boundary keys.
//!
//! [`crate::ShardedBLsm`] (the durable serving tier with per-shard WALs)
//! and the `ext_partitioning` experiment (a partition scheduler over
//! bare trees) share this arithmetic — which tree owns a key, which
//! trees a range touches, how to scatter a scan and gather it back in
//! key order.
//!
//! The boundary convention: `bounds[i]` is the *inclusive lower bound*
//! of partition `i + 1`; partition 0 covers everything below
//! `bounds[0]`. `bounds.len() + 1` partitions cover the whole keyspace
//! with no gaps.

use bytes::Bytes;

use blsm_storage::Result;

use crate::read::{ScanItem, SCAN_PREALLOC_ROWS};

/// Index of the partition owning `key` under sorted `bounds`.
pub fn shard_for(bounds: &[Bytes], key: &[u8]) -> usize {
    bounds.partition_point(|b| b.as_ref() <= key)
}

/// Inclusive range of partition indexes a scan of `[from, to)` can
/// touch (`to = None` = unbounded above). The upper index is the
/// partition owning the last possible key of the range.
pub(crate) fn shards_overlapping(
    bounds: &[Bytes],
    from: &[u8],
    to: Option<&[u8]>,
) -> (usize, usize) {
    let first = shard_for(bounds, from);
    let last = match to {
        // `to` is exclusive: a range ending exactly on a boundary key
        // never reads the partition that starts there.
        Some(to) => bounds.partition_point(|b| b.as_ref() < to),
        None => bounds.len(),
    };
    (first, last.max(first))
}

/// Validates that `bounds` are strictly sorted (the precondition every
/// router relies on for binary-search routing).
pub(crate) fn bounds_are_sorted(bounds: &[Bytes]) -> bool {
    bounds.windows(2).all(|w| w[0] < w[1])
}

/// `n - 1` boundaries cutting the keyspace into `n` byte-wise even
/// shards: boundary `i` is the big-endian two-byte value
/// `floor(65536 * i / n)`. Even cuts are the right default for hashed
/// or uniformly distributed keys; callers with skewed keyspaces pass
/// their own boundaries.
///
/// # Panics
///
/// Panics if `n` is 0 or exceeds 65536 (two bytes cannot cut finer).
pub(crate) fn even_bounds(n: usize) -> Vec<Bytes> {
    assert!(
        (1..=65_536).contains(&n),
        "shard count must be in 1..=65536"
    );
    (1..n)
        .map(|i| {
            let cut = ((i as u64) << 16) / n as u64;
            Bytes::copy_from_slice(&(cut as u16).to_be_bytes())
        })
        .collect()
}

/// K-way merge of sorted [`ScanItem`] streams, smallest key first, ties
/// broken by stream index (earlier stream wins, duplicate suppressed) —
/// the gather half of every scatter-gather scan. Lives beside the
/// scatter arithmetic because the two must agree on the boundary
/// convention: the scatter step visits shards in routing order, and this
/// merge's tie-break assumes that order (the earlier stream holds the
/// authoritative row for a duplicated key).
pub(crate) fn kway_merge(streams: Vec<Vec<ScanItem>>, limit: usize) -> Vec<ScanItem> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    if streams.len() == 1 {
        let mut only = streams.into_iter().next().unwrap_or_default();
        only.truncate(limit);
        return only;
    }
    let mut heap: BinaryHeap<Reverse<(Bytes, usize, usize)>> = streams
        .iter()
        .enumerate()
        .filter_map(|(s, rows)| rows.first().map(|r| Reverse((r.key.clone(), s, 0))))
        .collect();
    let mut out: Vec<ScanItem> = Vec::with_capacity(limit.min(SCAN_PREALLOC_ROWS));
    while let Some(Reverse((key, s, pos))) = heap.pop() {
        if out.len() >= limit {
            break;
        }
        let row = streams[s][pos].clone();
        if out.last().is_none_or(|r: &ScanItem| r.key != key) {
            out.push(row);
        }
        if let Some(next) = streams[s].get(pos + 1) {
            heap.push(Reverse((next.key.clone(), s, pos + 1)));
        }
    }
    out
}

/// Scatter-gather scan: fan the range out to every shard whose key
/// range overlaps `[from, to)`, then gather the per-shard (already
/// sorted) result streams through a k-way merge into one globally
/// key-ordered stream, truncated to `limit`.
///
/// With range-partitioned shards the streams are disjoint, so the merge
/// degenerates to concatenation — but it is written as a genuine k-way
/// merge (smallest-head heap, ties broken by shard index) so the gather
/// step is correct for *any* boundary configuration the router is handed,
/// which is exactly the property an online split would lean on.
///
/// Shards are visited in routing order — which under range partitioning
/// is key order — so the common single-shard scan stops after one fetch,
/// and each later shard is asked only for the rows still missing
/// (`limit - gathered`): everything already gathered sorts before
/// anything it can return.
///
/// `fetch(i, from, to, limit)` reads partition `i`.
///
/// # Errors
///
/// The first `fetch` error.
pub fn scatter_scan(
    bounds: &[Bytes],
    from: &[u8],
    to: Option<&[u8]>,
    limit: usize,
    fetch: impl Fn(usize, &[u8], Option<&[u8]>, usize) -> Result<Vec<ScanItem>>,
) -> Result<Vec<ScanItem>> {
    if limit == 0 {
        return Ok(Vec::new());
    }
    let (first, last) = shards_overlapping(bounds, from, to);
    let mut streams: Vec<Vec<ScanItem>> = Vec::with_capacity(last - first + 1);
    let mut gathered = 0usize;
    for i in first..=last {
        // Scatter: shard i's slice of the range starts at `from` only
        // for the first shard; later shards start at their lower bound
        // (their whole range is inside the scan).
        let shard_from: &[u8] = if i == first {
            from
        } else {
            bounds[i - 1].as_ref()
        };
        let rows = fetch(i, shard_from, to, limit - gathered)?;
        gathered += rows.len();
        streams.push(rows);
        // Range partitioning means shards are visited in key order: once
        // `limit` rows are gathered, later shards can only contribute
        // rows that sort after everything kept.
        if gathered >= limit {
            break;
        }
    }
    Ok(kway_merge(streams, limit))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn routing_respects_inclusive_lower_bounds() {
        let bounds = vec![Bytes::from_static(b"g"), Bytes::from_static(b"p")];
        assert_eq!(shard_for(&bounds, b""), 0);
        assert_eq!(shard_for(&bounds, b"f"), 0);
        assert_eq!(shard_for(&bounds, b"g"), 1);
        assert_eq!(shard_for(&bounds, b"o"), 1);
        assert_eq!(shard_for(&bounds, b"p"), 2);
        assert_eq!(shard_for(&bounds, b"zz"), 2);
    }

    #[test]
    fn overlap_covers_exactly_the_touched_shards() {
        let bounds = vec![Bytes::from_static(b"g"), Bytes::from_static(b"p")];
        assert_eq!(shards_overlapping(&bounds, b"a", Some(b"c")), (0, 0));
        assert_eq!(shards_overlapping(&bounds, b"a", Some(b"h")), (0, 1));
        assert_eq!(shards_overlapping(&bounds, b"a", None), (0, 2));
        // An exclusive `to` equal to a boundary stops short of the
        // partition that starts there.
        assert_eq!(shards_overlapping(&bounds, b"a", Some(b"g")), (0, 0));
        assert_eq!(shards_overlapping(&bounds, b"h", Some(b"q")), (1, 2));
        // Degenerate (empty) range still yields a well-formed pair.
        assert_eq!(shards_overlapping(&bounds, b"q", Some(b"a")), (2, 2));
    }

    fn item(k: &str, v: &str) -> ScanItem {
        ScanItem {
            key: Bytes::copy_from_slice(k.as_bytes()),
            value: Bytes::copy_from_slice(v.as_bytes()),
        }
    }

    #[test]
    fn kway_merge_interleaves_and_dedupes() {
        let merged = kway_merge(
            vec![
                vec![item("a", "1"), item("c", "1"), item("e", "1")],
                vec![item("b", "2"), item("c", "2"), item("d", "2")],
            ],
            10,
        );
        let keys: Vec<&[u8]> = merged.iter().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, vec![b"a" as &[u8], b"b", b"c", b"d", b"e"]);
        // The tie on "c" kept the earlier stream's row.
        assert_eq!(merged[2].value.as_ref(), b"1");
        // Limit truncates.
        assert_eq!(
            kway_merge(vec![vec![item("a", "1")], vec![item("b", "2")]], 1).len(),
            1
        );
    }

    #[test]
    fn scatter_asks_later_shards_only_for_the_missing_rows() {
        let bounds = vec![Bytes::from_static(b"g"), Bytes::from_static(b"p")];
        let asked = std::cell::RefCell::new(Vec::new());
        // Every shard has two rows to give, however many it is asked for.
        let rows = scatter_scan(&bounds, b"a", None, 5, |i, _, _, limit| {
            asked.borrow_mut().push((i, limit));
            let prefix = [b"a", b"g", b"p"][i];
            Ok((0..2.min(limit))
                .map(|j| item(&format!("{}{j}", prefix[0] as char), "v"))
                .collect())
        })
        .unwrap();
        assert_eq!(*asked.borrow(), vec![(0, 5), (1, 3), (2, 1)]);
        let keys: Vec<&[u8]> = rows.iter().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, vec![b"a0" as &[u8], b"a1", b"g0", b"g1", b"p0"]);
    }

    #[test]
    fn kway_merge_handles_empty_inputs() {
        // No streams at all (a scan that overlapped zero shards).
        assert!(kway_merge(Vec::new(), 10).is_empty());
        // Every stream empty (shards overlapped, none had rows).
        assert!(kway_merge(vec![Vec::new(), Vec::new()], 10).is_empty());
        // Empty streams interleaved with full ones must not stall the
        // heap or shift the order.
        let merged = kway_merge(
            vec![
                Vec::new(),
                vec![item("b", "2")],
                Vec::new(),
                vec![item("a", "4")],
            ],
            10,
        );
        let keys: Vec<&[u8]> = merged.iter().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, vec![b"a" as &[u8], b"b"]);
        // A single stream (the common one-shard scan) fast-paths but
        // still honors the limit; zero limit yields zero rows.
        assert_eq!(
            kway_merge(vec![vec![item("a", "1"), item("b", "1")]], 1).len(),
            1
        );
        assert!(kway_merge(vec![vec![item("a", "1")]], 0).is_empty());
    }

    #[test]
    fn kway_merge_dedupes_across_three_streams() {
        // The same key in *every* stream (a row duplicated across shards
        // mid-migration): exactly one survivor, from the lowest stream
        // index, and later keys are unaffected.
        let merged = kway_merge(
            vec![
                vec![item("k", "s0"), item("z", "s0")],
                vec![item("k", "s1")],
                vec![item("k", "s2"), item("m", "s2")],
            ],
            10,
        );
        let keys: Vec<&[u8]> = merged.iter().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, vec![b"k" as &[u8], b"m", b"z"]);
        assert_eq!(merged[0].value.as_ref(), b"s0");
    }

    #[test]
    fn kway_merge_dedupe_does_not_eat_the_limit() {
        // limit counts *emitted* rows: with limit 2 and a duplicated
        // head key, the suppressed duplicate must not consume a slot.
        let merged = kway_merge(
            vec![
                vec![item("a", "s0"), item("c", "s0")],
                vec![item("a", "s1"), item("b", "s1")],
            ],
            2,
        );
        let keys: Vec<&[u8]> = merged.iter().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, vec![b"a" as &[u8], b"b"]);
    }

    #[test]
    fn overlap_with_unbounded_end_reaches_the_last_shard() {
        let bounds = vec![Bytes::from_static(b"g"), Bytes::from_static(b"p")];
        // Unbounded-end scans cover through the final shard from any
        // starting shard.
        assert_eq!(shards_overlapping(&bounds, b"", None), (0, 2));
        assert_eq!(shards_overlapping(&bounds, b"h", None), (1, 2));
        assert_eq!(shards_overlapping(&bounds, b"zz", None), (2, 2));
        // A start exactly on a boundary begins in the shard that the
        // boundary opens.
        assert_eq!(shards_overlapping(&bounds, b"p", None), (2, 2));
        // No bounds at all: one shard owns everything, bounded or not.
        assert_eq!(shards_overlapping(&[], b"anything", None), (0, 0));
        assert_eq!(shards_overlapping(&[], b"", Some(b"zzz")), (0, 0));
    }

    #[test]
    fn even_bounds_cut_the_keyspace() {
        assert!(even_bounds(1).is_empty());
        let b4 = even_bounds(4);
        assert_eq!(b4.len(), 3);
        assert!(bounds_are_sorted(&b4));
        assert_eq!(b4[0].as_ref(), &[0x40, 0x00]);
        assert_eq!(b4[1].as_ref(), &[0x80, 0x00]);
        assert_eq!(b4[2].as_ref(), &[0xC0, 0x00]);
        // Every first byte routes somewhere, and the spread is even.
        let mut counts = vec![0usize; 4];
        for byte in 0..=255u8 {
            counts[shard_for(&b4, &[byte, 0])] += 1;
        }
        assert!(counts.iter().all(|&c| c == 64), "{counts:?}");
    }
}
