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

use crate::read::ScanItem;

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

/// Scatter-gather scan: fan the range out to every shard whose key
/// range overlaps `[from, to)` and concatenate the per-shard (already
/// sorted) results into one globally key-ordered stream of at most
/// `limit` rows.
///
/// Range-partitioned shards are disjoint and visited in routing order —
/// which is key order — so everything already gathered sorts before
/// anything a later shard can return: the gather is concatenation, the
/// common single-shard scan stops after one fetch, and each later shard
/// is asked only for the rows still missing (`limit - gathered`).
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
    let mut out: Vec<ScanItem> = Vec::new();
    for i in first..=last {
        // Scatter: shard i's slice of the range starts at `from` only
        // for the first shard; later shards start at their lower bound
        // (their whole range is inside the scan).
        let shard_from: &[u8] = if i == first {
            from
        } else {
            bounds[i - 1].as_ref()
        };
        out.extend(fetch(i, shard_from, to, limit - out.len())?);
        if out.len() >= limit {
            break;
        }
    }
    debug_assert!(
        out.len() <= limit && out.windows(2).all(|w| w[0].key < w[1].key),
        "shards returned overlapping, unsorted or over-limit rows"
    );
    Ok(out)
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
    fn scatter_equals_the_sorted_concatenation() {
        // Three shards over a..=z, each holding the letters it owns.
        let bounds = vec![Bytes::from_static(b"g"), Bytes::from_static(b"p")];
        let all: Vec<ScanItem> = (b'a'..=b'z')
            .map(|c| item(&(c as char).to_string(), "v"))
            .collect();
        let within = |r: &ScanItem, from: &[u8], to: Option<&[u8]>| {
            r.key.as_ref() >= from && to.is_none_or(|t| r.key.as_ref() < t)
        };
        // Boundary-straddling, bounded (ending on and off a boundary),
        // empty, limit-cut inside a shard and exactly at a shard's end.
        type Case = (&'static [u8], Option<&'static [u8]>, usize);
        let cases: [Case; 6] = [
            (b"", None, 100),
            (b"e", None, 4),
            (b"e", Some(b"r"), 100),
            (b"a", Some(b"g"), 100),
            (b"h", Some(b"h"), 10),
            (b"d", None, 3),
        ];
        for (from, to, limit) in cases {
            let hits = all.iter().filter(|r| within(r, from, to));
            let want: Vec<ScanItem> = hits.take(limit).cloned().collect();
            let got = scatter_scan(&bounds, from, to, limit, |i, from, to, limit| {
                let owned = all.iter().filter(|r| shard_for(&bounds, &r.key) == i);
                let hits = owned.filter(|r| within(r, from, to));
                Ok(hits.take(limit).cloned().collect())
            });
            assert_eq!(got.unwrap(), want, "{from:?}..{to:?} / {limit}");
        }
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
