//! The in-RAM leaf index of a component: for each leaf its first key
//! (its *fence*) and its region-relative page, in key order (§2.2: the
//! index lives in RAM, so a point lookup costs one leaf read).
//!
//! Fences sit back to back in one byte arena per segment, with one
//! `(end, page)` pair per leaf: a leaf costs 8 bytes plus its key's, and
//! no heap allocation of its own. The fences are copies, so the index
//! never aliases (and pins) a merge input's read-ahead chunk. A builder
//! grows the index in segments and seals one at each flush point; a
//! sealed segment never changes, so a flushed prefix and the finished
//! table share every sealed segment instead of copying it.

use std::sync::Arc;

/// One sealed run of leaves.
#[derive(Debug, Default)]
struct Segment {
    /// The leaves' fences, back to back.
    keys: Box<[u8]>,
    /// Per leaf: where its fence ends in `keys` (it starts where the
    /// previous one ends) and its region-relative page.
    leaves: Box<[(u32, u32)]>,
}

impl Segment {
    fn fence(&self, i: usize) -> &[u8] {
        let start = i.checked_sub(1).map_or(0, |p| self.leaves[p].0 as usize);
        &self.keys[start..self.leaves[i].0 as usize]
    }

    /// How many of the segment's leaves have a fence at or below `key`.
    fn upto(&self, key: &[u8]) -> usize {
        let (mut lo, mut hi) = (0, self.leaves.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.fence(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn ram_bytes(&self) -> usize {
        // The `Arc`'s two counts, the segment, and its two arrays.
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<Segment>()
            + self.keys.len()
            + std::mem::size_of_val(&*self.leaves)
    }
}

/// A sealed segment and the position of its first leaf in the index.
type Entry = (usize, Arc<Segment>);

/// A run of consecutive sealed segments, shared by every index that
/// covers it.
type Block = Arc<[Entry]>;

/// The heap bytes of a block of `len` segments: the `Arc`'s two counts
/// and the entries.
fn block_heap(len: usize) -> usize {
    2 * std::mem::size_of::<usize>() + len * std::mem::size_of::<Entry>()
}

/// A component's leaf index: sealed segments, shared.
///
/// The segments sit in blocks kept like a binary counter: a newly sealed
/// segment is a block of one, and two blocks of equal length merge into
/// one. Block lengths are then distinct powers of two, so an index of
/// `s` segments has at most `log2(s) + 1` blocks — what a clone copies —
/// and over a build each segment is copied into at most `log2(s)` merged
/// blocks.
#[derive(Debug, Clone, Default)]
pub(crate) struct LeafIndex {
    /// In key order, lengths decreasing.
    blocks: Vec<Block>,
    len: usize,
    /// Heap bytes of the blocks and of the segments they hold.
    heap: usize,
}

impl LeafIndex {
    /// Number of leaves.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.blocks.iter().flat_map(|b| b.iter())
    }

    /// The entry of the last segment for which `at` holds, given that it
    /// holds for a prefix of the segments.
    fn last_where(&self, at: impl Fn(&Entry) -> bool) -> Option<&Entry> {
        let b = self.blocks.partition_point(|b| at(&b[0])).checked_sub(1)?;
        let block = &self.blocks[b];
        Some(&block[block.partition_point(&at) - 1])
    }

    /// The first leaf of the last segment whose first fence is at or
    /// below `key`, that segment, and how many of its leaves have fences
    /// at or below `key` (at least one).
    fn seek(&self, key: &[u8]) -> Option<(usize, &Segment, usize)> {
        let (start, seg) = self.last_where(|(_, seg)| seg.fence(0) <= key)?;
        Some((*start, seg, seg.upto(key)))
    }

    /// How many leaves have a fence at or below `key`: the leaf that can
    /// hold `key` is the one before that position (none when it is 0).
    pub(crate) fn upto(&self, key: &[u8]) -> usize {
        self.seek(key).map_or(0, |(start, _, n)| start + n)
    }

    /// The page of the leaf that can hold `key`, if any.
    pub(crate) fn leaf_for(&self, key: &[u8]) -> Option<u32> {
        let (_, seg, n) = self.seek(key)?;
        Some(seg.leaves[n - 1].1)
    }

    fn locate(&self, pos: usize) -> Option<(&Segment, usize)> {
        if pos >= self.len {
            return None;
        }
        let (start, seg) = self.last_where(|&(start, _)| start <= pos)?;
        Some((seg, pos - start))
    }

    /// The page of leaf `pos`.
    pub(crate) fn page(&self, pos: usize) -> Option<u32> {
        self.locate(pos).map(|(seg, i)| seg.leaves[i].1)
    }

    /// The fence of leaf `pos`.
    pub(crate) fn fence(&self, pos: usize) -> Option<&[u8]> {
        self.locate(pos).map(|(seg, i)| seg.fence(i))
    }

    /// Every leaf's fence and page, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[u8], u32)> {
        self.entries()
            .flat_map(|(_, seg)| (0..seg.leaves.len()).map(|i| (seg.fence(i), seg.leaves[i].1)))
    }

    /// The RAM this index holds, its shared blocks and segments included:
    /// what the paper's read fanout divides by (§2.1). O(1): the heap
    /// bytes are summed as segments are sealed.
    pub(crate) fn ram_bytes(&self) -> usize {
        std::mem::size_of::<LeafIndex>()
            + self.blocks.capacity() * std::mem::size_of::<Block>()
            + self.heap
    }

    /// Whether every segment of `self` is, in the same place, a segment
    /// of `other` (the same allocation, not an equal copy).
    #[cfg(test)]
    pub(crate) fn shares_segments_with(&self, other: &LeafIndex) -> bool {
        self.entries().count() <= other.entries().count()
            && self
                .entries()
                .zip(other.entries())
                .all(|(a, b)| Arc::ptr_eq(&a.1, &b.1))
    }

    /// The bytes a clone copies: the block list, not the blocks.
    pub(crate) fn clone_bytes(&self) -> usize {
        self.blocks.len() * std::mem::size_of::<Block>()
    }
}

/// A leaf index being built: sealed segments plus an open one.
#[derive(Debug, Default)]
pub(crate) struct LeafIndexBuilder {
    sealed: LeafIndex,
    keys: Vec<u8>,
    leaves: Vec<(u32, u32)>,
    /// Bytes copied merging blocks since [`take_copied`](Self::take_copied).
    copied: usize,
}

impl LeafIndexBuilder {
    /// Appends a leaf; `fence` is copied.
    pub(crate) fn push(&mut self, fence: &[u8], page: u32) {
        if self.keys.len() + fence.len() > u32::MAX as usize {
            self.seal();
        }
        self.keys.extend_from_slice(fence);
        self.leaves.push((self.keys.len() as u32, page));
    }

    /// Seals the open segment (if it holds a leaf): from here on it is
    /// shared by every index that covers it.
    pub(crate) fn seal(&mut self) {
        if self.leaves.is_empty() {
            return;
        }
        // The next segment likely grows to this one's size.
        let keys = Vec::with_capacity(self.keys.len());
        let leaves = Vec::with_capacity(self.leaves.len());
        let seg = Segment {
            keys: std::mem::replace(&mut self.keys, keys).into_boxed_slice(),
            leaves: std::mem::replace(&mut self.leaves, leaves).into_boxed_slice(),
        };
        let index = &mut self.sealed;
        index.heap += seg.ram_bytes() + block_heap(1);
        let mut block: Block = Arc::new([(index.len, Arc::new(seg))]);
        index.len += block[0].1.leaves.len();
        while let Some(prev) = index.blocks.pop_if(|b| b.len() == block.len()) {
            let merged: Block = prev.iter().chain(block.iter()).cloned().collect();
            index.heap = index.heap + block_heap(merged.len()) - 2 * block_heap(block.len());
            self.copied += merged.len() * std::mem::size_of::<Entry>();
            block = merged;
        }
        index.blocks.push(block);
    }

    /// The sealed leaves.
    pub(crate) fn sealed(&self) -> &LeafIndex {
        &self.sealed
    }

    /// The bytes [`seal`](Self::seal) copied merging blocks since the
    /// last call.
    pub(crate) fn take_copied(&mut self) -> usize {
        std::mem::take(&mut self.copied)
    }

    /// Seals the rest and returns the whole index.
    pub(crate) fn finish(mut self) -> LeafIndex {
        self.seal();
        self.sealed.blocks.shrink_to_fit();
        self.sealed
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn key(i: u32) -> Vec<u8> {
        format!("key{:06}", i * 10).into_bytes()
    }

    #[test]
    fn lookups_agree_with_a_flat_list_across_segments() {
        let mut b = LeafIndexBuilder::default();
        let mut flat = Vec::new();
        for i in 0..500u32 {
            b.push(&key(i), i * 3);
            flat.push((key(i), i * 3));
            if i % 37 == 36 {
                b.seal();
            }
        }
        let index = b.finish();
        assert_eq!(index.len(), 500);
        assert!(index.entries().count() > 10);
        let listed: Vec<(Vec<u8>, u32)> = index.iter().map(|(k, p)| (k.to_vec(), p)).collect();
        assert_eq!(listed, flat);
        for (pos, (k, p)) in flat.iter().enumerate() {
            assert_eq!(index.fence(pos), Some(&k[..]));
            assert_eq!(index.page(pos), Some(*p));
        }
        assert_eq!(index.page(500), None);
        for probe in 0..5_010u32 {
            let probe = format!("key{probe:06}").into_bytes();
            let want = flat.partition_point(|(k, _)| k[..] <= probe[..]);
            assert_eq!(index.upto(&probe), want);
            assert_eq!(
                index.leaf_for(&probe),
                want.checked_sub(1).map(|p| flat[p].1)
            );
        }
        assert_eq!(index.upto(b"a"), 0);
        assert_eq!(index.leaf_for(b"a"), None);
    }

    #[test]
    fn a_clone_copies_a_logarithmic_block_list() {
        let mut b = LeafIndexBuilder::default();
        let (mut copied, mut clones) = (0, 0);
        for i in 0..4_096u32 {
            b.push(&key(i), i);
            b.seal();
            copied += b.take_copied();
            let index = b.sealed().clone();
            assert!(index.shares_segments_with(b.sealed()));
            let segments = i as usize + 1;
            assert_eq!(index.blocks.len(), segments.count_ones() as usize);
            clones += index.clone_bytes();
            let heap: usize = index
                .blocks
                .iter()
                .map(|b| block_heap(b.len()))
                .sum::<usize>()
                + index.entries().map(|(_, s)| s.ram_bytes()).sum::<usize>();
            assert_eq!(index.heap, heap);
        }
        // Each of 4096 segments is copied into 12 merged blocks, 16 bytes
        // each time; the clones copy at most 13 block pointers.
        assert_eq!(copied, 4_096 * 12 * 16);
        assert!(clones <= 4_096 * 13 * 16, "{clones}");
        let index = b.finish();
        assert_eq!(index.blocks.len(), 1);
        assert_eq!(index.iter().count(), 4_096);
    }

    #[test]
    fn ram_is_the_fences_and_eight_bytes_a_leaf() {
        let mut b = LeafIndexBuilder::default();
        for i in 0..1_000u32 {
            b.push(&key(i), i);
        }
        let index = b.finish();
        let exact = 1_000 * (9 + 8);
        let ram = index.ram_bytes();
        assert!(ram >= exact && ram < exact + 256, "{ram} bytes");
        assert_eq!(LeafIndex::default().upto(b"x"), 0);
        assert_eq!(LeafIndex::default().leaf_for(b"x"), None);
    }
}
