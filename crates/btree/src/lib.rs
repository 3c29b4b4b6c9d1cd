//! Update-in-place B+Tree — the InnoDB stand-in baseline (§2.2, §5).
//!
//! The paper's cost model for update-in-place storage:
//!
//! * point lookup: one seek for an uncached leaf (index nodes fit in RAM);
//! * update: read the old page, modify it, write it back asynchronously —
//!   *two* seeks when the leaf is cold (§2.2), giving hard-disk write
//!   amplifications around 1000 for 1 KB tuples;
//! * short scans on an unfragmented tree: one seek (§3.3);
//! * long scans on a fragmented tree: up to one seek per leaf, because
//!   splits scatter leaves across the device (§5.6).
//!
//! All four behaviours emerge naturally here: the tree runs over the same
//! buffer pool and devices as bLSM, leaves are updated in place and
//! written back on eviction (random writes), and splits allocate new pages
//! at the end of the device, fragmenting the leaf chain exactly the way
//! the §5.6 experiment requires. [`BTree::bulk_load`] provides the
//! pre-sorted fast path the paper had to use to load InnoDB at a
//! reasonable rate (§5.2).
//!
//! This baseline is performance-faithful, not crash-safe: like InnoDB it
//! would need a physiological redo log for recovery, which the paper's
//! experiments explicitly disable ("none of the systems sync their logs
//! at commit", §5.1). `flush` writes back all dirty pages.

use std::sync::Arc;

use bytes::Bytes;

use blsm_storage::codec::{self, Reader};
use blsm_storage::page::{Page, PageType, PAGE_PAYLOAD_LEN};
use blsm_storage::{BufferPool, PageId, Result, StorageError};

/// Leaf payload header: `count(2) | next_leaf(8)`.
const LEAF_HEADER: usize = 10;
/// Internal payload header: `count(2) | child0(8)`.
const INTERNAL_HEADER: usize = 10;
/// Reject cells that cannot share a page with at least one sibling.
const MAX_CELL: usize = (PAGE_PAYLOAD_LEN - LEAF_HEADER) / 2 - 16;

/// Fill fraction targeted by [`BTree::bulk_load`] (leaves are left with
/// headroom so subsequent inserts do not split immediately).
const BULK_FILL: f64 = 0.9;

#[derive(Debug, Clone)]
struct Leaf {
    entries: Vec<(Bytes, Bytes)>,
    next: Option<PageId>,
}

#[derive(Debug, Clone)]
struct Internal {
    /// `children[0]` covers keys < `keys[0]`; `children[i+1]` covers keys
    /// ≥ `keys[i]`.
    keys: Vec<Bytes>,
    children: Vec<PageId>,
}

/// An update-in-place B+Tree over a buffer pool.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
    next_page: u64,
    height: u32,
    entry_count: u64,
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

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("root", &self.root)
            .field("height", &self.height)
            .field("entry_count", &self.entry_count)
            .finish_non_exhaustive()
    }
}

impl BTree {
    /// Creates an empty tree. Page 0 of the device is reserved for the
    /// caller (e.g. a meta page); the tree allocates from page 1 upward.
    pub fn create(pool: Arc<BufferPool>) -> Result<BTree> {
        let tree = BTree {
            pool,
            root: PageId(1),
            next_page: 2,
            height: 1,
            entry_count: 0,
        };
        tree.write_leaf(
            PageId(1),
            &Leaf {
                entries: Vec::new(),
                next: None,
            },
        )?;
        Ok(tree)
    }

    /// Number of entries stored.
    pub fn entry_count(&self) -> u64 {
        self.entry_count
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pages allocated so far.
    pub fn pages_allocated(&self) -> u64 {
        self.next_page
    }

    /// The buffer pool (for statistics and flushing).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Writes back every dirty page.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush()
    }

    fn alloc(&mut self) -> PageId {
        let pid = PageId(self.next_page);
        self.next_page += 1;
        pid
    }

    // -- page codecs ---------------------------------------------------

    fn read_leaf(&self, pid: PageId) -> Result<Leaf> {
        let page = self.pool.read(pid)?;
        if page.page_type()? != PageType::BTreeLeaf {
            return Err(StorageError::InvalidFormat(format!(
                "page {pid} is not a leaf"
            )));
        }
        let payload = page.payload();
        let count = codec::le_u16(&payload[..2]);
        let next = codec::le_u64(&payload[2..10]);
        let mut r = Reader::new(&payload[LEAF_HEADER..]);
        let mut entries = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let k = Bytes::copy_from_slice(r.bytes()?);
            let v = Bytes::copy_from_slice(r.bytes()?);
            entries.push((k, v));
        }
        Ok(Leaf {
            entries,
            next: if next == 0 { None } else { Some(PageId(next)) },
        })
    }

    fn write_leaf(&self, pid: PageId, leaf: &Leaf) -> Result<()> {
        let mut page = Page::new(PageType::BTreeLeaf);
        let payload = page.payload_mut();
        payload[..2].copy_from_slice(&(leaf.entries.len() as u16).to_le_bytes());
        payload[2..10].copy_from_slice(&leaf.next.map_or(0, |p| p.0).to_le_bytes());
        let mut body = Vec::with_capacity(PAGE_PAYLOAD_LEN - LEAF_HEADER);
        for (k, v) in &leaf.entries {
            codec::put_bytes(&mut body, k);
            codec::put_bytes(&mut body, v);
        }
        assert!(
            body.len() <= PAGE_PAYLOAD_LEN - LEAF_HEADER,
            "leaf overflow"
        );
        payload[LEAF_HEADER..LEAF_HEADER + body.len()].copy_from_slice(&body);
        self.pool.write(pid, page)
    }

    fn read_internal(&self, pid: PageId) -> Result<Internal> {
        let page = self.pool.read(pid)?;
        if page.page_type()? != PageType::BTreeInternal {
            return Err(StorageError::InvalidFormat(format!(
                "page {pid} is not an internal node"
            )));
        }
        let payload = page.payload();
        let count = codec::le_u16(&payload[..2]);
        let child0 = codec::le_u64(&payload[2..10]);
        let mut r = Reader::new(&payload[INTERNAL_HEADER..]);
        let mut keys = Vec::with_capacity(count as usize);
        let mut children = Vec::with_capacity(count as usize + 1);
        children.push(PageId(child0));
        for _ in 0..count {
            keys.push(Bytes::copy_from_slice(r.bytes()?));
            children.push(PageId(r.u64()?));
        }
        Ok(Internal { keys, children })
    }

    fn write_internal(&self, pid: PageId, node: &Internal) -> Result<()> {
        let mut page = Page::new(PageType::BTreeInternal);
        let payload = page.payload_mut();
        payload[..2].copy_from_slice(&(node.keys.len() as u16).to_le_bytes());
        payload[2..10].copy_from_slice(&node.children[0].0.to_le_bytes());
        let mut body = Vec::new();
        for (k, child) in node.keys.iter().zip(node.children.iter().skip(1)) {
            codec::put_bytes(&mut body, k);
            codec::put_u64(&mut body, child.0);
        }
        assert!(
            body.len() <= PAGE_PAYLOAD_LEN - INTERNAL_HEADER,
            "internal overflow"
        );
        payload[INTERNAL_HEADER..INTERNAL_HEADER + body.len()].copy_from_slice(&body);
        self.pool.write(pid, page)
    }

    fn leaf_bytes(entries: &[(Bytes, Bytes)]) -> usize {
        entries.iter().map(|(k, v)| k.len() + v.len() + 6).sum()
    }

    fn internal_bytes(node: &Internal) -> usize {
        node.keys.iter().map(|k| k.len() + 11).sum()
    }

    // -- lookup ---------------------------------------------------------

    fn descend_to_leaf(&self, key: &[u8]) -> Result<(PageId, Vec<(PageId, usize)>)> {
        let mut path = Vec::with_capacity(self.height as usize);
        let mut pid = self.root;
        for _ in 1..self.height {
            let node = self.read_internal(pid)?;
            let idx = node.keys.partition_point(|k| k.as_ref() <= key);
            path.push((pid, idx));
            pid = node.children[idx];
        }
        Ok((pid, path))
    }

    /// Point lookup: one uncached leaf read once the index is hot (§2.2).
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let (pid, _) = self.descend_to_leaf(key)?;
        let leaf = self.read_leaf(pid)?;
        Ok(leaf
            .entries
            .iter()
            .find(|(k, _)| k.as_ref() == key)
            .map(|(_, v)| v.clone()))
    }

    // -- insert ----------------------------------------------------------

    /// Inserts or overwrites. Reads and rewrites the leaf (the paper's
    /// two-seek update when cold), splitting upward as needed.
    pub fn insert(&mut self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        let value = value.into();
        assert!(
            key.len() + value.len() <= MAX_CELL,
            "cell of {} bytes exceeds page capacity",
            key.len() + value.len()
        );
        let (pid, path) = self.descend_to_leaf(&key)?;
        let mut leaf = self.read_leaf(pid)?;
        match leaf
            .entries
            .binary_search_by(|(k, _)| k.as_ref().cmp(key.as_ref()))
        {
            Ok(i) => leaf.entries[i] = (key, value),
            Err(i) => {
                leaf.entries.insert(i, (key, value));
                self.entry_count += 1;
            }
        }
        if Self::leaf_bytes(&leaf.entries) <= PAGE_PAYLOAD_LEN - LEAF_HEADER {
            return self.write_leaf(pid, &leaf);
        }
        // Split: right half moves to a fresh page at the end of the file —
        // this is what fragments the leaf chain over time (§5.6).
        let mid = leaf.entries.len() / 2;
        let right_entries = leaf.entries.split_off(mid);
        let sep = right_entries[0].0.clone();
        let right_pid = self.alloc();
        let right = Leaf {
            entries: right_entries,
            next: leaf.next,
        };
        leaf.next = Some(right_pid);
        self.write_leaf(right_pid, &right)?;
        self.write_leaf(pid, &leaf)?;
        self.insert_into_parent(path, sep, right_pid)
    }

    fn insert_into_parent(
        &mut self,
        mut path: Vec<(PageId, usize)>,
        mut sep: Bytes,
        mut new_child: PageId,
    ) -> Result<()> {
        loop {
            let Some((pid, idx)) = path.pop() else {
                // Split reached the root: grow the tree.
                let old_root = self.root;
                let new_root = self.alloc();
                let node = Internal {
                    keys: vec![sep],
                    children: vec![old_root, new_child],
                };
                self.write_internal(new_root, &node)?;
                self.root = new_root;
                self.height += 1;
                return Ok(());
            };
            let mut node = self.read_internal(pid)?;
            node.keys.insert(idx, sep);
            node.children.insert(idx + 1, new_child);
            if Self::internal_bytes(&node) <= PAGE_PAYLOAD_LEN - INTERNAL_HEADER {
                return self.write_internal(pid, &node);
            }
            let mid = node.keys.len() / 2;
            let up_key = node.keys[mid].clone();
            let right_keys = node.keys.split_off(mid + 1);
            node.keys.pop(); // `up_key` moves up, not right
            let right_children = node.children.split_off(mid + 1);
            let right_pid = self.alloc();
            self.write_internal(
                right_pid,
                &Internal {
                    keys: right_keys,
                    children: right_children,
                },
            )?;
            self.write_internal(pid, &node)?;
            sep = up_key;
            new_child = right_pid;
        }
    }

    /// The B-Tree's "insert if not exists": it must *read* before writing
    /// — the seek the paper's §3.1.2 is about avoiding.
    pub fn insert_if_not_exists(
        &mut self,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Result<bool> {
        let key = key.into();
        if self.get(&key)?.is_some() {
            return Ok(false);
        }
        self.insert(key, value)?;
        Ok(true)
    }

    /// Read-modify-write: the descend + leaf rewrite cost two cold seeks
    /// (§2.2; Table 1 row 2).
    pub fn read_modify_write(
        &mut self,
        key: impl Into<Bytes>,
        f: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
    ) -> Result<()> {
        let key = key.into();
        let old = self.get(&key)?;
        match f(old.as_deref()) {
            Some(new) => self.insert(key, new),
            None => {
                self.delete(&key)?;
                Ok(())
            }
        }
    }

    /// Deletes a key; returns whether it was present. (No rebalancing —
    /// underfull pages persist, as in most production trees.)
    pub fn delete(&mut self, key: &[u8]) -> Result<bool> {
        let (pid, _) = self.descend_to_leaf(key)?;
        let mut leaf = self.read_leaf(pid)?;
        match leaf.entries.binary_search_by(|(k, _)| k.as_ref().cmp(key)) {
            Ok(i) => {
                leaf.entries.remove(i);
                self.entry_count -= 1;
                self.write_leaf(pid, &leaf)?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }

    // -- scans -----------------------------------------------------------

    /// Ordered scan from `from`, up to `limit` rows, following the leaf
    /// chain. On a fragmented tree every hop can be a seek (§5.6).
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<(Bytes, Bytes)>> {
        if limit == 0 {
            return Ok(Vec::new());
        }
        let (mut pid, _) = self.descend_to_leaf(from)?;
        // `limit` is a ceiling, not a row count: cap what is reserved.
        let mut out = Vec::with_capacity(limit.min(1024));
        loop {
            let leaf = self.read_leaf(pid)?;
            for (k, v) in &leaf.entries {
                if k.as_ref() < from {
                    continue;
                }
                out.push((k.clone(), v.clone()));
                if out.len() >= limit {
                    return Ok(out);
                }
            }
            match leaf.next {
                Some(next) => pid = next,
                None => return Ok(out),
            }
        }
    }

    // -- bulk load --------------------------------------------------------

    /// Builds a tree from a *sorted* stream, packing leaves sequentially —
    /// the pre-sorted load path InnoDB needed in §5.2. Keys must be
    /// strictly increasing.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        sorted: impl Iterator<Item = (Bytes, Bytes)>,
    ) -> Result<BTree> {
        let mut tree = BTree {
            pool,
            root: PageId(1),
            next_page: 1,
            height: 1,
            entry_count: 0,
        };
        let leaf_cap = ((PAGE_PAYLOAD_LEN - LEAF_HEADER) as f64 * BULK_FILL) as usize;

        // Pack leaves.
        let mut leaves: Vec<(Bytes, PageId)> = Vec::new(); // (first_key, page)
        let mut current: Vec<(Bytes, Bytes)> = Vec::new();
        let mut current_bytes = 0usize;
        let mut pending: Option<(PageId, Leaf)> = None;
        let mut last_key: Option<Bytes> = None;
        for (k, v) in sorted {
            if let Some(last) = &last_key {
                assert!(k > last, "bulk_load requires strictly increasing keys");
            }
            last_key = Some(k.clone());
            let cell = k.len() + v.len() + 6;
            if current_bytes + cell > leaf_cap && !current.is_empty() {
                let pid = tree.alloc();
                let leaf = Leaf {
                    entries: std::mem::take(&mut current),
                    next: Some(PageId(0)), // patched below
                };
                if let Some((prev_pid, mut prev)) = pending.take() {
                    prev.next = Some(pid);
                    tree.write_leaf(prev_pid, &prev)?;
                    leaves.push((prev.entries[0].0.clone(), prev_pid));
                }
                pending = Some((pid, leaf));
                current_bytes = 0;
            }
            current_bytes += cell;
            tree.entry_count += 1;
            current.push((k, v));
        }
        // Final leaves.
        let pid = tree.alloc();
        let leaf = Leaf {
            entries: current,
            next: None,
        };
        if let Some((prev_pid, mut prev)) = pending.take() {
            prev.next = Some(pid);
            tree.write_leaf(prev_pid, &prev)?;
            leaves.push((prev.entries[0].0.clone(), prev_pid));
        }
        tree.write_leaf(pid, &leaf)?;
        let first = leaf
            .entries
            .first()
            .map(|(k, _)| k.clone())
            .unwrap_or_default();
        leaves.push((first, pid));

        // Build internal levels bottom-up.
        let internal_cap = ((PAGE_PAYLOAD_LEN - INTERNAL_HEADER) as f64 * BULK_FILL) as usize;
        let mut level = leaves;
        while level.len() > 1 {
            let mut next_level: Vec<(Bytes, PageId)> = Vec::new();
            let mut node = Internal {
                keys: Vec::new(),
                children: Vec::new(),
            };
            let mut node_bytes = 0usize;
            let mut node_first: Option<Bytes> = None;
            for (first_key, child) in level {
                if node.children.is_empty() {
                    node.children.push(child);
                    node_first = Some(first_key);
                    continue;
                }
                let cell = first_key.len() + 11;
                if node_bytes + cell > internal_cap {
                    let pid = tree.alloc();
                    tree.write_internal(pid, &node)?;
                    let first = node_first
                        .take()
                        .ok_or_else(|| invariant_err("internal node built without children"))?;
                    next_level.push((first, pid));
                    node = Internal {
                        keys: Vec::new(),
                        children: vec![child],
                    };
                    node_first = Some(first_key);
                    node_bytes = 0;
                    continue;
                }
                node_bytes += cell;
                node.keys.push(first_key);
                node.children.push(child);
            }
            let pid = tree.alloc();
            tree.write_internal(pid, &node)?;
            let first =
                node_first.ok_or_else(|| invariant_err("internal node built without children"))?;
            next_level.push((first, pid));
            tree.height += 1;
            level = next_level;
        }
        tree.root = level[0].1;
        if tree.height == 1 {
            // Single leaf: root is that leaf.
            tree.root = level[0].1;
        }
        tree.flush()?;
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use blsm_storage::device::Device;
    use blsm_storage::MemDevice;

    fn pool(pages: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(MemDevice::new()), pages))
    }

    fn key(i: u32) -> Bytes {
        Bytes::from(format!("user{i:08}"))
    }

    #[test]
    fn insert_get_small() {
        let mut t = BTree::create(pool(256)).unwrap();
        for i in [5u32, 1, 9, 3, 7] {
            t.insert(key(i), Bytes::from(format!("v{i}"))).unwrap();
        }
        for i in [1u32, 3, 5, 7, 9] {
            assert_eq!(
                t.get(&key(i)).unwrap().unwrap(),
                Bytes::from(format!("v{i}"))
            );
        }
        assert!(t.get(&key(2)).unwrap().is_none());
        assert_eq!(t.entry_count(), 5);
    }

    #[test]
    fn random_inserts_with_splits() {
        let mut t = BTree::create(pool(4096)).unwrap();
        // Insert in pseudo-random order with 100-byte values: thousands of
        // splits, multiple levels.
        let n = 20_000u32;
        let mut order: Vec<u32> = (0..n).collect();
        // Deterministic shuffle.
        let mut state = 12345u64;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        for &i in &order {
            t.insert(key(i), Bytes::from(vec![i as u8; 100])).unwrap();
        }
        assert!(t.height() >= 3, "height {}", t.height());
        assert_eq!(t.entry_count(), u64::from(n));
        for i in (0..n).step_by(371) {
            assert_eq!(
                t.get(&key(i)).unwrap().unwrap(),
                Bytes::from(vec![i as u8; 100])
            );
        }
    }

    #[test]
    fn overwrite_in_place() {
        let mut t = BTree::create(pool(256)).unwrap();
        t.insert(key(1), Bytes::from_static(b"a")).unwrap();
        t.insert(key(1), Bytes::from_static(b"b")).unwrap();
        assert_eq!(t.get(&key(1)).unwrap().unwrap().as_ref(), b"b");
        assert_eq!(t.entry_count(), 1);
    }

    #[test]
    fn delete_removes() {
        let mut t = BTree::create(pool(256)).unwrap();
        for i in 0..100u32 {
            t.insert(key(i), Bytes::from_static(b"v")).unwrap();
        }
        assert!(t.delete(&key(50)).unwrap());
        assert!(!t.delete(&key(50)).unwrap());
        assert!(t.get(&key(50)).unwrap().is_none());
        assert_eq!(t.entry_count(), 99);
    }

    #[test]
    fn scan_follows_leaf_chain() {
        let mut t = BTree::create(pool(4096)).unwrap();
        for i in 0..5000u32 {
            t.insert(key(i), Bytes::from(vec![0u8; 64])).unwrap();
        }
        let rows = t.scan(&key(1234), 100).unwrap();
        assert_eq!(rows.len(), 100);
        for (j, (k, _)) in rows.iter().enumerate() {
            assert_eq!(k, &key(1234 + j as u32));
        }
        // Scan off the end.
        let rows = t.scan(&key(4990), 100).unwrap();
        assert_eq!(rows.len(), 10);
        // `limit` is a ceiling: 0 asks for nothing, and a huge one is not
        // a reservation (a wire `u32::MAX` used to abort in the allocator).
        assert!(t.scan(&key(0), 0).unwrap().is_empty());
        assert_eq!(t.scan(&key(4990), u32::MAX as usize).unwrap().len(), 10);
    }

    #[test]
    fn bulk_load_builds_equivalent_tree() {
        let p = pool(4096);
        let t = BTree::bulk_load(
            p,
            (0..10_000u32).map(|i| (key(i), Bytes::from(vec![i as u8; 80]))),
        )
        .unwrap();
        assert_eq!(t.entry_count(), 10_000);
        assert!(t.height() >= 2);
        for i in (0..10_000u32).step_by(487) {
            assert_eq!(
                t.get(&key(i)).unwrap().unwrap(),
                Bytes::from(vec![i as u8; 80])
            );
        }
        let rows = t.scan(&key(42), 50).unwrap();
        assert_eq!(rows.len(), 50);
        assert_eq!(rows[0].0, key(42));
    }

    #[test]
    fn bulk_load_is_sequential_io() {
        let dev = Arc::new(MemDevice::new());
        let p = Arc::new(BufferPool::new(dev.clone(), 8192));
        let _t = BTree::bulk_load(
            p,
            (0..20_000u32).map(|i| (key(i), Bytes::from(vec![0u8; 80]))),
        )
        .unwrap();
        let s = dev.stats();
        // Flush writes pages in pid order: overwhelmingly sequential.
        assert!(
            s.sequential_writes > s.random_writes * 10,
            "seq={} rand={}",
            s.sequential_writes,
            s.random_writes
        );
    }

    #[test]
    fn cold_get_is_one_leaf_read_when_index_cached() {
        let dev = Arc::new(MemDevice::new());
        let p = Arc::new(BufferPool::new(dev.clone(), 8192));
        let t = BTree::bulk_load(
            p.clone(),
            (0..20_000u32).map(|i| (key(i), Bytes::from(vec![0u8; 80]))),
        )
        .unwrap();
        // Warm the internal nodes with one probe, then drop only... the
        // pool cannot selectively keep internals, so instead: measure that
        // a repeated-key get after warming costs zero reads, and a cold
        // get costs height() reads at most, with exactly 1 leaf.
        p.drop_clean();
        let before = dev.stats();
        t.get(&key(10_000)).unwrap().unwrap();
        let d = dev.stats().delta_since(&before);
        assert_eq!(d.bytes_read as usize / 4096, t.height() as usize);
        // Hot probe: zero device reads.
        let before = dev.stats();
        t.get(&key(10_000)).unwrap().unwrap();
        let d = dev.stats().delta_since(&before);
        assert_eq!(d.bytes_read, 0);
    }

    #[test]
    fn fragmentation_scatters_leaf_chain() {
        // Random inserts: consecutive leaves end up far apart on disk.
        let mut t = BTree::create(pool(16_384)).unwrap();
        let mut state = 9u64;
        for _ in 0..30_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (state >> 33) as u32 % 1_000_000;
            t.insert(key(i), Bytes::from(vec![0u8; 100])).unwrap();
        }
        // Walk the first 100 leaves and measure adjacency.
        let (mut pid, _) = t.descend_to_leaf(b"").unwrap();
        let mut adjacent = 0u32;
        let mut hops = 0u32;
        for _ in 0..100 {
            let leaf = t.read_leaf(pid).unwrap();
            let Some(next) = leaf.next else { break };
            if next.0 == pid.0 + 1 {
                adjacent += 1;
            }
            hops += 1;
            pid = next;
        }
        assert!(hops > 50);
        assert!(
            adjacent < hops / 2,
            "leaf chain unexpectedly contiguous: {adjacent}/{hops}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_cell_rejected() {
        let mut t = BTree::create(pool(64)).unwrap();
        t.insert(Bytes::from_static(b"k"), Bytes::from(vec![0u8; 4000]))
            .unwrap();
    }

    #[test]
    fn rmw_and_insert_if_not_exists() {
        let mut t = BTree::create(pool(256)).unwrap();
        assert!(t
            .insert_if_not_exists(key(1), Bytes::from_static(b"a"))
            .unwrap());
        assert!(!t
            .insert_if_not_exists(key(1), Bytes::from_static(b"b"))
            .unwrap());
        t.read_modify_write(key(1), |old| {
            let mut v = old.unwrap().to_vec();
            v.push(b'!');
            Some(v)
        })
        .unwrap();
        assert_eq!(t.get(&key(1)).unwrap().unwrap().as_ref(), b"a!");
    }
}
