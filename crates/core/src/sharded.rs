//! The sharded serving tier: N fully independent bLSM shards behind one
//! key-range router.
//!
//! The paper names key-range partitioning as its future work
//! (§2.3.2, §3.3, §4.2.2). This module builds the serving tier on the
//! routing arithmetic of [`crate::route`]: every shard is a whole
//! [`crate::BLsmTree`] wrapped in its own [`ThreadedBLsm`] — its own
//! directory, WAL ring, `C0`, spring-and-gear scheduler, merge threads
//! and recovery path — so write throughput, merge stalls and crash
//! recovery are per-shard, never globally coupled:
//!
//! * a hot shard's spring-and-gear backpressure paces only writers of
//!   *its* key range ([`ShardedReadView::backpressure`] is per shard);
//! * recovery replays N small WALs independently; a corrupt shard
//!   degrades to a typed per-shard error ([`ComponentId::Shard`]) while
//!   its siblings keep serving;
//! * scans scatter to the shards overlapping the range and concatenate
//!   the results, in shard order, into one globally key-ordered stream.
//!
//! The store routes the in-process writes (`put`, `delete`, …) and derefs
//! to its [`ShardedReadView`] for every read (`get`, `scan`, `stats`, …);
//! everything else a caller wants from one shard — nowait writes, commit
//! groups, durable horizons — is that shard's own engine
//! ([`ShardedBLsm::shard_engine`]), which derefs to the tree.
//!
//! Shard boundaries are fixed at creation and persisted in a
//! checksummed, double-slot **shard manifest** (reusing
//! [`ManifestStore`]: `crc32c | epoch | payload`, alternating slots, so
//! a torn manifest write rolls back instead of bricking the store). The
//! epoch is bumped on every successful open and checkpoint, recording
//! store generations. Online shard split is out of scope (as
//! re-partitioning was for the paper, §4).

use std::path::Path;
use std::sync::Arc;

use bytes::Bytes;

use blsm_memtable::MergeOperator;
use blsm_storage::codec::{self, Reader};
use blsm_storage::manifest::ManifestStore;
use blsm_storage::{ComponentId, FileDevice, Result, SharedDevice, StorageError};

use crate::config::BLsmConfig;
use crate::read::{ReadView, ScanItem, TreeScrubReport};
use crate::route;
use crate::sched::BackpressureLevel;
use crate::stats::TreeStatsSnapshot;
use crate::threaded::ThreadedBLsm;
use crate::tree::BLsmTree;

/// Shard-manifest payload magic: "BLSMSHR1".
const SHARD_MANIFEST_MAGIC: u64 = 0x424C_534D_5348_5231;

/// Pages per shard-manifest slot (16 KiB — thousands of boundaries).
const SHARD_MANIFEST_SLOT_PAGES: u64 = 4;

/// Tuning for a sharded store; `tree` applies to *each* shard (so the
/// memory budget is per shard).
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Per-shard engine configuration.
    pub tree: BLsmConfig,
    /// Buffer-pool pages per shard.
    pub pool_pages: usize,
    /// Merge-thread quantum per shard (bytes per background quantum).
    pub quantum: u64,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            tree: BLsmConfig::default(),
            pool_pages: 1024,
            quantum: 1 << 20,
        }
    }
}

/// One shard slot: serving, or degraded with the open error preserved.
enum ShardSlot {
    Serving(ThreadedBLsm),
    /// The shard failed to open (corrupt manifest/WAL/device). The
    /// error is kept so callers can surface *which* shard is down and
    /// why; sibling shards serve normally.
    Degraded(StorageError),
}

/// A typed view of one degraded shard, returned by
/// [`ShardedBLsm::degraded_shards`].
#[derive(Debug)]
pub struct DegradedShard<'a> {
    /// Index of the degraded shard.
    pub shard: usize,
    /// Why it failed to open.
    pub error: &'a StorageError,
}

/// N independent bLSM shards (each with its own WAL, `C0`, merge
/// scheduler and merge threads) behind one key-range router.
///
/// All operations are `&self`: routing is pure arithmetic over the
/// immutable boundary list, and each shard's engine is internally
/// synchronized — concurrent connections write to different shards with
/// zero shared state between them. Every read (`get`, `exists`, `scan`,
/// `stats`, `backpressure`, `shard_for`, …) is a [`ShardedReadView`]
/// method, reached through `Deref`.
pub struct ShardedBLsm {
    shards: Vec<ShardSlot>,
    /// The lock-free read handle over every shard, built once at open.
    /// It owns the immutable boundary list (`bounds[i]` is the inclusive
    /// lower bound of shard `i + 1`, see [`crate::route`]).
    view: ShardedReadView,
    /// The persisted shard manifest; `None` for manifest-less stores
    /// built over explicit devices ([`ShardedBLsm::from_single`]).
    /// Mutated only through `&mut self` (open/checkpoint/shutdown), so
    /// it needs no lock — the serving path never touches it.
    manifest: Option<ManifestStore>,
    /// Manifest epoch at the last save (0 when manifest-less).
    epoch: u64,
}

impl std::fmt::Debug for ShardedBLsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedBLsm")
            .field("shards", &self.shards.len())
            .field("degraded", &self.degraded_shards().len())
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl std::ops::Deref for ShardedBLsm {
    type Target = ShardedReadView;

    fn deref(&self) -> &ShardedReadView {
        &self.view
    }
}

fn shard_manifest_payload(bounds: &[Bytes]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + bounds.len() * 8);
    codec::put_u64(&mut payload, SHARD_MANIFEST_MAGIC);
    codec::put_varint(&mut payload, bounds.len() as u64);
    for b in bounds {
        codec::put_bytes(&mut payload, b);
    }
    payload
}

fn decode_shard_manifest(payload: &[u8]) -> Result<Vec<Bytes>> {
    let mut r = Reader::new(payload);
    if r.u64()? != SHARD_MANIFEST_MAGIC {
        return Err(StorageError::InvalidFormat(
            "shard manifest: bad magic".into(),
        ));
    }
    let n = r.varint()? as usize;
    let mut bounds = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        bounds.push(Bytes::copy_from_slice(r.bytes()?));
    }
    if r.remaining() != 0 {
        return Err(StorageError::InvalidFormat(
            "shard manifest: trailing bytes".into(),
        ));
    }
    if !route::bounds_are_sorted(&bounds) {
        return Err(StorageError::InvalidFormat(
            "shard manifest: boundaries not strictly sorted".into(),
        ));
    }
    Ok(bounds)
}

impl ShardedBLsm {
    /// `n - 1` boundaries cutting the keyspace into `n` byte-wise even
    /// shards (two-byte big-endian cuts). The default layout for hashed
    /// or uniform keyspaces.
    #[must_use]
    pub fn even_bounds(n: usize) -> Vec<Bytes> {
        route::even_bounds(n)
    }

    /// Opens (or creates) a sharded store over caller-supplied devices.
    ///
    /// `manifest_dev` holds the checksummed shard manifest. On first
    /// open the store is created with `bounds` and they are persisted;
    /// on reopen the *persisted* boundaries win (boundaries are fixed at
    /// creation) and `bounds` is ignored. `devices(i)` supplies the
    /// `(data, wal)` device pair for shard `i`.
    ///
    /// A shard whose tree fails to open does **not** fail the store: it
    /// is recorded as degraded (see [`ShardedBLsm::degraded_shards`])
    /// and every request routed to it returns a typed
    /// [`ComponentId::Shard`] corruption error, while sibling shards
    /// recover and serve independently.
    ///
    /// # Errors
    ///
    /// Fails only on whole-store problems: an unreadable/corrupt shard
    /// manifest (without it requests cannot be routed safely), unsorted
    /// `bounds`, or a manifest save failure on creation.
    pub fn open_with_devices(
        manifest_dev: SharedDevice,
        bounds: Vec<Bytes>,
        mut devices: impl FnMut(usize) -> Result<(SharedDevice, SharedDevice)>,
        config: &ShardedConfig,
        op: &Arc<dyn MergeOperator>,
    ) -> Result<ShardedBLsm> {
        if !route::bounds_are_sorted(&bounds) {
            return Err(StorageError::InvalidFormat(
                "shard bounds must be strictly sorted".into(),
            ));
        }
        let (mut store, existing) = ManifestStore::open(manifest_dev, SHARD_MANIFEST_SLOT_PAGES)?;
        let bounds: Arc<[Bytes]> = match existing {
            // Reopen: the persisted layout is authoritative.
            Some(payload) => decode_shard_manifest(&payload)?.into(),
            None => bounds.into(),
        };
        let mut shards = Vec::with_capacity(bounds.len() + 1);
        for i in 0..=bounds.len() {
            // Each shard opens — and recovers its own WAL — independently:
            // an error here degrades shard `i` alone.
            let opened = devices(i).and_then(|(data, wal)| {
                let tree = BLsmTree::open(
                    data,
                    wal,
                    config.pool_pages,
                    config.tree.clone(),
                    op.clone(),
                )?;
                ThreadedBLsm::start(tree, config.quantum)
            });
            shards.push(match opened {
                Ok(db) => ShardSlot::Serving(db),
                Err(e) => ShardSlot::Degraded(e),
            });
        }
        // Record this generation (and, on creation, the layout itself).
        store.save(&shard_manifest_payload(&bounds))?;
        let epoch = store.epoch();
        Ok(Self::assemble(bounds, shards, Some(store), epoch))
    }

    fn assemble(
        bounds: Arc<[Bytes]>,
        shards: Vec<ShardSlot>,
        manifest: Option<ManifestStore>,
        epoch: u64,
    ) -> ShardedBLsm {
        let views = shards
            .iter()
            .map(|s| match s {
                ShardSlot::Serving(db) => Some(db.read_view()),
                ShardSlot::Degraded(_) => None,
            })
            .collect();
        ShardedBLsm {
            shards,
            view: ShardedReadView { bounds, views },
            manifest,
            epoch,
        }
    }

    /// Opens (or creates) a durable sharded store rooted at `base`:
    ///
    /// ```text
    /// base/
    ///   shards.manifest          checksummed boundary list + epoch
    ///   shard-000/{data,wal}     shard 0: its own tree + WAL ring
    ///   shard-001/{data,wal}     ...
    /// ```
    ///
    /// Creating uses `shards` byte-wise even boundaries
    /// ([`ShardedBLsm::even_bounds`]); reopening ignores `shards` and
    /// uses the persisted layout.
    ///
    /// # Errors
    ///
    /// As [`ShardedBLsm::open_with_devices`], plus directory-creation
    /// failures.
    pub fn open_dir(
        base: &Path,
        shards: usize,
        config: &ShardedConfig,
        op: &Arc<dyn MergeOperator>,
    ) -> Result<ShardedBLsm> {
        std::fs::create_dir_all(base).map_err(StorageError::Io)?;
        let manifest_dev: SharedDevice = Arc::new(FileDevice::open(&base.join("shards.manifest"))?);
        let base = base.to_path_buf();
        Self::open_with_devices(
            manifest_dev,
            route::even_bounds(shards),
            move |i| {
                let dir = base.join(format!("shard-{i:03}"));
                std::fs::create_dir_all(&dir).map_err(StorageError::Io)?;
                let data: SharedDevice = Arc::new(FileDevice::open(&dir.join("data"))?);
                let wal: SharedDevice = Arc::new(FileDevice::open(&dir.join("wal"))?);
                Ok((data, wal))
            },
            config,
            op,
        )
    }

    /// Wraps one already-running tree as a single-shard store with no
    /// manifest — the adapter that lets the serving layer treat the
    /// classic one-tree deployment as the 1-shard case of the router.
    #[must_use]
    pub fn from_single(db: ThreadedBLsm) -> ShardedBLsm {
        Self::assemble(Arc::from(Vec::new()), vec![ShardSlot::Serving(db)], None, 0)
    }

    /// Manifest epoch recorded at the last open/checkpoint (0 when
    /// manifest-less).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Every degraded shard with its preserved open error.
    pub fn degraded_shards(&self) -> Vec<DegradedShard<'_>> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s {
                ShardSlot::Serving(_) => None,
                ShardSlot::Degraded(e) => Some(DegradedShard { shard: i, error: e }),
            })
            .collect()
    }

    /// Shard `i`'s engine — the full per-shard operation surface
    /// (nowait writes, `commit_group`, `durable_lsn`, …) via its deref
    /// to [`BLsmTree`].
    ///
    /// # Errors
    ///
    /// Typed [`ComponentId::Shard`] error when the shard is degraded or
    /// `i` is out of range.
    pub fn shard_engine(&self, i: usize) -> Result<&ThreadedBLsm> {
        match self.shards.get(i) {
            Some(ShardSlot::Serving(db)) => Ok(db),
            Some(ShardSlot::Degraded(e)) => Err(shard_error(format!("shard {i} is degraded: {e}"))),
            None => Err(no_such_shard(i, self.shards.len())),
        }
    }

    /// The store's engine when it is exactly one serving shard, `None`
    /// otherwise. The replication tier streams one WAL per store, so it
    /// attaches here — a sharded store would need one stream per shard
    /// (future work; see DESIGN.md §17).
    pub fn single(&self) -> Option<&ThreadedBLsm> {
        match self.shards.as_slice() {
            [ShardSlot::Serving(db)] => Some(db),
            _ => None,
        }
    }

    fn owner(&self, key: &[u8]) -> Result<&ThreadedBLsm> {
        self.shard_engine(self.shard_for(key))
    }

    /// Blind write, routed by key.
    ///
    /// # Errors
    ///
    /// Shard engine errors; typed shard error when the target is degraded.
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        self.owner(&key)?.put(key, value)
    }

    /// Delete (tombstone write), routed by key.
    ///
    /// # Errors
    ///
    /// Shard engine errors; typed shard error when the target is degraded.
    pub fn delete(&self, key: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        self.owner(&key)?.delete(key)
    }

    /// Merge-operator delta write, routed by key.
    ///
    /// # Errors
    ///
    /// Shard engine errors; typed shard error when the target is degraded.
    pub fn apply_delta(&self, key: impl Into<Bytes>, delta: impl Into<Bytes>) -> Result<()> {
        let key = key.into();
        self.owner(&key)?.apply_delta(key, delta)
    }

    /// The paper's zero-seek checked insert (§3.1.2), routed by key —
    /// a key can only ever live in its own shard, so the existence
    /// probe stays shard-local.
    ///
    /// # Errors
    ///
    /// Shard engine errors; typed shard error when the target is degraded.
    pub fn insert_if_not_exists(
        &self,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Result<bool> {
        let key = key.into();
        self.owner(&key)?.insert_if_not_exists(key, value)
    }

    /// A cloneable lock-free read handle over every serving shard
    /// (hand one to each server connection).
    pub fn read_view(&self) -> ShardedReadView {
        self.view.clone()
    }

    /// Checkpoints every serving shard, then bumps the shard-manifest
    /// epoch to record the settled generation.
    ///
    /// # Errors
    ///
    /// Returns the first shard checkpoint or manifest-save error
    /// (after attempting every shard).
    pub fn checkpoint(&mut self) -> Result<()> {
        let mut first_err = None;
        for slot in &self.shards {
            if let ShardSlot::Serving(db) = slot {
                if let Err(e) = db.with_tree(BLsmTree::checkpoint) {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(store) = &mut self.manifest {
            if let Err(e) = store.save(&shard_manifest_payload(&self.view.bounds)) {
                first_err.get_or_insert(e);
            } else {
                self.epoch = store.epoch();
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Stops every shard's merge threads, completes pending merges,
    /// checkpoints, bumps the manifest epoch, and returns the settled
    /// trees (shard order; degraded shards omitted).
    ///
    /// # Errors
    ///
    /// Returns the first shard shutdown or manifest error (after
    /// attempting every shard — one failing shard never blocks its
    /// siblings' clean shutdown).
    pub fn shutdown(mut self) -> Result<Vec<BLsmTree>> {
        let mut trees = Vec::with_capacity(self.shards.len());
        let mut first_err = None;
        for slot in self.shards.drain(..) {
            if let ShardSlot::Serving(db) = slot {
                match db.shutdown() {
                    Ok(tree) => trees.push(tree),
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        if let Some(store) = &mut self.manifest {
            if let Err(e) = store.save(&shard_manifest_payload(&self.view.bounds)) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(trees),
            Some(e) => Err(e),
        }
    }
}

/// The typed error every request that cannot reach a serving shard gets.
fn shard_error(detail: String) -> StorageError {
    StorageError::corruption(ComponentId::Shard, None, detail)
}

fn no_such_shard(i: usize, count: usize) -> StorageError {
    shard_error(format!("no shard {i}: the store has {count} shards"))
}

/// Lock-free, cloneable read handle over every serving shard: the
/// sharded analogue of [`ReadView`]. Reads and scans route exactly like
/// the store's own; a degraded shard yields the typed
/// [`ComponentId::Shard`] error.
#[derive(Clone)]
pub struct ShardedReadView {
    bounds: Arc<[Bytes]>,
    views: Arc<[Option<ReadView>]>,
}

impl std::fmt::Debug for ShardedReadView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedReadView")
            .field("shards", &self.views.len())
            .finish_non_exhaustive()
    }
}

impl ShardedReadView {
    /// Number of shards (serving + degraded).
    pub fn shard_count(&self) -> usize {
        self.views.len()
    }

    /// The boundary list (`len() == shard_count() - 1`).
    pub fn bounds(&self) -> &[Bytes] {
        &self.bounds
    }

    /// Index of the shard owning `key`.
    pub fn shard_for(&self, key: &[u8]) -> usize {
        route::shard_for(&self.bounds, key)
    }

    fn view(&self, i: usize) -> Result<&ReadView> {
        match self.views.get(i) {
            Some(Some(v)) => Ok(v),
            Some(None) => Err(shard_error(format!(
                "shard {i} is degraded and cannot serve reads"
            ))),
            None => Err(no_such_shard(i, self.views.len())),
        }
    }

    /// Point lookup — lock-free within the owning shard.
    ///
    /// # Errors
    ///
    /// Typed shard error when the owning shard is degraded.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.view(self.shard_for(key))?.get(key)
    }

    /// Existence check — lock-free within the owning shard.
    ///
    /// # Errors
    ///
    /// Typed shard error when the owning shard is degraded.
    pub fn exists(&self, key: &[u8]) -> Result<bool> {
        self.view(self.shard_for(key))?.exists(key)
    }

    fn scatter(&self, from: &[u8], to: Option<&[u8]>, limit: usize) -> Result<Vec<ScanItem>> {
        route::scatter_scan(&self.bounds, from, to, limit, |i, f, t, l| {
            let view = self.view(i)?;
            match t {
                Some(t) => view.scan_range(f, t, l),
                None => view.scan(f, l),
            }
        })
    }

    /// Scatter-gather ordered scan (see [`route::scatter_scan`]).
    ///
    /// # Errors
    ///
    /// Fails if any overlapping shard is degraded or errors.
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        self.scatter(from, None, limit)
    }

    /// Scatter-gather ordered scan of `[from, to)`.
    ///
    /// # Errors
    ///
    /// Fails if any overlapping shard is degraded or errors.
    pub fn scan_range(&self, from: &[u8], to: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        self.scatter(from, Some(to), limit)
    }

    /// Aggregated counters across serving shards (degraded shards
    /// contribute nothing). `backpressure` is the *worst* shard's level
    /// — per-shard levels come from [`backpressure`](Self::backpressure).
    pub fn stats(&self) -> TreeStatsSnapshot {
        let mut total = TreeStatsSnapshot::default();
        for v in self.views.iter().flatten() {
            total.accumulate(&v.stats());
        }
        total
    }

    /// Per-shard counter snapshots; `None` marks a degraded shard.
    pub fn shard_stats(&self) -> Vec<Option<TreeStatsSnapshot>> {
        self.views
            .iter()
            .map(|v| v.as_ref().map(ReadView::stats))
            .collect()
    }

    /// Shard `i`'s live spring-and-gear backpressure level — the
    /// admission signal that paces only *this* shard's writers, from one
    /// atomic `C0` occupancy read. `None` for a degraded (or
    /// out-of-range) shard.
    pub fn backpressure(&self, i: usize) -> Option<BackpressureLevel> {
        self.views.get(i)?.as_ref().map(ReadView::backpressure)
    }

    /// Scrubs every serving shard, summing the findings; degraded
    /// shards are reported as an error line each (they cannot be
    /// scrubbed, which is itself a finding).
    pub fn scrub(&self) -> TreeScrubReport {
        let mut total = TreeScrubReport::default();
        for (i, v) in self.views.iter().enumerate() {
            match v {
                Some(v) => {
                    let r = v.scrub();
                    total.components_checked += r.components_checked;
                    total.pages_checked += r.pages_checked;
                    total.entries_checked += r.entries_checked;
                    total
                        .errors
                        .extend(r.errors.into_iter().map(|e| format!("shard {i}: {e}")));
                }
                None => total
                    .errors
                    .push(format!("shard {i}: degraded, not scrubbed")),
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use blsm_memtable::AppendOperator;
    use blsm_storage::MemDevice;

    fn mem_shards(n: usize) -> (SharedDevice, Vec<(SharedDevice, SharedDevice)>) {
        let manifest: SharedDevice = Arc::new(MemDevice::new());
        let devs = (0..n)
            .map(|_| {
                (
                    Arc::new(MemDevice::new()) as SharedDevice,
                    Arc::new(MemDevice::new()) as SharedDevice,
                )
            })
            .collect();
        (manifest, devs)
    }

    fn small_config() -> ShardedConfig {
        ShardedConfig {
            tree: BLsmConfig {
                mem_budget: 64 << 10,
                ..Default::default()
            },
            pool_pages: 256,
            quantum: 1 << 20,
        }
    }

    fn open(
        manifest: &SharedDevice,
        devs: &[(SharedDevice, SharedDevice)],
        bounds: Vec<Bytes>,
    ) -> ShardedBLsm {
        let devs = devs.to_vec();
        ShardedBLsm::open_with_devices(
            manifest.clone(),
            bounds,
            move |i| Ok(devs[i].clone()),
            &small_config(),
            &(Arc::new(AppendOperator) as Arc<dyn MergeOperator>),
        )
        .unwrap()
    }

    fn key(i: u32) -> Bytes {
        // Two-byte big-endian hashed prefix so even_bounds routing spreads.
        let mut k = ((i.wrapping_mul(2_654_435_761) >> 16) as u16)
            .to_be_bytes()
            .to_vec();
        k.extend_from_slice(format!("user{i:08}").as_bytes());
        Bytes::from(k)
    }

    #[test]
    fn puts_route_and_read_back_across_shards() {
        let (manifest, devs) = mem_shards(4);
        let store = open(&manifest, &devs, ShardedBLsm::even_bounds(4));
        assert_eq!(store.shard_count(), 4);
        for i in 0..2_000u32 {
            store.put(key(i), Bytes::from(format!("v{i}"))).unwrap();
        }
        for i in (0..2_000u32).step_by(37) {
            assert_eq!(
                store.get(&key(i)).unwrap().unwrap(),
                Bytes::from(format!("v{i}")),
            );
        }
        // Writes landed on more than one shard.
        let busy = store
            .shard_stats()
            .iter()
            .filter(|s| s.is_some_and(|s| s.writes > 0))
            .count();
        assert!(busy >= 2, "writes funnelled into {busy} shard(s)");
        drop(store);
    }

    #[test]
    fn scans_straddle_shard_boundaries_in_key_order() {
        let (manifest, devs) = mem_shards(4);
        let store = open(&manifest, &devs, ShardedBLsm::even_bounds(4));
        // Sequential two-byte prefixes: keys cross every boundary.
        let mk = |i: u16| {
            let mut k = i.to_be_bytes().to_vec();
            k.extend_from_slice(b"-row");
            Bytes::from(k)
        };
        for i in 0..1_024u16 {
            store.put(mk(i * 64), Bytes::from(format!("v{i}"))).unwrap();
        }
        let rows = store.scan(&mk(0), 1_024).unwrap();
        assert_eq!(rows.len(), 1_024);
        for (j, row) in rows.iter().enumerate() {
            assert_eq!(row.key, mk(j as u16 * 64), "row {j} out of order");
        }
        // A bounded range that starts in shard 1 and ends in shard 2.
        let rows = store.scan_range(&mk(0x4100), &mk(0x8100), 10_000).unwrap();
        assert!(!rows.is_empty());
        assert!(rows.windows(2).all(|w| w[0].key < w[1].key));
        assert!(rows.first().unwrap().key.as_ref() >= mk(0x4100).as_ref());
        assert!(rows.last().unwrap().key.as_ref() < mk(0x8100).as_ref());
        // Scatter-gather via the read view agrees with the store.
        let view = store.read_view();
        assert_eq!(view.scan(&mk(0), 1_024).unwrap().len(), 1_024);
    }

    #[test]
    fn manifest_persists_bounds_and_bumps_epoch() {
        let (manifest, devs) = mem_shards(3);
        let bounds = vec![Bytes::from_static(b"g"), Bytes::from_static(b"p")];
        let store = open(&manifest, &devs, bounds.clone());
        let first_epoch = store.epoch();
        store
            .put(Bytes::from_static(b"apple"), Bytes::from_static(b"1"))
            .unwrap();
        store
            .put(Bytes::from_static(b"horse"), Bytes::from_static(b"2"))
            .unwrap();
        store
            .put(Bytes::from_static(b"zebra"), Bytes::from_static(b"3"))
            .unwrap();
        store.shutdown().unwrap();
        // Reopen with *different* requested bounds: persisted layout wins.
        let store = open(&manifest, &devs, vec![Bytes::from_static(b"zzz")]);
        assert_eq!(store.bounds(), &bounds[..]);
        assert!(store.epoch() > first_epoch, "epoch must advance per open");
        assert_eq!(store.get(b"apple").unwrap().unwrap().as_ref(), b"1");
        assert_eq!(store.get(b"horse").unwrap().unwrap().as_ref(), b"2");
        assert_eq!(store.get(b"zebra").unwrap().unwrap().as_ref(), b"3");
    }

    #[test]
    fn degraded_shard_serves_typed_error_while_siblings_serve() {
        let (manifest, devs) = mem_shards(2);
        let bounds = vec![Bytes::from_static(b"m")];
        {
            let store = open(&manifest, &devs, bounds.clone());
            store
                .put(Bytes::from_static(b"aa"), Bytes::from_static(b"low"))
                .unwrap();
            store
                .put(Bytes::from_static(b"zz"), Bytes::from_static(b"high"))
                .unwrap();
            store.shutdown().unwrap();
        }
        // Shard 0's devices "fail" on reopen.
        let devs2 = devs.clone();
        let store = ShardedBLsm::open_with_devices(
            manifest.clone(),
            bounds,
            move |i| {
                if i == 0 {
                    Err(StorageError::Io(std::io::Error::other("disk gone")))
                } else {
                    Ok(devs2[i].clone())
                }
            },
            &small_config(),
            &(Arc::new(AppendOperator) as Arc<dyn MergeOperator>),
        )
        .unwrap();
        let degraded = store.degraded_shards();
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].shard, 0);
        // Requests to the degraded shard: typed ComponentId::Shard error.
        let err = store.get(b"aa").unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::Corruption {
                    component: ComponentId::Shard,
                    ..
                }
            ),
            "expected typed shard error, got {err:?}"
        );
        assert!(store
            .put(Bytes::from_static(b"ab"), Bytes::from_static(b"x"))
            .is_err());
        // The sibling shard serves reads and writes normally.
        assert_eq!(store.get(b"zz").unwrap().unwrap().as_ref(), b"high");
        store
            .put(Bytes::from_static(b"zy"), Bytes::from_static(b"new"))
            .unwrap();
        assert_eq!(store.get(b"zy").unwrap().unwrap().as_ref(), b"new");
        // The read view reports the same degradation, and scrub calls
        // the degraded shard out as a finding.
        let view = store.read_view();
        assert!(view.get(b"aa").is_err());
        assert!(view.backpressure(0).is_none());
        assert!(view.scrub().errors.iter().any(|e| e.contains("shard 0")));
    }

    #[test]
    fn skewed_writes_merge_only_the_hot_shard() {
        // §2.3.2: merge activity concentrates on frequently updated key
        // ranges — a shard that receives no writes never merges.
        let (manifest, devs) = mem_shards(4);
        let store = open(&manifest, &devs, ShardedBLsm::even_bounds(4));
        for i in 0..4_000u32 {
            let mut k = vec![0x80, 0x00];
            k.extend_from_slice(format!("hot{:06}", i % 1_000).as_bytes());
            store.put(k, Bytes::from(vec![1u8; 64])).unwrap();
        }
        let merges: Vec<u64> = store
            .shutdown()
            .unwrap()
            .iter()
            .map(|t| t.stats().merges01)
            .collect();
        assert!(merges[2] > 0, "the hot shard must have merged: {merges:?}");
        assert_eq!(merges[0] + merges[1] + merges[3], 0, "{merges:?}");
    }

    fn is_shard_error<T: std::fmt::Debug>(r: Result<T>) -> bool {
        matches!(
            r,
            Err(StorageError::Corruption {
                component: ComponentId::Shard,
                ..
            })
        )
    }

    #[test]
    fn store_rejects_an_out_of_range_shard_index_with_a_typed_error() {
        let (manifest, devs) = mem_shards(2);
        let store = open(&manifest, &devs, vec![Bytes::from_static(b"m")]);
        let n = store.shard_count();
        assert!(is_shard_error(store.shard_engine(n)));
        assert!(store.backpressure(n).is_none());
        assert!(store.backpressure(n - 1).is_some());
    }

    #[test]
    fn read_view_rejects_an_out_of_range_shard_index_with_a_typed_error() {
        let (manifest, devs) = mem_shards(2);
        let view = open(&manifest, &devs, vec![Bytes::from_static(b"m")]).read_view();
        let n = view.shard_count();
        assert!(is_shard_error(view.view(n)));
        assert!(view.backpressure(n).is_none());
        assert!(view.backpressure(n - 1).is_some());
    }
}
