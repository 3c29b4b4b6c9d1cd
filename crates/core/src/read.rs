//! The lock-free read path.
//!
//! Point lookups, existence checks and scans all run against an immutable
//! pinned pair — a `C0` snapshot and a [`ComponentCatalog`] — so they are
//! `&self`, never block merges, and never block each other (§4.4.1:
//! merge threads must not take a coarse mutex per tuple or page).
//!
//! Pinning protocol (the other half lives in `merge.rs`): a reader
//! samples the sharded buffer's *publish epoch* (a seqlock), collects the
//! key's in-memory version chain (or the `C0` rows of a scan range),
//! loads the catalog pointer, and retries from the top if the epoch moved
//! or was odd — `C0:C1` merges publish their output and retire the
//! drained `C0` copies inside one odd-epoch window
//! ([`ConcurrentC0::end_capped_pass_with`]), so an unchanged even epoch
//! proves the pinned pair is consistent: every version of every key is
//! visible exactly once along the newest→oldest search order. Individual
//! shard reads take only that shard's lock; no tree-wide lock exists on
//! this path.
//!
//! [`ConcurrentC0::end_capped_pass_with`]: blsm_memtable::ConcurrentC0::end_capped_pass_with

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;

use blsm_memtable::{Entry, MergeOperator, Versioned};
use blsm_sstable::{EntryRef, EntryStream, MergeIter, ReadMode};
use blsm_storage::{Result, Wal};

use crate::catalog::{ComponentCatalog, TreeShared};
use crate::config::Durability;
use crate::sched::BackpressureLevel;
use crate::stats::{self, TreeStatsSnapshot};
use crate::tree::invariant_err;

/// Tree-wide outcome of a scrub pass over every on-disk component.
///
/// Produced by [`ReadView::scrub`]; the
/// per-component numbers are summed and every problem string is prefixed
/// with the component slot it came from.
#[derive(Debug, Clone, Default)]
pub struct TreeScrubReport {
    /// On-disk components scrubbed.
    pub components_checked: u64,
    /// Pages read back from the device and checksum-verified.
    pub pages_checked: u64,
    /// Logical entries walked during the structural passes.
    pub entries_checked: u64,
    /// Every problem found, prefixed with its component slot (empty ⇒
    /// all components are clean).
    pub errors: Vec<String>,
}

impl TreeScrubReport {
    /// True when no component reported a problem.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// One row returned by a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanItem {
    /// The key.
    pub key: Bytes,
    /// The fully resolved value (deltas folded, tombstones elided).
    pub value: Bytes,
}

/// A shareable handle to the tree's read path and replication shipping —
/// the one implementation of every read operation.
///
/// Cheap to clone (one `Arc`), `Send + Sync`, and valid for as long as
/// the originating [`crate::BLsmTree`] world exists — including while
/// merges run. The tree holds one and derefs to it, so `tree.get(k)` and
/// `view.get(k)` are the same call. Data reads pin an immutable component
/// snapshot and never take a tree-wide lock; the shipping reads
/// (`wal_window`, `wal_records_from`) take the tree's log mutex, with
/// nothing else held.
#[derive(Clone)]
pub struct ReadView {
    pub(crate) shared: Arc<TreeShared>,
}

impl std::fmt::Debug for ReadView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadView")
            .field("stats", &self.shared.stats.snapshot())
            .finish_non_exhaustive()
    }
}

/// `C0` rows a scan's first pin may copy beyond `limit + limit / 2`. The
/// half covers a copied prefix in which one row in three yields nothing
/// (a tombstone, or a second mid-pass copy of a key); the constant keeps
/// one-row scans from re-pinning over a single deleted key.
const C0_BUDGET_SLACK: usize = 8;

/// Factor by which a scan that fell short of `limit` under its horizon
/// grows its `C0` row budget. Eightfold, so a tombstone-dense prefix costs
/// a geometric series dominated by its last — sufficient — copy.
const C0_BUDGET_GROWTH: usize = 8;

/// Most result rows a scan reserves room for up front; `limit` is a
/// caller's ceiling (a wire `u32`), not a promise of that many rows.
pub(crate) const SCAN_PREALLOC_ROWS: usize = 1024;

/// Folds collected deltas over a base value (or its absence).
fn resolve_base(op: &dyn MergeOperator, base: Option<&[u8]>, deltas: &[Bytes]) -> Option<Bytes> {
    if deltas.is_empty() {
        return base.map(Bytes::copy_from_slice);
    }
    let refs: Vec<&[u8]> = deltas.iter().map(Bytes::as_ref).collect();
    Some(Bytes::from(op.fold(base, &refs)))
}

/// What the in-memory part of a lookup decided before disk is consulted.
enum C0Verdict {
    /// A base record terminated the search (value, or `None` for a
    /// tombstone); `deltas` collected above it still apply.
    Terminated(Option<Bytes>),
    /// Only deltas (or nothing) found; the disk components must be
    /// probed.
    Continue,
}

impl ReadView {
    pub(crate) fn new(shared: Arc<TreeShared>) -> ReadView {
        ReadView { shared }
    }

    /// Point lookup. Walks components newest→oldest, consults a Bloom
    /// filter before every disk probe, folds deltas, and stops at the
    /// first base record (§3.1, §3.1.1).
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        let shared = &*self.shared;
        stats::bump(&shared.stats.gets, 1);
        let mut deltas: Vec<Bytes> = Vec::new();
        let (verdict, catalog) = self.pin_for_get(key, &mut deltas);
        match verdict {
            C0Verdict::Terminated(Some(base)) => {
                stats::bump(&shared.stats.early_terminations, 1);
                return Ok(resolve_base(shared.op.as_ref(), Some(&base), &deltas));
            }
            C0Verdict::Terminated(None) => {
                // Tombstone: deltas above it (if any) apply to an absent
                // base; with none, the key is simply gone.
                return Ok(
                    resolve_base(shared.op.as_ref(), None, &deltas).filter(|_| !deltas.is_empty())
                );
            }
            C0Verdict::Continue => {}
        }

        for (slot, table) in catalog.named_tables() {
            if !table.may_contain(key) {
                stats::bump(&shared.stats.bloom_skips, 1);
                continue;
            }
            stats::bump(&shared.stats.disk_probes, 1);
            let Some(v) = table.get(key).map_err(|e| e.in_component(slot))? else {
                continue;
            };
            match v.entry {
                Entry::Put(b) => {
                    stats::bump(&shared.stats.early_terminations, 1);
                    return Ok(resolve_base(shared.op.as_ref(), Some(&b), &deltas));
                }
                Entry::Tombstone => {
                    return Ok(resolve_base(shared.op.as_ref(), None, &deltas)
                        .filter(|_| !deltas.is_empty()));
                }
                Entry::Delta(d) => deltas.push(d),
            }
        }
        if deltas.is_empty() {
            Ok(None)
        } else {
            // Orphan deltas: apply against an absent base.
            Ok(resolve_base(shared.op.as_ref(), None, &deltas))
        }
    }

    /// Existence check with early termination and Bloom short-circuits.
    pub fn exists(&self, key: &[u8]) -> Result<bool> {
        let (chain, catalog) = self.pin_chain(key);
        if let Some(v) = chain.into_iter().next() {
            // A delta implies a live record (it materializes on read).
            return Ok(!matches!(v.entry, Entry::Tombstone));
        }
        let counters = &self.shared.stats;
        for (slot, table) in catalog.named_tables() {
            if !table.may_contain(key) {
                stats::bump(&counters.bloom_skips, 1);
                continue;
            }
            stats::bump(&counters.disk_probes, 1);
            if let Some(v) = table.get(key).map_err(|e| e.in_component(slot))? {
                return Ok(!matches!(v.entry, Entry::Tombstone));
            }
        }
        Ok(false)
    }

    /// Ordered scan: up to `limit` live rows with key ≥ `from`.
    /// Touches every component once (§3.3's two/three-seek scans).
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        self.scan_bounded(from, None, limit)
    }

    /// Ordered scan of `[from, to)`, up to `limit` rows.
    pub fn scan_range(&self, from: &[u8], to: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        self.scan_bounded(from, Some(to), limit)
    }

    /// Snapshot of the engine counters plus the live spring-and-gear
    /// backpressure level derived from `C0` occupancy against the
    /// configured watermarks — the single source of truth the serving
    /// layer's admission control and STATS command read. Fully
    /// lock-free: `C0` occupancy is an atomic counter read.
    pub fn stats(&self) -> TreeStatsSnapshot {
        let shared = &*self.shared;
        let mut snap = shared.stats.snapshot();
        snap.backpressure = self.backpressure();
        snap.recovery = shared.recovery.get().copied().unwrap_or_default();
        // ordering: Acquire — pairs with the AcqRel ticket allocation in
        // `write_entry` / the replicated-apply CAS; see the field docs.
        snap.next_seqno = shared.next_seqno.load(Ordering::Acquire);
        snap
    }

    /// Just the live backpressure level — one atomic `C0` occupancy read
    /// plus arithmetic, the cheap form of the field in
    /// [`stats`](Self::stats) for per-write fast paths (the doorbell
    /// gate, admission).
    pub fn backpressure(&self) -> BackpressureLevel {
        BackpressureLevel::from_occupancy(
            self.shared.c0.approx_bytes() as u64,
            self.shared.config.mem_budget as u64,
            crate::sched::LOW_WATER,
            crate::sched::HIGH_WATER,
        )
    }

    /// Verifies every on-disk component against the device: per-page
    /// checksums (read device-direct, bypassing the cache), footer
    /// checksums, key ordering, fence agreement, Bloom-filter agreement
    /// and entry counts. Returns the problems found instead of failing on
    /// the first one, each prefixed with its slot name, and bumps the
    /// `scrubs`/`scrub_errors` counters. Lock-free like every other data
    /// read: the pass runs on a pinned catalog snapshot while writes and
    /// merges proceed.
    pub fn scrub(&self) -> TreeScrubReport {
        let catalog = self.shared.catalog.load();
        let mut report = TreeScrubReport::default();
        for (slot, table) in catalog.named_tables() {
            let r = table.scrub();
            report.components_checked += 1;
            report.pages_checked += r.pages_checked;
            report.entries_checked += r.entries_checked;
            report
                .errors
                .extend(r.errors.into_iter().map(|e| format!("{slot}: {e}")));
        }
        stats::bump(&self.shared.stats.scrubs, 1);
        stats::bump(&self.shared.stats.scrub_errors, report.errors.len() as u64);
        report
    }

    /// The next sequence number the tree would allocate — an atomic
    /// counter read, no locks. Monotone non-decreasing over the life of
    /// an open tree (the concurrency hammer asserts exactly that).
    pub fn next_seqno(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel ticket allocation in
        // `write_entry`; see the field docs in `catalog.rs`.
        self.shared.next_seqno.load(Ordering::Acquire)
    }

    /// The highest seqno this tree has *fully applied* (WAL + `C0`),
    /// from one atomic read. Unlike [`next_seqno`](Self::next_seqno)
    /// (a reservation counter), this never covers a write whose apply
    /// failed — it is the horizon replication acks report.
    pub fn applied_seqno(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel floor advance in
        // `insert_versioned`; see the field docs in `catalog.rs`.
        self.shared
            .applied_floor
            .load(Ordering::Acquire)
            .saturating_sub(1)
    }

    /// The WAL's live shippable window `(head, horizon)`: records below
    /// `head` are truncated, records in `[head, horizon)` are readable
    /// for replication catch-up via [`wal_records_from`](Self::wal_records_from).
    /// Under `Durability::Sync` the horizon is the last *synced* group
    /// boundary — an append whose group has not retired must not reach a
    /// follower before it is durable on the leader; otherwise it is the
    /// flushed tail. Takes the log mutex.
    ///
    /// # Errors
    ///
    /// Fails on a tree running with durability off (no WAL to ship).
    pub fn wal_window(&self) -> Result<(u64, u64)> {
        self.ship_read(|wal, horizon| Ok((wal.head_lsn(), horizon)))
    }

    /// Reads already-durable WAL records from `start_lsn` for shipping
    /// to a replication follower — up to `budget` payload bytes, but at
    /// least one record when any is readable — returning the records and
    /// the LSN the next read should resume from. The readable window ends
    /// at the [`wal_window`](Self::wal_window) horizon. Takes the log
    /// mutex.
    ///
    /// # Errors
    ///
    /// [`StorageError::SnapshotNeeded`](blsm_storage::StorageError::SnapshotNeeded)
    /// when `start_lsn` predates the ring's truncation point (the
    /// follower is too far behind the log); see
    /// [`blsm_storage::Wal::records_up_to`] for the full contract.
    pub fn wal_records_from(
        &self,
        start_lsn: u64,
        budget: usize,
    ) -> Result<(Vec<blsm_storage::WalRecord>, u64)> {
        self.ship_read(|wal, horizon| wal.records_up_to(start_lsn, horizon, budget))
    }

    /// Runs `read` under the log mutex with the LSN horizon replication
    /// may ship up to: under `Durability::Sync` the last synced group
    /// boundary (a record must be durable *here* before a follower can
    /// ack it elsewhere), otherwise the flushed tail.
    fn ship_read<T>(&self, read: impl FnOnce(&Wal, u64) -> Result<T>) -> Result<T> {
        let guard = self.shared.wal.lock();
        let wal = guard
            .as_ref()
            .ok_or_else(|| invariant_err("no wal to ship"))?;
        let horizon = match self.shared.config.durability {
            Durability::Sync => wal.synced_lsn(),
            _ => wal.flushed_lsn(),
        };
        read(wal, horizon)
    }

    /// Pins a `(C0 version chain, catalog)` pair for `key` behind the
    /// buffer's publish epoch — the consistency unit of the whole read
    /// path. Retries while a catalog publish is in flight (odd epoch) or
    /// completed mid-read (epoch moved); publishes are rare (once per
    /// merge pass), so the loop almost always exits first try.
    fn pin_chain(&self, key: &[u8]) -> (Vec<Versioned>, Arc<ComponentCatalog>) {
        let shared = &*self.shared;
        loop {
            let e1 = shared.c0.publish_epoch();
            if e1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let chain = shared.c0.version_chain(key);
            let catalog = shared.catalog.load();
            if shared.c0.publish_epoch() == e1 {
                return (chain, catalog);
            }
        }
    }

    /// Walks a pinned version chain into a get verdict, collecting deltas.
    fn pin_for_get(
        &self,
        key: &[u8],
        deltas: &mut Vec<Bytes>,
    ) -> (C0Verdict, Arc<ComponentCatalog>) {
        let (chain, catalog) = self.pin_chain(key);
        let mut verdict = C0Verdict::Continue;
        for v in &chain {
            match &v.entry {
                Entry::Put(b) => {
                    verdict = C0Verdict::Terminated(Some(b.clone()));
                    break;
                }
                Entry::Tombstone => {
                    verdict = C0Verdict::Terminated(None);
                    break;
                }
                Entry::Delta(d) => deltas.push(d.clone()),
            }
        }
        (verdict, catalog)
    }

    /// Pins a `(C0 rows, rows left, catalog)` triple for a scan behind the
    /// publish epoch (same seqlock as [`pin_chain`](Self::pin_chain)): up
    /// to `budget` rows of `[from, to)`, cut on a key boundary.
    fn pin_rows(
        &self,
        from: &[u8],
        to: Option<&[u8]>,
        budget: usize,
    ) -> (Vec<(Bytes, Versioned)>, bool, Arc<ComponentCatalog>) {
        let shared = &*self.shared;
        loop {
            let e1 = shared.c0.publish_epoch();
            if e1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let (rows, rows_left) = shared.c0.range_rows_bounded(from, to, budget);
            stats::bump(&shared.stats.scan_c0_rows, rows.len() as u64);
            let catalog = shared.catalog.load();
            if shared.c0.publish_epoch() == e1 {
                return (rows, rows_left, catalog);
            }
        }
    }

    /// Ordered scan of `[from, to)` (unbounded above when `to` is
    /// `None`), up to `limit` live rows. Touches every component once
    /// (§3.3's two/three-seek scans), and does work in proportion to
    /// `limit`, not to the size of `C0`.
    ///
    /// The pinned `C0` copy takes a row budget derived from `limit`
    /// ([`C0_BUDGET_SLACK`]) and stops at the first key boundary past it.
    /// When rows were left behind, the last copied key is a *horizon*:
    /// every resident version of every key up to it is in the copy, but
    /// an uncopied tombstone, newer `Put` or `Delta` may sit anywhere
    /// above it, so the merge may emit no key past the horizon. A scan
    /// that gets there (or runs out of input) short of `limit` — the
    /// copied prefix was dense in tombstones or mid-pass duplicates —
    /// starts over with a budget [`C0_BUDGET_GROWTH`] times larger; the
    /// last step of that escalation is the whole `C0` tail, where nothing
    /// is left and the horizon is gone. Every attempt is one `C0`-rows +
    /// catalog pair under one even publish epoch, retried wholesale if a
    /// merge publishes mid-copy (publishes are once-per-pass rare, and
    /// shard locks are held one shard at a time, so writers are never
    /// blocked for the duration of a copy). Disk components stream
    /// lazily. Mid-pass, the copy holds *every* resident version of a key
    /// (a deferred Delta and the base it shadows, newest first); the rows
    /// go to MergeIter as one multi-version stream so tied versions fold
    /// exactly like any other component chain.
    fn scan_bounded(&self, from: &[u8], to: Option<&[u8]>, limit: usize) -> Result<Vec<ScanItem>> {
        let shared = &*self.shared;
        stats::bump(&shared.stats.scans, 1);
        if limit == 0 {
            return Ok(Vec::new());
        }
        let mut budget = limit
            .saturating_add(limit / 2)
            .saturating_add(C0_BUDGET_SLACK);
        loop {
            let (c0_rows, rows_left, catalog) = self.pin_rows(from, to, budget);
            let horizon = c0_rows
                .last()
                .filter(|_| rows_left)
                .map(|(key, _)| key.clone());

            let mut streams: Vec<EntryStream<'static>> = Vec::with_capacity(4);
            // C0 (freshest).
            streams.push(Box::new(
                c0_rows
                    .into_iter()
                    .map(|(key, version)| Ok(EntryRef { key, version })),
            ));
            for table in catalog.tables() {
                streams.push(Box::new(table.iter_from(from, ReadMode::Pooled)));
            }

            let mut out = Vec::with_capacity(limit.min(SCAN_PREALLOC_ROWS));
            // Running out of input settles the scan only when all of C0
            // was in the copy.
            let mut settled = horizon.is_none();
            for item in MergeIter::new(streams, shared.op.clone(), true) {
                let e = item?;
                if horizon.as_ref().is_some_and(|h| e.key > *h) {
                    break;
                }
                if to.is_some_and(|to| e.key.as_ref() >= to) {
                    settled = true;
                    break;
                }
                if let Entry::Put(value) = e.version.entry {
                    out.push(ScanItem { key: e.key, value });
                    if out.len() >= limit {
                        settled = true;
                        break;
                    }
                }
            }
            if settled {
                return Ok(out);
            }
            stats::bump(&shared.stats.scan_repins, 1);
            budget = budget.saturating_mul(C0_BUDGET_GROWTH);
        }
    }
}

impl TreeShared {
    /// Newest on-disk sequence number for `key` (recovery's replay
    /// check). The seqno horizon answers "no component can cover this
    /// record" without any probe.
    pub(crate) fn disk_newest_seqno(&self, key: &[u8], at_least: u64) -> Result<Option<u64>> {
        let catalog = self.catalog.load();
        if at_least > catalog.seqno_horizon {
            return Ok(None);
        }
        for (slot, table) in catalog.named_tables() {
            if !table.may_contain(key) {
                continue;
            }
            if let Some(v) = table.get(key).map_err(|e| e.in_component(slot))? {
                return Ok(Some(v.seqno));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    use blsm_memtable::AppendOperator;
    use blsm_storage::{MemDevice, SharedDevice};

    use super::*;
    use crate::config::{BLsmConfig, SchedulerKind};
    use crate::BLsmTree;

    /// A tree whose merges only run when the test says so.
    fn hand_driven_tree(scheduler: SchedulerKind) -> BLsmTree {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let config = BLsmConfig {
            mem_budget: 4 << 20,
            wal_capacity: 16 << 20,
            external_pacing: true,
            scheduler,
            ..Default::default()
        };
        BLsmTree::open(data, wal, 4096, config, Arc::new(AppendOperator)).unwrap()
    }

    fn key(i: u64) -> Bytes {
        Bytes::from(format!("user{i:08}"))
    }

    /// xorshift64*: the crate has no `rand`, and the tests only need a
    /// reproducible stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) % n
        }
    }

    /// A tree beside the map it must read like (under `AppendOperator`).
    struct Modelled {
        tree: BLsmTree,
        model: BTreeMap<Bytes, Vec<u8>>,
    }

    impl Modelled {
        fn put(&mut self, k: u64, v: &[u8]) {
            self.tree.put(key(k), Bytes::copy_from_slice(v)).unwrap();
            self.model.insert(key(k), v.to_vec());
        }

        fn random_writes(&mut self, rng: &mut Rng, n: u64, keys: u64) {
            for _ in 0..n {
                let k = rng.below(keys);
                // Half of all writes delete: tombstone runs are what push
                // a scan past its first budget.
                match rng.below(6) {
                    0..=2 => {
                        self.tree.delete(key(k)).unwrap();
                        self.model.remove(&key(k));
                    }
                    3 => {
                        self.tree
                            .apply_delta(key(k), Bytes::from_static(b"+d"))
                            .unwrap();
                        self.model
                            .entry(key(k))
                            .or_default()
                            .extend_from_slice(b"+d");
                    }
                    _ => self.put(k, format!("v{}", rng.below(1000)).as_bytes()),
                }
            }
        }

        fn expected(&self, from: &Bytes, to: Option<&Bytes>, limit: usize) -> Vec<ScanItem> {
            self.model
                .range(from.clone()..)
                .take_while(|(k, _)| to.is_none_or(|to| *k < to))
                .take(limit)
                .map(|(k, v)| ScanItem {
                    key: k.clone(),
                    value: Bytes::copy_from_slice(v),
                })
                .collect()
        }
    }

    #[test]
    fn bounded_scans_equal_the_full_copy_scan() {
        // Random trees with disk rows under C0 tombstones and deltas, a
        // C0:C1 pass stopped part-way (drained bases retained or frozen,
        // fresher deltas deferred over them), scanned at random bounds:
        // the budgeted path must return what the same scan returns when
        // its budget saturates to the whole C0 tail (`limit = usize::MAX`,
        // the last escalation step), and both must read like the model.
        const KEYS: u64 = 400;
        let mut repins = 0;
        for seed in 1..=12u64 {
            for scheduler in [SchedulerKind::SpringGear, SchedulerKind::Gear] {
                let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut m = Modelled {
                    tree: hand_driven_tree(scheduler),
                    model: BTreeMap::new(),
                };
                for k in 0..KEYS {
                    if rng.below(5) > 0 {
                        m.put(k, b"disk");
                    }
                }
                m.tree.checkpoint().unwrap();
                m.random_writes(&mut rng, 300, KEYS);
                m.tree.start_merge01().unwrap();
                m.tree.run_merge01(rng.below(12_000)).unwrap();
                assert!(m.tree.merges_active().0, "the pass must stay in flight");
                m.random_writes(&mut rng, 200, KEYS);

                for _ in 0..40 {
                    let from = key(rng.below(KEYS + 20));
                    let limit = 1 + rng.below(60) as usize;
                    let full = m.tree.scan(&from, usize::MAX).unwrap();
                    assert_eq!(full, m.expected(&from, None, usize::MAX), "seed {seed}");
                    let bounded = m.tree.scan(&from, limit).unwrap();
                    assert_eq!(bounded, full[..limit.min(full.len())], "seed {seed}");

                    let to = key(rng.below(KEYS + 20));
                    let full = m.tree.scan_range(&from, &to, usize::MAX).unwrap();
                    assert_eq!(full, m.expected(&from, Some(&to), usize::MAX));
                    let bounded = m.tree.scan_range(&from, &to, limit).unwrap();
                    assert_eq!(bounded, full[..limit.min(full.len())], "seed {seed}");
                }
                repins += m.tree.stats().scan_repins;
                m.tree.checkpoint().unwrap();
                let settled = m.tree.scan(b"", usize::MAX).unwrap();
                assert_eq!(settled, m.expected(&Bytes::new(), None, usize::MAX));
            }
        }
        assert!(
            repins > 20,
            "the sweep must exercise the escalation: {repins}"
        );
    }

    #[test]
    fn tombstone_dense_prefix_escalates_the_budget() {
        let mut m = Modelled {
            tree: hand_driven_tree(SchedulerKind::SpringGear),
            model: BTreeMap::new(),
        };
        for k in 0..400 {
            m.put(k, b"disk");
        }
        m.tree.checkpoint().unwrap();
        // The first 200 keys at/after `from` are C0 tombstones over disk
        // rows: the first pin's horizon falls inside them, so nothing may
        // be emitted from it — least of all the disk rows they delete.
        for k in 100..300 {
            m.tree.delete(key(k)).unwrap();
            m.model.remove(&key(k));
        }
        for k in (300..400).step_by(2) {
            m.put(k, b"fresh");
        }
        let before = m.tree.stats();
        let rows = m.tree.scan(&key(100), 20).unwrap();
        assert_eq!(rows, m.expected(&key(100), None, 20));
        assert_eq!(rows[0].key, key(300));
        let after = m.tree.stats();
        assert!(after.scan_repins > before.scan_repins, "budget must grow");
        // 38 rows, then 304: the 8× step covers the 200 tombstones.
        assert_eq!(after.scan_repins - before.scan_repins, 1);
    }

    #[test]
    fn scan_near_the_end_of_the_keyspace_returns_the_short_tail() {
        let mut m = Modelled {
            tree: hand_driven_tree(SchedulerKind::SpringGear),
            model: BTreeMap::new(),
        };
        for k in 0..300 {
            m.put(k, b"disk");
        }
        m.tree.checkpoint().unwrap();
        for k in 0..300 {
            m.put(k, b"mem");
        }
        // Fewer rows than `limit` remain: the copy runs out of C0 (no
        // rows left, so no horizon) and the scan ends on the short tail.
        let before = m.tree.stats();
        let rows = m.tree.scan(&key(295), 20).unwrap();
        assert_eq!(rows, m.expected(&key(295), None, 20));
        assert_eq!(rows.len(), 5);
        assert!(m.tree.scan(&key(300), 20).unwrap().is_empty());
        assert!(m.tree.scan(b"zzz", 1).unwrap().is_empty());
        assert_eq!(m.tree.stats().scan_repins, before.scan_repins);
    }

    #[test]
    fn short_scan_copies_rows_in_proportion_to_limit() {
        let mut m = Modelled {
            tree: hand_driven_tree(SchedulerKind::SpringGear),
            model: BTreeMap::new(),
        };
        for k in 0..6000 {
            m.put(k, b"mem");
        }
        // 5 500 C0 rows sit at or after `from`; a 20-row scan's budget is
        // 20 + 10 + 8, cut at a key boundary.
        let before = m.tree.stats();
        let rows = m.tree.scan(&key(500), 20).unwrap();
        assert_eq!(rows, m.expected(&key(500), None, 20));
        let after = m.tree.stats();
        let copied = after.scan_c0_rows - before.scan_c0_rows;
        assert!((20..=64).contains(&copied), "copied {copied} C0 rows");
        assert_eq!(after.scan_repins, before.scan_repins);
    }

    #[test]
    fn reads_complete_while_every_driver_lock_is_held() {
        // Hold both merge drivers and the install lock, in lock order, the
        // way a long merge quantum plus its install would: point reads,
        // existence checks and scans through a view must keep completing
        // the whole time. A read path that takes any of these locks stalls
        // for the 200 ms window and fails the count.
        const KEYS: u64 = 1_000;
        let t = hand_driven_tree(SchedulerKind::SpringGear);
        for k in 0..KEYS {
            t.put(key(k), Bytes::from_static(b"disk")).unwrap();
        }
        t.checkpoint().unwrap();
        for k in (0..KEYS).step_by(3) {
            t.put(key(k), Bytes::from_static(b"mem")).unwrap();
        }

        let stop = AtomicBool::new(false);
        let reads = AtomicU64::new(0);
        let during = std::thread::scope(|s| {
            for r in 0..4u64 {
                let view = t.read_view();
                let (stop, reads) = (&stop, &reads);
                s.spawn(move || {
                    let mut rng = Rng(r + 1);
                    while !stop.load(Ordering::SeqCst) {
                        let k = key(rng.below(KEYS));
                        match rng.below(3) {
                            0 => assert!(view.get(&k).unwrap().is_some()),
                            1 => assert!(view.exists(&k).unwrap()),
                            _ => assert_eq!(view.scan(&k, 4).unwrap()[0].key, k),
                        }
                        reads.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
            while reads.load(Ordering::SeqCst) < 100 {
                std::thread::yield_now();
            }
            let d01 = t.merge01.lock();
            let d12 = t.merge12.lock();
            let m = t.merge.lock();
            let before = reads.load(Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(200));
            let during = reads.load(Ordering::SeqCst) - before;
            drop((m, d12, d01));
            stop.store(true, Ordering::SeqCst);
            during
        });
        assert!(
            during >= 1_000,
            "readers completed only {during} reads while the driver locks were held"
        );
    }

    #[test]
    fn limit_is_a_ceiling_not_a_reservation() {
        let mut m = Modelled {
            tree: hand_driven_tree(SchedulerKind::SpringGear),
            model: BTreeMap::new(),
        };
        for k in 0..10 {
            m.put(k, b"v");
        }
        // 0 asks for nothing (one row used to slip out before the limit
        // test); a wire-sized ceiling must not be allocated up front
        // (`u32::MAX` rows of capacity aborted the process).
        assert!(m.tree.scan(b"", 0).unwrap().is_empty());
        assert!(m.tree.scan_range(b"", b"zzz", 0).unwrap().is_empty());
        assert_eq!(m.tree.scan(b"", u32::MAX as usize).unwrap().len(), 10);
        assert_eq!(m.tree.scan(b"", usize::MAX).unwrap().len(), 10);
    }
}
