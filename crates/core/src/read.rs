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

use std::sync::Arc;

use bytes::Bytes;

use blsm_memtable::{Entry, MergeOperator, Versioned};
use blsm_sstable::{EntryRef, EntryStream, MergeIter, ReadMode};
use blsm_storage::Result;

use crate::catalog::{ComponentCatalog, TreeShared};
use crate::stats::{self, TreeStatsSnapshot};

/// Tree-wide outcome of a scrub pass over every on-disk component.
///
/// Produced by [`crate::BLsmTree::scrub`] / [`ReadView::scrub`]; the
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

/// A shareable, lock-free handle to the tree's read path.
///
/// Cheap to clone (one `Arc`), `Send + Sync`, and valid for as long as
/// the originating [`crate::BLsmTree`] world exists — including while
/// merges run: reads pin an immutable component snapshot and proceed
/// without ever taking the tree lock.
#[derive(Clone)]
pub struct ReadView {
    shared: Arc<TreeShared>,
}

impl std::fmt::Debug for ReadView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadView")
            .field("stats", &self.shared.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl ReadView {
    pub(crate) fn new(shared: Arc<TreeShared>) -> ReadView {
        ReadView { shared }
    }

    /// Point lookup. Walks components newest→oldest, consults a Bloom
    /// filter before every disk probe, folds deltas, and stops at the
    /// first base record (§3.1, §3.1.1).
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        self.shared.get(key)
    }

    /// Existence check with early termination and Bloom short-circuits.
    pub fn exists(&self, key: &[u8]) -> Result<bool> {
        self.shared.exists(key)
    }

    /// Ordered scan: up to `limit` live rows with key ≥ `from`.
    pub fn scan(&self, from: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        self.shared.scan(from, None, limit)
    }

    /// Ordered scan of `[from, to)`, up to `limit` rows.
    pub fn scan_range(&self, from: &[u8], to: &[u8], limit: usize) -> Result<Vec<ScanItem>> {
        self.shared.scan(from, Some(to), limit)
    }

    /// Snapshot of the engine counters plus the live backpressure level.
    /// Fully lock-free: `C0` occupancy is an atomic counter read.
    pub fn stats(&self) -> TreeStatsSnapshot {
        self.shared.stats_snapshot()
    }

    /// Just the live backpressure level — one atomic read, for per-write
    /// admission (see [`crate::BLsmTree::backpressure`]).
    pub(crate) fn backpressure(&self) -> crate::sched::BackpressureLevel {
        self.shared.backpressure_level()
    }

    /// Verifies every on-disk component against the device (checksums,
    /// footers, ordering, Bloom agreement). Lock-free like every other
    /// read: the pass runs on a pinned catalog snapshot while writes and
    /// merges proceed.
    pub fn scrub(&self) -> TreeScrubReport {
        self.shared.scrub()
    }
}

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

impl TreeShared {
    /// Pins a `(C0 version chain, catalog)` pair for `key` behind the
    /// buffer's publish epoch — the consistency unit of the whole read
    /// path. Retries while a catalog publish is in flight (odd epoch) or
    /// completed mid-read (epoch moved); publishes are rare (once per
    /// merge pass), so the loop almost always exits first try.
    fn pin_chain(&self, key: &[u8]) -> (Vec<Versioned>, Arc<ComponentCatalog>) {
        loop {
            let e1 = self.c0.publish_epoch();
            if e1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let chain = self.c0.version_chain(key);
            let catalog = self.catalog.load();
            if self.c0.publish_epoch() == e1 {
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

    pub(crate) fn get(&self, key: &[u8]) -> Result<Option<Bytes>> {
        stats::bump(&self.stats.gets, 1);
        let mut deltas: Vec<Bytes> = Vec::new();
        let (verdict, catalog) = self.pin_for_get(key, &mut deltas);
        match verdict {
            C0Verdict::Terminated(Some(base)) => {
                stats::bump(&self.stats.early_terminations, 1);
                return Ok(resolve_base(self.op.as_ref(), Some(&base), &deltas));
            }
            C0Verdict::Terminated(None) => {
                // Tombstone: deltas above it (if any) apply to an absent
                // base; with none, the key is simply gone.
                return Ok(
                    resolve_base(self.op.as_ref(), None, &deltas).filter(|_| !deltas.is_empty())
                );
            }
            C0Verdict::Continue => {}
        }

        for (slot, table) in catalog.named_tables() {
            if !table.may_contain(key) {
                stats::bump(&self.stats.bloom_skips, 1);
                continue;
            }
            stats::bump(&self.stats.disk_probes, 1);
            let Some(v) = table.get(key).map_err(|e| e.in_component(slot))? else {
                continue;
            };
            match v.entry {
                Entry::Put(b) => {
                    stats::bump(&self.stats.early_terminations, 1);
                    return Ok(resolve_base(self.op.as_ref(), Some(&b), &deltas));
                }
                Entry::Tombstone => {
                    return Ok(resolve_base(self.op.as_ref(), None, &deltas)
                        .filter(|_| !deltas.is_empty()));
                }
                Entry::Delta(d) => deltas.push(d),
            }
        }
        if deltas.is_empty() {
            Ok(None)
        } else {
            // Orphan deltas: apply against an absent base.
            Ok(resolve_base(self.op.as_ref(), None, &deltas))
        }
    }

    pub(crate) fn exists(&self, key: &[u8]) -> Result<bool> {
        let (chain, catalog) = self.pin_chain(key);
        if let Some(v) = chain.into_iter().next() {
            // A delta implies a live record (it materializes on read).
            return Ok(!matches!(v.entry, Entry::Tombstone));
        }
        for (slot, table) in catalog.named_tables() {
            if !table.may_contain(key) {
                stats::bump(&self.stats.bloom_skips, 1);
                continue;
            }
            stats::bump(&self.stats.disk_probes, 1);
            if let Some(v) = table.get(key).map_err(|e| e.in_component(slot))? {
                return Ok(!matches!(v.entry, Entry::Tombstone));
            }
        }
        Ok(false)
    }

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

    /// Scrubs every catalogued component, summing the per-component
    /// reports and prefixing each problem with its slot name. Bumps the
    /// `scrubs`/`scrub_errors` counters.
    pub(crate) fn scrub(&self) -> TreeScrubReport {
        let catalog = self.catalog.load();
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
        stats::bump(&self.stats.scrubs, 1);
        stats::bump(&self.stats.scrub_errors, report.errors.len() as u64);
        report
    }

    /// Ordered scan of `[from, to)` (unbounded above when `to` is
    /// `None`), up to `limit` live rows. Touches every component once
    /// (§3.3's two/three-seek scans).
    pub(crate) fn scan(
        &self,
        from: &[u8],
        to: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<ScanItem>> {
        stats::bump(&self.stats.scans, 1);
        // Pin: copy the C0 rows of the range and load the catalog behind
        // the publish epoch (same seqlock as `pin_chain`). The copy is
        // bounded by the C0 memory budget (and by `to` when given); disk
        // components stream lazily. Deliberate trade-off: an
        // unbounded-above scan copies the whole C0 tail and retries it
        // wholesale if a merge publishes mid-copy — publishes are
        // once-per-pass rare, and shard locks are only held per-shard, so
        // writers are never blocked for the duration of the copy.
        // Mid-pass, `range_rows` yields *every* resident version of a key
        // (a deferred Delta and the base it shadows, newest first); the
        // rows go to MergeIter below as one multi-version stream so tied
        // versions fold exactly like any other component chain.
        let (c0_rows, catalog) = loop {
            let e1 = self.c0.publish_epoch();
            if e1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let rows = self.c0.range_rows(from, to);
            let catalog = self.catalog.load();
            if self.c0.publish_epoch() == e1 {
                break (rows, catalog);
            }
        };

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

        let merged = MergeIter::new(streams, self.op.clone(), true);
        let mut out = Vec::with_capacity(limit);
        for item in merged {
            let e = item?;
            if let Some(to) = to {
                if e.key.as_ref() >= to {
                    break;
                }
            }
            if let Entry::Put(value) = e.version.entry {
                out.push(ScanItem { key: e.key, value });
                if out.len() >= limit {
                    break;
                }
            }
        }
        Ok(out)
    }
}
