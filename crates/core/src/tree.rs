//! The bLSM tree engine.
//!
//! Three levels (`C0` in RAM, `C1`/`C1'`/`C2` on disk, Figure 1), Bloom
//! filters on every disk component, early-terminating reads, snowshoveling,
//! incremental merges paced by a pluggable level scheduler, a logical log,
//! and manifest-based crash recovery.
//!
//! A bare tree runs its merges *cooperatively*: each application write
//! asks the scheduler for a [`WorkPlan`](crate::WorkPlan) and performs
//! that much merge work inline before inserting. This keeps pacing
//! deterministic (essential for the simulated-device experiments) and
//! faithful to the paper: the scheduler decides exactly when merge I/O
//! happens relative to application writes. A tree on a
//! [`MergePlane`](crate::MergePlane) hands its merges to the plane's
//! lanes instead (`plane.rs`, which also holds the pacing code).
//!
//! Concurrency: the tree splits into three planes.
//!
//! * **Reads** are [`crate::ReadView`]'s, and only its: the tree holds a
//!   view and derefs to it (a standalone copy comes from
//!   [`BLsmTree::read_view`]). `get`, `scan` and `exists` pin the sharded
//!   `C0` plus the catalog behind the buffer's publish epoch and never
//!   take a tree-wide lock.
//! * **Writes** are `&self` and scale across threads: `put`, `delete` and
//!   `apply_delta` take a seqno from an atomic counter and append to the
//!   WAL under its own mutex, and insert into the key-range-sharded
//!   [`ConcurrentC0`](blsm_memtable::ConcurrentC0) — two writers contend
//!   only when they touch the same key-range shard (or both need the
//!   log).
//! * **Merges** have two drivers, as in the paper (§4.4.1): `C0:C1`
//!   runs under the `merge01` mutex and `C1':C2` under `merge12`, so the
//!   `C0` drain never queues behind the downstream merge. Both install
//!   their output through `merge` (allocator, manifest, retired list),
//!   held only to allocate and to install a finished merge, never across
//!   merge work. Cooperative writers try-lock the drivers to pace and
//!   block on `merge01` only at the hard `C0` cap.
//!
//! Lock order: `merge01` → `merge12` → `merge` → `wal` → `catalog` (see
//! DESIGN.md §14). The module split mirrors the design:
//! `catalog.rs` (the atomically swapped component snapshot), `read.rs`
//! (the read path), `merge.rs` (the merge machinery).

#[cfg(feature = "strict-invariants")]
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use blsm_memtable::{ConcurrentC0, Entry, MergeOperator, PassMode, Versioned, ENTRY_OVERHEAD};
use blsm_sstable::Sstable;
use blsm_storage::codec::{self, Reader};
use blsm_storage::manifest::{ManifestStore, DEFAULT_SLOT_PAGES};
use blsm_storage::page::PAGE_PAYLOAD_LEN;
use blsm_storage::{BufferPool, Lsn, RegionAllocator, Result, SharedDevice, StorageError, Wal};
use parking_lot::Mutex;

use crate::catalog::{CatalogCell, ComponentCatalog, TreeShared};
use crate::config::{BLsmConfig, Durability};
use crate::merge::{Merge01, Merge12};
use crate::meta::{ComponentSlot, TreeMeta};
use crate::plane::{AttachCell, Doorbell};
use crate::read::ReadView;
use crate::sched::{make_scheduler, MergeScheduler};
use crate::stats::{self, RecoveryReport, TreeStats};

/// The most Bloom bits a finished `C1` of `entries` entries may hold. Its
/// pass sizes the filter for an upper bound on its output and folds it to
/// the entries written: a fold stops short of halving below the paper's
/// 1 % (~9.6 bits a key, §3.1), so at most twice that is left — unless
/// the filter is too small to halve again (32 words at most).
#[cfg(any(test, feature = "strict-invariants"))]
pub(crate) fn c1_bloom_bits_bound(entries: u64) -> u64 {
    (20 * entries).max(32 * 64)
}

/// A general purpose log structured merge tree (the paper's system).
///
/// Writes and reads are `&self` and safe from any number of threads;
/// each merge's quanta serialize on its own driver mutex (see the module
/// docs for the concurrency planes). Every read — `get`, `exists`,
/// `scan`, `stats`, `scrub`, the seqno and WAL-shipping reads — is a
/// [`ReadView`] method, reached through `Deref`.
pub struct BLsmTree {
    /// The tree's own read view. Through `Deref`, `self.shared` is its
    /// `Arc<TreeShared>`: the state every writer and reader shares.
    view: ReadView,
    /// The `C0:C1` driver. Cooperative writers try-lock it for
    /// opportunistic pacing and block on it only at the hard `C0` cap.
    pub(crate) merge01: Mutex<Driver01>,
    /// The `C1':C2` driver: the merge in flight, if any.
    pub(crate) merge12: Mutex<Option<Merge12>>,
    /// What both drivers install their output through.
    pub(crate) merge: Mutex<MergeState>,
    /// The level size ratio `R` as `f64` bits, recomputed after merges
    /// unless pinned.
    // ordering: Release stores (at open, and by a merge's install under
    // `merge`), Acquire loads; a pacing input that publishes no data.
    pub(crate) r_bits: AtomicU64,
}

/// The `C0:C1` driver: the scheduler that paces writers, and the pass in
/// flight.
pub(crate) struct Driver01 {
    pub(crate) scheduler: Box<dyn MergeScheduler>,
    pub(crate) pass: Option<Merge01>,
    #[cfg(feature = "strict-invariants")]
    pub(crate) strict: StrictState,
}

/// The data device's bookkeeping, shared by both drivers: held to
/// allocate a merge's output and to install a finished merge (catalog
/// swap, manifest save, reap), so installs never interleave, and never
/// across merge work.
pub(crate) struct MergeState {
    pub(crate) allocator: RegionAllocator,
    pub(crate) manifest: ManifestStore,
    /// Replaced components awaiting deferred reclamation (readers may
    /// still hold pinned catalog snapshots referencing them).
    pub(crate) retired: Vec<Arc<Sstable>>,
    /// The log head the last manifest save was recording, if that save
    /// failed: the on-disk root still names the retired components and
    /// the old head, so nothing is reaped and no merge work starts until
    /// [`BLsmTree::resave_manifest`] gets it through.
    pub(crate) unsaved_wal_head: Option<Lsn>,
}

/// Cross-quantum bookkeeping for [`BLsmTree::check_invariants`].
#[cfg(feature = "strict-invariants")]
#[derive(Debug, Default)]
pub(crate) struct StrictState {
    /// Snowshovel cursor observed at the previous quantum boundary; the
    /// cursor must never move backwards within a pass (§4.2).
    last_cursor: Option<Bytes>,
    /// `stats.merges01` at the previous check — a change means the pass
    /// ended and the cursor legitimately reset.
    last_merges01: u64,
    /// Rotates which leaves the sampled component checks read, so repeated
    /// quanta cover different parts of each component.
    rotation: usize,
}

impl std::fmt::Debug for BLsmTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut d = f.debug_struct("BLsmTree");
        d.field("c0_bytes", &self.c0_bytes())
            .field("r", &self.current_r());
        if let Some(d01) = self.merge01.try_lock() {
            d.field("merge01_active", &d01.pass.is_some());
        }
        if let Some(m12) = self.merge12.try_lock() {
            d.field("merge12_active", &m12.is_some());
        }
        d.finish_non_exhaustive()
    }
}

impl std::ops::Deref for BLsmTree {
    type Target = ReadView;

    fn deref(&self) -> &ReadView {
        &self.view
    }
}

impl BLsmTree {
    /// Opens (or creates) a tree on `data_dev`, with the logical log on
    /// `wal_dev` — the paper expects logs on dedicated hardware (§5.1).
    /// `pool_pages` is the buffer-cache budget in 4 KiB pages.
    pub fn open(
        data_dev: SharedDevice,
        wal_dev: SharedDevice,
        pool_pages: usize,
        config: BLsmConfig,
        op: Arc<dyn MergeOperator>,
    ) -> Result<BLsmTree> {
        let config = config.validated();
        let pool = Arc::new(BufferPool::new(data_dev, pool_pages));
        let (manifest, payload) = ManifestStore::open(pool.device().clone(), DEFAULT_SLOT_PAGES)?;

        let mut recovery = RecoveryReport {
            manifest_rolled_back: manifest.load_report().rolled_back,
            ..RecoveryReport::default()
        };
        let mut c1 = None;
        let mut c1_prime = None;
        let mut c2 = None;
        let meta = match payload {
            Some(bytes) => TreeMeta::decode(&bytes)?,
            None => TreeMeta {
                components: Vec::new(),
                wal_head: 0,
                next_seqno: 1,
            },
        };
        // The tree is append-only, so every page the root does not name is
        // free, whatever was in flight or retired at the crash. No root
        // recovery can load names a reused page: a region is reused only
        // after a save that no longer names it has succeeded.
        let regions = meta.components.iter().map(|(_, region)| *region);
        let allocator = RegionAllocator::around(manifest.first_free_page(), regions)?;
        for (slot, region) in &meta.components {
            let table = Arc::new(Sstable::open(pool.clone(), *region)?);
            recovery.components_salvaged += 1;
            match slot {
                ComponentSlot::C1 => c1 = Some(table),
                ComponentSlot::C1Prime => c1_prime = Some(table),
                ComponentSlot::C2 => c2 = Some(table),
            }
        }
        let (wal_head, mut next_seqno) = (meta.wal_head, meta.next_seqno);

        let scheduler = make_scheduler(&config);
        let shared = Arc::new(TreeShared {
            op,
            pool,
            catalog: CatalogCell::new(ComponentCatalog::new(c1, None, c1_prime, c2)),
            c0: ConcurrentC0::new(),
            next_seqno: AtomicU64::new(next_seqno),
            applied_floor: AtomicU64::new(next_seqno),
            #[cfg(feature = "strict-invariants")]
            admitted_inflight: AtomicUsize::new(0),
            #[cfg(feature = "strict-invariants")]
            admitted_peak: AtomicUsize::new(0),
            wal: Mutex::new(None),
            commit: Mutex::new(crate::commit::CommitState::default()),
            commit_cv: parking_lot::Condvar::new(),
            commit_failures: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            unsynced_writes: AtomicU64::new(0),
            stats: TreeStats::default(),
            recovery: OnceLock::new(),
            bell_cap: Doorbell::new(),
            attach: AttachCell::default(),
            config,
        });
        let tree = BLsmTree {
            view: ReadView::new(shared),
            merge01: Mutex::new(Driver01 {
                scheduler,
                pass: None,
                #[cfg(feature = "strict-invariants")]
                strict: StrictState::default(),
            }),
            merge12: Mutex::new(None),
            merge: Mutex::new(MergeState {
                allocator,
                manifest,
                retired: Vec::new(),
                unsaved_wal_head: None,
            }),
            r_bits: AtomicU64::new(0),
        };

        // Replay the logical log into C0 (§4.4.2), one record at a time
        // in log order — the order its writes reached `C0`, so each key's
        // versions land newest-last, as they did live. Each record is
        // checked against the recovered components: snowshoveling delays
        // log truncation, so the live log window can contain records
        // whose effects already reached C1 — those are skipped by
        // sequence number, keeping replay exactly-once even for deltas.
        if tree.shared.config.durability != Durability::None {
            let shared = &tree.shared;
            let end = blsm_storage::wal::replay_each::<StorageError>(
                &wal_dev,
                shared.config.wal_capacity,
                wal_head,
                |rec| {
                    recovery.wal_records_replayed += 1;
                    let (key, v) = decode_wal_record(&rec.payload)?;
                    next_seqno = next_seqno.max(v.seqno + 1);
                    let durable = shared.disk_newest_seqno(&key, v.seqno)?;
                    if durable.is_some_and(|s| s >= v.seqno) {
                        recovery.wal_records_skipped += 1;
                    } else {
                        shared.c0.insert(key, v, shared.op.as_ref());
                    }
                    Ok(())
                },
            )?;
            recovery.wal_recovered_bytes = end.tail - wal_head;
            recovery.wal_torn_tail_bytes = end.torn_tail_bytes;
            let tail = end.tail;
            // ordering: Release — open() is single-threaded, but the
            // store pairs with the AcqRel tickets taken once the tree is
            // shared, so the replayed floor is visible to every writer.
            tree.shared.next_seqno.store(next_seqno, Ordering::Release);
            // Everything replayed (or skipped as already durable) below
            // the floor is fully applied on this node.
            tree.shared
                .applied_floor
                .store(next_seqno, Ordering::Release);
            *tree.shared.wal.lock() = Some(Wal::new(
                wal_dev,
                tree.shared.config.wal_capacity,
                wal_head,
                tail,
            ));
            // Everything replay just read back is on the device by
            // definition — the recovered tail is the durable horizon
            // group commit resumes from.
            // ordering: Release — open() is single-threaded; pairs with
            // the Acquire loads in `wait_durable`/`durable_lsn`.
            tree.shared.durable.store(tail, Ordering::Release);
        }
        tree.shared.recovery.get_or_init(|| recovery);

        // A crash mid-C1':C2 leaves C1' installed; restart its merge.
        tree.restart_merge12_locked(&mut tree.merge12.lock())?;
        tree.recompute_r();
        Ok(tree)
    }

    /// A cloneable, lock-free handle to the read path. Valid for the
    /// tree's whole life; safe to use from any thread while this handle
    /// keeps writing and merging.
    pub fn read_view(&self) -> ReadView {
        self.view.clone()
    }

    /// The tree's merge operator.
    pub fn operator(&self) -> &Arc<dyn MergeOperator> {
        &self.shared.op
    }

    /// The buffer pool (device access, cache statistics).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.shared.pool
    }

    /// Active configuration.
    pub fn config(&self) -> &BLsmConfig {
        &self.shared.config
    }

    /// Current level size ratio `R`.
    pub fn current_r(&self) -> f64 {
        // ordering: Acquire — see the field docs.
        f64::from_bits(self.r_bits.load(Ordering::Acquire))
    }

    /// Bytes buffered in `C0` — an atomic counter read, no locks.
    pub fn c0_bytes(&self) -> usize {
        self.shared.c0.approx_bytes()
    }

    /// Data bytes in each on-disk component `(C1, C1', C2)`.
    pub fn component_bytes(&self) -> (u64, u64, u64) {
        let cat = self.shared.catalog.load();
        (
            cat.c1.as_ref().map_or(0, |c| c.data_bytes()),
            cat.c1_prime.as_ref().map_or(0, |c| c.data_bytes()),
            cat.c2.as_ref().map_or(0, |c| c.data_bytes()),
        )
    }

    /// Total user data bytes across all levels (approximate).
    pub fn total_data_bytes(&self) -> u64 {
        let (a, b, c) = self.component_bytes();
        a + b + c + self.c0_bytes() as u64
    }

    /// RAM consumed by in-memory indexes and Bloom filters — the read
    /// fanout denominator (§2.1).
    pub fn index_ram_bytes(&self) -> usize {
        let cat = self.shared.catalog.load();
        cat.tables()
            .map(|c| c.index_ram_bytes() + c.bloom().params().bytes())
            .sum()
    }

    // -----------------------------------------------------------------
    // Write path (&self — safe from any number of threads)
    // -----------------------------------------------------------------

    /// Inserts or overwrites (a *blind write* — zero seeks, Table 1).
    pub fn put(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<()> {
        self.write_entry(key.into(), Entry::Put(value.into()))
    }

    /// Deletes a key (zero seeks; a tombstone is merged down).
    pub fn delete(&self, key: impl Into<Bytes>) -> Result<()> {
        self.write_entry(key.into(), Entry::Tombstone)
    }

    /// Applies a delta blindly — the paper's zero-seek "apply delta to
    /// record" primitive (Table 1, §2.3).
    pub fn apply_delta(&self, key: impl Into<Bytes>, delta: impl Into<Bytes>) -> Result<()> {
        self.write_entry(key.into(), Entry::Delta(delta.into()))
    }

    /// Read-modify-write: one seek for the read, zero for the write
    /// (Table 1 row 2; the B-Tree pays two). Not atomic against other
    /// writers of the same key — use [`apply_delta`](Self::apply_delta)
    /// for contended read-modify-write.
    pub fn read_modify_write(
        &self,
        key: impl Into<Bytes>,
        f: impl FnOnce(Option<&[u8]>) -> Option<Vec<u8>>,
    ) -> Result<()> {
        let key = key.into();
        let old = self.get(&key)?;
        match f(old.as_deref()) {
            Some(new) => self.put(key, new),
            None => self.delete(key),
        }
    }

    /// The paper's zero-seek `insert if not exists` (§3.1.2): the Bloom
    /// filter on the largest component makes the existence check free for
    /// absent keys. Returns true if the insert happened.
    pub fn insert_if_not_exists(
        &self,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Result<bool> {
        let key = key.into();
        stats::bump(&self.shared.stats.check_inserts, 1);
        if self.exists(&key)? {
            return Ok(false);
        }
        self.write_entry(key, Entry::Put(value.into()))?;
        Ok(true)
    }

    fn write_entry(&self, key: Bytes, entry: Entry) -> Result<()> {
        match self.write_entry_nowait(key, entry)? {
            // The write is applied; make it durable by joining (or
            // leading) a commit group — never by a private fsync.
            Some(target) => self.wait_durable(target),
            None => Ok(()),
        }
    }

    /// Everything of a write except the durability wait: pacing,
    /// admission, ticket allocation, WAL append and the paired `C0`
    /// insert. Returns the commit target a `Durability::Sync` caller
    /// must await (`None` when the configured durability completed
    /// inline) — the seam the nowait public API and the batching server
    /// front end build on.
    pub(crate) fn write_entry_nowait(&self, key: Bytes, entry: Entry) -> Result<Option<u64>> {
        let incoming = (key.len() + entry.payload_len() + ENTRY_OVERHEAD) as u64;
        self.pace(incoming)?;
        #[cfg(feature = "strict-invariants")]
        let _claim = self.claim_admission(incoming);
        self.insert_versioned(key, None, entry)
    }

    /// Takes the next seqno. Called only inside the section that orders
    /// the key's insert — the log mutex, or with durability off the
    /// key's `C0` shard lock — so two writes of one key get their seqnos
    /// in the order they reach `C0` and the log (DESIGN §15.5). Taken
    /// earlier, a writer could fold a newer delta into the key's base
    /// first, and the older delta arriving after it would be dropped.
    fn take_seqno(&self) -> u64 {
        // ordering: AcqRel — the ticket RMW both observes the replayed
        // floor (Acquire) and publishes its claim to later readers of the
        // counter (Release).
        self.shared.next_seqno.fetch_add(1, Ordering::AcqRel)
    }

    /// Claims the admitted bytes until the C0 insert lands and folds
    /// the claim into the concurrent-admission high-water mark (see
    /// `TreeShared::admitted_inflight`/`admitted_peak`); the guard
    /// releases the claim on every exit path, including WAL errors.
    #[cfg(feature = "strict-invariants")]
    fn claim_admission(&self, incoming: u64) -> AdmissionClaim<'_> {
        // ordering: AcqRel RMWs — see the fields' annotations.
        let inflight_now = incoming as usize
            + self
                .shared
                .admitted_inflight
                .fetch_add(incoming as usize, Ordering::AcqRel);
        self.shared
            .admitted_peak
            .fetch_max(inflight_now, Ordering::AcqRel);
        AdmissionClaim {
            inflight: &self.shared.admitted_inflight,
            bytes: incoming as usize,
        }
    }

    /// The tail of every write: bump counters, then log + insert (or
    /// just insert under degraded durability). Shared by local writes
    /// (`seqno` `None`: the next one is taken where the insert is
    /// ordered) and the replication apply path, so a replicated record is
    /// logged to *this* node's WAL and folded into `C0` exactly like a
    /// local write. Returns the WAL commit target the caller must await
    /// for `Durability::Sync` (`None` otherwise).
    ///
    /// The applied floor advances here — after the insert, *before* any
    /// durability wait. That order is deliberate: the floor's contract
    /// ("every seqno below it completed WAL-append + `C0`-insert") is
    /// about *application*, and the replicated-apply dedupe check must
    /// see a record as applied even while its group commit is still in
    /// flight — otherwise a leader resend racing the group would
    /// re-apply a non-idempotent delta.
    fn insert_versioned(
        &self,
        key: Bytes,
        seqno: Option<u64>,
        entry: Entry,
    ) -> Result<Option<u64>> {
        stats::bump(&self.shared.stats.writes, 1);
        stats::bump(
            &self.shared.stats.user_bytes_written,
            (key.len() + entry.payload_len()) as u64,
        );
        let (seqno, target) = if self.shared.config.durability == Durability::None {
            // Degraded durability (§4.4.2): no log, no serialization —
            // writers contend only on their C0 key-range shard, which
            // is also where the seqno is taken.
            let mut taken = 0;
            self.shared
                .c0
                .insert_with(key, self.shared.op.as_ref(), || {
                    taken = seqno.unwrap_or_else(|| self.take_seqno());
                    Versioned {
                        seqno: taken,
                        entry,
                    }
                });
            (taken, None)
        } else {
            self.log_and_insert(key, seqno, entry)?
        };
        // ordering: AcqRel — the insert above happens-before the floor
        // advance; see the field docs in `catalog.rs`. Only reached on
        // success, so the floor never runs ahead of a failed apply.
        self.shared
            .applied_floor
            .fetch_max(seqno + 1, Ordering::AcqRel);
        self.ring_doorbell();
        Ok(target)
    }

    /// Applies one replicated WAL record (a payload produced by the
    /// leader's `encode_wal_record`) through the normal write path,
    /// keeping the **leader's** seqno: the record is appended to this
    /// node's own WAL, made durable per the configured durability mode,
    /// and inserted into `C0` — so a promoted follower recovers exactly
    /// like a leader would.
    ///
    /// Returns `Ok(None)` when the record's seqno is below this tree's
    /// *applied* floor, i.e. its apply fully completed earlier —
    /// duplicated delivery (a flaky link re-sending a batch) is a no-op,
    /// which also makes replays after an ack loss safe for
    /// non-idempotent deltas.
    ///
    /// Records are applied one at a time, in the leader's order, and
    /// before this node takes local writes: a key's versions must reach
    /// `C0` in seqno order (DESIGN.md §15.1). The replication tier's
    /// `handle_replicate` serializes its batches, and its promotion,
    /// for exactly this.
    ///
    /// The dedupe check is deliberately **not** based on `next_seqno`:
    /// that counter is a reservation advanced *before* the fallible
    /// WAL-append + insert (so a promotion that happens mid-apply still
    /// allocates fresh tickets above every replicated record), and a
    /// floor that can run ahead of a failed apply would make the
    /// leader's retry of that record look like a duplicate — silently
    /// losing it on this follower. The applied floor advances only
    /// after the insert succeeds, so a failed apply leaves it in place
    /// and the resend is re-applied.
    ///
    /// # Errors
    ///
    /// Propagates decode failures ([`StorageError::InvalidFormat`]) and
    /// WAL/insert errors.
    pub fn apply_replicated(&self, payload: &[u8]) -> Result<Option<u64>> {
        match self.apply_replicated_inner(payload)? {
            Some((seqno, Some(target))) => {
                self.wait_durable(target)?;
                Ok(Some(seqno))
            }
            Some((seqno, None)) => Ok(Some(seqno)),
            None => Ok(None),
        }
    }

    /// [`apply_replicated`](Self::apply_replicated) minus the durability
    /// wait: `Some((seqno, commit_target))` for an applied record. Backs
    /// both the blocking API and
    /// [`apply_replicated_nowait`](Self::apply_replicated_nowait), which
    /// lets a follower retire a whole shipped batch on one group.
    pub(crate) fn apply_replicated_inner(
        &self,
        payload: &[u8],
    ) -> Result<Option<(u64, Option<u64>)>> {
        let (key, v) = decode_wal_record(payload)?;
        let seqno = v.seqno;
        // ordering: Acquire — pairs with the AcqRel floor advance in
        // `insert_versioned`; a floor above `seqno` implies the record's
        // earlier apply fully completed.
        if seqno < self.shared.applied_floor.load(Ordering::Acquire) {
            return Ok(None);
        }
        // Reserve the ticket space before the insert: a promotion that
        // lands mid-apply must allocate fresh local seqnos above this
        // record. Reserving is safe precisely because dedupe does not
        // read this counter.
        // ordering: AcqRel — same contract as the `take_seqno` ticket
        // RMW.
        self.shared
            .next_seqno
            .fetch_max(seqno + 1, Ordering::AcqRel);
        let incoming = (key.len() + v.entry.payload_len() + ENTRY_OVERHEAD) as u64;
        self.pace(incoming)?;
        #[cfg(feature = "strict-invariants")]
        let _claim = self.claim_admission(incoming);
        let target = self.insert_versioned(key, Some(seqno), v.entry)?;
        Ok(Some((seqno, target)))
    }

    /// Appends one record to the WAL and performs the paired `C0` insert
    /// inside the *same* log-mutex critical section. That atomicity is
    /// what makes log truncation safe under concurrency: a log-tail
    /// sample taken under this mutex cleanly partitions records into
    /// "fully inserted into C0 before the sample" and "appended after the
    /// sample" — there is never a record in the log whose C0 insert is
    /// still in flight (see `start_merge01`'s truncation argument). A
    /// local write's seqno is taken in the same section and the record
    /// encoded there, so log order, seqno order and `C0` order agree.
    /// Returns the seqno and the commit target.
    ///
    /// Under `Durability::Sync` nothing is flushed or synced here: the
    /// record joins the open commit group (counted under this mutex) and
    /// the returned target — the log tail after this append — is what
    /// the caller hands to `wait_durable`. The group leader's fsync runs
    /// *outside* this mutex, so appends overlap the device sync; that
    /// overlap is the whole batching mechanism (see `commit.rs`).
    ///
    /// Under `Durability::Buffered` the record is appended and flushed as
    /// one all-or-nothing step before the insert: a failed flush takes
    /// it back out of the log, so a failed write is in neither the log
    /// nor `C0`.
    fn log_and_insert(
        &self,
        key: Bytes,
        seqno: Option<u64>,
        mut entry: Entry,
    ) -> Result<(u64, Option<u64>)> {
        // Ring full: checkpoint by completing the in-flight pass (which
        // truncates), then retry. Concurrent writers can refill the ring
        // between the checkpoint and the retry, so one retry is not
        // enough under contention — loop while the log is drainable,
        // bounded so a ring too small for even a quiet append still
        // surfaces the error instead of spinning. The lock must drop
        // around the checkpoint — it takes `merge` then `wal` (lock
        // order).
        const MAX_FULL_RETRIES: u32 = 8;
        let sync = self.shared.config.durability == Durability::Sync;
        let mut guard = self.shared.wal.lock();
        let mut attempts = 0;
        let v = loop {
            let wal = guard
                .as_mut()
                .ok_or_else(|| invariant_err("durable tree lost its wal"))?;
            // A retry takes a fresh seqno: writers that got in during the
            // checkpoint hold newer ones.
            let v = Versioned {
                seqno: seqno.unwrap_or_else(|| self.take_seqno()),
                entry,
            };
            let payload = encode_wal_record(&key, &v);
            match if sync {
                wal.append(&payload)
            } else {
                wal.append_flush(&payload)
            } {
                Ok(_) => break v,
                Err(e @ StorageError::OutOfSpace { .. }) => {
                    if attempts >= MAX_FULL_RETRIES {
                        return Err(e);
                    }
                    attempts += 1;
                    entry = v.entry;
                    drop(guard);
                    self.checkpoint()?;
                    guard = self.shared.wal.lock();
                }
                Err(e) => return Err(e),
            }
        };
        let wal = guard
            .as_mut()
            .ok_or_else(|| invariant_err("wal vanished after append"))?;
        let target = sync.then(|| {
            // Join the open commit group: counted under the wal mutex,
            // so the leader's flush-time swap reads exactly the appends
            // its flush covered (see `catalog.rs`).
            // ordering: AcqRel RMW under the wal mutex — group
            // bookkeeping, not a synchronization edge.
            self.shared.unsynced_writes.fetch_add(1, Ordering::AcqRel);
            wal.tail_lsn()
        });
        let seqno = v.seqno;
        self.shared.c0.insert(key, v, self.shared.op.as_ref());
        Ok((seqno, target))
    }

    /// Estimates a generous region for a merge output. Leaf packing can
    /// waste up to half a page when entries are large (a leaf seals when
    /// the next entry does not fit), so data pages are budgeted at a 50%
    /// worst-case fill; the unused tail is freed after the merge.
    pub(crate) fn merge_region_pages(est_bytes: u64, est_entries: u64, factor: f64) -> u64 {
        let payload = PAGE_PAYLOAD_LEN as u64;
        let encoded = est_bytes + est_entries * 24;
        let data_pages = (encoded as f64 * factor * 2.0 / payload as f64).ceil() as u64 + 8;
        let index_pages = ((est_entries as f64 * factor) as u64) / 32 + 4;
        let bloom_pages = ((est_entries as f64 * factor) as u64 * 2) / payload + 4;
        data_pages + index_pages + bloom_pages + 16
    }

    pub(crate) fn recompute_r(&self) {
        // R = sqrt(|data| / |C0|), the three-level optimum (§2.3.1).
        let r = self.shared.config.r.unwrap_or_else(|| {
            let data = self.total_data_bytes().max(1) as f64;
            (data / self.shared.config.mem_budget as f64)
                .sqrt()
                .max(2.0)
        });
        // ordering: Release — see the field docs.
        self.r_bits.store(r.to_bits(), Ordering::Release);
    }

    /// Persist, then apply: writes a manifest recording `new_wal_head`
    /// (`None`: where the head is) as the replay start, and moves the
    /// in-memory log head there only once that manifest is the recovery
    /// root. Until then the ring must keep everything the previous root
    /// would replay.
    pub(crate) fn save_manifest(
        &self,
        m: &mut MergeState,
        new_wal_head: Option<Lsn>,
    ) -> Result<()> {
        let wal_head = new_wal_head
            .unwrap_or_else(|| self.shared.wal.lock().as_ref().map_or(0, Wal::head_lsn));
        let catalog = self.shared.catalog.load();
        let mut components = Vec::new();
        if let Some(c) = &catalog.c1 {
            components.push((ComponentSlot::C1, c.region()));
        }
        if let Some(c) = &catalog.c1_prime {
            components.push((ComponentSlot::C1Prime, c.region()));
        }
        if let Some(c) = &catalog.c2 {
            components.push((ComponentSlot::C2, c.region()));
        }
        let meta = TreeMeta {
            components,
            wal_head,
            // ordering: Acquire — pairs with the AcqRel tickets; a
            // point-in-time floor is all recovery needs, any seqno
            // claimed later is re-derived from replay.
            next_seqno: self.shared.next_seqno.load(Ordering::Acquire),
        };
        m.unsaved_wal_head = Some(wal_head);
        m.manifest.save(&meta.encode())?;
        m.unsaved_wal_head = None;
        if let Some(wal) = self.shared.wal.lock().as_mut() {
            wal.truncate(wal_head);
        }
        Ok(())
    }

    /// Gate at every entry into merge work: retries a manifest save that
    /// failed, so the catalog never gets a second step ahead of the
    /// on-disk root.
    pub(crate) fn resave_manifest(&self, m: &mut MergeState) -> Result<()> {
        match m.unsaved_wal_head {
            Some(wal_head) => self.save_manifest(m, Some(wal_head)),
            None => Ok(()),
        }
    }

    /// Drains `C0` and completes every pending merge, then truncates the
    /// log. Used before read-only measurement phases and at clean
    /// shutdown. Concurrent writers are admitted throughout; the final
    /// truncation is skipped if any of their effects are not yet durable.
    pub fn checkpoint(&self) -> Result<()> {
        {
            let mut d = self.merge01.lock();
            self.resave_manifest(&mut self.merge.lock())?;
            loop {
                self.run_merge01_locked(&mut d, u64::MAX)?;
                self.drain_merge12()?;
                // An open pass with no merge state is one whose merge
                // failed: its drained rows are in no component, so fall
                // into `start_merge01_locked`'s typed error rather than
                // truncate the log over them below.
                if self.shared.c0.is_empty() && self.shared.c0.pass_mode() == PassMode::Idle {
                    break;
                }
                self.start_merge01_locked(&mut d.pass)?;
            }
            // Released before the log flush: the merge plane need not
            // stall on checkpoint I/O, and truncation safety below never
            // depended on it.
        }
        self.quantum_boundary_check(true)?;
        if let Some(wal) = self.shared.wal.lock().as_mut() {
            wal.flush()?;
        }
        {
            let mut m = self.merge.lock();
            // Full truncation is safe only at quiescence. Appends and
            // their C0 inserts are atomic under the log mutex, so an
            // empty C0 with no pass open, observed under it, proves every
            // logged record's effect reached the disk components. A
            // record that landed after the final pass above — or a pass a
            // merge thread has started since, whose drained rows are in
            // no component yet — keeps the whole live window (the next
            // clean pass truncates it). Decided with `merge` held, so no
            // merge installs between here and the save.
            let to_tail = self.shared.wal.lock().as_ref().and_then(|wal| {
                (self.shared.c0.is_empty() && self.shared.c0.pass_mode() == PassMode::Idle)
                    .then(|| wal.tail_lsn())
            });
            self.save_manifest(&mut m, to_tail)?;
            self.reap_retired_locked(&mut m);
        }
        self.shared.pool.flush()
    }

    // -----------------------------------------------------------------
    // Strict invariants (feature `strict-invariants`)
    // -----------------------------------------------------------------

    /// Verifies the paper's structural invariants in one sweep:
    ///
    /// * every on-disk component keeps its keys in strictly ascending
    ///   order and its Bloom filter never denies a stored key (§4.4.3
    ///   tolerates false positives, never false negatives) — checked on
    ///   sampled leaves, rotating coverage across calls;
    /// * the §4.1 progress estimators `inprogress`/`outprogress` stay
    ///   inside `[0, 1]`;
    /// * `C0` never exceeds the memory budget (§3.1 hard cap) beyond the
    ///   small transient overshoot concurrent admission permits;
    /// * a `C0:C1` pass keeps no drained row at or below its published
    ///   frontier, and no more drained rows than its output holds past
    ///   the flushed prefix plus the rows it dropped — so resident `C0`
    ///   stays within the budget, that overshoot and about one chunk;
    /// * the snowshovel drain cursor is monotone within a pass (§4.2);
    /// * a finished `C1` (or `C1'`) holds at most 20 filter bits per
    ///   entry (§3.1's ~10 bits a key, at most doubled by folding);
    /// * every allocated page has an owner (`page_accounts`),
    ///   checked when the `C1':C2` driver is free.
    ///
    /// Called at every merge-quantum boundary when the feature is on —
    /// which includes every catalog swap, since swaps happen inside merge
    /// quanta — and directly from property tests.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Corruption`] naming the first violated
    /// invariant, or propagates device errors from sampled leaf reads.
    #[cfg(feature = "strict-invariants")]
    pub fn check_invariants(&self) -> Result<()> {
        fn violated(what: String) -> StorageError {
            StorageError::corruption(
                blsm_storage::ComponentId::Tree,
                None,
                format!("strict invariant violated: {what}"),
            )
        }

        // C0 hard cap (§3.1): pacing must never let the write buffer
        // outgrow its budget. Concurrent writers are each admitted
        // against the cap *before* inserting, so the buffer can
        // legitimately overshoot by up to the *peak* bytes ever admitted
        // but uninserted at once (the overshoot persists in C0 after the
        // writers land, until a pass drains it). `admitted_peak` measures
        // exactly that, so the slack scales with the writers actually
        // observed in flight (N × entry size) instead of a fixed constant
        // a large fleet or large values could exceed — while a broken
        // pacer admitting serially past the budget still trips the check.
        // The small base covers replay-time inserts that bypass pacing.
        let c0_bytes = self.c0_bytes();
        let slack = (64 << 10) + self.shared.admitted_peak.load(Ordering::Acquire);
        if c0_bytes > self.shared.config.mem_budget + slack {
            return Err(violated(format!(
                "C0 holds {c0_bytes} bytes, budget is {} (+{slack} admission slack)",
                self.shared.config.mem_budget
            )));
        }

        // Retained rows (§4.2's run length per byte of RAM): a pass keeps
        // a drained row readable in C0 only until the chunk holding its
        // output is on disk and published. None sits at or below the
        // published frontier (never both), and there are no more of them
        // than output rows past the flushed prefix — one chunk and the
        // open leaf — plus the drained rows the merge resolved to nothing.
        let mut d = self.merge01.lock();
        if let Some(m) = d.pass.as_ref() {
            let catalog = self.shared.catalog.load();
            let first = self.shared.c0.first_retained_key();
            if let (Some(frontier), Some(first)) = (catalog.frontier(), first) {
                if first <= *frontier {
                    return Err(violated(format!(
                        "retained row {first:?} at or below the published frontier {frontier:?}"
                    )));
                }
            }
            let retained = self.shared.c0.retained_len() as u64;
            let unflushed = m.builder.unflushed_entries();
            if retained > unflushed + m.dropped_c0_rows {
                return Err(violated(format!(
                    "C0 retains {retained} drained rows; the output holds {unflushed} past its \
                     flushed prefix and the pass dropped {}",
                    m.dropped_c0_rows
                )));
            }
        }

        // Progress estimators (§4.1) stay in [0, 1]. A `C1':C2` driver
        // busy elsewhere is checked at its own quantum boundary.
        let m12 = self.merge12.try_lock();
        let inputs = self.sched_inputs(d.pass.as_ref(), m12.as_deref().and_then(Option::as_ref), 0);
        for (name, p) in [("merge01", inputs.m01), ("merge12", inputs.m12)] {
            let Some(p) = p else { continue };
            let inp = p.inprogress();
            if !inp.is_finite() || !(0.0..=1.0).contains(&inp) {
                return Err(violated(format!("{name} inprogress {inp} outside [0, 1]")));
            }
            let outp =
                crate::progress::outprogress(inp, inputs.c1_bytes, inputs.c0_cap, inputs.r_ceil);
            if !outp.is_finite() || !(0.0..=1.0).contains(&outp) {
                return Err(violated(format!(
                    "{name} outprogress {outp} outside [0, 1]"
                )));
            }
        }

        // Space (§4.4.2): every allocated page has an owner, so neither a
        // failed merge nor a reopen leaks one. It takes both drivers.
        if let Some(m12) = m12.as_deref() {
            let ms = self.merge.lock();
            let (allocated, owned) = self.page_accounts(d.pass.as_ref(), m12.as_ref(), &ms);
            if allocated != owned {
                return Err(violated(format!(
                    "{allocated} pages allocated, {owned} owned by the manifest slots, \
                     components, merges in flight and retired components"
                )));
            }
        }

        // Snowshovel cursor monotonicity (§4.2): within a pass the drain
        // cursor only advances. A completed pass (merges01 bumped) resets
        // it legitimately.
        let merges01 = self.stats().merges01;
        if merges01 != d.strict.last_merges01 {
            d.strict.last_merges01 = merges01;
            d.strict.last_cursor = None;
        }
        let pass_cursor = match self.shared.c0.pass_kind() {
            blsm_memtable::PassKind::Snowshovel { last_drained } => Some(last_drained),
            _ => None,
        };
        if let Some(last_drained) = pass_cursor {
            match (&d.strict.last_cursor, &last_drained) {
                (Some(prev), Some(cur)) if cur < prev => {
                    return Err(violated(format!(
                        "snowshovel cursor moved backwards: {cur:?} < {prev:?}"
                    )));
                }
                (Some(prev), None) => {
                    return Err(violated(format!(
                        "snowshovel cursor vanished mid-pass (was {prev:?})"
                    )));
                }
                _ => {}
            }
            d.strict.last_cursor = last_drained;
        } else {
            d.strict.last_cursor = None;
        }

        // Component ordering + bloom agreement, on rotating leaf samples.
        d.strict.rotation = d.strict.rotation.wrapping_add(1);
        let rotation = d.strict.rotation;
        let catalog = self.shared.catalog.load();
        for (name, comp) in [
            ("C1", &catalog.c1),
            ("C1 pass prefix", &catalog.c1_prefix),
            ("C1'", &catalog.c1_prime),
            ("C2", &catalog.c2),
        ] {
            let Some(table) = comp else { continue };
            table.verify_integrity(2, rotation).map_err(|e| match e {
                StorageError::Corruption { detail, .. } => violated(format!("{name}: {detail}")),
                other => other,
            })?;
        }

        // Filter RAM (§3.1, Appendix A): a finished `C1` holds a filter
        // folded to its entries.
        for (name, comp) in [("C1", &catalog.c1), ("C1'", &catalog.c1_prime)] {
            let Some(table) = comp else { continue };
            let bits = table.bloom().params().bits;
            let bound = c1_bloom_bits_bound(table.entry_count());
            if bits > bound {
                return Err(violated(format!(
                    "{name} holds a {bits}-bit filter for {} entries (bound {bound})",
                    table.entry_count()
                )));
            }
        }
        Ok(())
    }

    /// Pages the allocator holds, and pages something owns: the manifest
    /// slots, the live components, the whole regions of the merges in
    /// flight, a failed pass's published prefix (a pass in flight owns
    /// its prefix through its region) and the retired components awaiting
    /// a reap. Equal unless a page leaked. Needs both drivers and `merge`.
    #[cfg(any(test, feature = "strict-invariants"))]
    pub(crate) fn page_accounts(
        &self,
        pass: Option<&Merge01>,
        m12: Option<&Merge12>,
        ms: &MergeState,
    ) -> (u64, u64) {
        let catalog = self.shared.catalog.load();
        let prefix = catalog.c1_prefix.as_ref().filter(|_| pass.is_none());
        let tables = [&catalog.c1, &catalog.c1_prime, &catalog.c2]
            .into_iter()
            .flatten()
            .chain(prefix)
            .chain(&ms.retired);
        let owned = ms.manifest.first_free_page()
            + tables.map(|t| t.region().pages).sum::<u64>()
            + pass.map_or(0, |m| m.full_region.pages)
            + m12.map_or(0, |m| m.full_region.pages);
        (ms.allocator.high_water() - ms.allocator.free_pages(), owned)
    }

    /// Merge-quantum boundary hook: a full [`check_invariants`] sweep when
    /// the `strict-invariants` feature is on and merge work actually ran.
    /// Called with no driver held: the sweep takes them.
    ///
    /// [`check_invariants`]: Self::check_invariants
    #[cfg(feature = "strict-invariants")]
    pub(crate) fn quantum_boundary_check(&self, ran_quantum: bool) -> Result<()> {
        if ran_quantum {
            self.check_invariants()
        } else {
            Ok(())
        }
    }

    /// No-op without `strict-invariants`; compiles away entirely.
    #[cfg(not(feature = "strict-invariants"))]
    #[inline(always)]
    #[allow(clippy::unnecessary_wraps)]
    pub(crate) fn quantum_boundary_check(&self, _ran: bool) -> Result<()> {
        Ok(())
    }

    /// Number of live on-disk components (for tests and experiments).
    pub fn component_count(&self) -> usize {
        self.shared.catalog.load().tables().count()
    }

    /// Whether a `C0:C1` (resp. `C1':C2`) merge is currently in flight.
    pub fn merges_active(&self) -> (bool, bool) {
        let m01 = self.merge01.lock().pass.is_some();
        (m01, self.merge12.lock().is_some())
    }

    /// Starts a `C0:C1` pass by hand (mid-pass race tests).
    #[cfg(test)]
    pub(crate) fn start_merge01(&self) -> Result<()> {
        self.start_merge01_locked(&mut self.merge01.lock().pass)
    }

    /// Runs up to `budget` bytes of `C0:C1` work by hand (mid-pass race
    /// tests).
    #[cfg(test)]
    pub(crate) fn run_merge01(&self, budget: u64) -> Result<()> {
        self.run_merge01_locked(&mut self.merge01.lock(), budget)
    }
}

/// RAII release of a writer's admitted-but-uninserted byte claim (see
/// `TreeShared::admitted_inflight`): dropping it — on completion or on
/// any error path between admission and the `C0` insert — returns the
/// bytes to the pool the strict-invariants cap check measures.
#[cfg(feature = "strict-invariants")]
struct AdmissionClaim<'a> {
    // ordering: AcqRel `fetch_sub` on drop — releases the claim taken by
    // the paired `fetch_add`; see `TreeShared::admitted_inflight`.
    inflight: &'a AtomicUsize,
    bytes: usize,
}

#[cfg(feature = "strict-invariants")]
impl Drop for AdmissionClaim<'_> {
    fn drop(&mut self) {
        // ordering: AcqRel — see `TreeShared::admitted_inflight`.
        self.inflight.fetch_sub(self.bytes, Ordering::AcqRel);
    }
}

/// Surfaces a violated internal invariant as a recoverable error instead
/// of a panic; callers of the public API see `StorageError::Corruption`.
pub(crate) fn invariant_err(what: &str) -> StorageError {
    StorageError::corruption(
        blsm_storage::ComponentId::Tree,
        None,
        format!("internal invariant violated: {what}"),
    )
}

/// WAL record: `kind(1) | varint seqno | varint keylen | key | value`.
fn encode_wal_record(key: &Bytes, v: &Versioned) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + key.len() + v.entry.payload_len());
    let kind = match &v.entry {
        Entry::Put(_) => 0u8,
        Entry::Delta(_) => 1,
        Entry::Tombstone => 2,
    };
    codec::put_u8(&mut out, kind);
    codec::put_varint(&mut out, v.seqno);
    codec::put_bytes(&mut out, key);
    match &v.entry {
        Entry::Put(val) | Entry::Delta(val) => out.extend_from_slice(val),
        Entry::Tombstone => {}
    }
    out
}

fn decode_wal_record(payload: &[u8]) -> Result<(Bytes, Versioned)> {
    let mut r = Reader::new(payload);
    let kind = r.u8()?;
    let seqno = r.varint()?;
    let key = Bytes::copy_from_slice(r.bytes()?);
    let rest = &payload[r.position()..];
    let entry = match kind {
        0 => Entry::Put(Bytes::copy_from_slice(rest)),
        1 => Entry::Delta(Bytes::copy_from_slice(rest)),
        2 => Entry::Tombstone,
        other => {
            return Err(StorageError::InvalidFormat(format!(
                "bad wal record kind {other}"
            )))
        }
    };
    Ok((key, Versioned { seqno, entry }))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::SchedulerKind;
    use crate::plane::tests::HandDriven;
    use blsm_memtable::AppendOperator;
    use blsm_storage::{ComponentId, MemDevice, PageId, Region};

    fn new_tree(config: BLsmConfig) -> BLsmTree {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        BLsmTree::open(data, wal, 4096, config, Arc::new(AppendOperator)).unwrap()
    }

    fn small_config() -> BLsmConfig {
        BLsmConfig {
            mem_budget: 64 << 10,
            wal_capacity: 4 << 20,
            ..Default::default()
        }
    }

    fn key(i: u32) -> Bytes {
        Bytes::from(format!("user{i:08}"))
    }

    #[test]
    fn put_get_roundtrip_through_merges() {
        let t = new_tree(small_config());
        let n = 4000u32;
        for i in 0..n {
            t.put(key(i), Bytes::from(vec![i as u8; 100])).unwrap();
        }
        // Data far exceeds the 64 KiB budget: merges must have run.
        assert!(t.stats().merges01 > 0);
        for i in (0..n).step_by(97) {
            let v = t.get(&key(i)).unwrap().expect("present");
            assert_eq!(v.as_ref(), &vec![i as u8; 100][..], "key {i}");
        }
        assert!(t.get(b"user99999999").unwrap().is_none());
    }

    #[test]
    fn overwrites_return_newest() {
        let t = new_tree(small_config());
        for round in 0..5u8 {
            for i in 0..500u32 {
                t.put(key(i), Bytes::from(vec![round; 50])).unwrap();
            }
        }
        for i in (0..500u32).step_by(41) {
            let v = t.get(&key(i)).unwrap().expect("present");
            assert_eq!(v.as_ref(), &[4u8; 50][..]);
        }
    }

    #[test]
    fn delete_hides_key_everywhere() {
        let t = new_tree(small_config());
        for i in 0..2000u32 {
            t.put(key(i), Bytes::from_static(b"v")).unwrap();
        }
        t.checkpoint().unwrap(); // push everything to disk
        t.delete(key(100)).unwrap();
        assert!(t.get(&key(100)).unwrap().is_none());
        t.checkpoint().unwrap(); // tombstone merged to the bottom
        assert!(t.get(&key(100)).unwrap().is_none());
        assert!(t.get(&key(101)).unwrap().is_some());
    }

    #[test]
    fn deltas_fold_across_levels() {
        let t = new_tree(small_config());
        t.put(key(1), Bytes::from_static(b"base")).unwrap();
        t.checkpoint().unwrap();
        t.apply_delta(key(1), Bytes::from_static(b"+d1")).unwrap();
        t.checkpoint().unwrap();
        t.apply_delta(key(1), Bytes::from_static(b"+d2")).unwrap();
        let v = t.get(&key(1)).unwrap().unwrap();
        assert_eq!(v.as_ref(), b"base+d1+d2");
    }

    #[test]
    fn orphan_delta_materializes() {
        let t = new_tree(small_config());
        t.apply_delta(key(7), Bytes::from_static(b"solo")).unwrap();
        assert_eq!(t.get(&key(7)).unwrap().unwrap().as_ref(), b"solo");
        t.checkpoint().unwrap();
        assert_eq!(t.get(&key(7)).unwrap().unwrap().as_ref(), b"solo");
    }

    #[test]
    fn insert_if_not_exists_semantics() {
        let t = new_tree(small_config());
        assert!(t
            .insert_if_not_exists(key(1), Bytes::from_static(b"a"))
            .unwrap());
        assert!(!t
            .insert_if_not_exists(key(1), Bytes::from_static(b"b"))
            .unwrap());
        assert_eq!(t.get(&key(1)).unwrap().unwrap().as_ref(), b"a");
        t.checkpoint().unwrap();
        assert!(!t
            .insert_if_not_exists(key(1), Bytes::from_static(b"c"))
            .unwrap());
        t.delete(key(1)).unwrap();
        assert!(t
            .insert_if_not_exists(key(1), Bytes::from_static(b"d"))
            .unwrap());
        assert_eq!(t.get(&key(1)).unwrap().unwrap().as_ref(), b"d");
    }

    #[test]
    fn scans_are_ordered_and_complete() {
        let t = new_tree(small_config());
        for i in 0..3000u32 {
            t.put(key(i), Bytes::from(format!("v{i}"))).unwrap();
        }
        // Mid-merge scan (merges are likely in flight right now).
        let items = t.scan(&key(500), 100).unwrap();
        assert_eq!(items.len(), 100);
        assert_eq!(items[0].key, key(500));
        assert!(items.windows(2).all(|w| w[0].key < w[1].key));
        for (j, item) in items.iter().enumerate() {
            assert_eq!(item.key, key(500 + j as u32));
            assert_eq!(item.value, Bytes::from(format!("v{}", 500 + j as u32)));
        }
        // Range scan excludes the upper bound.
        let items = t.scan_range(&key(10), &key(13), 100).unwrap();
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn scan_skips_deleted_rows() {
        let t = new_tree(small_config());
        for i in 0..100u32 {
            t.put(key(i), Bytes::from_static(b"v")).unwrap();
        }
        t.delete(key(5)).unwrap();
        let items = t.scan(&key(4), 3).unwrap();
        let keys: Vec<_> = items.iter().map(|i| i.key.clone()).collect();
        assert_eq!(keys, vec![key(4), key(6), key(7)]);
    }

    #[test]
    fn read_modify_write() {
        let t = new_tree(small_config());
        t.put(key(1), Bytes::from_static(b"1")).unwrap();
        t.read_modify_write(key(1), |old| {
            let mut v = old.unwrap().to_vec();
            v.push(b'2');
            Some(v)
        })
        .unwrap();
        assert_eq!(t.get(&key(1)).unwrap().unwrap().as_ref(), b"12");
        // RMW returning None deletes.
        t.read_modify_write(key(1), |_| None).unwrap();
        assert!(t.get(&key(1)).unwrap().is_none());
    }

    #[test]
    fn recovery_restores_acknowledged_writes() {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        {
            let t = BLsmTree::open(
                data.clone(),
                wal.clone(),
                4096,
                small_config(),
                Arc::new(AppendOperator),
            )
            .unwrap();
            for i in 0..3000u32 {
                t.put(key(i), Bytes::from(format!("val{i}"))).unwrap();
            }
            // No checkpoint, no clean shutdown: crash.
        }
        let t = BLsmTree::open(data, wal, 4096, small_config(), Arc::new(AppendOperator)).unwrap();
        for i in (0..3000u32).step_by(53) {
            let v = t
                .get(&key(i))
                .unwrap()
                .unwrap_or_else(|| panic!("key {i} lost"));
            assert_eq!(v.as_ref(), format!("val{i}").as_bytes());
        }
    }

    #[test]
    fn recovery_replay_is_exactly_once_for_deltas() {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        {
            let t = BLsmTree::open(
                data.clone(),
                wal.clone(),
                4096,
                small_config(),
                Arc::new(AppendOperator),
            )
            .unwrap();
            t.put(key(1), Bytes::from_static(b"base")).unwrap();
            t.apply_delta(key(1), Bytes::from_static(b"+d")).unwrap();
            // Push the delta into C1 but leave the log un-truncated by
            // writing more (the pass consumed the delta; newer writes keep
            // the window open).
            t.checkpoint().unwrap();
            for i in 10..500u32 {
                t.put(key(i), Bytes::from_static(b"x")).unwrap();
            }
        }
        let t = BLsmTree::open(data, wal, 4096, small_config(), Arc::new(AppendOperator)).unwrap();
        // A double-applied delta would read "base+d+d".
        assert_eq!(t.get(&key(1)).unwrap().unwrap().as_ref(), b"base+d");
    }

    #[test]
    fn a_promoted_followers_log_reopens_to_the_live_state() {
        // A follower logs the leader's records under the leader's
        // seqnos, is promoted, and logs its own writes above them: its
        // log holds both, in the order they reached `C0`. Replayed in
        // that order, one record at a time, it rebuilds the live tree —
        // deltas over replicated bases included.
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let open = || {
            BLsmTree::open(
                data.clone(),
                wal.clone(),
                4096,
                small_config(),
                Arc::new(AppendOperator),
            )
            .unwrap()
        };
        let entry = |i: u32| match i % 5 {
            0 => Entry::Tombstone,
            1 | 2 => Entry::Delta(Bytes::from(format!("+{i}"))),
            _ => Entry::Put(Bytes::from(format!("v{i:0>200}"))),
        };
        let t = open();
        for i in 0..1500u32 {
            let v = Versioned {
                seqno: u64::from(i) + 1,
                entry: entry(i),
            };
            let applied = t.apply_replicated(&encode_wal_record(&key(i % 400), &v));
            assert_eq!(applied.unwrap(), Some(v.seqno));
        }
        // Promoted: local writes take seqnos above every replicated one.
        for i in 1500..3000u32 {
            match entry(i) {
                Entry::Put(v) => t.put(key(i % 400), v),
                Entry::Delta(d) => t.apply_delta(key(i % 400), d),
                Entry::Tombstone => t.delete(key(i % 400)),
            }
            .unwrap();
        }
        assert!(t.stats().merges01 > 0, "the log outlives a merge pass");
        let state = |t: &BLsmTree| -> Vec<Option<Bytes>> {
            (0..400).map(|k| t.get(&key(k)).unwrap()).collect()
        };
        let live = state(&t);
        let live_scan = t.scan(b"", usize::MAX).unwrap();
        drop(t); // crash: no checkpoint, no clean shutdown
        let t = open();
        assert!(t.stats().recovery.wal_records_replayed > 0);
        assert_eq!(state(&t), live);
        assert_eq!(t.scan(b"", usize::MAX).unwrap(), live_scan);
    }

    #[test]
    fn degraded_durability_loses_c0_only() {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let config = BLsmConfig {
            durability: Durability::None,
            ..small_config()
        };
        {
            let t = BLsmTree::open(
                data.clone(),
                wal.clone(),
                4096,
                config.clone(),
                Arc::new(AppendOperator),
            )
            .unwrap();
            t.put(key(1), Bytes::from_static(b"old")).unwrap();
            t.checkpoint().unwrap(); // durable point
            t.put(key(2), Bytes::from_static(b"new")).unwrap(); // lost
        }
        let t = BLsmTree::open(data, wal, 4096, config, Arc::new(AppendOperator)).unwrap();
        assert_eq!(t.get(&key(1)).unwrap().unwrap().as_ref(), b"old");
        assert!(
            t.get(&key(2)).unwrap().is_none(),
            "unlogged write must be lost"
        );
    }

    #[test]
    fn bloom_filters_skip_absent_probes() {
        let t = new_tree(small_config());
        for i in 0..2000u32 {
            t.put(key(i), Bytes::from(vec![0u8; 100])).unwrap();
        }
        t.checkpoint().unwrap();
        let before = t.stats();
        for i in 0..1000u32 {
            assert!(t.get(format!("user{i:08}x").as_bytes()).unwrap().is_none());
        }
        let d = t.stats();
        let probes = d.disk_probes - before.disk_probes;
        assert!(probes < 60, "absent lookups probed disk {probes} times");
        assert!(d.bloom_skips > before.bloom_skips);
    }

    #[test]
    fn three_components_max() {
        // §3.3: bLSM bounds the tree at three on-disk components.
        let t = new_tree(small_config());
        for i in 0..30_000u32 {
            t.put(key(i % 7000), Bytes::from(vec![0u8; 64])).unwrap();
            assert!(t.component_count() <= 3, "component count exploded");
        }
    }

    #[test]
    fn checkpoint_then_reads_need_no_wal() {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        {
            let t = BLsmTree::open(
                data.clone(),
                wal.clone(),
                4096,
                small_config(),
                Arc::new(AppendOperator),
            )
            .unwrap();
            for i in 0..1000u32 {
                t.put(key(i), Bytes::from_static(b"v")).unwrap();
            }
            t.checkpoint().unwrap();
        }
        // Wipe the WAL: a checkpointed tree must not need it.
        let fresh_wal: SharedDevice = Arc::new(MemDevice::new());
        let t = BLsmTree::open(
            data,
            fresh_wal,
            4096,
            small_config(),
            Arc::new(AppendOperator),
        )
        .unwrap();
        assert_eq!(t.get(&key(999)).unwrap().unwrap().as_ref(), b"v");
    }

    #[test]
    fn naive_scheduler_correctness() {
        let config = BLsmConfig {
            scheduler: SchedulerKind::Naive,
            ..small_config()
        };
        let t = new_tree(config);
        for i in 0..5000u32 {
            t.put(key(i), Bytes::from(vec![1u8; 80])).unwrap();
        }
        for i in (0..5000u32).step_by(211) {
            assert!(t.get(&key(i)).unwrap().is_some(), "key {i}");
        }
        assert!(t.stats().forced_stalls > 0, "naive must stall");
    }

    #[test]
    fn gear_scheduler_correctness() {
        let config = BLsmConfig {
            scheduler: SchedulerKind::Gear,
            ..small_config()
        };
        let t = new_tree(config);
        assert!(!t.config().snowshovel, "gear partitions C0/C0'");
        for i in 0..5000u32 {
            t.put(key(i % 1500), Bytes::from(vec![2u8; 80])).unwrap();
        }
        for i in (0..1500u32).step_by(97) {
            assert_eq!(t.get(&key(i)).unwrap().unwrap().as_ref(), &[2u8; 80][..]);
        }
    }

    #[test]
    fn sorted_inserts_stream_through() {
        // §4.2: sorted input should flow to disk in long runs; C0 stays
        // bounded and write amplification stays low.
        let t = new_tree(small_config());
        for i in 0..20_000u32 {
            t.put(key(i), Bytes::from(vec![3u8; 64])).unwrap();
        }
        assert!(t.c0_bytes() <= t.config().mem_budget);
        for i in (0..20_000u32).step_by(997) {
            assert!(t.get(&key(i)).unwrap().is_some());
        }
    }

    #[test]
    fn reverse_sorted_inserts_still_correct() {
        let t = new_tree(small_config());
        for i in (0..8000u32).rev() {
            t.put(key(i), Bytes::from(vec![4u8; 64])).unwrap();
        }
        for i in (0..8000u32).step_by(503) {
            assert!(t.get(&key(i)).unwrap().is_some(), "key {i}");
        }
    }

    #[test]
    fn wal_record_roundtrip() {
        for v in [
            Versioned::put(9, Bytes::from_static(b"value")),
            Versioned::delta(10, Bytes::from_static(b"+1")),
            Versioned::tombstone(11),
        ] {
            let enc = encode_wal_record(&Bytes::from_static(b"k"), &v);
            let (k, d) = decode_wal_record(&enc).unwrap();
            assert_eq!(k.as_ref(), b"k");
            assert_eq!(d, v);
        }
    }

    #[test]
    fn read_view_sees_writes_and_survives_merges() {
        let t = new_tree(small_config());
        let view = t.read_view();
        for i in 0..4000u32 {
            t.put(key(i), Bytes::from(vec![i as u8; 100])).unwrap();
        }
        assert!(t.stats().merges01 > 0, "merges must have run");
        // The view, created before any write, sees everything — it pins
        // per-operation snapshots, not a point-in-time one.
        for i in (0..4000u32).step_by(131) {
            let v = view.get(&key(i)).unwrap().expect("present via view");
            assert_eq!(v.as_ref(), &vec![i as u8; 100][..]);
        }
        let items = view.scan(&key(100), 10).unwrap();
        assert_eq!(items.len(), 10);
        assert_eq!(items[0].key, key(100));
        assert_eq!(view.stats().gets, t.stats().gets);
    }

    #[test]
    fn reads_consistent_mid_merge_pass() {
        // Stop a merge pass in the middle (small quanta via maintenance)
        // and verify every key is readable: some live in the old C1 (not
        // yet rotated out), some in the retained C0 copies, some ahead of
        // the drain cursor.
        let t = HandDriven::new(new_tree(small_config())); // we drive quanta
        for i in 0..800u32 {
            t.put(key(i), Bytes::from(vec![7u8; 40])).unwrap();
        }
        t.checkpoint().unwrap(); // everything into C1
        for i in 0..800u32 {
            t.put(key(i), Bytes::from(vec![8u8; 40])).unwrap(); // fresher C0
        }
        t.start_merge01().unwrap();
        t.run_merge01(2_000).unwrap(); // a sliver of the pass
        assert!(t.merges_active().0, "merge must still be in flight");
        let view = t.read_view();
        for i in (0..800u32).step_by(37) {
            let v = view.get(&key(i)).unwrap().expect("present mid-merge");
            assert_eq!(v.as_ref(), &[8u8; 40][..], "key {i} must be the new value");
        }
        // Scans mid-pass see each key exactly once, newest version.
        let items = view.scan(&key(0), 800).unwrap();
        assert_eq!(items.len(), 800);
        assert!(items.iter().all(|it| it.value.as_ref() == [8u8; 40]));
        t.checkpoint().unwrap();
    }

    #[test]
    fn retired_regions_pinned_at_shutdown_are_reclaimed_on_reopen() {
        // A reader pinning an old catalog across the final checkpoint
        // keeps the replaced component's region allocated; the manifest
        // does not name it, so reopen frees it instead of leaking it on
        // disk forever.
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let pinned;
        let retired_pages;
        let allocated_before;
        {
            let t = BLsmTree::open(
                data.clone(),
                wal.clone(),
                4096,
                small_config(),
                Arc::new(AppendOperator),
            )
            .unwrap();
            for i in 0..500u32 {
                t.put(key(i), Bytes::from(vec![1u8; 60])).unwrap();
            }
            t.checkpoint().unwrap();
            // Pin the catalog like a slow reader mid-scan would.
            pinned = t.shared.catalog.load();
            for i in 0..500u32 {
                t.put(key(i), Bytes::from(vec![2u8; 60])).unwrap();
            }
            t.checkpoint().unwrap(); // replaces the pinned components
            let m = t.merge.lock();
            assert!(
                !m.retired.is_empty(),
                "the pinned old component must still be awaiting reclamation"
            );
            retired_pages = m.retired.iter().map(|r| r.region().pages).sum::<u64>();
            allocated_before = m.allocator.high_water() - m.allocator.free_pages();
            drop(m);
            // Tree dropped here with the reader still pinning.
        }
        drop(pinned);
        let t2 = BLsmTree::open(data, wal, 4096, small_config(), Arc::new(AppendOperator)).unwrap();
        let m2 = t2.merge.lock();
        let allocated_after = m2.allocator.high_water() - m2.allocator.free_pages();
        drop(m2);
        assert_eq!(
            allocated_after,
            allocated_before - retired_pages,
            "reopen must reclaim regions that were retired-but-pinned at save"
        );
        assert_eq!(t2.get(&key(1)).unwrap().unwrap().as_ref(), &[2u8; 60][..]);
    }

    /// Allocated pages equal what the manifest slots, the components, the
    /// merges in flight and the retired components own.
    fn assert_every_page_owned(t: &BLsmTree) {
        let d = t.merge01.lock();
        let m12 = t.merge12.lock();
        let (allocated, owned) = t.page_accounts(d.pass.as_ref(), m12.as_ref(), &t.merge.lock());
        assert_eq!(allocated, owned, "allocated pages that nothing owns leaked");
    }

    #[test]
    fn crashes_mid_merge_leak_no_pages_across_reopens() {
        // Each cycle crashes right after a `C0:C1` install saved a root
        // while a `C1':C2` merge was in flight. No root names that merge's
        // output region, so the reopen frees it and restarts the merge.
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let open = || {
            let op = Arc::new(AppendOperator);
            BLsmTree::open(data.clone(), wal.clone(), 4096, small_config(), op).unwrap()
        };
        let mut n = 0u32;
        for _ in 0..4 {
            let t = open();
            loop {
                let (in_flight, merges01) = (t.merges_active().1, t.stats().merges01);
                t.put(key(n), Bytes::from(format!("val{n}"))).unwrap();
                n += 1;
                if in_flight && t.merges_active().1 && t.stats().merges01 > merges01 {
                    break;
                }
            }
            drop(t);
            let t = open();
            assert!(t.merges_active().1, "the reopen restarts the C1':C2 merge");
            assert_every_page_owned(&t);
            for i in (0..n).step_by(89) {
                let v = t.get(&key(i)).unwrap();
                assert_eq!(v.as_deref(), Some(format!("val{i}").as_bytes()), "key {i}");
            }
        }
    }

    #[test]
    fn a_root_whose_regions_overlap_fails_open() {
        // A root with two components on one page must not hand that page
        // out twice: recovery reports the manifest corrupt instead.
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let open = || {
            let op = Arc::new(AppendOperator);
            BLsmTree::open(data.clone(), wal.clone(), 4096, small_config(), op)
        };
        let t = open().unwrap();
        for i in 0..500u32 {
            t.put(key(i), Bytes::from(vec![1u8; 60])).unwrap();
        }
        t.checkpoint().unwrap();
        let c1 = t.shared.catalog.load().c1.as_ref().unwrap().region();
        let slots = t.merge.lock().manifest.first_free_page();
        drop(t);
        let at = |start: u64| Region {
            start: PageId(start),
            pages: c1.pages,
        };
        let overlapping = at(c1.start.0 + c1.pages - 1);
        for components in [
            vec![(ComponentSlot::C1, c1), (ComponentSlot::C2, overlapping)],
            vec![(ComponentSlot::C2, at(slots - 1))],
        ] {
            let meta = TreeMeta {
                components,
                wal_head: 0,
                next_seqno: 1,
            };
            let (mut manifest, _) = ManifestStore::open(data.clone(), DEFAULT_SLOT_PAGES).unwrap();
            manifest.save(&meta.encode()).unwrap();
            let err = open().unwrap_err();
            assert!(
                matches!(
                    err,
                    StorageError::Corruption {
                        component: ComponentId::Manifest,
                        ..
                    }
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn scan_folds_delta_over_retained_base_mid_pass() {
        // Regression: during a snowshovel pass a key's base can live only
        // in the retained (already-drained) C0 copies while a fresher
        // Delta lands in the deferred table. A scan racing the pass must
        // fold the two, not return the delta over an absent base.
        let t = HandDriven::new(new_tree(small_config())); // we drive the pass
        assert!(t.config().snowshovel);
        t.put(key(0), Bytes::from_static(b"base")).unwrap();
        t.put(key(1), Bytes::from_static(b"other")).unwrap();
        t.start_merge01().unwrap();
        t.run_merge01(1).unwrap(); // drains key(0): base now only retained
        assert!(t.merges_active().0, "pass must still be in flight");
        t.apply_delta(key(0), Bytes::from_static(b"+d")).unwrap(); // behind cursor → deferred
        let view = t.read_view();
        assert_eq!(view.get(&key(0)).unwrap().unwrap().as_ref(), b"base+d");
        let items = view.scan(&key(0), 10).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(
            items[0].value.as_ref(),
            b"base+d",
            "scan must fold the deferred delta over the retained base"
        );
        t.checkpoint().unwrap();
        assert_eq!(t.get(&key(0)).unwrap().unwrap().as_ref(), b"base+d");
    }

    #[test]
    fn scan_folds_delta_over_frozen_base_mid_pass() {
        // Frozen-pass variant: the base is still in the sealed current
        // table (undrained C0') when the delta lands in the next table.
        let config = BLsmConfig {
            scheduler: SchedulerKind::Gear, // gear partitions C0/C0' (frozen passes)
            ..small_config()
        };
        let t = HandDriven::new(new_tree(config));
        assert!(!t.config().snowshovel);
        t.put(key(0), Bytes::from_static(b"base")).unwrap();
        t.put(key(1), Bytes::from_static(b"other")).unwrap();
        t.start_merge01().unwrap();
        assert!(t.merges_active().0);
        t.apply_delta(key(0), Bytes::from_static(b"+d")).unwrap(); // frozen → deferred
        let view = t.read_view();
        assert_eq!(view.get(&key(0)).unwrap().unwrap().as_ref(), b"base+d");
        let items = view.scan(&key(0), 10).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].value.as_ref(), b"base+d");
        t.checkpoint().unwrap();
        assert_eq!(t.get(&key(0)).unwrap().unwrap().as_ref(), b"base+d");
    }
    /// Reads the `AddOperator` counter stored under `k`.
    fn counter(t: &BLsmTree, k: &[u8]) -> i64 {
        let v = t.get(k).unwrap().expect("counter present");
        i64::from_le_bytes(v[..8].try_into().unwrap())
    }

    #[test]
    fn concurrent_deltas_to_one_key_are_never_lost() {
        // Four writers add 1 to one counter whose base sits in C0, so
        // each delta folds into a Put. Each write takes its seqno where
        // its insert is ordered, so no delta arrives after a newer one
        // was folded into that Put (it would resolve as the older
        // version and be dropped): the live tree and the reopened one
        // both count every write.
        const THREADS: i64 = 4;
        const PER_THREAD: i64 = 50_000;
        for durability in [Durability::None, Durability::Buffered, Durability::Sync] {
            let data: SharedDevice = Arc::new(MemDevice::new());
            let wal: SharedDevice = Arc::new(MemDevice::new());
            let config = BLsmConfig {
                durability,
                wal_capacity: 64 << 20,
                ..small_config()
            };
            let open = || {
                let op = Arc::new(blsm_memtable::AddOperator);
                BLsmTree::open(data.clone(), wal.clone(), 4096, config.clone(), op).unwrap()
            };
            let t = open();
            t.put(
                Bytes::from_static(b"counter"),
                Bytes::copy_from_slice(&0i64.to_le_bytes()),
            )
            .unwrap();
            let one = Bytes::copy_from_slice(&1i64.to_le_bytes());
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    s.spawn(|| {
                        for _ in 0..PER_THREAD {
                            t.apply_delta(Bytes::from_static(b"counter"), one.clone())
                                .unwrap();
                        }
                    });
                }
            });
            assert_eq!(
                counter(&t, b"counter"),
                THREADS * PER_THREAD,
                "{durability:?}"
            );
            if durability == Durability::None {
                // No log to replay: what survives is what a checkpoint wrote.
                t.checkpoint().unwrap();
            }
            drop(t);
            let t = open();
            assert_eq!(
                counter(&t, b"counter"),
                THREADS * PER_THREAD,
                "{durability:?}"
            );
        }
    }

    #[test]
    fn a_pass_publishes_each_flushed_chunk_and_drops_what_it_covers() {
        // C1 holds every even key, C0 every odd key and a delta on every
        // tenth: a pass's output interleaves the two, so its first chunk
        // covers drained rows, C1 rows and folded deltas alike.
        let t = HandDriven::new(new_tree(BLsmConfig {
            mem_budget: 8 << 20,
            ..small_config()
        }));
        let n = 6000u32;
        let value = |i: u32, tag: u8| Bytes::from(vec![tag; 100 + (i % 7) as usize]);
        for i in (0..n).step_by(2) {
            t.put(key(i), value(i, b'c')).unwrap();
        }
        t.checkpoint().unwrap();
        for i in (1..n).step_by(2) {
            t.put(key(i), value(i, b'm')).unwrap();
        }
        for i in (0..n).step_by(10) {
            t.apply_delta(key(i), Bytes::from_static(b"+d")).unwrap();
        }
        let expect = |i: u32| {
            let mut v = value(i, if i.is_multiple_of(2) { b'c' } else { b'm' }).to_vec();
            if i.is_multiple_of(10) {
                v.extend_from_slice(b"+d");
            }
            v
        };
        let old_c1 = t.shared.catalog.load().c1.clone().unwrap();
        let before = t.stats();
        t.start_merge01().unwrap();
        while t.shared.catalog.load().c1_prefix.is_none() {
            t.run_merge01(4 << 10).unwrap();
        }
        assert!(t.merges_active().0, "the pass is still in flight");
        let catalog = t.shared.catalog.load();
        let frontier = catalog.frontier().unwrap().clone();
        assert!(Arc::ptr_eq(catalog.c1.as_ref().unwrap(), &old_c1));
        assert_eq!(t.stats().merges01, before.merges01, "not a completed merge");
        assert_eq!(t.stats().prefix_publishes, before.prefix_publishes + 1);
        // The drained rows the prefix covers left C0 with it; the rest of
        // the drained rows are still retained.
        assert!(t
            .shared
            .c0
            .first_retained_key()
            .is_some_and(|k| k > frontier));
        // Every key reads once, on whichever side of the split holds it.
        let view = t.read_view();
        let probes = view.stats().disk_probes;
        for i in 0..n {
            assert_eq!(view.get(&key(i)).unwrap().unwrap().as_ref(), &expect(i)[..]);
        }
        let probes = view.stats().disk_probes - probes;
        assert!(
            probes <= u64::from(n),
            "{probes} probes: more than one per get"
        );
        for i in 0..n {
            assert!(view.exists(&key(i)).unwrap());
        }
        for from in [0, 17, 300, n - 40] {
            let rows = view.scan(&key(from), 200).unwrap();
            let want: Vec<u32> = (from..n).take(200).collect();
            assert_eq!(rows.len(), want.len());
            for (row, i) in rows.iter().zip(want) {
                assert_eq!(row.key, key(i));
                assert_eq!(row.value.as_ref(), &expect(i)[..]);
            }
        }
        assert!(view.scrub().is_clean());
        t.checkpoint().unwrap();
        assert!(t.shared.catalog.load().c1_prefix.is_none());
        assert_eq!(t.stats().merges01, before.merges01 + 1);
        for i in (0..n).step_by(13) {
            assert_eq!(t.get(&key(i)).unwrap().unwrap().as_ref(), &expect(i)[..]);
        }
    }

    #[test]
    fn threaded_ingest_sizes_c1_filters_to_their_output_and_publishes_share() {
        // Every finished `C1` holds a filter folded to the entries its
        // pass wrote, and a pass's prefix publishes share the output's
        // filter and leaf index instead of copying them: they copy under
        // 1 % of the bytes the passes write.
        let config = BLsmConfig {
            mem_budget: 1 << 20,
            wal_capacity: 64 << 20,
            durability: Durability::None,
            ..Default::default()
        };
        let db = crate::ThreadedBLsm::start(new_tree(config), 256 << 10).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let checked = std::thread::scope(|s| {
            let observer = s.spawn(|| {
                let mut checked = 0u64;
                while !done.load(Ordering::Acquire) {
                    let cat = db.shared.catalog.load();
                    for c1 in [&cat.c1, &cat.c1_prime].into_iter().flatten() {
                        let (bits, entries) = (c1.bloom().params().bits, c1.entry_count());
                        assert!(
                            bits <= c1_bloom_bits_bound(entries),
                            "a finished C1 holds {bits} filter bits for {entries} entries"
                        );
                        checked += 1;
                    }
                    drop(cat);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                checked
            });
            let mut x = 1u64;
            for _ in 0..60_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = format!("{:012}", x % 1_000_000_000_000);
                db.put(Bytes::from(k), Bytes::from(vec![7u8; 100])).unwrap();
            }
            done.store(true, Ordering::Release);
            observer.join().unwrap()
        });
        assert!(checked > 0);
        let stats = db.stats();
        assert!(stats.merges01 > 2 && stats.prefix_publishes > stats.merges01);
        let written = stats.written_pages01 * blsm_storage::PAGE_SIZE as u64;
        assert!(
            stats.prefix_copy_bytes * 100 < written,
            "publishes copied {} bytes; passes wrote {written}",
            stats.prefix_copy_bytes
        );
        assert!(stats.reserved_pages01 >= stats.written_pages01);
        db.shutdown().unwrap();
    }

    #[test]
    fn a_sorted_load_over_an_existing_c1_runs_long_passes() {
        // Append traffic above an existing `C1` copies `C1` and then
        // streams `C0` to disk (§4.2): a pass may drain up to four
        // `C0 + C1`s, so `C1` is rewritten about once per four times its
        // size, not once per four `C0`s.
        let t = new_tree(BLsmConfig {
            mem_budget: 256 << 10,
            wal_capacity: 64 << 20,
            durability: Durability::None,
            ..Default::default()
        });
        let value = Bytes::from(vec![7u8; 200]);
        let mut x = 1u64;
        for _ in 0..12_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t.put(
                Bytes::from(format!("a{:012}", x % 1_000_000_000_000)),
                value.clone(),
            )
            .unwrap();
        }
        let before = t.stats();
        for i in 0..40_000u32 {
            t.put(Bytes::from(format!("b{i:08}")), value.clone())
                .unwrap();
        }
        let after = t.stats();
        let merged = after.merge_bytes_consumed - before.merge_bytes_consumed;
        let user = after.user_bytes_written - before.user_bytes_written;
        // Here: 6.4 × with the long run, 24.7 × with every pass capped
        // at four `C0`s.
        assert!(
            merged < 10 * user,
            "the append phase merged {merged} bytes for {user} user bytes"
        );
    }

    #[test]
    fn threaded_ingest_keeps_resident_c0_within_a_chunk_of_its_budget() {
        // Resident C0 — the write buffer plus the drained rows a pass
        // still keeps readable — stays within the budget, the bytes
        // admitted against the cap at once (one entry per writer) and
        // one chunk of output with its open leaf and the run a drain
        // step takes ahead of its appends.
        const WRITERS: u64 = 2;
        let (key_len, value_len) = (12, 100);
        let row = (ENTRY_OVERHEAD + key_len + value_len) as u64;
        let entry = key_len + value_len + 4;
        let leaf_rows = (blsm_sstable::LEAF_CAPACITY / entry) as u64 + 1;
        let chunk_rows = blsm_sstable::FLUSH_PAGES as u64 * leaf_rows;
        for mem_budget in [1 << 20, 4 << 20] {
            let config = BLsmConfig {
                mem_budget,
                wal_capacity: 64 << 20,
                durability: Durability::None,
                ..Default::default()
            };
            let db = crate::ThreadedBLsm::start(new_tree(config), 256 << 10).unwrap();
            std::thread::scope(|s| {
                for w in 0..WRITERS {
                    let db = &db;
                    s.spawn(move || {
                        let mut x = w + 1;
                        for _ in 0..(6 * mem_budget as u64 / row / WRITERS) {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let k = format!("{:012}", x % 1_000_000_000_000);
                            db.put(Bytes::from(k), Bytes::from(vec![7u8; value_len]))
                                .unwrap();
                        }
                    });
                }
            });
            let stats = db.stats();
            assert!(stats.prefix_publishes > 0 && stats.merges01 > 0);
            let unpublished = chunk_rows + leaf_rows + crate::merge::RUN_ENTRIES as u64;
            let bound = mem_budget as u64 + WRITERS * row + unpublished * row;
            assert!(
                stats.resident_peak_bytes <= bound,
                "budget {mem_budget}: resident C0 peaked at {} > {bound}",
                stats.resident_peak_bytes
            );
            db.shutdown().unwrap();
        }
    }
}
