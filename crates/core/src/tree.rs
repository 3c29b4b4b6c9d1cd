//! The bLSM tree engine.
//!
//! Three levels (`C0` in RAM, `C1`/`C1'`/`C2` on disk, Figure 1), Bloom
//! filters on every disk component, early-terminating reads, snowshoveling,
//! incremental merges paced by a pluggable level scheduler, a logical log,
//! and manifest-based crash recovery.
//!
//! Merges run *cooperatively*: each application write asks the scheduler
//! for a [`WorkPlan`](crate::WorkPlan) and performs that much merge work
//! inline before inserting. This makes pacing deterministic (essential for
//! the simulated-device experiments) while remaining faithful to the
//! paper's semantics — the scheduler decides exactly when merge I/O
//! happens relative to application writes, which is all that matters for
//! latency and throughput. `maintenance` exposes the same state machine
//! for background/idle driving.
//!
//! Concurrency: the tree splits into three planes.
//!
//! * **Reads** are [`crate::ReadView`]'s, and only its: the tree holds a
//!   view and derefs to it (a standalone copy comes from
//!   [`BLsmTree::read_view`]). `get`, `scan` and `exists` pin the sharded
//!   `C0` plus the catalog behind the buffer's publish epoch and never
//!   take a tree-wide lock.
//! * **Writes** are `&self` and scale across threads: `put`, `delete` and
//!   `apply_delta` claim a seqno from an atomic counter, append to the
//!   WAL under its own mutex, and insert into the key-range-sharded
//!   [`ConcurrentC0`](blsm_memtable::ConcurrentC0) — two writers contend
//!   only when they touch the same key-range shard (or both need the
//!   log).
//! * **Merges** have two drivers, as in the paper (§4.4.1): `C0:C1`
//!   runs under the `merge01` mutex and `C1':C2` under `merge12`, so the
//!   `C0` drain never queues behind the downstream merge. Both install
//!   their output through `merge` (allocator, manifest, retired list),
//!   held only to allocate and to install a finished merge, never across
//!   merge work. In the cooperative model writers *opportunistically*
//!   pace (try-lock: if a sibling writer already holds a driver, that
//!   quantum is already being run) and only block on `merge01` to
//!   enforce the hard `C0` cap. With merge threads attached writers run
//!   no merge work: over the cap they park until the `C0:C1` drain
//!   brings `C0` back to the high water mark (`threaded.rs`).
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
use blsm_storage::{
    BufferPool, Lsn, RegionAllocator, Result, SharedDevice, StorageError, Wal, PAGE_SIZE,
};
use parking_lot::Mutex;

use crate::catalog::{CatalogCell, ComponentCatalog, TreeShared};
use crate::config::{BLsmConfig, Durability};
use crate::merge::{Merge01, Merge12, RetiredTable};
use crate::meta::{ComponentSlot, TreeMeta};
use crate::read::ReadView;
use crate::sched::{make_scheduler, MergeScheduler, SchedInputs};
use crate::stats::{self, RecoveryReport, TreeStats};
use crate::threaded::Doorbell;

/// Upper bound on merge bytes processed in one burst of inline work;
/// bounds the latency any single write can observe from pacing.
const WORK_QUANTUM: u64 = 4 << 20;

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
    pub(crate) retired: Vec<RetiredTable>,
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
        let (allocator, wal_head, mut next_seqno) = match payload {
            Some(bytes) => {
                let meta = TreeMeta::decode(&bytes)?;
                for (slot, region) in &meta.components {
                    let table = Arc::new(Sstable::open(pool.clone(), *region)?);
                    recovery.components_salvaged += 1;
                    match slot {
                        ComponentSlot::C1 => c1 = Some(table),
                        ComponentSlot::C1Prime => c1_prime = Some(table),
                        ComponentSlot::C2 => c2 = Some(table),
                    }
                }
                let mut allocator = meta.allocator;
                // Regions that were retired but still reader-pinned at
                // the final manifest save belong to nobody now — without
                // this they would stay allocated forever.
                for region in meta.retired {
                    allocator.free(region);
                }
                (allocator, meta.wal_head, meta.next_seqno)
            }
            None => (RegionAllocator::new(manifest.first_free_page()), 0, 1),
        };

        let scheduler = make_scheduler(&config);
        let shared = Arc::new(TreeShared {
            op,
            pool,
            catalog: CatalogCell::new(ComponentCatalog::new(c1, c1_prime, c2)),
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
            bell01: Doorbell::new(),
            bell12: Doorbell::new(),
            bell_cap: Doorbell::new(),
            merge_thread_attached: std::sync::atomic::AtomicBool::new(false),
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

        // Replay the logical log into C0 (§4.4.2). Each record is checked
        // against the recovered components: snowshoveling delays log
        // truncation, so the live log window can contain records whose
        // effects already reached C1 — those are skipped by sequence
        // number, keeping replay exactly-once even for deltas. Records are
        // replayed in *seqno* order, not log order: concurrent writers
        // claim seqnos before taking the log mutex, so two records can
        // land in the log out of order.
        if tree.shared.config.durability != Durability::None {
            let replay = blsm_storage::wal::replay_report(
                &wal_dev,
                tree.shared.config.wal_capacity,
                wal_head,
            );
            recovery.wal_records_replayed = replay.records.len() as u64;
            recovery.wal_recovered_bytes = replay.tail - wal_head;
            recovery.wal_torn_tail_bytes = replay.torn_tail_bytes;
            let tail = replay.tail;
            let mut records = Vec::with_capacity(replay.records.len());
            for rec in replay.records {
                records.push(decode_wal_record(&rec.payload)?);
            }
            records.sort_by_key(|(_, v)| v.seqno);
            for (key, v) in records {
                next_seqno = next_seqno.max(v.seqno + 1);
                let durable = tree.shared.disk_newest_seqno(&key, v.seqno)?;
                if durable.is_some_and(|s| s >= v.seqno) {
                    recovery.wal_records_skipped += 1;
                    continue;
                }
                tree.shared.c0.insert(key, v, tree.shared.op.as_ref());
            }
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
        // ordering: AcqRel — the ticket RMW both observes the replayed
        // floor (Acquire) and publishes its claim to later readers of the
        // counter (Release); per-key ordering is restored by the
        // seqno-aware memtable fold and sorted WAL replay.
        let seqno = self.shared.next_seqno.fetch_add(1, Ordering::AcqRel);
        self.insert_versioned(key, Versioned { seqno, entry })
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
    /// just insert under degraded durability). Shared by locally-ticketed
    /// writes and the replication apply path, so a replicated record is
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
    fn insert_versioned(&self, key: Bytes, v: Versioned) -> Result<Option<u64>> {
        stats::bump(&self.shared.stats.writes, 1);
        stats::bump(
            &self.shared.stats.user_bytes_written,
            (key.len() + v.entry.payload_len()) as u64,
        );
        let seqno = v.seqno;
        let target = if self.shared.config.durability == Durability::None {
            // Degraded durability (§4.4.2): no log, no serialization —
            // writers contend only on their C0 key-range shard.
            self.shared.c0.insert(key, v, self.shared.op.as_ref());
            None
        } else {
            self.log_and_insert(key, v)?
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
        // ordering: AcqRel — same contract as the `write_entry` ticket
        // RMW.
        self.shared
            .next_seqno
            .fetch_max(seqno + 1, Ordering::AcqRel);
        let incoming = (key.len() + v.entry.payload_len() + ENTRY_OVERHEAD) as u64;
        self.pace(incoming)?;
        #[cfg(feature = "strict-invariants")]
        let _claim = self.claim_admission(incoming);
        let target = self.insert_versioned(key, v)?;
        Ok(Some((seqno, target)))
    }

    /// Appends one record to the WAL and performs the paired `C0` insert
    /// inside the *same* log-mutex critical section. That atomicity is
    /// what makes log truncation safe under concurrency: a log-tail
    /// sample taken under this mutex cleanly partitions records into
    /// "fully inserted into C0 before the sample" and "appended after the
    /// sample" — there is never a record in the log whose C0 insert is
    /// still in flight (see `start_merge01`'s truncation argument).
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
    fn log_and_insert(&self, key: Bytes, v: Versioned) -> Result<Option<u64>> {
        // Ring full: checkpoint by completing the in-flight pass (which
        // truncates), then retry. Concurrent writers can refill the ring
        // between the checkpoint and the retry, so one retry is not
        // enough under contention — loop while the log is drainable,
        // bounded so a ring too small for even a quiet append still
        // surfaces the error instead of spinning. The lock must drop
        // around the checkpoint — it takes `merge` then `wal` (lock
        // order).
        const MAX_FULL_RETRIES: u32 = 8;
        let payload = encode_wal_record(&key, &v);
        let sync = self.shared.config.durability == Durability::Sync;
        let mut guard = self.shared.wal.lock();
        let mut attempts = 0;
        loop {
            let wal = guard
                .as_mut()
                .ok_or_else(|| invariant_err("durable tree lost its wal"))?;
            match if sync {
                wal.append(&payload)
            } else {
                wal.append_flush(&payload)
            } {
                Ok(_) => break,
                Err(e @ StorageError::OutOfSpace { .. }) => {
                    if attempts >= MAX_FULL_RETRIES {
                        return Err(e);
                    }
                    attempts += 1;
                    drop(guard);
                    self.checkpoint()?;
                    guard = self.shared.wal.lock();
                }
                Err(e) => return Err(e),
            }
        }
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
        self.shared.c0.insert(key, v, self.shared.op.as_ref());
        Ok(target)
    }

    // -----------------------------------------------------------------
    // Merge pacing
    // -----------------------------------------------------------------

    pub(crate) fn sched_inputs(
        &self,
        m01: Option<&Merge01>,
        m12: Option<&Merge12>,
        incoming: u64,
    ) -> SchedInputs {
        let catalog = self.shared.catalog.load();
        let c0 = &self.shared.c0;
        let filling = match c0.pass_mode() {
            PassMode::Frozen | PassMode::Snowshovel => c0.behind_bytes() as u64,
            PassMode::Idle => c0.approx_bytes() as u64,
        };
        SchedInputs {
            c0_bytes: if self.shared.config.snowshovel {
                c0.approx_bytes() as u64
            } else {
                filling
            },
            c0_fill: self.shared.config.c0_fill_bytes() as u64,
            c0_cap: self.shared.config.mem_budget as u64,
            incoming,
            m01: m01.map(|mm| MergeProgress {
                bytes_read: self.merge01_consumed(mm),
                input_total: mm.input_total,
            }),
            m01_c0_input: m01.map_or(1, |mm| mm.c0_input.max(1)),
            m12: m12.map(|mm| MergeProgress {
                bytes_read: mm.consumed.load(Ordering::Relaxed),
                input_total: mm.input_total,
            }),
            c1_bytes: catalog.c1.as_ref().map_or(0, |c| c.data_bytes()),
            r_ceil: self.current_r().ceil() as u64,
        }
    }

    /// Pre-write pacing: run the scheduler's planned merge work, enforce
    /// the hard cap. This is where the paper's write-latency bound comes
    /// from. With merge threads attached, writers run no merge work and
    /// wait on no driver lock: the threads run the merges.
    fn pace(&self, incoming: u64) -> Result<()> {
        let threaded = self.merge_threads_attached();
        if !threaded && !self.shared.config.external_pacing {
            self.run_planned_quanta(incoming)?;
        }

        // Hard cap: C0 must never exceed the memory budget. A paced
        // scheduler rarely lands here; the naive scheduler lives here.
        let over_cap = || {
            self.shared.c0.approx_bytes() as u64 + incoming > self.shared.config.mem_budget as u64
        };
        if !over_cap() {
            return Ok(());
        }
        stats::bump(&self.shared.stats.forced_stalls, 1);
        if threaded && self.park_at_cap(incoming) {
            return Ok(());
        }
        // Cooperative, or a merge quantum failed while we were parked:
        // wait for (or perform) drain work on the `C0:C1` driver, which
        // also returns a failed pass's typed error.
        while over_cap() {
            let mut d = self.merge01.lock();
            self.resave_manifest(&mut self.merge.lock())?;
            // Re-check under the lock: the holder we waited behind may
            // have drained below the cap already.
            if !over_cap() {
                break;
            }
            if d.pass.is_none() {
                if self.shared.c0.is_empty() {
                    break;
                }
                self.start_merge01_locked(&mut d.pass)?;
            }
            self.run_merge01_locked(&mut d, WORK_QUANTUM)?;
            drop(d);
            self.quantum_boundary_check(true)?;
        }
        Ok(())
    }

    /// The scheduler's planned quanta, run *opportunistically*: the
    /// drivers are try-locked, and a writer that loses a race simply
    /// skips — whoever holds the driver (its merge thread, or a sibling
    /// writer) is running the very quantum this one would have.
    fn run_planned_quanta(&self, incoming: u64) -> Result<()> {
        let Some(mut d) = self.merge01.try_lock() else {
            return Ok(());
        };
        // Likewise while the other driver installs its output.
        let Some(mut m) = self.merge.try_lock() else {
            return Ok(());
        };
        self.resave_manifest(&mut m)?;
        drop(m);
        self.start_merge01_if_due(&mut d, incoming)?;
        let plan = {
            let m12 = self.merge12.try_lock();
            let inputs = self.sched_inputs(
                d.pass.as_ref(),
                m12.as_deref().and_then(Option::as_ref),
                incoming,
            );
            d.scheduler.plan(&inputs)
        };
        if plan.merge01_bytes > 0 {
            self.run_merge01_locked(&mut d, plan.merge01_bytes.min(WORK_QUANTUM))?;
        }
        drop(d);
        if plan.merge12_bytes > 0 {
            if let Some(mut m12) = self.merge12.try_lock() {
                self.run_merge12_locked(&mut m12, plan.merge12_bytes.min(WORK_QUANTUM))?;
            }
        }
        self.quantum_boundary_check(plan.merge01_bytes > 0 || plan.merge12_bytes > 0)
    }

    /// Starts a `C0:C1` pass when none is running and the scheduler asks
    /// for one, or a writer is parked at the hard cap (whose own bytes may
    /// be what a start mark is waiting for).
    fn start_merge01_if_due(&self, d: &mut Driver01, incoming: u64) -> Result<()> {
        if d.pass.is_none()
            && !self.shared.c0.is_empty()
            && (d
                .scheduler
                .should_start_merge01(&self.sched_inputs(None, None, incoming))
                || self.shared.bell_cap.has_waiters())
        {
            self.start_merge01_locked(&mut d.pass)?;
        }
        Ok(())
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
            allocator: m.allocator.clone(),
            // Still-pinned retired regions ride along so a reopen can
            // reclaim them (the in-memory retired list dies with us).
            retired: m.retired.iter().map(|r| r.region).collect(),
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

    // -----------------------------------------------------------------
    // Maintenance
    // -----------------------------------------------------------------

    /// Runs up to `budget` input bytes of pending merge work on each
    /// level. Lets callers drive merges during idle periods (§3.2's
    /// "merges can be run during off-peak periods"). Blocks on each
    /// merge's driver in turn; [`crate::ThreadedBLsm`]'s two threads run
    /// one driver each.
    pub fn maintenance(&self, budget: u64) -> Result<()> {
        self.maintain01(budget)?;
        self.maintain12(budget)?;
        Ok(())
    }

    /// One `C0:C1` quantum: starts a pass when the scheduler asks for one
    /// and runs up to `budget` bytes of it. True when a pass ran.
    pub(crate) fn maintain01(&self, budget: u64) -> Result<bool> {
        let ran = {
            let mut d = self.merge01.lock();
            self.resave_manifest(&mut self.merge.lock())?;
            self.start_merge01_if_due(&mut d, 0)?;
            let ran = d.pass.is_some();
            self.run_merge01_locked(&mut d, budget)?;
            ran
        };
        self.reap_retired_locked(&mut self.merge.lock());
        self.quantum_boundary_check(ran)?;
        Ok(ran)
    }

    /// One `C1':C2` quantum: starts the merge when a `C1'` waits for one
    /// and runs up to `budget` bytes of it. True when a merge ran.
    pub(crate) fn maintain12(&self, budget: u64) -> Result<bool> {
        let ran = {
            let mut m12 = self.merge12.lock();
            self.resave_manifest(&mut self.merge.lock())?;
            self.restart_merge12_locked(&mut m12)?;
            let ran = m12.is_some();
            self.run_merge12_locked(&mut m12, budget)?;
            ran
        };
        self.reap_retired_locked(&mut self.merge.lock());
        self.quantum_boundary_check(ran)?;
        Ok(ran)
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
    /// * the snowshovel drain cursor is monotone within a pass (§4.2).
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

        // Progress estimators (§4.1) stay in [0, 1]. A `C1':C2` driver
        // busy elsewhere is checked at its own quantum boundary.
        let mut d = self.merge01.lock();
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
            ("C1'", &catalog.c1_prime),
            ("C2", &catalog.c2),
        ] {
            let Some(table) = comp else { continue };
            table.verify_integrity(2, rotation).map_err(|e| match e {
                StorageError::Corruption { detail, .. } => violated(format!("{name}: {detail}")),
                other => other,
            })?;
        }
        Ok(())
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

use crate::progress::MergeProgress;

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

// Keep PAGE_SIZE import alive for region math readability.
const _: usize = PAGE_SIZE;
#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::SchedulerKind;
    use blsm_memtable::AppendOperator;
    use blsm_storage::MemDevice;

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
        let config = BLsmConfig {
            external_pacing: true, // no inline pacing: we drive quanta
            ..small_config()
        };
        let t = new_tree(config);
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
        // records it as retired so reopen reclaims it instead of leaking
        // it on disk forever.
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
            retired_pages = m.retired.iter().map(|r| r.region.pages).sum::<u64>();
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

    #[test]
    fn scan_folds_delta_over_retained_base_mid_pass() {
        // Regression: during a snowshovel pass a key's base can live only
        // in the retained (already-drained) C0 copies while a fresher
        // Delta lands in the deferred table. A scan racing the pass must
        // fold the two, not return the delta over an absent base.
        let config = BLsmConfig {
            external_pacing: true, // we drive the pass by hand
            ..small_config()
        };
        let t = new_tree(config);
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
            external_pacing: true,
            ..small_config()
        };
        let t = new_tree(config);
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
}
