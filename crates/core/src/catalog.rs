//! The atomically-published on-disk component catalog.
//!
//! §4.4.1 argues that "it is prohibitively expensive to acquire a
//! coarse-grained mutex for each merged tuple or page"; the standard LSM
//! answer (Luo & Carey's survey) is an *immutable component set swapped
//! atomically*: readers pin a snapshot of the component list and never
//! contend with merges. [`ComponentCatalog`] is that snapshot — the
//! `C1`/`C1'`/`C2` handles (each an `Arc<Sstable>` carrying its Bloom
//! filter and index) plus the newest sequence number any of them contains.
//! Merges build their output off to the side and publish a new catalog in
//! one [`CatalogCell::store`] per component rotation.
//!
//! [`TreeShared`] is everything the *write and read* paths need: the
//! catalog cell, the sharded [`ConcurrentC0`], the atomic sequence-number
//! allocator, the WAL behind its own mutex, the merge operator, the
//! buffer pool and the atomic statistics. It is reached only through a
//! [`crate::ReadView`], which implements every read over it; a
//! [`crate::BLsmTree`] holds its own view (and derefs to it) beside the
//! driver mutexes that serialize the merge state machines.
//!
//! Consistency between `C0` and the catalog no longer rests on a
//! buffer-wide `c0` write lock. The `C0:C1` commit point runs inside
//! [`ConcurrentC0::end_capped_pass_with`]: the buffer bumps its publish
//! epoch to an odd value, the closure stores the new catalog, the
//! retained (already-drained) `C0` entries are cleared, and the epoch
//! lands on the next even value. Readers run a seqlock loop (`read.rs`): sample an
//! even epoch, read the `C0` shards and load the catalog, and retry if
//! the epoch moved. They therefore see either the old `C1` plus the
//! retained `C0` copies or the new `C1` without them — never neither,
//! never both.
//!
//! Lock order (see `DESIGN.md` §14): `merge01` → `merge12` → `merge` →
//! `commit` → `wal` → `catalog` → `pending` (a merge
//! thread's doorbell). The memtable's internal
//! `pass` → `tables` locks are encapsulated below `catalog` and never
//! escape the crate.

#[cfg(feature = "strict-invariants")]
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex, RwLock};

use blsm_memtable::{ConcurrentC0, MergeOperator};
use blsm_sstable::Sstable;
use blsm_storage::{BufferPool, ComponentId, Wal};

use crate::commit::CommitState;
use crate::config::BLsmConfig;
use crate::stats::{RecoveryReport, TreeStats};
use crate::threaded::Doorbell;

/// An immutable snapshot of the on-disk component set, searched
/// newest→oldest: `C1`, then `C1'`, then `C2`.
#[derive(Debug, Clone)]
pub(crate) struct ComponentCatalog {
    /// Output of the most recent `C0:C1` merge.
    pub(crate) c1: Option<Arc<Sstable>>,
    /// A full `C1` awaiting (or undergoing) the `C1':C2` merge.
    pub(crate) c1_prime: Option<Arc<Sstable>>,
    /// The largest component.
    pub(crate) c2: Option<Arc<Sstable>>,
    /// Newest sequence number stored in any catalogued component. WAL
    /// replay skips records at or below a component's coverage without
    /// probing when the record's seqno exceeds this horizon.
    pub(crate) seqno_horizon: u64,
}

impl ComponentCatalog {
    /// Builds a catalog, deriving the seqno horizon from the components.
    pub(crate) fn new(
        c1: Option<Arc<Sstable>>,
        c1_prime: Option<Arc<Sstable>>,
        c2: Option<Arc<Sstable>>,
    ) -> ComponentCatalog {
        let seqno_horizon = [&c1, &c1_prime, &c2]
            .into_iter()
            .flatten()
            .map(|t| t.meta().max_seqno)
            .max()
            .unwrap_or(0);
        ComponentCatalog {
            c1,
            c1_prime,
            c2,
            seqno_horizon,
        }
    }

    /// Components in probe order (newest first), absent slots skipped.
    pub(crate) fn tables(&self) -> impl Iterator<Item = &Arc<Sstable>> {
        [&self.c1, &self.c1_prime, &self.c2].into_iter().flatten()
    }

    /// Like [`tables`](Self::tables), but each component is paired with
    /// its slot identity so errors can name where they came from.
    pub(crate) fn named_tables(&self) -> impl Iterator<Item = (ComponentId, &Arc<Sstable>)> {
        [
            (ComponentId::C1, &self.c1),
            (ComponentId::C1Prime, &self.c1_prime),
            (ComponentId::C2, &self.c2),
        ]
        .into_iter()
        .filter_map(|(id, t)| t.as_ref().map(|t| (id, t)))
    }
}

/// One atomically-swappable catalog pointer.
///
/// `RwLock<Arc<_>>` rather than a bare atomic pointer: the lock is held
/// only for the pointer clone/store (never across I/O), so readers see a
/// few nanoseconds of contention at worst, and the shim environment
/// provides no `arc-swap`.
#[derive(Debug)]
pub(crate) struct CatalogCell {
    inner: RwLock<Arc<ComponentCatalog>>,
}

impl CatalogCell {
    pub(crate) fn new(catalog: ComponentCatalog) -> CatalogCell {
        CatalogCell {
            inner: RwLock::new(Arc::new(catalog)),
        }
    }

    /// Pins the current catalog snapshot.
    pub(crate) fn load(&self) -> Arc<ComponentCatalog> {
        self.inner.read().clone()
    }

    /// Publishes a new catalog. When the swap must be atomic with a `C0`
    /// state change (the `C0:C1` commit point), callers store from inside
    /// the [`ConcurrentC0::end_capped_pass_with`] commit closure, which
    /// runs in the odd-epoch window readers retry across; pure disk-level
    /// rotations may store directly.
    pub(crate) fn store(&self, catalog: Arc<ComponentCatalog>) {
        *self.inner.write() = catalog;
    }
}

/// State shared between the merge side ([`crate::BLsmTree`]), concurrent
/// application writers, and any number of lock-free readers
/// ([`crate::ReadView`]).
pub(crate) struct TreeShared {
    pub(crate) config: BLsmConfig,
    pub(crate) op: Arc<dyn MergeOperator>,
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) catalog: CatalogCell,
    /// The sharded `C0`; writers insert through `&self` and scale across
    /// key-range shards, merges drain behind the buffer's pass lock.
    pub(crate) c0: ConcurrentC0,
    /// Next sequence number to allocate. Writers claim seqnos with
    /// `fetch_add` before inserting; per-key ordering is restored inside
    /// the memtable fold (a racing latecomer folds in as the older
    /// version).
    // ordering: AcqRel ticket RMWs, a Release store of the replayed
    // floor at open, Acquire loads for manifest snapshots. The counter
    // only needs to hand out unique, monotone values; happens-before
    // for the entries themselves comes from the shard locks.
    pub(crate) next_seqno: AtomicU64,
    /// Applied floor: every seqno strictly below it has *completed* the
    /// WAL-append + `C0`-insert path on this node. Unlike `next_seqno`
    /// (a reservation counter that may run ahead of failed or in-flight
    /// writes), this only advances after an insert succeeds — it is the
    /// horizon replication acks and the replicated-apply dedupe check
    /// are based on, so a record whose apply *failed* (backpressure,
    /// WAL error) is re-applied on the leader's resend instead of being
    /// skipped as a duplicate.
    // ordering: AcqRel `fetch_max` after each successful insert (the
    // insert happens-before the floor advance), a Release store of the
    // replayed floor at open, Acquire loads in the dedupe check and
    // replication acks — an acked floor implies fully applied records.
    pub(crate) applied_floor: AtomicU64,
    /// Strict-invariants builds only: bytes writers were admitted for by
    /// `pace` but have not yet made resident in `C0` (claimed before the
    /// WAL append + insert, released when the insert lands or the write
    /// errors out). Feeds `admitted_peak` — the quantity the cap check
    /// actually uses.
    #[cfg(feature = "strict-invariants")]
    // ordering: AcqRel RMWs — a claim precedes its C0 insert, so any
    // observer that sees an insert's bytes in the C0 counters also sees
    // its (possibly already released) claim.
    pub(crate) admitted_inflight: AtomicUsize,
    /// High-water mark of `admitted_inflight`: the most bytes ever
    /// admitted-but-uninserted at once. Concurrent writers are each
    /// admitted against the `C0` cap *before* inserting, so the buffer
    /// can legitimately overshoot its budget by at most this much (the
    /// overshoot persists in `C0` after the claims release, until a pass
    /// drains it — hence a monotone peak, not the instantaneous value).
    /// The strict-invariants cap check adds it to its slack, so the
    /// permitted overshoot scales with the writers actually observed in
    /// flight — N concurrent writers × their entry sizes — instead of a
    /// fixed constant a large fleet or large values could exceed, while a
    /// broken pacer that admits serially past the budget still trips the
    /// check.
    #[cfg(feature = "strict-invariants")]
    // ordering: AcqRel `fetch_max` before the claim's C0 insert, Acquire
    // loads — an invariant check that observes an insert's bytes in C0
    // also observes the peak that admitted it.
    pub(crate) admitted_peak: AtomicUsize,
    /// Write-ahead log (`None` when durability is off). Its own mutex so
    /// concurrent writers serialize only the log append *and the paired
    /// `C0` insert* — that pairing is deliberate: because append+insert is
    /// one critical section, a log-tail sample taken under this mutex
    /// partitions records into "fully in C0" and "after the sample",
    /// which is exactly what makes post-pass log truncation safe (see
    /// `merge.rs`). Ordered after `merge` and before `catalog` in the
    /// lock hierarchy.
    pub(crate) wal: Mutex<Option<Wal>>,
    /// Group-commit election bookkeeping (see `commit.rs` and DESIGN.md
    /// §18): leader flag and last failure message. Ordered between `merge` and
    /// `wal` in the hierarchy, but never held while acquiring anything —
    /// the leader drops it before touching the WAL and is **never** held
    /// across I/O.
    pub(crate) commit: Mutex<CommitState>,
    /// Wakes group-commit waiters when a group retires (or fails).
    /// Paired with `commit`.
    pub(crate) commit_cv: Condvar,
    /// The commit failure epoch: how many groups failed to flush or sync
    /// (see `BLsmTree::commit_failure_epoch`).
    // ordering: AcqRel `fetch_add` under `commit` after `last_error` is
    // stored, Acquire loads — a seen bump implies the message is stored.
    pub(crate) commit_failures: AtomicU64,
    /// LSN below which every WAL byte is known device-stable — the
    /// horizon `Durability::Sync` acks cover. Mirrors the WAL's own
    /// `synced` watermark so satisfied waiters return without the lock.
    // ordering: AcqRel `fetch_max` by the group leader after its device
    // sync (the sync happens-before the horizon it publishes), Acquire
    // loads in the `wait_durable` fast path and `durable_lsn` — an
    // observed horizon implies the covering sync completed. At open, a
    // plain Release store of the replay tail (replayed bytes are on the
    // device by definition).
    pub(crate) durable: AtomicU64,
    /// Appends counted into the currently-open commit group: records
    /// appended since the last leader flush. Bumped under the `wal`
    /// mutex by `log_and_insert`, swapped to zero under the same mutex
    /// by the leader's flush — so the swap reads exactly the group the
    /// flush covered. Feeds the group-size histogram.
    // ordering: AcqRel RMWs — serialized by the wal mutex; group
    // bookkeeping, not a synchronization edge.
    pub(crate) unsynced_writes: AtomicU64,
    pub(crate) stats: TreeStats,
    /// Set once at the end of [`crate::BLsmTree::open`]; a write-once
    /// cell, so `stats()` reads it without a lock.
    pub(crate) recovery: OnceLock<RecoveryReport>,
    /// The `C0:C1` merge thread's doorbell: the write tail rings it when
    /// a write leaves the tree above `Idle` (`threaded.rs`).
    pub(crate) bell01: Doorbell,
    /// The `C1':C2` merge thread's doorbell: a pass that rotates `C1`
    /// into `C1'` rings it.
    pub(crate) bell12: Doorbell,
    /// Where writers over the hard `C0` cap park while merge threads are
    /// attached: the `C0:C1` drain rings it once `C0` is back at the
    /// high water mark, and the thread rings it after a failed quantum.
    pub(crate) bell_cap: Doorbell,
    /// True while [`crate::ThreadedBLsm`]'s merge threads are attached. A
    /// bare tree has nobody to wake, so its writes never touch the
    /// doorbell lock.
    // ordering: Release store before the merge threads are spawned (no
    // writer can exist yet: `start` owns the tree), Acquire loads in the
    // write tail. The flag publishes no data — a stale read costs one
    // skipped ring, which the merge loop's wait timeout bounds. A merge
    // thread that unwinds clears it (Release) so writers pace again.
    pub(crate) merge_thread_attached: AtomicBool,
}

impl std::fmt::Debug for TreeShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeShared")
            .field("c0_bytes", &self.c0.approx_bytes())
            .field("catalog", &self.catalog.load())
            .finish_non_exhaustive()
    }
}
