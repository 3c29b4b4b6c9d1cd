//! Group commit: one device sync covers many concurrent writers.
//!
//! §5.1 observes that "none of the systems sync their logs at commit" —
//! the paper dodges the fsync cost instead of amortizing it. This module
//! makes `Durability::Sync` a servable configuration by batching: a
//! writer appends to the WAL (buffered, under the `wal` mutex) and then
//! *waits for the group* instead of forcing the device itself. One
//! waiter at a time is elected **leader**; it flushes the WAL under the
//! lock, releases the lock, forces the device, and publishes the new
//! durable horizon — waking every waiter whose append the sync covered.
//!
//! There is deliberately no dedicated committer thread: the leader is
//! elected among the writers already blocked on durability, so a tree
//! with no sync writers spawns nothing, `BLsmTree` stays thread-free
//! (crash enumeration stays deterministic), and a solo writer pays
//! exactly one fsync with no hand-off latency. Batching comes from
//! *overlap*: while the leader's fsync runs outside the `wal` mutex,
//! other writers keep appending; they all retire on the next leader's
//! single sync. Group size therefore tracks the number of concurrent
//! writers — which is what makes durable throughput scale with client
//! count instead of flat-lining on device sync latency.
//!
//! The election state lives in `TreeShared.commit` (a tiny mutex ordered
//! between `merge` and `wal`; see DESIGN.md §14 and §18). The `commit`
//! lock is **never held across I/O**: the leader drops it before
//! flushing and syncing, and reacquires it only to publish the outcome.
//!
//! Crash semantics are unchanged from per-write sync: a write is acked
//! only once `durable` covers its append, and `durable` only advances
//! after a successful device sync of a flushed prefix — so a crash
//! between a group's flush and its sync loses only unacked writes (the
//! crash-enumeration harness sweeps exactly those points).

use std::sync::atomic::Ordering;
use std::time::Instant;

use bytes::Bytes;

use blsm_memtable::Entry;
use blsm_storage::wal::Lsn;
use blsm_storage::{Result, StorageError};

use crate::stats;
use crate::tree::{invariant_err, BLsmTree};

/// Group-commit election state, behind `TreeShared.commit`.
///
/// The mutex protects only this bookkeeping — never I/O. Waiters park on
/// `TreeShared.commit_cv`; the durable horizon and failure epoch are
/// lock-free atomics (`durable`, `commit_failures`), so satisfied writers
/// return without ever touching this lock again.
#[derive(Debug, Default)]
pub(crate) struct CommitState {
    /// True while an elected leader is driving a flush + device sync.
    /// Exactly one leader runs at a time; everyone else waits.
    pub(crate) leader_active: bool,
    /// Human-readable cause of the most recent failed group.
    pub(crate) last_error: String,
}

impl BLsmTree {
    /// LSN below which every WAL byte is known device-stable — the
    /// horizon a group-commit ack covers. One atomic read, no locks.
    /// Trees without a WAL (or that never synced) report 0.
    pub fn durable_lsn(&self) -> Lsn {
        // ordering: Acquire — pairs with the leader's AcqRel advance in
        // `lead_commit`; see the field docs in `catalog.rs`.
        self.shared.durable.load(Ordering::Acquire)
    }

    /// The commit failure epoch: how many commit groups have failed to
    /// flush or sync (one atomic read). A caller that snapshots it after
    /// a nowait write and later sees it move must treat that write's
    /// durability as unknown: a group covering (or preceding) it failed.
    pub fn commit_failure_epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel bump in
        // `wait_durable`; see the field docs in `catalog.rs`.
        self.shared.commit_failures.load(Ordering::Acquire)
    }

    /// The last failed commit group's error text (empty before any).
    pub fn last_commit_error(&self) -> String {
        self.shared.commit.lock().last_error.clone()
    }

    /// Forces a group commit covering everything appended so far and
    /// returns the new durable horizon. The caller joins (or leads) the
    /// current group exactly like a sync writer — this is the seam a
    /// serving tier uses after a batch of
    /// [`put_nowait`](Self::put_nowait)-style writes, and an explicit
    /// sync on a `Durability::Buffered` tree.
    ///
    /// # Errors
    ///
    /// Propagates flush/sync failures from the group's commit.
    pub fn commit_group(&self) -> Result<Lsn> {
        let target = {
            let guard = self.shared.wal.lock();
            match guard.as_ref() {
                Some(wal) => wal.tail_lsn(),
                // Degraded durability (§4.4.2): nothing to make durable.
                None => return Ok(0),
            }
        };
        self.wait_durable(target)?;
        Ok(self.durable_lsn())
    }

    /// Like [`put`](Self::put), but returns without waiting for
    /// durability. The returned LSN is the write's *commit target*: the
    /// write is durable once [`durable_lsn`](Self::durable_lsn) reaches
    /// it (0 when the configured durability never required a wait, which
    /// every horizon trivially covers). Callers batch many nowait writes
    /// and then retire them with one [`commit_group`](Self::commit_group).
    ///
    /// # Errors
    ///
    /// As [`put`](Self::put), minus sync failures (those surface at the
    /// commit wait).
    pub fn put_nowait(&self, key: impl Into<Bytes>, value: impl Into<Bytes>) -> Result<Lsn> {
        self.write_entry_nowait(key.into(), Entry::Put(value.into()))
            .map(|t| t.unwrap_or(0))
    }

    /// Nowait form of [`delete`](Self::delete); see
    /// [`put_nowait`](Self::put_nowait) for the returned commit target.
    ///
    /// # Errors
    ///
    /// As [`delete`](Self::delete), minus sync failures.
    pub fn delete_nowait(&self, key: impl Into<Bytes>) -> Result<Lsn> {
        self.write_entry_nowait(key.into(), Entry::Tombstone)
            .map(|t| t.unwrap_or(0))
    }

    /// Nowait form of [`apply_delta`](Self::apply_delta); see
    /// [`put_nowait`](Self::put_nowait) for the returned commit target.
    ///
    /// # Errors
    ///
    /// As [`apply_delta`](Self::apply_delta), minus sync failures.
    pub fn apply_delta_nowait(
        &self,
        key: impl Into<Bytes>,
        delta: impl Into<Bytes>,
    ) -> Result<Lsn> {
        self.write_entry_nowait(key.into(), Entry::Delta(delta.into()))
            .map(|t| t.unwrap_or(0))
    }

    /// Nowait form of [`insert_if_not_exists`](Self::insert_if_not_exists):
    /// `(inserted, commit_target)`. A losing check (`false`) performed no
    /// write and carries target 0.
    ///
    /// # Errors
    ///
    /// As [`insert_if_not_exists`](Self::insert_if_not_exists), minus
    /// sync failures.
    pub fn insert_if_not_exists_nowait(
        &self,
        key: impl Into<Bytes>,
        value: impl Into<Bytes>,
    ) -> Result<(bool, Lsn)> {
        let key = key.into();
        stats::bump(&self.shared.stats.check_inserts, 1);
        if self.exists(&key)? {
            return Ok((false, 0));
        }
        let target = self.write_entry_nowait(key, Entry::Put(value.into()))?;
        Ok((true, target.unwrap_or(0)))
    }

    /// Nowait form of [`apply_replicated`](Self::apply_replicated):
    /// `Some((seqno, commit_target))` for an applied record, `None` for a
    /// deduplicated one. A follower applies a shipped batch nowait and
    /// retires the whole batch with one [`commit_group`](Self::commit_group)
    /// — mirroring the leader's group instead of paying one fsync per
    /// record.
    ///
    /// # Errors
    ///
    /// As [`apply_replicated`](Self::apply_replicated), minus sync
    /// failures.
    pub fn apply_replicated_nowait(&self, payload: &[u8]) -> Result<Option<(u64, Lsn)>> {
        self.apply_replicated_inner(payload)
            .map(|r| r.map(|(seqno, t)| (seqno, t.unwrap_or(0))))
    }

    /// Blocks until the WAL is device-stable through `target`, joining
    /// (and possibly leading) a commit group. `target` is an LSN captured
    /// under the `wal` mutex after this writer's append.
    ///
    /// # Errors
    ///
    /// The leader's own flush/sync error, verbatim; or, for a waiter, an
    /// I/O error naming the failed group it was waiting behind (its
    /// durability is unknown once any covering sync fails).
    pub(crate) fn wait_durable(&self, target: Lsn) -> Result<()> {
        // Fast path: an earlier group already covered this append.
        // ordering: Acquire — pairs with the leader's AcqRel advance.
        if self.shared.durable.load(Ordering::Acquire) >= target {
            return Ok(());
        }
        let mut state = self.shared.commit.lock();
        let entry_failures = self.commit_failure_epoch();
        loop {
            // ordering: Acquire — as above; re-checked every wakeup.
            if self.shared.durable.load(Ordering::Acquire) >= target {
                return Ok(());
            }
            if self.commit_failure_epoch() != entry_failures {
                return Err(StorageError::Io(std::io::Error::other(format!(
                    "group commit failed while waiting for lsn {target}: {}",
                    state.last_error
                ))));
            }
            if !state.leader_active {
                // Become the leader and commit the group at once, with
                // no locks held across the I/O. There is no accumulation
                // window: the group is whatever was appended while the
                // previous leader's sync ran.
                state.leader_active = true;
                drop(state);
                let outcome = self.lead_commit();
                state = self.shared.commit.lock();
                state.leader_active = false;
                if let Err(e) = outcome {
                    // Message first, then the epoch (still under
                    // `commit`): whoever sees the bump finds the text.
                    state.last_error = e.to_string();
                    // ordering: AcqRel — see the field docs in `catalog.rs`.
                    self.shared.commit_failures.fetch_add(1, Ordering::AcqRel);
                    self.shared.commit_cv.notify_all();
                    return Err(e);
                }
                self.shared.commit_cv.notify_all();
                // Loop: the group normally covers our own append (the
                // flush ran after it), but a concurrent `mark_synced`
                // race is handled by simply going around again.
            } else {
                self.shared.commit_cv.wait(&mut state);
            }
        }
    }

    /// Commits one group: flush under the `wal` mutex, force the device
    /// with **no lock held** (appends overlap the sync — that overlap is
    /// where batching comes from), then record the barrier and publish
    /// the new durable horizon. Entered with no locks held.
    fn lead_commit(&self) -> Result<()> {
        let (flushed, group_writes, device) = {
            let mut guard = self.shared.wal.lock();
            let wal = guard
                .as_mut()
                .ok_or_else(|| invariant_err("group commit on a tree without a wal"))?;
            wal.flush()?;
            // The flush just covered every append counted so far: zero
            // the open-group counter under the same lock appenders bump
            // it under, so the swap reads exactly this group.
            // ordering: AcqRel swap — serialized by the wal mutex; the
            // counter is group bookkeeping, not a synchronization edge.
            let group_writes = self.shared.unsynced_writes.swap(0, Ordering::AcqRel);
            (wal.flushed_lsn(), group_writes, wal.device())
        };
        let sync_started = Instant::now();
        device.sync()?;
        let fsync_micros = sync_started.elapsed().as_micros() as u64;
        {
            let mut guard = self.shared.wal.lock();
            if let Some(wal) = guard.as_mut() {
                wal.mark_synced(flushed);
            }
        }
        // ordering: AcqRel — publishes the durable horizon; pairs with
        // the Acquire fast-path loads in `wait_durable`/`durable_lsn`.
        // fetch_max, not store: a slow leader must never regress a
        // horizon a later group already published.
        self.shared.durable.fetch_max(flushed, Ordering::AcqRel);
        if group_writes > 0 {
            stats::bump(&self.shared.stats.commit_groups, 1);
            stats::bump(&self.shared.stats.commit_group_writes, group_writes);
            stats::bump(&self.shared.stats.fsync_micros_total, fsync_micros);
            stats::bump(
                &self.shared.stats.group_size_hist[stats::group_size_bucket(group_writes)],
                1,
            );
            stats::bump(
                &self.shared.stats.fsync_micros_hist[stats::fsync_micros_bucket(fsync_micros)],
                1,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use bytes::Bytes;

    use blsm_memtable::AppendOperator;
    use blsm_storage::{MemDevice, SharedDevice};

    use crate::config::{BLsmConfig, Durability};
    use crate::BLsmTree;

    fn sync_tree() -> BLsmTree {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let config = BLsmConfig {
            mem_budget: 1 << 20,
            wal_capacity: 8 << 20,
            durability: Durability::Sync,
            ..Default::default()
        };
        BLsmTree::open(data, wal, 4096, config, Arc::new(AppendOperator)).unwrap()
    }

    #[test]
    fn sync_put_advances_durable_lsn() {
        let t = sync_tree();
        assert_eq!(t.durable_lsn(), 0);
        t.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
            .unwrap();
        let d1 = t.durable_lsn();
        assert!(d1 > 0, "a sync put must retire through a group");
        t.put(Bytes::from_static(b"k2"), Bytes::from_static(b"v2"))
            .unwrap();
        assert!(t.durable_lsn() > d1);
        let s = t.stats();
        assert_eq!(s.commit_group_writes, 2);
        assert!(s.commit_groups >= 1);
    }

    #[test]
    fn nowait_writes_retire_on_one_group() {
        let t = sync_tree();
        let mut targets = Vec::new();
        for i in 0..10u32 {
            targets.push(
                t.put_nowait(Bytes::from(format!("k{i}")), Bytes::from_static(b"v"))
                    .unwrap(),
            );
        }
        let max = *targets.iter().max().unwrap();
        assert!(t.durable_lsn() < max, "nowait writes must not sync inline");
        let horizon = t.commit_group().unwrap();
        assert!(horizon >= max);
        assert!(t.durable_lsn() >= max);
        // All ten writes retired on explicit groups, not per-write syncs.
        let s = t.stats();
        assert_eq!(s.commit_group_writes, 10);
        assert!(s.commit_groups <= 2);
    }

    #[test]
    fn commit_group_syncs_a_buffered_tree() {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let t = BLsmTree::open(
            data,
            wal,
            4096,
            BLsmConfig::default(),
            Arc::new(AppendOperator),
        )
        .unwrap();
        t.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
            .unwrap();
        // Buffered writes wait on nothing...
        assert_eq!(t.durable_lsn(), 0);
        // ...but an explicit group is a real sync barrier.
        let horizon = t.commit_group().unwrap();
        assert!(horizon > 0);
        assert_eq!(t.durable_lsn(), horizon);
    }

    #[test]
    fn degraded_tree_commit_group_is_a_noop() {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let config = BLsmConfig {
            durability: Durability::None,
            ..Default::default()
        };
        let t = BLsmTree::open(data, wal, 4096, config, Arc::new(AppendOperator)).unwrap();
        t.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
            .unwrap();
        assert_eq!(t.commit_group().unwrap(), 0);
        assert_eq!(
            t.put_nowait(Bytes::from_static(b"a"), Bytes::from_static(b"b"))
                .unwrap(),
            0
        );
    }

    #[test]
    fn concurrent_sync_writers_share_groups() {
        let t = Arc::new(sync_tree());
        let threads = 8;
        let per_thread = 25u32;
        let max_target = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for w in 0..threads {
                let t = Arc::clone(&t);
                let max_target = Arc::clone(&max_target);
                s.spawn(move || {
                    for i in 0..per_thread {
                        t.put(
                            Bytes::from(format!("w{w}-k{i}")),
                            Bytes::from_static(b"value"),
                        )
                        .unwrap();
                        // ordering: AcqRel — test bookkeeping only.
                        max_target.fetch_max(t.durable_lsn(), Ordering::AcqRel);
                    }
                });
            }
        });
        let s = t.stats();
        let total = u64::from(threads * per_thread);
        assert_eq!(s.commit_group_writes, total);
        assert!(s.commit_groups >= 1 && s.commit_groups <= total);
        // Every write returned only after its append was durable.
        // ordering: Acquire — test bookkeeping only.
        assert!(t.durable_lsn() >= max_target.load(Ordering::Acquire));
        for w in 0..threads {
            for i in (0..per_thread).step_by(7) {
                assert!(t.get(format!("w{w}-k{i}").as_bytes()).unwrap().is_some());
            }
        }
    }

    #[test]
    fn replicated_records_can_batch_through_one_group() {
        let leader = sync_tree();
        let follower = sync_tree();
        for i in 0..20u32 {
            leader
                .put(Bytes::from(format!("k{i}")), Bytes::from(format!("v{i}")))
                .unwrap();
        }
        let (records, _) = leader.wal_records_from(0, usize::MAX).unwrap();
        assert_eq!(records.len(), 20);
        let mut max_target = 0;
        for rec in &records {
            let (_seqno, target) = follower
                .apply_replicated_nowait(&rec.payload)
                .unwrap()
                .expect("fresh record applies");
            max_target = max_target.max(target);
        }
        assert!(follower.commit_group().unwrap() >= max_target);
        assert!(follower.get(b"k7").unwrap().is_some());
        // Duplicated delivery stays a no-op through the nowait path.
        assert!(follower
            .apply_replicated_nowait(&records[0].payload)
            .unwrap()
            .is_none());
    }
}
