//! A sharded, internally-synchronized `C0` that admits parallel inserts.
//!
//! [`ConcurrentC0`] preserves the exact semantics of
//! [`SnowshovelBuffer`](crate::SnowshovelBuffer) — newest-first version
//! chains in table order `behind` → `current` → `retained`, pass/drain
//! cursor monotonicity, retained-entry durability — while letting writer
//! threads insert concurrently instead of funneling through one
//! buffer-wide write lock:
//!
//! * The keyspace is split into [`C0_SHARDS`] **key-range shards** (by the
//!   top nibble of the first key byte, so shard `i`'s keys all sort before
//!   shard `i+1`'s). Each shard owns its own `current`/`behind`/`retained`
//!   [`Memtable`] triple behind a private lock; two inserts contend only
//!   when they land in the same shard.
//! * The **pass state** (cursor + pass kind) sits behind a small `RwLock`
//!   taken in *shared* mode by inserts — every writer may hold it at once —
//!   and in *exclusive* mode by the single merge thread's drain steps.
//!   Holding it across the route-then-insert window is what keeps the
//!   snowshovel routing decision (`ahead of cursor` → current, else
//!   deferred) atomic with respect to cursor advancement.
//! * Byte accounting is **atomic counters**, so the spring-and-gear
//!   water marks and the hard `C0` cap are readable without any lock.
//! * Catalog publish (the `C0:C1` commit plus retained-entry clear) is an
//!   **epoch-bumped atomic section**: a seqlock-style counter goes odd for
//!   the duration of [`ConcurrentC0::end_capped_pass_with`], and readers
//!   who overlap it retry their pin. This replaces the old `c0` write-lock
//!   hold — a reader either sees (old catalog + retained entries) or
//!   (new catalog without them), never a state in between. The retry is
//!   load-bearing for *deltas*: a retained delta observed together with
//!   the new `C1` (which already folded it in) would double-apply. The
//!   same window publishes each chunk of the pass's output as it reaches
//!   disk ([`ConcurrentC0::retire_through_with`]): the retained entries
//!   at or below the chunk's last key leave with it, so `retained` holds
//!   about one chunk, not the whole pass.
//!
//! Ordering across shards is preserved by construction: range sharding
//! means a key-order drain visits shard 0 to exhaustion, then shard 1,
//! and so on, so [`DrainGuard::drain_next`] scanning shards in index
//! order pops the global minimum.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};

use bytes::Bytes;
use parking_lot::{RwLock, RwLockWriteGuard};

use crate::memtable::{Memtable, ENTRY_OVERHEAD};
use crate::snowshovel::{DualIter, PassKind};
use crate::types::{check_newest_first, MergeOperator, Versioned};

/// Number of key-range shards. Sixteen keeps the routing function a
/// single shift (top nibble of the first key byte) while giving a
/// machine's worth of writer threads mostly-disjoint locks; the empty
/// key routes to shard 0.
pub const C0_SHARDS: usize = 16;

const MODE_IDLE: u8 = 0;
const MODE_SNOWSHOVEL: u8 = 1;
const MODE_FROZEN: u8 = 2;

/// Lock-free snapshot of the pass kind (no cursor), for scheduler reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PassMode {
    /// No pass active.
    Idle,
    /// Replacement-selection sweep in progress.
    Snowshovel,
    /// `C0` frozen as `C0'`.
    Frozen,
}

fn shard_of(key: &[u8]) -> usize {
    key.first().map_or(0, |&b| (b >> 4) as usize)
}

/// The three per-shard tables, mirroring [`SnowshovelBuffer`]'s
/// `current`/`behind`/`retained` split for one slice of the keyspace.
///
/// [`SnowshovelBuffer`]: crate::SnowshovelBuffer
#[derive(Debug, Default)]
struct ShardTables {
    current: Memtable,
    behind: Memtable,
    retained: Memtable,
}

#[derive(Debug, Default)]
struct Shard {
    tables: RwLock<ShardTables>,
}

/// Pass kind + snowshovel cursor. Guarded by `ConcurrentC0::pass`;
/// inserts hold the lock shared (they only read the routing decision),
/// drain steps and pass transitions hold it exclusive.
#[derive(Debug)]
struct PassState {
    kind: PassKind,
}

/// Sharded concurrent `C0`. All methods take `&self`; inserts scale with
/// writer threads (shared pass lock + per-shard table lock), drains and
/// pass transitions serialize on the exclusive pass lock, and catalog
/// publish is an epoch-bumped atomic section readers retry around.
#[derive(Debug)]
pub struct ConcurrentC0 {
    shards: Vec<Shard>,
    pass: RwLock<PassState>,
    /// Seqlock epoch for catalog publish: odd while a publish (pass end)
    /// is mutating shard state and the catalog pointer, even otherwise.
    // ordering: Acquire loads / Release bumps — seqlock protocol; a reader
    // whose two loads bracket unchanged-and-even proves its shard reads and
    // catalog load did not overlap a publish.
    epoch: AtomicU64,
    /// Mirror of the pass kind for lock-free scheduler reads.
    // ordering: Release stores under the exclusive pass lock, Acquire
    // loads — advisory snapshot for pacing; the authoritative kind lives
    // under the `pass` lock, the pairing only keeps the mirror from being
    // reordered ahead of the transition that set it.
    mode: AtomicU8,
    /// Bytes across all shards' `current` tables.
    // ordering: AcqRel adjustments under the owning shard lock (Release
    // resets under the exclusive pass lock), Acquire loads — water-mark
    // accounting; a pacing read that observes a total also observes the
    // inserts it accounts.
    bytes_current: AtomicUsize,
    /// Bytes across all shards' `behind` tables.
    // ordering: AcqRel adjustments / Release resets / Acquire loads, as
    // `bytes_current`.
    bytes_behind: AtomicUsize,
    /// Bytes across all shards' `retained` tables.
    // ordering: AcqRel adjustments / Release resets / Acquire loads, as
    // `bytes_current`.
    bytes_retained: AtomicUsize,
    /// Bytes drained so far in the active pass.
    // ordering: AcqRel bumps and Release resets under the exclusive pass
    // lock, Acquire loads — progress estimator input.
    drained_bytes: AtomicUsize,
    /// Bytes in `current` when the active pass began.
    // ordering: Release stores under the exclusive pass lock, Acquire
    // loads — progress estimator input.
    pass_start_bytes: AtomicUsize,
    /// The most bytes `current` + `behind` + `retained` ever held at once
    /// (sampled after each insert: a drain only moves bytes between
    /// them).
    // ordering: Acquire loads, AcqRel `fetch_max` — a gauge; it orders
    // nothing else.
    resident_peak: AtomicUsize,
}

impl Default for ConcurrentC0 {
    fn default() -> Self {
        Self::new()
    }
}

impl ConcurrentC0 {
    /// Creates an empty buffer.
    pub fn new() -> ConcurrentC0 {
        ConcurrentC0 {
            shards: (0..C0_SHARDS).map(|_| Shard::default()).collect(),
            pass: RwLock::new(PassState {
                kind: PassKind::Idle,
            }),
            epoch: AtomicU64::new(0),
            mode: AtomicU8::new(MODE_IDLE),
            bytes_current: AtomicUsize::new(0),
            bytes_behind: AtomicUsize::new(0),
            bytes_retained: AtomicUsize::new(0),
            drained_bytes: AtomicUsize::new(0),
            pass_start_bytes: AtomicUsize::new(0),
            resident_peak: AtomicUsize::new(0),
        }
    }

    fn adjust(ctr: &AtomicUsize, before: usize, after: usize) {
        // ordering: AcqRel — see the counter field docs; a watermark
        // reader that observes the new total also observes the insert.
        if after >= before {
            ctr.fetch_add(after - before, Ordering::AcqRel);
        } else {
            ctr.fetch_sub(before - after, Ordering::AcqRel);
        }
    }

    /// Total bytes across `current` + `behind` — the quantity the
    /// spring-and-gear scheduler watermarks. Lock-free.
    pub fn approx_bytes(&self) -> usize {
        // ordering: Acquire — pairs with the AcqRel/Release writes (see
        // field docs); same for the other watermark getters below.
        self.bytes_current.load(Ordering::Acquire) + self.bytes_behind.load(Ordering::Acquire)
    }

    /// Bytes in the pass-input (`current`) tables. Lock-free.
    pub fn current_bytes(&self) -> usize {
        self.bytes_current.load(Ordering::Acquire)
    }

    /// Bytes deferred to the next pass. Lock-free.
    pub fn behind_bytes(&self) -> usize {
        self.bytes_behind.load(Ordering::Acquire)
    }

    /// Bytes held for concurrent readers on behalf of the active pass.
    pub fn retained_bytes(&self) -> usize {
        self.bytes_retained.load(Ordering::Acquire)
    }

    /// Bytes resident across all three tables: `current` + `behind` +
    /// `retained`, what `C0` costs in RAM.
    pub fn resident_bytes(&self) -> usize {
        self.approx_bytes() + self.retained_bytes()
    }

    /// The most [`resident_bytes`](Self::resident_bytes) ever reached.
    pub fn resident_peak_bytes(&self) -> usize {
        self.resident_peak.load(Ordering::Acquire)
    }

    /// Drained entries kept readable for the active pass (takes every
    /// shard lock, for invariant checks and tests).
    pub fn retained_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.tables.read().retained.len())
            .sum()
    }

    /// The smallest key among the retained entries.
    pub fn first_retained_key(&self) -> Option<Bytes> {
        self.shards
            .iter()
            .find_map(|s| s.tables.read().retained.first_key().cloned())
    }

    /// Bytes drained so far in the active pass.
    pub fn drained_bytes(&self) -> usize {
        self.drained_bytes.load(Ordering::Acquire)
    }

    /// Bytes in the pass's input when it began.
    pub fn pass_start_bytes(&self) -> usize {
        self.pass_start_bytes.load(Ordering::Acquire)
    }

    /// Lock-free snapshot of the pass kind (no cursor).
    pub fn pass_mode(&self) -> PassMode {
        // ordering: Acquire — pairs with the Release store at the pass
        // transition that set the mode.
        match self.mode.load(Ordering::Acquire) {
            MODE_SNOWSHOVEL => PassMode::Snowshovel,
            MODE_FROZEN => PassMode::Frozen,
            _ => PassMode::Idle,
        }
    }

    /// The pass kind including the snowshovel cursor (takes the pass lock).
    pub fn pass_kind(&self) -> PassKind {
        self.pass.read().kind.clone()
    }

    /// The current publish epoch. Odd means a catalog publish is in
    /// flight; readers pinning `C0` + catalog must observe the same even
    /// value before and after their reads, else retry.
    pub fn publish_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Distinct keys resident across `current` + `behind` (retained
    /// copies excluded, matching [`SnowshovelBuffer::len`]).
    ///
    /// [`SnowshovelBuffer::len`]: crate::SnowshovelBuffer::len
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let t = s.tables.read();
                t.current.len() + t.behind.len()
            })
            .sum()
    }

    /// True when every shard's `current` and `behind` are empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| {
            let t = s.tables.read();
            t.current.is_empty() && t.behind.is_empty()
        })
    }

    /// Inserts a write, routing by the pass state. Concurrent-safe: the
    /// pass lock is held *shared* across the routing decision and the
    /// single-shard insert, so writers scale while any drain step (which
    /// holds the lock exclusively) observes either the whole insert or
    /// none of it.
    pub fn insert(&self, key: Bytes, write: Versioned, op: &dyn MergeOperator) {
        self.insert_with(key, op, || write);
    }

    /// [`insert`](Self::insert) of the version `write` makes while the
    /// key's shard lock is held: a seqno taken there orders the write
    /// against every other write of the key, as a log append does for a
    /// logged write.
    pub fn insert_with(
        &self,
        key: Bytes,
        op: &dyn MergeOperator,
        write: impl FnOnce() -> Versioned,
    ) {
        let pass = self.pass.read();
        let to_behind = match &pass.kind {
            PassKind::Idle => false,
            PassKind::Frozen => true,
            PassKind::Snowshovel { last_drained } => match last_drained {
                None => false, // nothing drained yet: everything is ahead
                Some(cursor) => key.as_ref() <= cursor.as_ref(),
            },
        };
        let shard = &self.shards[shard_of(&key)];
        let mut t = shard.tables.write();
        let write = write();
        if cfg!(feature = "strict-invariants") {
            // Every version behind the target table is older.
            let current = t.current.get(&key).filter(|_| to_behind);
            for older in [current, t.retained.get(&key)].into_iter().flatten() {
                check_newest_first(&write, older);
            }
        }
        let (table, ctr) = if to_behind {
            (&mut t.behind, &self.bytes_behind)
        } else {
            (&mut t.current, &self.bytes_current)
        };
        let before = table.approx_bytes();
        table.insert(key, write, op);
        let after = table.approx_bytes();
        // Counter updated while both locks are held, so exclusive pass
        // sections (begin/end pass snapshots) see settled totals.
        Self::adjust(ctr, before, after);
        let resident = self.resident_bytes();
        if resident > self.resident_peak.load(Ordering::Acquire) {
            self.resident_peak.fetch_max(resident, Ordering::AcqRel);
        }
    }

    /// Looks up `key`: its newest resident version — the first hit in
    /// `behind` → `current` → `retained` order — cloned out of the shard
    /// lock.
    pub fn get(&self, key: &[u8]) -> Option<Versioned> {
        let t = self.shards[shard_of(key)].tables.read();
        t.behind
            .get(key)
            .or_else(|| t.current.get(key))
            .or_else(|| t.retained.get(key))
            .cloned()
    }

    /// All resident versions of `key`, newest first (`behind` →
    /// `current` → `retained`), cloned out of the shard lock. A key's
    /// versions all live in one shard, so a single shard read lock
    /// yields a consistent chain; callers pair this with an epoch check
    /// to pin it against a concurrent catalog publish.
    pub fn version_chain(&self, key: &[u8]) -> Vec<Versioned> {
        let t = self.shards[shard_of(key)].tables.read();
        t.behind
            .get(key)
            .into_iter()
            .chain(t.current.get(key))
            .chain(t.retained.get(key))
            .cloned()
            .collect()
    }

    /// Copies every resident entry with `from ≤ key` (`< to` when given):
    /// [`range_rows_bounded`](Self::range_rows_bounded) with no budget.
    pub fn range_rows(&self, from: &[u8], to: Option<&[u8]>) -> Vec<(Bytes, Versioned)> {
        self.range_rows_bounded(from, to, usize::MAX).0
    }

    /// Copies resident entries with `from ≤ key` (`< to` when given) in
    /// key order, with the same all-versions newest-first tie semantics
    /// as [`SnowshovelBuffer::range_from`]: a key present in more than
    /// one table yields every copy, fresher table first. Shards are
    /// visited in index order, which *is* key order under range
    /// sharding, one shard read lock at a time.
    ///
    /// The copy stops at the first *key boundary* at or past `budget`
    /// rows — a key's copies are never split, so the result is always a
    /// whole-key prefix of the unbounded copy — and the flag reports
    /// whether any row of the range was left behind. When it is set, the
    /// last copied key is the caller's *horizon*: every resident version
    /// of every key up to it is in the copy, nothing is known above it.
    ///
    /// [`SnowshovelBuffer::range_from`]: crate::SnowshovelBuffer::range_from
    pub fn range_rows_bounded(
        &self,
        from: &[u8],
        to: Option<&[u8]>,
        budget: usize,
    ) -> (Vec<(Bytes, Versioned)>, bool) {
        // A short scan's budget plus the two extra copies its last key may
        // carry fit without regrowth; anything larger grows as it goes.
        let mut out: Vec<(Bytes, Versioned)> = Vec::with_capacity(budget.saturating_add(2).min(64));
        for shard in &self.shards[shard_of(from)..] {
            let t = shard.tables.read();
            let iter = DualIter {
                a: t.behind.range_from(from).peekable(),
                b: DualIter {
                    a: t.current.range_from(from).peekable(),
                    b: t.retained.range_from(from).peekable(),
                }
                .peekable(),
            };
            for (k, v) in iter {
                if to.is_some_and(|hi| k.as_ref() >= hi) {
                    return (out, false);
                }
                if out.len() >= budget && out.last().is_some_and(|(last, _)| last != k) {
                    return (out, true);
                }
                out.push((k.clone(), v.clone()));
            }
        }
        (out, false)
    }

    /// Begins a merge pass (see [`SnowshovelBuffer::begin_pass`]).
    ///
    /// Panics if a pass is already active or deferred entries remain.
    ///
    /// [`SnowshovelBuffer::begin_pass`]: crate::SnowshovelBuffer::begin_pass
    pub fn begin_pass(&self, snowshovel: bool) {
        let mut pass = self.pass.write();
        assert_eq!(pass.kind, PassKind::Idle, "pass already active");
        assert!(
            self.shards
                .iter()
                .all(|s| s.tables.read().behind.is_empty()),
            "behind tables must be empty between passes"
        );
        debug_assert!(
            self.shards
                .iter()
                .all(|s| s.tables.read().retained.is_empty()),
            "retained tables must be empty between passes"
        );
        pass.kind = if snowshovel {
            PassKind::Snowshovel { last_drained: None }
        } else {
            PassKind::Frozen
        };
        // ordering: Release stores (Acquire read of the quiescent
        // counter) — pairs with the Acquire loads in the lock-free
        // getters; see the field docs.
        self.mode.store(
            if snowshovel {
                MODE_SNOWSHOVEL
            } else {
                MODE_FROZEN
            },
            Ordering::Release,
        );
        // Inserts are excluded (they hold the pass lock shared), so the
        // counter is quiescent here.
        self.pass_start_bytes.store(
            self.bytes_current.load(Ordering::Acquire),
            Ordering::Release,
        );
        self.drained_bytes.store(0, Ordering::Release);
    }

    /// Takes the exclusive drain handle for the active pass. The guard
    /// blocks inserts only while held — the merge thread takes it per
    /// key run ([`DrainGuard::drain_run`]), mirroring the old
    /// per-quantum `c0` write lock but at far finer grain.
    pub fn drain_guard(&self) -> DrainGuard<'_> {
        DrainGuard {
            c0: self,
            pass: self.pass.write(),
        }
    }

    /// True when the active pass has consumed every `current` entry.
    /// Racy against concurrent inserts: a snapshot for tests and
    /// diagnostics, not a commit condition (the pass end re-checks every
    /// shard under the exclusive pass lock).
    pub fn pass_exhausted(&self) -> bool {
        self.pass_mode() != PassMode::Idle
            && self
                .shards
                .iter()
                .all(|s| s.tables.read().current.is_empty())
    }

    /// Publishes part of the active pass's output: runs `commit` (the
    /// catalog store that makes the output up to `last` readable) inside
    /// the epoch-bumped window, and in the same window removes every
    /// retained entry keyed at or below `last`. A reader pinning `C0` +
    /// catalog sees, for each key, either the old catalog and its
    /// retained copy or the new one without it — never both, never
    /// neither — as at the pass end. The pass goes on: entries above
    /// `last` stay retained, and the cursor does not move. Returns the
    /// removed tables, to be dropped outside the window.
    ///
    /// Panics if no pass is active.
    #[must_use = "drop the removed tables outside the critical section"]
    pub fn retire_through_with(&self, last: &[u8], commit: impl FnOnce()) -> Vec<Memtable> {
        let pass = self.pass.write();
        assert_ne!(pass.kind, PassKind::Idle, "no pass active");
        let upto = shard_of(last);
        let mut removed = Vec::with_capacity(upto + 1);
        self.epoch.fetch_add(1, Ordering::Release); // odd: publish begins
        commit();
        // Range sharding: the shards below `last`'s hold only smaller keys.
        for (i, shard) in self.shards[..=upto].iter().enumerate() {
            let mut t = shard.tables.write();
            removed.push(if i < upto {
                t.retained.take()
            } else {
                t.retained.split_through(last)
            });
        }
        self.epoch.fetch_add(1, Ordering::Release); // even: publish done
        let freed = removed.iter().map(Memtable::approx_bytes).sum();
        // ordering: AcqRel — a retained-bytes adjustment under the
        // exclusive pass lock; see the field docs.
        self.bytes_retained.fetch_sub(freed, Ordering::AcqRel);
        drop(pass);
        removed
    }

    /// Ends the active pass — the only pass end. Runs `commit` (the
    /// catalog publish) inside the epoch-bumped atomic section: the epoch
    /// goes odd, the new catalog is stored, every shard's retained table
    /// is dropped and its next `current` installed, then the epoch goes
    /// even. A reader pinning `C0` + catalog across this window observes
    /// an epoch change and retries, so it sees either (old catalog +
    /// retained entries) or (new catalog without them) — never both,
    /// never neither.
    ///
    /// The pass may have undrained `current` entries (the run-length cap
    /// stopped the merge early, or a racing insert landed ahead of the
    /// cursor after the last drain): each is folded into the deferred
    /// table as the older version and the fold becomes the new
    /// `current`. Shards whose `current` is already empty skip the fold
    /// entirely — for them the install is the O(1) `behind` → `current`
    /// move, so a clean pass pays nothing. The fold for dirty shards is
    /// computed before the epoch bump — readers keep pinning meanwhile —
    /// so the odd-epoch window stays O(shards). The displaced tables are
    /// returned for the caller to drop outside any critical section.
    ///
    /// Returns `(displaced, leftover)`; `leftover` is true when the
    /// installed `current` holds any entry (undrained or deferred), i.e.
    /// the pass did not fully empty `C0`.
    ///
    /// Panics if no pass is active.
    #[must_use = "drop the displaced tables outside the critical section"]
    pub fn end_capped_pass_with(
        &self,
        op: &dyn MergeOperator,
        commit: impl FnOnce(),
    ) -> (Vec<Memtable>, bool) {
        let mut pass = self.pass.write();
        assert_ne!(pass.kind, PassKind::Idle, "no pass active");
        // Fold outside the publish window. The exclusive pass lock keeps
        // inserts and drains out, so the snapshot is consistent. `None`
        // marks a clean shard (empty `current`): it must keep its tables
        // in place until the odd-epoch install below, so the fold clones
        // only dirty shards.
        let merged: Vec<Option<Memtable>> = self
            .shards
            .iter()
            .map(|shard| {
                let t = shard.tables.read();
                if t.current.is_empty() {
                    return None;
                }
                let mut m = t.behind.clone();
                for (k, v) in t.current.iter() {
                    m.insert_older(k.clone(), v.clone(), op);
                }
                Some(m)
            })
            .collect();
        self.epoch.fetch_add(1, Ordering::Release); // odd: publish begins
        commit();
        let mut displaced = Vec::with_capacity(3 * C0_SHARDS);
        let mut current_total = 0;
        for (shard, m) in self.shards.iter().zip(merged) {
            let mut t = shard.tables.write();
            match m {
                Some(m) => {
                    current_total += m.approx_bytes();
                    displaced.push(std::mem::replace(&mut t.current, m));
                    displaced.push(t.behind.take());
                }
                None => {
                    t.current = t.behind.take();
                    current_total += t.current.approx_bytes();
                }
            }
            displaced.push(t.retained.take());
        }
        self.finish_pass_counters(&mut pass, current_total);
        self.epoch.fetch_add(1, Ordering::Release); // even: publish done
        drop(pass);
        (displaced, current_total > 0)
    }

    fn finish_pass_counters(&self, pass: &mut PassState, current_total: usize) {
        // ordering: Release — pass-end resets under the exclusive pass
        // lock; pair with the Acquire loads in the lock-free getters.
        self.bytes_current.store(current_total, Ordering::Release);
        self.bytes_behind.store(0, Ordering::Release);
        self.bytes_retained.store(0, Ordering::Release);
        self.drained_bytes.store(0, Ordering::Release);
        self.pass_start_bytes.store(0, Ordering::Release);
        pass.kind = PassKind::Idle;
        self.mode.store(MODE_IDLE, Ordering::Release);
    }
}

/// Exclusive drain handle: holds the pass lock, so the peek → compare →
/// drain window of the merge loop is atomic with respect to inserts
/// (an insert between peek and pop could otherwise slip a smaller key
/// under an equal-key merge decision).
pub struct DrainGuard<'a> {
    c0: &'a ConcurrentC0,
    pass: RwLockWriteGuard<'a, PassState>,
}

impl std::fmt::Debug for DrainGuard<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrainGuard")
            .field("pass", &self.pass.kind)
            .finish()
    }
}

impl DrainGuard<'_> {
    /// The smallest key the pass would drain next, if any. Shards are
    /// scanned in index order; under range sharding the first non-empty
    /// `current` holds the global minimum.
    pub fn peek_drain(&self) -> Option<Bytes> {
        if self.pass.kind == PassKind::Idle {
            return None;
        }
        self.c0
            .shards
            .iter()
            .find_map(|s| s.tables.read().current.first_key().cloned())
    }

    /// Removes and returns the smallest remaining entry of the pass,
    /// advancing the cursor and retaining a copy for concurrent readers.
    ///
    /// Panics if no pass is active.
    pub fn drain_next(&mut self) -> Option<(Bytes, Versioned)> {
        let mut next = None;
        self.drain_run(None, |k, v| {
            next = Some((k.clone(), v.clone()));
            false
        });
        next
    }

    /// Drains a run: the pass's smallest entries, in key order, while
    /// their keys stay below `below` (no bound when `None`). Each entry
    /// goes to `take`, which returns whether the run goes on; the first
    /// entry is always drained. Like [`drain_next`](Self::drain_next)
    /// for each entry — cursor advanced, copy retained for concurrent
    /// readers — but under one hold of the guard and one write lock per
    /// shard visited (§4.4.1: a lock per merged tuple is prohibitively
    /// expensive). Returns the entries drained.
    ///
    /// Panics if no pass is active.
    pub fn drain_run(
        &mut self,
        below: Option<&[u8]>,
        mut take: impl FnMut(&Bytes, &Versioned) -> bool,
    ) -> usize {
        assert_ne!(self.pass.kind, PassKind::Idle, "no pass active");
        let (mut drained, mut more) = (0, true);
        for shard in &self.c0.shards {
            let mut t = shard.tables.write();
            let mut cost = 0;
            while more {
                let Some(k) = t.current.first_key() else {
                    break;
                };
                if below.is_some_and(|b| k.as_ref() >= b) {
                    more = false;
                    break;
                }
                let Some((key, v)) = t.current.pop_first() else {
                    break;
                };
                cost += ENTRY_OVERHEAD + key.len() + v.entry.payload_len();
                more = take(&key, &v);
                if let PassKind::Snowshovel { last_drained } = &mut self.pass.kind {
                    *last_drained = Some(key.clone());
                }
                // Keep a copy visible to concurrent readers until the
                // merge output is published. The cursor is now ≥ `key`, so
                // a re-insert lands in `behind` — each key drains at most
                // once per pass, so the retained table never sees a
                // duplicate.
                t.retained.insert_unmerged(key, v);
                drained += 1;
            }
            if cost > 0 {
                // ordering: AcqRel — watermark/progress adjustments,
                // under the shard lock; see the counter field docs.
                self.c0.bytes_current.fetch_sub(cost, Ordering::AcqRel);
                self.c0.drained_bytes.fetch_add(cost, Ordering::AcqRel);
                self.c0.bytes_retained.fetch_add(cost, Ordering::AcqRel);
            }
            if !more {
                break;
            }
        }
        drained
    }

    /// Advances the drain cursor to at least `key` without draining —
    /// called when the merge emits a `C1`-side key (§4.2: the cursor
    /// tracks the last key written to the *merge output*).
    pub fn advance_cursor(&mut self, key: &Bytes) {
        if let PassKind::Snowshovel { last_drained } = &mut self.pass.kind {
            if last_drained.as_ref().is_none_or(|c| key > c) {
                *last_drained = Some(key.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::types::AppendOperator;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn put(buf: &ConcurrentC0, key: &str, seq: u64) {
        buf.insert(b(key), Versioned::put(seq, b("v")), &AppendOperator);
    }

    fn drain_all(buf: &ConcurrentC0) -> Vec<Bytes> {
        let mut g = buf.drain_guard();
        let mut keys = Vec::new();
        while let Some((k, _)) = g.drain_next() {
            keys.push(k);
        }
        keys
    }

    #[test]
    fn keys_spread_across_shards_drain_in_key_order() {
        let buf = ConcurrentC0::new();
        // First bytes 0x10, 0x80, 0xF0 → shards 1, 8, 15.
        for k in ["\u{10}b", "\u{7f}x", "0a"] {
            put(&buf, k, 1);
        }
        buf.begin_pass(true);
        let drained = drain_all(&buf);
        assert_eq!(drained, vec![b("\u{10}b"), b("0a"), b("\u{7f}x")]);
        drop(buf.end_capped_pass_with(&AppendOperator, || ()));
        assert!(buf.is_empty());
    }

    #[test]
    fn snowshovel_insert_ahead_joins_pass() {
        let buf = ConcurrentC0::new();
        for k in ["b", "d", "f"] {
            put(&buf, k, 1);
        }
        buf.begin_pass(true);
        let (k, _) = buf.drain_guard().drain_next().unwrap();
        assert_eq!(k, b("b"));
        put(&buf, "c", 2); // ahead of cursor: joins this pass
        put(&buf, "a", 3); // behind: deferred
        let drained = drain_all(&buf);
        assert_eq!(drained, vec![b("c"), b("d"), b("f")]);
        drop(buf.end_capped_pass_with(&AppendOperator, || ()));
        assert_eq!(buf.get(b"a").unwrap().seqno, 3);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn insert_equal_to_cursor_is_deferred() {
        let buf = ConcurrentC0::new();
        put(&buf, "m", 1);
        buf.begin_pass(true);
        buf.drain_guard().drain_next().unwrap();
        put(&buf, "m", 2); // re-insert of the drained key: must defer
        assert!(buf.pass_exhausted());
        drop(buf.end_capped_pass_with(&AppendOperator, || ()));
        assert_eq!(buf.get(b"m").unwrap().seqno, 2);
    }

    #[test]
    fn frozen_pass_partitions_c0() {
        let buf = ConcurrentC0::new();
        put(&buf, "a", 1);
        put(&buf, "z", 1);
        buf.begin_pass(false);
        put(&buf, "z", 2);
        assert_eq!(buf.get(b"z").unwrap().seqno, 2);
        let drained = drain_all(&buf);
        assert_eq!(drained, vec![b("a"), b("z")]);
        drop(buf.end_capped_pass_with(&AppendOperator, || ()));
        assert_eq!(buf.get(b"z").unwrap().seqno, 2);
    }

    #[test]
    fn retire_through_drops_only_the_published_retained_entries() {
        let buf = ConcurrentC0::new();
        // First bytes 0x10, 0x33, 0x33, 0x63 → shards 1, 3, 3, 6.
        for k in ["\u{10}a", "3a", "3b", "c"] {
            put(&buf, k, 1);
        }
        buf.begin_pass(true);
        assert_eq!(drain_all(&buf).len(), 4);
        let resident = buf.resident_bytes();
        let before = buf.publish_epoch();
        let mut stored = false;
        let removed = buf.retire_through_with(b"3a", || stored = true);
        assert!(stored);
        assert_eq!(buf.publish_epoch(), before + 2, "publish bumps twice");
        let gone: usize = removed.iter().map(Memtable::approx_bytes).sum();
        assert_eq!(buf.resident_bytes(), resident - gone);
        assert_eq!(buf.retained_bytes(), resident - gone);
        assert!(buf.get(b"\x10a").is_none() && buf.get(b"3a").is_none());
        assert!(buf.get(b"3b").is_some() && buf.get(b"c").is_some());
        // The pass goes on; its end drops the rest.
        assert_ne!(buf.pass_mode(), PassMode::Idle);
        drop(buf.end_capped_pass_with(&AppendOperator, || ()));
        assert_eq!(buf.resident_bytes(), 0);
        assert_eq!(buf.resident_peak_bytes(), resident);
    }

    #[test]
    fn insert_with_makes_the_version_under_the_shard_lock() {
        let buf = ConcurrentC0::new();
        let next = AtomicU64::new(1);
        buf.insert_with(b("k"), &AppendOperator, || {
            Versioned::put(next.fetch_add(1, Ordering::SeqCst), b("v"))
        });
        assert_eq!(buf.get(b"k").unwrap().seqno, 1);
        assert_eq!(buf.resident_peak_bytes(), buf.resident_bytes());
    }

    #[test]
    fn drained_entries_stay_readable_until_publish() {
        let buf = ConcurrentC0::new();
        put(&buf, "a", 1);
        put(&buf, "b", 2);
        buf.begin_pass(true);
        buf.drain_guard().drain_next().unwrap();
        assert_eq!(buf.get(b"a").unwrap().seqno, 1, "retained copy visible");
        assert!(buf.retained_bytes() > 0);
        buf.drain_guard().drain_next().unwrap();
        let before = buf.publish_epoch();
        drop(buf.end_capped_pass_with(&AppendOperator, || ()));
        assert_eq!(buf.publish_epoch(), before + 2, "publish bumps twice");
        assert!(buf.get(b"a").is_none(), "retained copies dropped");
        assert_eq!(buf.retained_bytes(), 0);
    }

    #[test]
    fn version_chain_exposes_delta_over_retained_base() {
        let buf = ConcurrentC0::new();
        buf.insert(b("k"), Versioned::put(1, b("base")), &AppendOperator);
        buf.begin_pass(true);
        buf.drain_guard().drain_next().unwrap();
        buf.insert(b("k"), Versioned::delta(2, b("+d")), &AppendOperator);
        let chain: Vec<u64> = buf.version_chain(b"k").iter().map(|v| v.seqno).collect();
        assert_eq!(chain, vec![2, 1], "fresh delta then retained base");
    }

    #[test]
    fn range_rows_spans_shards_and_keeps_tied_versions() {
        let buf = ConcurrentC0::new();
        buf.insert(b("a"), Versioned::put(1, b("v")), &AppendOperator);
        buf.insert(b("k"), Versioned::put(1, b("base")), &AppendOperator);
        buf.insert(b("z"), Versioned::put(1, b("v")), &AppendOperator);
        buf.begin_pass(true);
        {
            let mut g = buf.drain_guard();
            g.drain_next().unwrap(); // "a" retained
            g.drain_next().unwrap(); // "k" retained
        }
        buf.insert(b("k"), Versioned::delta(2, b("+d")), &AppendOperator);
        let rows: Vec<(Bytes, u64)> = buf
            .range_rows(b"", None)
            .into_iter()
            .map(|(k, v)| (k, v.seqno))
            .collect();
        assert_eq!(
            rows,
            vec![(b("a"), 1), (b("k"), 2), (b("k"), 1), (b("z"), 1)],
            "all versions, newest first on ties"
        );
        let bounded = buf.range_rows(b"k", Some(b"z"));
        assert_eq!(bounded.len(), 2, "delta + shadowed base, `z` excluded");
    }

    #[test]
    fn capped_pass_folds_remainder() {
        let buf = ConcurrentC0::new();
        buf.insert(b("a"), Versioned::put(1, b("a1")), &AppendOperator);
        buf.insert(b("k"), Versioned::put(2, b("base")), &AppendOperator);
        buf.begin_pass(true);
        buf.drain_guard().drain_next().unwrap(); // "a" → retained
        buf.insert(b("k"), Versioned::delta(3, b("+d")), &AppendOperator);
        // Cap fires with "k" undrained: fold + install + publish.
        let (displaced, leftover) = buf.end_capped_pass_with(&AppendOperator, || ());
        drop(displaced);
        assert!(leftover, "undrained entry must be reported as leftover");
        assert_eq!(buf.pass_mode(), PassMode::Idle);
        let v = buf.get(b"k").unwrap();
        assert_eq!(v.seqno, 3);
        assert_eq!(v.entry, crate::types::Entry::Put(b("base+d")));
        assert!(buf.get(b"a").is_none());
        assert_eq!(buf.retained_bytes(), 0);
        assert_eq!(buf.drained_bytes(), 0);
    }

    #[test]
    fn drain_run_stops_below_its_bound_and_when_told() {
        let buf = ConcurrentC0::new();
        // First bytes 0x10, 0x33, 0x63 → shards 1, 3, 6.
        for k in ["\u{10}a", "\u{10}b", "3a", "3b", "c"] {
            put(&buf, k, 1);
        }
        let total = buf.approx_bytes();
        buf.begin_pass(true);
        let mut g = buf.drain_guard();
        // Bounded by a key: the run crosses shards and stops below it.
        let mut run = Vec::new();
        let n = g.drain_run(Some(b"3b"), |k, _| {
            run.push(k.clone());
            true
        });
        assert_eq!(n, 3);
        assert_eq!(run, vec![b("\u{10}a"), b("\u{10}b"), b("3a")]);
        // Told to stop: the first entry is drained all the same.
        assert_eq!(g.drain_run(None, |_, _| false), 1);
        drop(g);
        let cursor = Some(b("3b"));
        assert_eq!(
            buf.pass_kind(),
            PassKind::Snowshovel {
                last_drained: cursor
            }
        );
        // Accounting and retained copies as with per-entry draining.
        assert!(buf.get(b"3a").is_some());
        assert_eq!(buf.drained_bytes() + buf.current_bytes(), total);
        assert_eq!(buf.retained_bytes(), buf.drained_bytes());
        assert_eq!(drain_all(&buf), vec![b("c")]);
    }

    #[test]
    fn drain_progress_accounting() {
        let buf = ConcurrentC0::new();
        put(&buf, "a", 1);
        put(&buf, "b", 1);
        let total = buf.approx_bytes();
        buf.begin_pass(true);
        assert_eq!(buf.pass_start_bytes(), total);
        buf.drain_guard().drain_next().unwrap();
        assert!(buf.drained_bytes() > 0 && buf.drained_bytes() < total);
        buf.drain_guard().drain_next().unwrap();
        assert_eq!(buf.drained_bytes(), total);
        drop(buf.end_capped_pass_with(&AppendOperator, || ()));
    }

    #[test]
    fn parallel_inserts_from_many_threads_all_land() {
        let buf = std::sync::Arc::new(ConcurrentC0::new());
        let threads: Vec<_> = (0..4u8)
            .map(|t| {
                let buf = std::sync::Arc::clone(&buf);
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let key = Bytes::from(vec![t * 0x40, (i >> 8) as u8, i as u8]);
                        buf.insert(
                            key,
                            Versioned::put(u64::from(i) + 1, b("v")),
                            &AppendOperator,
                        );
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(buf.len(), 800);
        buf.begin_pass(true);
        let drained = drain_all(&buf);
        assert_eq!(drained.len(), 800);
        assert!(drained.windows(2).all(|w| w[0] < w[1]), "key-order drain");
        drop(buf.end_capped_pass_with(&AppendOperator, || ()));
    }

    // Position is freshness: a version that enters a table in front of a
    // newer one of its key is a bug upstream, and the checked build says
    // so at the insert. First shape: the newer version was drained to
    // `retained` and the older one routes to `behind`.
    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "freshness inverted")]
    fn an_older_version_behind_a_drained_newer_one_panics() {
        let buf = ConcurrentC0::new();
        put(&buf, "k", 6);
        buf.begin_pass(true);
        buf.drain_guard().drain_next().unwrap(); // k@6 to retained
        put(&buf, "k", 5); // → behind, in front of k@6
    }

    // Second shape, a capped pass: the cursor passed "k" through a
    // C1-side emission while k@6 stayed undrained in `current`.
    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "freshness inverted")]
    fn an_older_version_behind_an_undrained_newer_one_panics() {
        let buf = ConcurrentC0::new();
        put(&buf, "k", 6);
        buf.begin_pass(true);
        buf.drain_guard().advance_cursor(&b("k"));
        put(&buf, "k", 5); // → behind, in front of k@6
    }

    #[test]
    #[should_panic(expected = "pass already active")]
    fn double_begin_pass_panics() {
        let buf = ConcurrentC0::new();
        buf.begin_pass(true);
        buf.begin_pass(true);
    }
}
