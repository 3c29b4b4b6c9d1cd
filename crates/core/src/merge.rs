//! The two merge state machines, one driver each.
//!
//! As with the paper's one thread per merge (§4.4.1), `C0:C1` runs with
//! the tree's `merge01` lock held ([`Driver01`]) and `C1':C2` with
//! `merge12`; the thin wrappers on [`BLsmTree`] (`maintenance`,
//! `checkpoint`, the pacing in `pace`) take them, so the two merges run
//! side by side. Both allocate their output from, and install it
//! through, the shared [`MergeState`] under the `merge` lock: catalog
//! swaps, manifest saves and reaps happen there one at a time, and never
//! during merge work. Merges build their output `Sstable` off to the side;
//! nothing becomes visible to readers until a new [`ComponentCatalog`] is
//! published, and the `C0:C1` commit point runs inside
//! [`ConcurrentC0::end_capped_pass_with`]'s epoch-bumped window so the
//! catalog swap and the retirement of drained `C0` entries are one atomic
//! step for the seqlock readers (see `catalog.rs` for the protocol).
//! A `C0:C1` pass also publishes as it goes: each time its builder's
//! flushed prefix grows by a chunk, a catalog whose `C1` is split at the
//! prefix's last key goes out in [`ConcurrentC0::retire_through_with`]'s
//! window, and the drained entries it covers leave `C0` with it. Only the
//! pass end counts as a completed merge, saves a manifest or truncates
//! the log.
//!
//! Draining `C0` uses the buffer's [`DrainGuard`] — an exclusive pass
//! lock held per key run (at most [`RUN_ENTRIES`] entries) and released
//! before any builder append or sstable iteration, so concurrent writers
//! wait for at most one run's in-memory work, never for merge I/O.
//!
//! Retired components are reclaimed *deferred*: a reader that pinned an
//! older catalog may still stream from the old table, so its pages are
//! evicted and its region freed only once the retired list holds the
//! last `Arc` (strong count of one — at that point no new references can
//! be minted, so the check is stable).
//!
//! [`ConcurrentC0::end_capped_pass_with`]: blsm_memtable::ConcurrentC0::end_capped_pass_with
//! [`ConcurrentC0::retire_through_with`]: blsm_memtable::ConcurrentC0::retire_through_with
//! [`DrainGuard`]: blsm_memtable::DrainGuard

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use blsm_memtable::{merge_versions, PassMode, Versioned, ENTRY_OVERHEAD};
use blsm_sstable::{EntryRef, EntryStream, MergeIter, ReadMode, Sstable, SstableBuilder};
use blsm_storage::{Lsn, PageId, Region, Result, Wal};

use crate::catalog::ComponentCatalog;
use crate::sched::MergeScheduler;
use crate::stats;
use crate::tree::{invariant_err, BLsmTree, Driver01, MergeState};

/// A `C0:C1` pass stops draining `C0` once the output rows it drained
/// from `C0` reach this multiple of `C0` at pass start, bounding run
/// length under sorted insert storms (snowshoveling would otherwise never
/// finish a pass). The old `C1` is copied once; only the `C0` share runs
/// long, so the output is at most the old `C1` plus this many `C0`s. A
/// pass over append traffic (every `C0` row above the old `C1`) may drain
/// this many `C0 + C1`s less one `C1` instead: see
/// `start_merge01_locked`.
const RUN_LENGTH_CAP: f64 = 4.0;

/// Longest key run one drain-guard hold covers, and the `C1` look-ahead:
/// bounds how long a writer's insert can wait on the pass lock.
pub(crate) const RUN_ENTRIES: usize = 64;

/// Wraps an owned sstable iterator, counting consumed input bytes so the
/// merge's `inprogress` estimator stays smooth (§4.1).
pub(crate) struct CountingStream {
    inner: blsm_sstable::SstIterator,
    // ordering: Relaxed — progress estimate for the pacing scheduler;
    // readers tolerate stale values (same-thread merges see their own
    // writes, the scheduler only smooths `inprogress`).
    counter: Arc<AtomicU64>,
}

impl Iterator for CountingStream {
    type Item = Result<EntryRef>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next();
        if let Some(Ok(e)) = &item {
            self.counter.fetch_add(entry_cost(e), Ordering::Relaxed);
        }
        item
    }
}

/// State of a running `C0:C1` merge.
pub(crate) struct Merge01 {
    pub(crate) builder: SstableBuilder,
    /// Region as allocated (the unused tail is freed at completion).
    pub(crate) full_region: Region,
    /// Old `C1` input (None when there was no `C1`).
    pub(crate) c1: Option<C1Input>,
    /// `|C0'| + |C1|` at pass start.
    pub(crate) input_total: u64,
    /// `|C0'|` at pass start (spring-and-gear rate denominator).
    pub(crate) c0_input: u64,
    /// Output becomes the largest component (affects tombstone handling).
    pub(crate) bottom: bool,
    /// Log position sampled (under the log mutex) just before the pass
    /// began — the truncation point on clean completion. Every record
    /// below it had completed its `C0` insert before the pass started,
    /// because append+insert share the log mutex (see `TreeShared::wal`).
    pub(crate) pass_start_lsn: Lsn,
    /// Stop draining `C0` once `c0_out_bytes` reaches this.
    pub(crate) run_cap_bytes: u64,
    /// Data bytes of the output rows that drained a `C0` row: the share
    /// of the output the run-length cap bounds.
    pub(crate) c0_out_bytes: u64,
    /// Set when the run cap fired; `C0` entries stay for the next pass.
    pub(crate) c0_capped: bool,
    /// Pages of the output's flushed prefix readers were last given (0:
    /// none yet). They stay allocated if the pass fails: the catalog
    /// still reads them until a reopen.
    pub(crate) published_pages: u64,
    /// `C0` rows the pass drained and resolved to nothing (bottom-level
    /// tombstones). Their retained copies leave only when the frontier
    /// passes them: they are what `retained` may hold beyond the rows of
    /// the output not yet on disk.
    pub(crate) dropped_c0_rows: u64,
}

/// State of a running `C1':C2` merge.
pub(crate) struct Merge12 {
    pub(crate) builder: SstableBuilder,
    pub(crate) full_region: Region,
    pub(crate) iter: MergeIter<'static>,
    // ordering: Relaxed — pacing progress counter (see CountingStream).
    pub(crate) consumed: Arc<AtomicU64>,
    pub(crate) input_total: u64,
}

/// The old `C1` as a `C0:C1` pass reads it: a stream with a look-ahead
/// of up to [`RUN_ENTRIES`] entries, so a run of `C1` keys below the next
/// `C0` key costs one drain-guard hold and one cursor advance. An entry's
/// bytes count as consumed from the moment it is peeked as the head —
/// as with a plain peeked stream — however early it was read ahead.
pub(crate) struct C1Input {
    iter: blsm_sstable::SstIterator,
    /// Entries read but not yet merged, head first. Nothing is read past
    /// an error, which surfaces once it reaches the head.
    ahead: VecDeque<Result<EntryRef>>,
    head_counted: bool,
    /// `C1` bytes consumed so far (`inprogress`, §4.1).
    pub(crate) consumed: u64,
}

fn entry_cost(e: &EntryRef) -> u64 {
    (e.key.len() + e.version.entry.payload_len()) as u64
}

impl C1Input {
    fn new(table: &Arc<Sstable>) -> C1Input {
        C1Input {
            iter: table.iter(ReadMode::Buffered(64)),
            ahead: VecDeque::new(),
            head_counted: false,
            consumed: 0,
        }
    }

    /// The next `C1` key, if any; a read error surfaces here.
    fn peek(&mut self) -> Result<Option<Bytes>> {
        if self.ahead.is_empty() {
            self.ahead.extend(self.iter.next());
        }
        if let Some(Err(_)) = self.ahead.front() {
            return self.pop().map(|_| None);
        }
        let Some(Ok(head)) = self.ahead.front() else {
            return Ok(None);
        };
        if !self.head_counted {
            self.consumed += entry_cost(head);
            self.head_counted = true;
        }
        Ok(Some(head.key.clone()))
    }

    /// Reads ahead (I/O: never under the drain guard) exactly what the
    /// merge would peek next were every entry a `C1` step: while the
    /// last entry read sorts below `c0_next` and the budget left after
    /// `spent` (head included) lasts. `c0_next` is unknown (`None`) until
    /// the first guard of a quantum; `Some(None)` means no `C0` key.
    fn read_ahead(&mut self, c0_next: Option<&Option<Bytes>>, spent: u64, budget: u64) {
        let Some(c0_next) = c0_next else {
            return;
        };
        let ahead = self.ahead.iter().skip(1).flatten().map(entry_cost);
        let mut spent = spent + ahead.sum::<u64>();
        while self.ahead.len() < RUN_ENTRIES && spent < budget {
            match self.ahead.back() {
                Some(Ok(last)) if c0_next.as_ref().is_none_or(|k0| last.key < *k0) => {}
                _ => return,
            }
            let Some(next) = self.iter.next() else {
                return;
            };
            spent += next.as_ref().map_or(0, entry_cost);
            self.ahead.push_back(next);
        }
    }

    /// The run of read-ahead entries from the head that sort below
    /// `c0_key` and fit the budget left after `spent` (the head always
    /// does): its length and last key.
    fn run(&self, c0_key: Option<&Bytes>, mut spent: u64, budget: u64) -> Option<(usize, Bytes)> {
        let mut entries = self.ahead.iter().map_while(|e| e.as_ref().ok());
        let mut last = entries.next()?.key.clone();
        let mut len = 1;
        for e in entries {
            if spent >= budget || c0_key.is_some_and(|k0| e.key >= *k0) {
                break;
            }
            spent += entry_cost(e);
            last = e.key.clone();
            len += 1;
        }
        Some((len, last))
    }

    /// Takes the head entry.
    fn pop(&mut self) -> Result<EntryRef> {
        let head = self
            .ahead
            .pop_front()
            .ok_or_else(|| invariant_err("C1 entry vanished after peek"))??;
        if !self.head_counted {
            self.consumed += entry_cost(&head);
        }
        self.head_counted = false;
        Ok(head)
    }
}

/// Takes the head entry of a pass's `C1` input.
fn pop_c1(c1: &mut Option<C1Input>) -> Result<EntryRef> {
    c1.as_mut()
        .ok_or_else(|| invariant_err("C1 entry vanished after peek"))?
        .pop()
}

/// One step of the `C0`/`C1` two-way merge, decided under the drain
/// guard and finished (builder appends, `C1` pulls) after it drops.
enum Step {
    /// Both inputs exhausted — finish the pass.
    Finish,
    /// Both inputs hold the same key; `C1`'s version still needs pulling.
    Both(Bytes, Versioned),
    /// A run of `C0` keys below the next `C1` key, drained and resolved.
    C0(Vec<(Bytes, Option<Versioned>)>),
    /// A run of this many `C1` entries below the next `C0` key; the drain
    /// cursor has been advanced past the last.
    C1(usize),
}

impl BLsmTree {
    pub(crate) fn start_merge01_locked(&self, pass: &mut Option<Merge01>) -> Result<()> {
        assert!(pass.is_none());
        // A pass whose merge returned an error (any step, or sealing its
        // output) dropped its merge state but left `C0`'s pass open.
        // Nothing is lost — the drained rows stay readable behind the
        // cursor and stay in the log — but this handle cannot start
        // another pass; reopening replays the log.
        if self.shared.c0.pass_mode() != PassMode::Idle {
            return Err(invariant_err(
                "an earlier C0:C1 pass failed; reopen the tree",
            ));
        }
        // Sample the log tail *before* the pass begins: append+insert is
        // atomic under the log mutex, so every record below this LSN is
        // already in C0 and will be either drained by the pass (safe to
        // truncate) or reported as leftover (truncation suppressed).
        // Records appended later sit at or above it and survive
        // truncation by construction.
        let pass_start_lsn = self.shared.wal.lock().as_ref().map_or(0, Wal::tail_lsn);
        self.shared.c0.begin_pass(self.shared.config.snowshovel);
        let c0_input = self.shared.c0.pass_start_bytes() as u64;
        let c0_len = self.shared.c0.len() as u64;
        let catalog = self.shared.catalog.load();
        debug_assert!(
            catalog.c1_prefix.is_none(),
            "a pass prefix outlived its pass"
        );
        let c1_data = catalog.c1.as_ref().map_or(0, |c| c.data_bytes());
        let c1_entries = catalog.c1.as_ref().map_or(0, |c| c.entry_count());
        let est_bytes = c0_input + c1_data;
        // Append traffic, every `C0` row above the old `C1`, copies `C1`
        // first and then streams `C0` to disk (§4.2). Capped at
        // `RUN_LENGTH_CAP` `C0`s, each such pass would rewrite `C1` for
        // four `C0`s of new rows; it runs on until the whole output is
        // `RUN_LENGTH_CAP × (C0 + C1)`, so `C1` is rewritten about once
        // per four times its size.
        let appending = catalog.c1.as_ref().is_some_and(|c1| {
            let first = self.shared.c0.drain_guard().peek_drain();
            first.is_some_and(|k| k > c1.meta().max_key)
        });
        let c1_share = if appending { RUN_LENGTH_CAP - 1.0 } else { 0.0 };
        let cap_bytes = RUN_LENGTH_CAP * c0_input as f64 + c1_share * c1_data as f64;
        let cap_entries = RUN_LENGTH_CAP * c0_len as f64 + c1_share * c1_entries as f64;
        // One output bound sizes the region and the filter: the old `C1`
        // once, and `C0`'s share up to the run-length cap with half a
        // `C0` of slack (the filter folds to the real count at finish).
        let bound_bytes = c1_data + (cap_bytes + 0.5 * c0_input as f64) as u64;
        let bound_entries = c1_entries + (cap_entries + 0.5 * c0_len as f64) as u64 + 16;
        let pages = Self::merge_region_pages(bound_bytes, bound_entries, 1.0);
        let region = self.merge.lock().allocator.alloc(pages);
        let builder = SstableBuilder::new(self.shared.pool.clone(), region, bound_entries);
        let c1 = catalog.c1.as_ref().map(C1Input::new);
        let bottom = catalog.c2.is_none() && catalog.c1_prime.is_none();
        *pass = Some(Merge01 {
            builder,
            full_region: region,
            c1,
            input_total: est_bytes.max(1),
            c0_input: c0_input.max(1),
            bottom,
            pass_start_lsn,
            run_cap_bytes: cap_bytes as u64 + 4096,
            c0_out_bytes: 0,
            c0_capped: false,
            published_pages: 0,
            dropped_c0_rows: 0,
        });
        Ok(())
    }

    /// Consumes up to `budget` input bytes of `C0:C1` merge work.
    ///
    /// The merge is taken out of `ms` for the step and put back only on
    /// `Ok`: one that returned an error no longer exists, so nothing can
    /// poll its iterators (which latch the error, then report
    /// "exhausted") or its builder again and publish what it built.
    /// `C0`'s pass stays open, which wedges this handle on
    /// `start_merge01_locked`'s typed error; the log is untouched, so a
    /// reopen replays every drained row.
    pub(crate) fn run_merge01_locked(&self, d: &mut Driver01, budget: u64) -> Result<()> {
        let Some(mut m) = d.pass.take() else {
            return Ok(());
        };
        match self.step_merge01(&mut m, budget) {
            Ok(false) => {
                d.pass = Some(m);
                Ok(())
            }
            Ok(true) => self.finish_merge01_locked(&*d.scheduler, m),
            Err(e) => {
                let unread = Self::unpublished(m.full_region, m.published_pages);
                self.merge.lock().allocator.free(unread);
                Err(e)
            }
        }
    }

    /// The part of a pass's region past what its published prefixes
    /// cover: what a failed pass gives back (`pages` may be 0).
    fn unpublished(full_region: Region, published: u64) -> Region {
        Region {
            start: PageId(full_region.start.0 + published),
            pages: full_region.pages - published,
        }
    }

    /// Publishes the output's flushed prefix: a catalog whose `C1` is
    /// split at the prefix's last key goes out inside `C0`'s publish
    /// window, which also drops the retained copies at or below that key
    /// (see `catalog.rs`). Under `merge`, like every catalog swap, so a
    /// `C1':C2` install cannot lose the split. Not a completed merge: no
    /// manifest, no truncation, no `merges01`.
    fn publish_prefix(&self, m: &mut Merge01) {
        let Some(prefix) = m.builder.flushed_prefix() else {
            return;
        };
        stats::bump(
            &self.shared.stats.prefix_copy_bytes,
            m.builder.take_prefix_copy_bytes(),
        );
        m.published_pages = prefix.region().pages;
        let frontier = prefix.meta().max_key.clone();
        let prefix = Some(Arc::new(prefix));
        let ms = self.merge.lock();
        let old = self.shared.catalog.load();
        let next = Arc::new(ComponentCatalog::new(
            old.c1.clone(),
            prefix,
            old.c1_prime.clone(),
            old.c2.clone(),
        ));
        drop(old);
        let removed = self
            .shared
            .c0
            .retire_through_with(&frontier, || self.shared.catalog.store(next));
        drop(ms);
        drop(removed);
        stats::bump(&self.shared.stats.prefix_publishes, 1);
    }

    /// Merges until `budget` input bytes are consumed (`Ok(false)`) or
    /// both inputs are exhausted (`Ok(true)`).
    ///
    /// The merge moves in key runs (§4.4.1): one hold of the buffer's
    /// exclusive drain guard drains a run of `C0` keys below the next
    /// `C1` key, or advances the cursor past a run of `C1` keys below the
    /// next `C0` key. A run stops at [`RUN_ENTRIES`] and exactly where the
    /// one-entry-per-step merge would have: at the byte budget and the
    /// output's run-length cap, both checked before each entry. Builder
    /// appends and `C1` reads run after the guard drops — writers only
    /// ever wait for one run's in-memory work, never for merge I/O.
    fn step_merge01(&self, m: &mut Merge01, budget: u64) -> Result<bool> {
        let op = self.shared.op.clone();
        let start_consumed = self.merge01_consumed(m);
        let high_water = (crate::HIGH_WATER * self.shared.config.mem_budget as f64) as usize;
        // The next `C0` key as the last guard saw it, `None` before the
        // quantum's first guard (inserts may have landed since the last
        // quantum): bounds the `C1` read-ahead.
        let mut c0_next: Option<Option<Bytes>> = None;
        loop {
            if self.merge01_consumed(m) - start_consumed >= budget {
                return Ok(false);
            }
            // Run-length cap (§4.2: sorted input would otherwise extend the
            // pass forever).
            if !m.c0_capped && m.c0_out_bytes >= m.run_cap_bytes {
                m.c0_capped = true;
            }
            // Peek and read `C1` ahead outside the drain guard: sstable
            // iteration may do I/O and must never run under the buffer's
            // pass lock.
            let c1_key = match &mut m.c1 {
                Some(c1) => c1.peek()?,
                None => None,
            };
            let spent = self.merge01_consumed(m) - start_consumed;
            if let Some(c1) = &mut m.c1 {
                c1.read_ahead(c0_next.as_ref(), spent, budget);
            }
            let step = {
                let mut g = self.shared.c0.drain_guard();
                let c0_key = if m.c0_capped { None } else { g.peek_drain() };
                let step = match (&c0_key, &c1_key) {
                    (None, None) => Step::Finish,
                    (Some(k0), Some(k1)) if k0 == k1 => {
                        let (k, v0) = g
                            .drain_next()
                            .ok_or_else(|| invariant_err("C0 entry vanished after peek"))?;
                        Step::Both(k, v0)
                    }
                    (Some(k0), c1k) if c1k.as_ref().is_none_or(|k1| k0 < k1) => {
                        let (mut spent, mut out_bytes) = (spent, m.c0_out_bytes);
                        let mut run = Vec::new();
                        g.drain_run(c1k.as_deref(), |k, v| {
                            spent += (ENTRY_OVERHEAD + k.len() + v.entry.payload_len()) as u64;
                            let out =
                                merge_versions(op.as_ref(), std::slice::from_ref(v), m.bottom);
                            match &out {
                                Some(o) => out_bytes += (k.len() + o.entry.payload_len()) as u64,
                                None => m.dropped_c0_rows += 1,
                            }
                            run.push((k.clone(), out));
                            run.len() < RUN_ENTRIES && spent < budget && out_bytes < m.run_cap_bytes
                        });
                        Step::C0(run)
                    }
                    (_, Some(_)) => {
                        let (len, last) =
                            m.c1.as_ref()
                                .and_then(|c1| c1.run(c0_key.as_ref(), spent, budget))
                                .ok_or_else(|| invariant_err("C1 entry vanished after peek"))?;
                        // The merge output cursor moves past the run
                        // *before* `C1`'s entries are pulled: a racing
                        // insert at or below it must defer to the next
                        // pass (§4.2).
                        g.advance_cursor(&last);
                        Step::C1(len)
                    }
                    (Some(_), None) => unreachable!("guarded above"),
                };
                c0_next = Some(match step {
                    Step::C1(_) => c0_key,
                    _ if m.c0_capped => None,
                    _ => g.peek_drain(),
                });
                step
            };
            if matches!(step, Step::Both(..) | Step::C0(_))
                && self.shared.c0.approx_bytes() <= high_water
            {
                // Writers parked at the hard cap wait for exactly this.
                self.shared.bell_cap.ring();
            }
            // Appends an output row; returns its data bytes.
            let mut add = |key: Bytes, v: Option<Versioned>| -> Result<u64> {
                let Some(v) = v else { return Ok(0) };
                let bytes = (key.len() + v.entry.payload_len()) as u64;
                stats::bump(&self.shared.stats.merge_bytes_consumed, bytes);
                m.builder.add(&key, &v)?;
                Ok(bytes)
            };
            match step {
                Step::Finish => return Ok(true),
                Step::Both(k, v0) => {
                    let e1 = pop_c1(&mut m.c1)?;
                    let v = merge_versions(op.as_ref(), &[v0, e1.version], m.bottom);
                    if v.is_none() {
                        m.dropped_c0_rows += 1;
                    }
                    m.c0_out_bytes += add(k, v)?;
                }
                Step::C0(run) => {
                    for (k, v) in run {
                        m.c0_out_bytes += add(k, v)?;
                    }
                }
                Step::C1(len) => {
                    for _ in 0..len {
                        let e1 = pop_c1(&mut m.c1)?;
                        let v = merge_versions(op.as_ref(), &[e1.version], m.bottom);
                        add(e1.key, v)?;
                    }
                }
            }
            if m.builder.flushed_pages() > m.published_pages {
                self.publish_prefix(m);
            }
        }
    }

    /// Input bytes a running `C0:C1` merge has consumed: drained `C0`
    /// bytes plus `C1` bytes pulled.
    pub(crate) fn merge01_consumed(&self, m: &Merge01) -> u64 {
        self.shared.c0.drained_bytes() as u64 + m.c1.as_ref().map_or(0, |c1| c1.consumed)
    }

    /// Seals a merge's output off to the side and returns the unused tail
    /// of its over-allocated region to the allocator — or, when sealing
    /// fails, the region past the first `published` pages: nothing else
    /// in it is referenced. `None` is an empty output.
    fn seal_output(
        &self,
        builder: SstableBuilder,
        full_region: Region,
        published: u64,
        [reserved, written]: [&AtomicU64; 2],
    ) -> Result<Option<Arc<Sstable>>> {
        let sealed = builder.finish();
        let mut ms = self.merge.lock();
        let table = match sealed {
            Ok(table) => Arc::new(table),
            Err(e) => {
                ms.allocator.free(Self::unpublished(full_region, published));
                return Err(e);
            }
        };
        let used = table.region().pages;
        stats::bump(reserved, full_region.pages);
        stats::bump(written, used);
        if used < full_region.pages {
            ms.allocator.free(Region {
                start: PageId(full_region.start.0 + used),
                pages: full_region.pages - used,
            });
        }
        Ok((table.entry_count() > 0).then_some(table))
    }

    fn finish_merge01_locked(&self, scheduler: &dyn MergeScheduler, m: Merge01) -> Result<()> {
        let Merge01 {
            builder,
            full_region,
            c1,
            pass_start_lsn,
            published_pages,
            ..
        } = m;
        // Beyond the published prefix, nothing is visible to readers
        // until the catalog swap below.
        let st = &self.shared.stats;
        let pages = [&st.reserved_pages01, &st.written_pages01];
        let new_c1 = self.seal_output(builder, full_region, published_pages, pages)?;
        // Release the old-C1 iterator's table handle before reclamation.
        drop(c1);

        let mut ms = self.merge.lock();
        let had_leftover = {
            let old = self.shared.catalog.load();
            let next = Arc::new(ComponentCatalog::new(
                new_c1,
                None,
                old.c1_prime.clone(),
                old.c2.clone(),
            ));
            let old_c1 = old.c1.clone();
            drop(old);
            // Commit point (see catalog.rs): publish the new catalog and
            // retire the pass's drained C0 copies inside the buffer's
            // epoch-bumped window. The pass end folds undrained entries
            // back even when the merge loop saw both inputs exhausted: a
            // racing insert ahead of the cursor can land in `current`
            // between that observation and the pass lock here, and must
            // reach the next table rather than be dropped. Clean shards
            // cost O(1), so a quiescent pass pays nothing for it.
            let (displaced, leftover) =
                self.shared
                    .c0
                    .end_capped_pass_with(self.shared.op.as_ref(), || {
                        self.shared.catalog.store(next);
                    });
            // Free the displaced C0 tables outside the critical section.
            drop(displaced);
            if let Some(old_c1) = old_c1 {
                Self::retire(&mut ms, old_c1);
            }
            leftover
        };
        stats::bump(&self.shared.stats.merges01, 1);

        // Log truncation: everything the pass consumed is durable, and
        // every record below pass_start_lsn was in C0 when the pass began
        // (append+insert atomicity — see start_merge01_locked), so a
        // clean pass covers them all. With a leftover (capped pass, or a
        // racing insert folded above) pre-pass records may still be live,
        // so truncation waits for the next clean pass (§4.4.2:
        // "snowshoveling delays log truncation").
        let wal_head = (!had_leftover).then_some(pass_start_lsn);

        self.recompute_r();
        // Trigger the downstream merge when C1 reaches R fills (§2.3.1).
        // A `C1':C2` merge in flight always has its input in the catalog,
        // so no `C1'` there means none is running.
        let c1_target = (self.current_r() * self.shared.config.mem_budget as f64) as u64;
        let rotate = {
            let cat = self.shared.catalog.load();
            let rotate = cat.c1_prime.is_none()
                && cat.c1.as_ref().is_some_and(|c| c.data_bytes() >= c1_target);
            if rotate {
                // C1 → C1' rotation: the same table is reachable before
                // and after the swap, so readers never see a gap.
                self.shared.catalog.store(Arc::new(ComponentCatalog::new(
                    None,
                    None,
                    cat.c1.clone(),
                    cat.c2.clone(),
                )));
            }
            rotate
        };
        self.save_manifest(&mut ms, wal_head)?;
        drop(ms);
        if rotate {
            // Hand C1' to its driver. The naive scheduler waits out the
            // whole merge (§3.2's unbounded pause); the others start it
            // if the driver is free, and ring its thread either way.
            if scheduler.blocking_merge12() {
                self.drain_merge12()?;
            } else if let Some(mut m12) = self.merge12.try_lock() {
                self.restart_merge12_locked(&mut m12)?;
            }
            self.shared.attach.ring_lane(crate::plane::Lane::C1C2);
        }
        self.reap_retired_locked(&mut self.merge.lock());
        Ok(())
    }

    pub(crate) fn start_merge12_locked(&self, m12: &mut Option<Merge12>) -> Result<()> {
        assert!(m12.is_none());
        let catalog = self.shared.catalog.load();
        let c1p = catalog
            .c1_prime
            .clone()
            .ok_or_else(|| invariant_err("start_merge12 without C1'"))?;
        let c2 = catalog.c2.clone();
        let input_total = c1p.data_bytes() + c2.as_ref().map_or(0, |c| c.data_bytes());
        let est_entries = c1p.entry_count() + c2.as_ref().map_or(0, |c| c.entry_count()) + 16;
        let pages = Self::merge_region_pages(input_total, est_entries, 1.2);
        let region = self.merge.lock().allocator.alloc(pages);
        let builder = SstableBuilder::new(self.shared.pool.clone(), region, est_entries);
        let consumed = Arc::new(AtomicU64::new(0));
        let mut streams: Vec<EntryStream<'static>> = Vec::with_capacity(2);
        streams.push(Box::new(CountingStream {
            inner: c1p.iter(ReadMode::Buffered(64)),
            counter: consumed.clone(),
        }));
        if let Some(c2) = &c2 {
            streams.push(Box::new(CountingStream {
                inner: c2.iter(ReadMode::Buffered(64)),
                counter: consumed.clone(),
            }));
        }
        let iter = MergeIter::new(streams, self.shared.op.clone(), true);
        *m12 = Some(Merge12 {
            builder,
            full_region: region,
            iter,
            consumed,
            input_total: input_total.max(1),
        });
        Ok(())
    }

    /// Consumes up to `budget` input bytes of `C1':C2` merge work. A
    /// merge that returned an error is dropped here too; its inputs are
    /// immutable components still in the catalog, so
    /// `restart_merge12_locked` starts it over.
    pub(crate) fn run_merge12_locked(&self, m12: &mut Option<Merge12>, budget: u64) -> Result<()> {
        let Some(mut m) = m12.take() else {
            return Ok(());
        };
        let start = m.consumed.load(Ordering::Relaxed);
        // `Ok(false)`: budget consumed; `Ok(true)`: inputs exhausted.
        let step = loop {
            if m.consumed.load(Ordering::Relaxed) - start >= budget {
                break Ok(false);
            }
            let e = match m.iter.next() {
                Some(Ok(e)) => e,
                Some(Err(e)) => break Err(e),
                None => break Ok(true),
            };
            stats::bump(
                &self.shared.stats.merge_bytes_consumed,
                (e.key.len() + e.version.entry.payload_len()) as u64,
            );
            if let Err(e) = m.builder.add(&e.key, &e.version) {
                break Err(e);
            }
        };
        match step {
            Ok(false) => {
                *m12 = Some(m);
                Ok(())
            }
            Ok(true) => self.finish_merge12_locked(m),
            Err(e) => {
                self.merge.lock().allocator.free(m.full_region);
                Err(e)
            }
        }
    }

    /// Starts the `C1':C2` merge whenever a `C1'` is installed and no
    /// merge is consuming it: after a pass rotates `C1`, after a crash
    /// mid-merge (`open`), and after a merge that returned an error was
    /// dropped (`maintenance`, `checkpoint`).
    pub(crate) fn restart_merge12_locked(&self, m12: &mut Option<Merge12>) -> Result<()> {
        if m12.is_none() && self.shared.catalog.load().c1_prime.is_some() {
            self.start_merge12_locked(m12)?;
        }
        Ok(())
    }

    /// Runs the `C1':C2` merge to completion, starting it if a `C1'`
    /// waits (`checkpoint`, and the naive scheduler's hand-off).
    pub(crate) fn drain_merge12(&self) -> Result<()> {
        let mut m12 = self.merge12.lock();
        self.restart_merge12_locked(&mut m12)?;
        self.run_merge12_locked(&mut m12, u64::MAX)
    }

    fn finish_merge12_locked(&self, m: Merge12) -> Result<()> {
        let Merge12 {
            builder,
            full_region,
            iter,
            ..
        } = m;
        let st = &self.shared.stats;
        let pages = [&st.reserved_pages12, &st.written_pages12];
        let new_c2 = self.seal_output(builder, full_region, 0, pages)?;
        // Release the input iterators' table handles before reclamation.
        drop(iter);
        let mut ms = self.merge.lock();
        {
            let old = self.shared.catalog.load();
            // Single swap: C1' and the old C2 leave, the merged C2
            // arrives, and whatever C1 the `C0:C1` driver installed
            // meanwhile stays, split at its pass prefix if one is out.
            // No C0 state changes, so no epoch bump is needed: a
            // reader's pinned old catalog is still a complete view.
            self.shared.catalog.store(Arc::new(ComponentCatalog::new(
                old.c1.clone(),
                old.c1_prefix.clone(),
                None,
                new_c2,
            )));
            if let Some(t) = old.c1_prime.clone() {
                Self::retire(&mut ms, t);
            }
            if let Some(t) = old.c2.clone() {
                Self::retire(&mut ms, t);
            }
        }
        stats::bump(&self.shared.stats.merges12, 1);
        self.recompute_r();
        self.save_manifest(&mut ms, None)?;
        self.reap_retired_locked(&mut ms);
        Ok(())
    }

    /// Queues a replaced component for deferred reclamation.
    pub(crate) fn retire(ms: &mut MergeState, table: Arc<Sstable>) {
        ms.retired.push(table);
    }

    /// Reclaims retired components no longer referenced by any catalog
    /// snapshot or in-flight iterator. A strong count of one means the
    /// retired list holds the last handle; no new references can be
    /// minted from it, so eviction + region free is safe — once no
    /// flushed prefix of the same pages is alive either (a reader may
    /// pin one in a catalog from mid-pass). Nothing is
    /// reaped while a manifest save is outstanding — the on-disk root may
    /// still name it — and with two drivers one's failed save can meet
    /// the other's reap, so this checks rather than assumes.
    pub(crate) fn reap_retired_locked(&self, ms: &mut MergeState) {
        if ms.unsaved_wal_head.is_some() {
            return;
        }
        let pending = std::mem::take(&mut ms.retired);
        for r in pending {
            if Arc::strong_count(&r) == 1 && !r.region_shared() {
                // Synchronize with the release decrement of the last
                // reader's handle drop before discarding the pages (the
                // same fence `Arc`'s own `Drop` issues before freeing).
                std::sync::atomic::fence(Ordering::Acquire);
                r.evict_from_pool();
                ms.allocator.free(r.region());
            } else {
                ms.retired.push(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use std::collections::BTreeMap;

    use super::*;
    use crate::config::BLsmConfig;
    use crate::plane::tests::HandDriven;
    use blsm_memtable::AppendOperator;
    use blsm_storage::device::Device;
    use blsm_storage::{
        DeviceStats, FaultMode, FaultyDevice, MemDevice, SharedDevice, StorageError, PAGE_SIZE,
    };

    /// Hand-driven (on a stepped plane), with `R` pinned so `C1` grows
    /// past one 256 KiB read-ahead chunk before it rotates: a merge then
    /// reads its inputs in several device calls, and one of them can be
    /// made to fail.
    fn open(data: SharedDevice, wal: SharedDevice) -> HandDriven {
        let config = BLsmConfig {
            mem_budget: 64 << 10,
            wal_capacity: 8 << 20,
            r: Some(8.0),
            ..Default::default()
        };
        HandDriven::new(BLsmTree::open(data, wal, 256, config, Arc::new(AppendOperator)).unwrap())
    }

    fn flaky_reads() -> Arc<FaultyDevice> {
        let medium: SharedDevice = Arc::new(MemDevice::new());
        Arc::new(FaultyDevice::new(medium, FaultMode::FailReads, u64::MAX))
    }

    /// Overwrites one of 3 000 keys, in a scattered order; `model` holds
    /// what every key must read back as.
    fn put_next(tree: &BLsmTree, model: &mut BTreeMap<Bytes, Bytes>, n: &mut u64) -> Result<()> {
        let key = Bytes::from(format!("user{:08}", (*n * 7919) % 3000));
        let value = Bytes::from(format!("{n:0200}"));
        *n += 1;
        assert!(*n < 100_000, "workload never reached the wanted state");
        tree.put(key.clone(), value.clone())?;
        model.insert(key, value);
        Ok(())
    }

    fn assert_reads_match(tree: &BLsmTree, model: &BTreeMap<Bytes, Bytes>) {
        for (k, v) in model {
            assert_eq!(tree.get(k).unwrap().as_ref(), Some(v), "key {k:?}");
        }
    }

    fn allocated(ms: &MergeState) -> u64 {
        ms.allocator.high_water() - ms.allocator.free_pages()
    }

    #[test]
    fn a_failed_c1_prime_c2_merge_publishes_nothing_and_restarts() {
        let flaky = flaky_reads();
        let tree = open(flaky.clone(), Arc::new(MemDevice::new()));
        let (mut model, mut n) = (BTreeMap::new(), 0);
        // A first rotation and its merge give the tree a C2; the second
        // rotation leaves a C1':C2 merge in flight with both inputs.
        while !tree.merges_active().1 {
            put_next(&tree, &mut model, &mut n).unwrap();
        }
        tree.checkpoint().unwrap();
        while !tree.merges_active().1 {
            put_next(&tree, &mut model, &mut n).unwrap();
        }
        let before = tree.shared.catalog.load();
        assert!(before.c1_prime.is_some() && before.c2.is_some());
        let merges12 = tree.stats().merges12;

        {
            let mut m12 = tree.merge12.lock();
            let epoch = tree.merge.lock().manifest.epoch();
            let output_pages = m12.as_ref().unwrap().full_region.pages;
            let allocated_before = allocated(&tree.merge.lock());
            // Part of the output is built, then one input read fails.
            tree.run_merge12_locked(&mut m12, 64 << 10).unwrap();
            assert!(m12.is_some());
            flaky.fail_next(1);
            let err = tree.run_merge12_locked(&mut m12, u64::MAX).unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{err}");
            // The merge is gone, not flagged: polling again finds nothing
            // to poll, and nothing it built was kept or recorded.
            assert!(m12.is_none());
            tree.run_merge12_locked(&mut m12, u64::MAX).unwrap();
            assert_eq!(tree.merge.lock().manifest.epoch(), epoch);
            assert_eq!(
                allocated(&tree.merge.lock()),
                allocated_before - output_pages
            );
        }
        assert!(Arc::ptr_eq(&before, &tree.shared.catalog.load()));
        assert_eq!(tree.stats().merges12, merges12);
        assert_reads_match(&tree, &model);

        // The inputs are immutable: the next quantum starts the merge over.
        tree.maintenance(u64::MAX).unwrap();
        assert_eq!(tree.stats().merges12, merges12 + 1);
        assert!(tree.shared.catalog.load().c1_prime.is_none());
        assert_reads_match(&tree, &model);
        assert!(tree.scrub().is_clean());
    }

    #[test]
    fn a_failed_c0_c1_merge_wedges_until_reopen() {
        let flaky = flaky_reads();
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let tree = open(flaky.clone(), wal.clone());
        let (mut model, mut n) = (BTreeMap::new(), 0);
        // A settled C1 of more than one read-ahead chunk, fresh rows in C0.
        while tree.component_bytes().0 <= 300 << 10 {
            put_next(&tree, &mut model, &mut n).unwrap();
        }
        tree.checkpoint().unwrap();
        for _ in 0..100 {
            put_next(&tree, &mut model, &mut n).unwrap();
        }
        let before = tree.shared.catalog.load();
        let allocated_before = allocated(&tree.merge.lock());

        // The pass drains a row and reads C1's first chunk; the read of
        // the second chunk fails.
        tree.start_merge01().unwrap();
        tree.run_merge01(1).unwrap();
        flaky.fail_next(1);
        let err = tree.run_merge01(u64::MAX).unwrap_err();
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert!(!tree.merges_active().0);
        // What reached disk before the fault stays published until a
        // reopen: the catalog's C1 is split at that prefix, whose pages
        // stay allocated. The rest of the pass's region went back.
        let after = tree.shared.catalog.load();
        let prefix = after.c1_prefix.as_ref().expect("a chunk was published");
        assert!(Arc::ptr_eq(
            before.c1.as_ref().unwrap(),
            after.c1.as_ref().unwrap()
        ));
        assert_eq!(
            allocated(&tree.merge.lock()),
            allocated_before + prefix.region().pages
        );
        drop(after);

        // Every retry — a checkpoint, a writer reaching the cap — is the
        // typed error; the handle still reads every row, drained or not.
        let at_the_cap = (0..1000).find_map(|_| put_next(&tree, &mut model, &mut n).err());
        for e in [tree.checkpoint().unwrap_err(), at_the_cap.unwrap()] {
            assert!(e.to_string().contains("reopen the tree"), "{e}");
        }
        assert_reads_match(&tree, &model);

        // The log was never truncated over the drained rows.
        drop((tree, before));
        let tree = open(flaky, wal);
        assert_reads_match(&tree, &model);
        tree.checkpoint().unwrap();
        assert_reads_match(&tree, &model);
        assert!(tree.scrub().is_clean());
    }

    #[test]
    fn nothing_is_reaped_while_a_manifest_save_is_outstanding() {
        let tree = open(Arc::new(MemDevice::new()), Arc::new(MemDevice::new()));
        let (mut model, mut n) = (BTreeMap::new(), 0);
        for _ in 0..200 {
            put_next(&tree, &mut model, &mut n).unwrap();
        }
        tree.checkpoint().unwrap();
        // A reader pins the C1 the next pass replaces, so it stays retired.
        let pinned = tree.shared.catalog.load();
        for _ in 0..100 {
            put_next(&tree, &mut model, &mut n).unwrap();
        }
        tree.checkpoint().unwrap();
        drop(pinned);
        // The other driver's save failed: the on-disk root may name it.
        let mut ms = tree.merge.lock();
        ms.unsaved_wal_head = Some(0);
        tree.reap_retired_locked(&mut ms);
        assert_eq!(ms.retired.len(), 1);
        ms.unsaved_wal_head = None;
        tree.reap_retired_locked(&mut ms);
        assert!(ms.retired.is_empty());
    }

    /// Fails every write that starts below `fail_below` bytes — the
    /// manifest slots, once set to `ManifestStore::first_free_page()` —
    /// and passes everything else through; 0 disarms it.
    struct ManifestFault {
        medium: MemDevice,
        fail_below: AtomicU64,
    }

    impl Device for ManifestFault {
        fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
            self.medium.read_at(offset, buf)
        }
        fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
            if offset < self.fail_below.load(Ordering::SeqCst) {
                return Err(StorageError::Fault {
                    op: "write",
                    offset,
                });
            }
            self.medium.write_at(offset, buf)
        }
        fn sync(&self) -> Result<()> {
            self.medium.sync()
        }
        fn len(&self) -> u64 {
            self.medium.len()
        }
        fn stats(&self) -> DeviceStats {
            self.medium.stats()
        }
    }

    /// What a crash right now would leave behind.
    fn copy_of(dev: &dyn Device) -> SharedDevice {
        let mut bytes = vec![0u8; dev.len() as usize];
        dev.read_at(0, &mut bytes).unwrap();
        let copy = MemDevice::new();
        copy.write_at(0, &bytes).unwrap();
        Arc::new(copy)
    }

    #[test]
    fn a_failed_manifest_save_moves_nothing_until_a_save_succeeds() {
        let data = Arc::new(ManifestFault {
            medium: MemDevice::new(),
            fail_below: AtomicU64::new(0),
        });
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let tree = open(data.clone(), wal.clone());
        let (mut model, mut n) = (BTreeMap::new(), 0);
        // A C1 on disk and a truncated log, then fresh rows in C0.
        for _ in 0..200 {
            put_next(&tree, &mut model, &mut n).unwrap();
        }
        tree.checkpoint().unwrap();
        for _ in 0..100 {
            put_next(&tree, &mut model, &mut n).unwrap();
        }
        let head = tree.wal_window().unwrap().0;
        let old_c1 = tree.shared.catalog.load().c1.as_ref().unwrap().region();
        let (epoch, allocated_before) = {
            let ms = tree.merge.lock();
            (ms.manifest.epoch(), allocated(&ms))
        };

        // The pass completes — new C1 published, old C1 retired — and
        // the manifest save that would record it fails.
        let slots = tree.merge.lock().manifest.first_free_page() * PAGE_SIZE as u64;
        data.fail_below.store(slots, Ordering::SeqCst);
        tree.start_merge01().unwrap();
        let err = tree.run_merge01(u64::MAX).unwrap_err();
        assert!(matches!(err, StorageError::Fault { .. }), "{err}");
        assert_eq!(tree.stats().merges01, 2);
        // The on-disk root still names the old C1 and the old log head:
        // neither may be given up. Every entry into merge work retries
        // the save first and reports its failure.
        for retried in [tree.maintenance(u64::MAX), tree.checkpoint()] {
            assert!(matches!(retried, Err(StorageError::Fault { .. })));
        }
        assert_eq!(tree.wal_window().unwrap().0, head, "log head moved");
        let new_c1 = tree.shared.catalog.load().c1.as_ref().unwrap().region();
        {
            let ms = tree.merge.lock();
            assert_eq!(ms.manifest.epoch(), epoch);
            assert_eq!(ms.retired.len(), 1);
            assert_eq!(ms.retired[0].region(), old_c1);
            assert_eq!(allocated(&ms), allocated_before + new_c1.pages);
        }

        // Writes are still acknowledged; a crash now loses none of them.
        for _ in 0..100 {
            put_next(&tree, &mut model, &mut n).unwrap();
        }
        let crashed = open(copy_of(&data.medium), copy_of(wal.as_ref()));
        assert_reads_match(&crashed, &model);
        assert!(crashed.scrub().is_clean());

        // With the device healed the next quantum saves, then applies.
        data.fail_below.store(0, Ordering::SeqCst);
        tree.maintenance(u64::MAX).unwrap();
        assert!(tree.wal_window().unwrap().0 > head);
        {
            let ms = tree.merge.lock();
            assert_eq!(ms.manifest.epoch(), epoch + 1);
            assert!(ms.retired.is_empty());
            assert_eq!(
                allocated(&ms),
                allocated_before + new_c1.pages - old_c1.pages
            );
        }
        assert_reads_match(&tree, &model);
        drop(tree);
        let tree = open(data, wal);
        assert_reads_match(&tree, &model);
        assert!(tree.scrub().is_clean());
    }
}
