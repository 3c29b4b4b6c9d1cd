//! The merge plane: who runs a tree's merges.
//!
//! A bare tree's writers run the level scheduler's planned quanta inline
//! (`pace`), which keeps the simulated-device experiments deterministic.
//! A [`MergePlane`] takes a set of trees off that path and hands each
//! merge quantum to one of them by one grant rule ([`grant`]): the
//! paper's partition scheduler over its level schedulers (§4, Fig. 3).
//! Its two *lanes*, `C0:C1` and `C1':C2`, get one thread each on a
//! threaded plane (§4.4.1) whatever its tree count, so the `C0` drain
//! never waits behind a downstream quantum; a stepped plane's caller runs
//! both lanes' grants ([`MergePlane::step`]). Writers ring the `C0:C1`
//! lane's [`Doorbell`] above `Idle`, a `C1` rotation rings the `C1':C2`
//! lane's, and the drain rings the hard-cap bell writers over the cap
//! park on: a writer waits for drain progress, never for a driver lock.

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blsm_memtable::PassMode;
use blsm_storage::{Result, StorageError};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};

use crate::merge::{Merge01, Merge12};
use crate::progress::MergeProgress;
use crate::sched::{BackpressureLevel, SchedInputs};
use crate::stats;
use crate::tree::{BLsmTree, Driver01};

/// Upper bound on merge bytes processed in one burst of inline work;
/// bounds the latency any single write can observe from pacing.
const WORK_QUANTUM: u64 = 4 << 20;

/// How long an idle lane, or a writer parked at the hard cap, sleeps
/// between re-checks when nobody rings.
pub(crate) const MERGE_WAIT_TIMEOUT: Duration = Duration::from_millis(10);

/// A wake-up call: rung by whoever hands a lane work, parked on by an
/// idle lane (or, the hard-cap bell, by writers over the cap).
#[derive(Debug)]
pub(crate) struct Doorbell {
    pub(crate) pending: Mutex<Bell>,
    cv: Condvar,
}

/// A doorbell's state, under its `pending` mutex.
#[derive(Debug, Default)]
pub(crate) struct Bell {
    /// A ring not yet consumed by [`Doorbell::park`].
    pub(crate) rung: bool,
    /// Threads waiting on the condvar. `ring` notifies only when this is
    /// non-zero: a write that rings a busy lane costs one uncontended
    /// lock, not a `futex_wake` syscall.
    parked: usize,
}

impl Doorbell {
    pub(crate) fn new() -> Doorbell {
        Doorbell {
            pending: Mutex::new(Bell::default()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn ring(&self) {
        let mut bell = self.pending.lock();
        bell.rung = true;
        if bell.parked > 0 {
            self.cv.notify_all();
        }
    }

    /// True while some thread is parked on the bell.
    pub(crate) fn has_waiters(&self) -> bool {
        self.pending.lock().parked > 0
    }

    /// Sleeps until the bell rings, `MERGE_WAIT_TIMEOUT` passes or
    /// `shutdown` is set, then clears the ring. After a failed quantum
    /// (`deaf`) the wait runs its full length whatever rings arrive, so a
    /// dropped merge is not restarted once per write only to fail again.
    /// The predicate loop keeps a ring that lands after a spurious wakeup.
    fn park(&self, deaf: bool, shutdown: &AtomicBool) {
        let mut bell = self.pending.lock();
        self.sleep(&mut bell, |bell| {
            (!deaf && bell.rung) || shutdown.load(Ordering::SeqCst)
        });
        bell.rung = false;
    }

    /// Parks the caller until `done` holds or `MERGE_WAIT_TIMEOUT` passes,
    /// leaving the ring alone (any number of writers may wait). `done` is
    /// evaluated under the bell's lock, so a ring after its change is kept.
    pub(crate) fn wait_until(&self, done: impl Fn() -> bool) {
        self.sleep(&mut self.pending.lock(), |_| done());
    }

    fn sleep(&self, bell: &mut MutexGuard<'_, Bell>, done: impl Fn(&Bell) -> bool) {
        let wake_at = Instant::now() + MERGE_WAIT_TIMEOUT;
        while !done(bell) {
            let left = wake_at.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            bell.parked += 1;
            let timed_out = self.cv.wait_for(bell, left).timed_out();
            bell.parked -= 1;
            if timed_out {
                break;
            }
        }
    }
}

/// A plane's two merges.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    C0C1,
    C1C2,
}

/// A threaded plane's lane bells, indexed by [`Lane`], and stop flag.
#[derive(Debug)]
pub(crate) struct Lanes {
    pub(crate) bells: [Doorbell; 2],
    // ordering: SeqCst — checked against the condvar handshake, totally
    // ordered with the rings so a lane cannot miss it (model-checked in
    // crates/modelcheck).
    shutdown: AtomicBool,
}

/// How a tree's merges are driven: bare (writers run the planned quanta),
/// or on a stepped or threaded plane.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Attach {
    Bare,
    Stepped,
    Threaded,
}

/// A tree's attach state (`TreeShared::attach`); bare by default.
#[derive(Default)]
pub(crate) struct AttachCell {
    // ordering: Release stores on attach and detach (after `lanes`),
    // Acquire loads on the write path. It publishes no data: a stale read
    // costs one skipped ring, which the lane's wait timeout bounds.
    mode: AtomicU8,
    /// The threaded plane's lanes. Writers ring them under a read lock,
    /// so concurrent writers never queue on it.
    lanes: RwLock<Option<Arc<Lanes>>>,
}

impl AttachCell {
    pub(crate) fn get(&self) -> Attach {
        [Attach::Bare, Attach::Stepped, Attach::Threaded]
            [self.mode.load(Ordering::Acquire) as usize]
    }

    fn set(&self, attach: Attach, lanes: Option<Arc<Lanes>>) {
        *self.lanes.write() = lanes;
        self.mode.store(attach as u8, Ordering::Release);
    }

    /// Wakes `lane`'s thread, if the tree is on a threaded plane.
    pub(crate) fn ring_lane(&self, lane: Lane) {
        let lanes = self.lanes.read();
        if let Some(lanes) = lanes.as_ref() {
            lanes.bells[lane as usize].ring();
        }
    }
}

impl BLsmTree {
    pub(crate) fn sched_inputs(
        &self,
        m01: Option<&Merge01>,
        m12: Option<&Merge12>,
        incoming: u64,
    ) -> SchedInputs {
        let catalog = self.shared.catalog.load();
        let c0 = &self.shared.c0;
        // Without snowshoveling, only the bytes behind a pass are filling.
        let c0_bytes = match c0.pass_mode() {
            PassMode::Frozen | PassMode::Snowshovel if !self.shared.config.snowshovel => {
                c0.behind_bytes()
            }
            _ => c0.approx_bytes(),
        };
        SchedInputs {
            c0_bytes: c0_bytes as u64,
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

    /// True while a threaded plane runs this tree's merges.
    pub(crate) fn merge_threads_attached(&self) -> bool {
        self.shared.attach.get() == Attach::Threaded
    }

    /// Wakes the `C0:C1` lane of a threaded plane — unless the tree is
    /// idle: below the low watermark no scheduler starts a merge, and the
    /// wake would cost a syscall and a context switch per write on the
    /// lane every shard shares. A skipped ring waits at most the lane's
    /// wait timeout, and a merge in flight keeps the lane busy.
    pub(crate) fn ring_doorbell(&self) {
        if self.merge_threads_attached() && self.backpressure() != BackpressureLevel::Idle {
            self.shared.attach.ring_lane(Lane::C0C1);
        }
    }

    /// The hard cap on a threaded plane: parks a writer over it until the
    /// `C0:C1` drain brings `C0` back to the high water mark. False when a
    /// merge quantum failed or a lane died meanwhile: the caller's locked
    /// path then returns the typed error, or drains `C0` itself.
    pub(crate) fn park_at_cap(&self, incoming: u64) -> bool {
        let budget = self.shared.config.mem_budget as u64;
        let mark = (crate::HIGH_WATER * budget as f64) as u64;
        let c0 = || self.shared.c0.approx_bytes() as u64;
        let errors = || stats::read(&self.shared.stats.merge_errors);
        let seen = errors();
        let failed = || errors() != seen || !self.merge_threads_attached();
        while c0() + incoming > budget {
            if failed() {
                return false;
            }
            // An oversize write into an empty `C0` goes through, as on
            // the locked path.
            if self.shared.c0.is_empty() {
                break;
            }
            self.shared.attach.ring_lane(Lane::C0C1);
            self.shared
                .bell_cap
                .wait_until(|| c0() + incoming <= mark || c0() == 0 || failed());
        }
        true
    }

    /// Pre-write pacing: run the scheduler's planned merge work (bare trees
    /// only), enforce the hard cap — the paper's write-latency bound.
    pub(crate) fn pace(&self, incoming: u64) -> Result<()> {
        let attach = self.shared.attach.get();
        if attach == Attach::Bare {
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
        if attach == Attach::Threaded && self.park_at_cap(incoming) {
            return Ok(());
        }
        // Not threaded, or a quantum failed while we were parked: wait for
        // (or perform) drain work on the `C0:C1` driver, which also
        // returns a failed pass's typed error.
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

    /// The scheduler's planned quanta, run *opportunistically*: a writer
    /// that loses a driver's try-lock skips, since its holder is running
    /// the very quantum this one would have.
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
        if self.pass_due(&d, incoming) {
            self.start_merge01_locked(&mut d.pass)?;
        }
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

    /// True when no `C0:C1` pass runs and the scheduler asks for one, or a
    /// writer is parked at the cap (its bytes may be what the mark awaits).
    fn pass_due(&self, d: &Driver01, incoming: u64) -> bool {
        d.pass.is_none()
            && !self.shared.c0.is_empty()
            && (d
                .scheduler
                .should_start_merge01(&self.sched_inputs(None, None, incoming))
                || self.shared.bell_cap.has_waiters())
    }

    /// Runs up to `budget` input bytes of pending merge work on each
    /// level. Lets callers drive merges during idle periods (§3.2's
    /// "merges can be run during off-peak periods"). Blocks on each
    /// merge's driver in turn; a plane's lanes run one driver each.
    pub fn maintenance(&self, budget: u64) -> Result<()> {
        self.maintain(Lane::C0C1, budget)?;
        self.maintain(Lane::C1C2, budget).map(drop)
    }

    /// One quantum of `lane`'s merge: starts it when due (a pass the
    /// scheduler asks for, a `C1'` waiting) and runs up to `budget` bytes
    /// of it. True when a merge ran.
    pub(crate) fn maintain(&self, lane: Lane, budget: u64) -> Result<bool> {
        let ran = match lane {
            Lane::C0C1 => {
                let mut d = self.merge01.lock();
                self.resave_manifest(&mut self.merge.lock())?;
                if self.pass_due(&d, 0) {
                    self.start_merge01_locked(&mut d.pass)?;
                }
                let ran = d.pass.is_some();
                self.run_merge01_locked(&mut d, budget)?;
                ran
            }
            Lane::C1C2 => {
                let mut m12 = self.merge12.lock();
                self.resave_manifest(&mut self.merge.lock())?;
                self.restart_merge12_locked(&mut m12)?;
                let ran = m12.is_some();
                self.run_merge12_locked(&mut m12, budget)?;
                ran
            }
        };
        self.reap_retired_locked(&mut self.merge.lock());
        self.quantum_boundary_check(ran)?;
        Ok(ran)
    }

    fn in_flight(&self, lane: Lane) -> bool {
        match lane {
            Lane::C0C1 => self.merge01.lock().pass.is_some(),
            Lane::C1C2 => self.merge12.lock().is_some(),
        }
    }

    /// Whether `lane` has a merge in flight or due. (A `C1':C2` merge in
    /// flight always has its `C1'` in the catalog.)
    fn wants(&self, lane: Lane) -> bool {
        match lane {
            Lane::C0C1 => {
                let d = self.merge01.lock();
                d.pass.is_some() || self.pass_due(&d, 0)
            }
            Lane::C1C2 => self.shared.catalog.load().c1_prime.is_some(),
        }
    }
}

/// The grant rule: the tree `lane`'s next quantum goes to, which becomes
/// the lane's `focus`. In order: for `C0:C1`, a tree with writers parked
/// at its hard cap; the focus while its merge is in flight (finish the
/// merge in flight before starting another: Luo & Carey, "On Performance
/// Stability in LSM-based Storage Systems"); the next tree in rotation
/// with a merge in flight or due; else the focus, whose quantum merges
/// nothing but retries a failed manifest save and reaps retired
/// components. `None` only for a plane of no trees.
fn grant(trees: &[BLsmTree], lane: Lane, focus: &mut usize) -> Option<usize> {
    let n = trees.len();
    if n == 1 {
        return Some(0); // every rule picks the one tree: skip its locks
    }
    let rotation = |from: usize| (0..n).map(move |k| (from + k) % n);
    let pick = rotation(*focus)
        .find(|&i| lane == Lane::C0C1 && trees[i].shared.bell_cap.has_waiters())
        .or_else(|| (*focus < n && trees[*focus].in_flight(lane)).then_some(*focus))
        .or_else(|| rotation(*focus + 1).find(|&i| trees[i].wants(lane)))
        .or_else(|| (*focus < n).then_some(*focus))?;
    *focus = pick;
    Some(pick)
}

/// Trees whose merges run on two lanes under one grant rule, on two
/// threads of its own (behind [`ThreadedBLsm`] and [`crate::ShardedBLsm`])
/// or on its caller's ([`MergePlane::stepped`]). Their writers run no
/// merge work; dropping the plane hands the trees back bare.
#[derive(Debug)]
pub struct MergePlane {
    /// The plane's trees, shared with its lane threads.
    trees: Arc<Vec<BLsmTree>>,
    pub(crate) lanes: Arc<Lanes>,
    /// The `C0:C1` and `C1':C2` lane threads; none on a stepped plane.
    pub(crate) workers: Vec<std::thread::JoinHandle<()>>,
    /// Each lane's focus on a stepped plane (a lane thread keeps its own).
    focus: [usize; 2],
}

impl MergePlane {
    fn attach(trees: Vec<BLsmTree>, attach: Attach) -> MergePlane {
        let lanes = Arc::new(Lanes {
            bells: [Doorbell::new(), Doorbell::new()],
            shutdown: AtomicBool::new(false),
        });
        let ring = (attach == Attach::Threaded).then(|| lanes.clone());
        for tree in &trees {
            tree.shared.attach.set(attach, ring.clone());
        }
        MergePlane {
            trees: Arc::new(trees),
            lanes,
            workers: Vec::new(),
            focus: [0; 2],
        }
    }

    /// A plane with no threads: `trees`' merges run only when the caller
    /// [`step`](Self::step)s it (or drives a tree by hand), and writers
    /// over the hard cap drain `C0` themselves.
    pub fn stepped(trees: Vec<BLsmTree>) -> MergePlane {
        Self::attach(trees, Attach::Stepped)
    }

    /// A plane whose two lane threads run `trees`' merges, `quantum`
    /// input bytes per grant. Fails if a thread cannot be spawned.
    pub(crate) fn threaded(trees: Vec<BLsmTree>, quantum: u64) -> Result<MergePlane> {
        let mut plane = Self::attach(trees, Attach::Threaded);
        for (name, lane) in [("blsm-merge01", Lane::C0C1), ("blsm-merge12", Lane::C1C2)] {
            let (trees, lanes) = (plane.trees.clone(), plane.lanes.clone());
            let quantum = quantum.max(64 << 10);
            let worker = std::thread::Builder::new()
                .name(name.into())
                .spawn(move || run_lane(&trees, &lanes, lane, quantum))
                .map_err(StorageError::Io)?;
            plane.workers.push(worker);
        }
        Ok(plane)
    }

    /// The plane's trees, in the order they were given.
    pub fn trees(&self) -> &[BLsmTree] {
        &self.trees
    }

    /// Runs each lane's next grant on the caller's thread: `incoming × (2 +
    /// 2R) + 512` input bytes of the granted tree's merge, the steady-state
    /// merge debt of an `incoming`-byte write across both levels.
    pub fn step(&mut self, incoming: u64) -> Result<()> {
        for (focus, lane) in self.focus.iter_mut().zip([Lane::C0C1, Lane::C1C2]) {
            if let Some(i) = grant(&self.trees, lane, focus) {
                let tree = &self.trees[i];
                let budget = (incoming as f64 * (2.0 + 2.0 * tree.current_r())).ceil() as u64;
                tree.maintain(lane, budget + 512)?;
            }
        }
        Ok(())
    }

    /// Stops the lane threads and detaches every tree.
    fn detach(&mut self) {
        self.lanes.shutdown.store(true, Ordering::SeqCst);
        self.lanes.bells.iter().for_each(Doorbell::ring);
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for tree in self.trees.iter() {
            tree.shared.attach.set(Attach::Bare, None);
        }
    }

    /// Stops the plane and hands its trees back bare.
    pub(crate) fn into_trees(mut self) -> Vec<BLsmTree> {
        self.detach();
        Arc::try_unwrap(std::mem::take(&mut self.trees))
            .unwrap_or_else(|_| panic!("a lane thread still holds the plane's trees"))
    }
}

impl Drop for MergePlane {
    fn drop(&mut self) {
        self.detach();
    }
}

/// Armed for a lane thread's lifetime, one per tree: a thread that
/// unwinds hands the tree back to its writers, who would otherwise wait
/// at the hard cap on a drain that never comes; they pace themselves.
struct DetachOnPanic<'a>(&'a BLsmTree);

impl Drop for DetachOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let tree = &self.0.shared;
            tree.attach.set(Attach::Bare, None);
            stats::bump(&tree.stats.merge_errors, 1);
            tree.bell_cap.ring();
        }
    }
}

fn run_lane(trees: &[BLsmTree], lanes: &Lanes, lane: Lane, quantum: u64) {
    let _detach: Vec<DetachOnPanic<'_>> = trees.iter().map(DetachOnPanic).collect();
    let mut focus = 0;
    while !lanes.shutdown.load(Ordering::SeqCst) {
        // A failed quantum is counted here; writers parked at the cap pick
        // its error up on the locked path.
        let outcome = grant(trees, lane, &mut focus).map_or(Ok(false), |i| {
            let tree = &trees[i];
            let outcome = tree.maintain(lane, quantum);
            if outcome.is_err() {
                stats::bump(&tree.shared.stats.merge_errors, 1);
                tree.shared.bell_cap.ring();
            }
            // A violation at a background quantum boundary means the
            // lane corrupted the tree, which no caller can recover from.
            #[cfg(feature = "strict-invariants")]
            if let Err(e) = tree.check_invariants() {
                panic!("merge-thread quantum violated a tree invariant: {e}");
            }
            outcome
        });
        if !matches!(outcome, Ok(true)) {
            lanes.bells[lane as usize].park(outcome.is_err(), &lanes.shutdown);
        }
    }
}

/// One tree of a threaded [`MergePlane`]: [`ThreadedBLsm::start`] puts a
/// tree on a plane of its own, [`crate::ShardedBLsm`] puts every shard on
/// one. Derefs to the tree, and through it to the tree's
/// [`ReadView`](crate::ReadView): every write (`put`, `commit_group`, …)
/// is the tree's own, every read (`get`, `scan`, `stats`, …) the view's.
#[derive(Debug)]
pub struct ThreadedBLsm {
    /// `Some` until `shutdown` hands the tree back.
    pub(crate) plane: Option<Arc<MergePlane>>,
    /// This handle's tree in the plane.
    index: usize,
}

impl std::ops::Deref for ThreadedBLsm {
    type Target = BLsmTree;

    fn deref(&self) -> &BLsmTree {
        match &self.plane {
            Some(plane) => &plane.trees[self.index],
            // Unreachable: `shutdown` consumes `self`.
            None => panic!("tree used after shutdown"),
        }
    }
}

impl ThreadedBLsm {
    /// Puts a tree on a threaded plane of its own, `quantum` merge bytes
    /// per background quantum. Writers never run merge work or wait on a
    /// driver: one over the hard `C0` cap parks until the `C0:C1` drain
    /// brings `C0` back to the high water mark; reads never wait.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if a merge thread cannot be spawned
    /// (e.g. the process hit its thread limit); the tree itself is
    /// dropped in that case, so reopen it from its devices.
    pub fn start(tree: BLsmTree, quantum: u64) -> Result<ThreadedBLsm> {
        Ok(Self::handles(MergePlane::threaded(vec![tree], quantum)?).swap_remove(0))
    }

    /// One handle per tree of a threaded plane, in plane order.
    pub(crate) fn handles(plane: MergePlane) -> Vec<ThreadedBLsm> {
        let plane = Arc::new(plane);
        let handle = |index| ThreadedBLsm {
            plane: Some(plane.clone()),
            index,
        };
        (0..plane.trees.len()).map(handle).collect()
    }

    /// Runs `f` against the tree — for callers that want a `&BLsmTree`
    /// function (`db.with_tree(BLsmTree::checkpoint)`); equivalent to
    /// calling through the deref.
    pub fn with_tree<T>(&self, f: impl FnOnce(&BLsmTree) -> T) -> T {
        f(self)
    }

    /// Stops the merge threads, completes all pending merges, and returns
    /// the tree.
    pub fn shutdown(self) -> Result<BLsmTree> {
        // A live handle always holds its plane, a plane of this one tree.
        Self::shutdown_all(vec![self]).swap_remove(0)
    }

    /// Stops the plane `handles` share — they must be all of its handles
    /// — and returns its trees in plane order, each checkpointed.
    pub(crate) fn shutdown_all(handles: Vec<ThreadedBLsm>) -> Vec<Result<BLsmTree>> {
        // Each handle's `Arc` drops as the next is taken; the last is sole.
        let Some(plane) = handles
            .into_iter()
            .filter_map(|mut h| h.plane.take())
            .last()
        else {
            return Vec::new();
        };
        let plane = Arc::try_unwrap(plane)
            .unwrap_or_else(|_| panic!("another handle still holds the merge plane"));
        let trees = plane.into_trees().into_iter();
        trees.map(|tree| tree.checkpoint().map(|()| tree)).collect()
    }
}

impl Drop for ThreadedBLsm {
    fn drop(&mut self) {
        // The plane's last handle, dropped without `shutdown` (a server
        // unwinding on error), still stops the threads and checkpoints
        // every tree, best-effort: recovery replays the WAL anyway.
        if let Some(Ok(plane)) = self.plane.take().map(Arc::try_unwrap) {
            for tree in plane.into_trees() {
                let _ = tree.checkpoint();
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::BLsmConfig;
    use blsm_memtable::{AppendOperator, PassMode};
    use blsm_storage::{MemDevice, SharedDevice};
    use bytes::Bytes;
    use std::time::Duration;

    /// A tree alone on a stepped plane nobody steps: its merges run only
    /// when a test drives them.
    pub(crate) struct HandDriven(MergePlane);

    impl HandDriven {
        pub(crate) fn new(tree: BLsmTree) -> HandDriven {
            HandDriven(MergePlane::stepped(vec![tree]))
        }
    }

    impl std::ops::Deref for HandDriven {
        type Target = BLsmTree;

        fn deref(&self) -> &BLsmTree {
            &self.0.trees[0]
        }
    }

    /// A tree on `data` whose `C1` holds 20 000 even-numbered keys of
    /// 100-byte values (~2.3 MB, many read-ahead chunks), reopened with
    /// a 64 KiB `C0` and `R` pinned so no pass rotates `C1`.
    fn over_a_large_c1(data: SharedDevice) -> BLsmTree {
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let open = |mem_budget| {
            let config = BLsmConfig {
                mem_budget,
                r: Some(1000.0),
                ..Default::default()
            };
            BLsmTree::open(
                data.clone(),
                wal.clone(),
                64,
                config,
                Arc::new(AppendOperator),
            )
            .unwrap()
        };
        let tree = open(8 << 20);
        for i in 0..20_000u32 {
            tree.put(format!("k{:08}", 2 * i).into_bytes(), vec![0u8; 100])
                .unwrap();
        }
        tree.checkpoint().unwrap();
        drop(tree);
        open(64 << 10)
    }

    /// [`over_a_large_c1`] under merge threads whose quantum covers a
    /// whole pass.
    fn threaded_over_a_large_c1(data: SharedDevice) -> ThreadedBLsm {
        ThreadedBLsm::start(over_a_large_c1(data), 1 << 30).unwrap()
    }

    /// The `C0:C1` lane's bell of `db`'s plane.
    fn bell01(db: &ThreadedBLsm) -> &Doorbell {
        &db.plane.as_ref().unwrap().lanes.bells[0]
    }

    #[test]
    fn a_cap_waiter_is_served_while_another_trees_pass_is_in_flight() {
        // Two trees on one plane: the first's pass copies a large `C1` in
        // many small grants. The lane grants the second tree's writer,
        // parked at its hard cap, a quantum between two of them; a lane
        // that kept to the pass in flight would let that write wait out
        // the whole pass.
        let small = BLsmTree::open(
            Arc::new(MemDevice::new()),
            Arc::new(MemDevice::new()),
            1024,
            BLsmConfig {
                mem_budget: 64 << 10,
                ..Default::default()
            },
            Arc::new(AppendOperator),
        )
        .unwrap();
        let large = over_a_large_c1(Arc::new(MemDevice::new()));
        let plane = MergePlane::threaded(vec![large, small], 64 << 10).unwrap();
        let [large, small] = <[ThreadedBLsm; 2]>::try_from(ThreadedBLsm::handles(plane)).unwrap();
        let mut i = 0;
        while large.shared.c0.pass_mode() == PassMode::Idle {
            large.put(spread_key(i), vec![1u8; 100]).unwrap();
            i += 1;
        }
        let merges = large.stats().merges01;
        for i in 0..100_000u32 {
            let before = small.stats().forced_stalls;
            small
                .put(format!("k{i:08}").into_bytes(), vec![1u8; 100])
                .unwrap();
            if small.stats().forced_stalls > before {
                assert_eq!(
                    large.stats().merges01,
                    merges,
                    "the stalled write waited out the other tree's pass"
                );
                return;
            }
        }
        panic!("the writer never reached the hard cap");
    }

    /// Odd keys spread over the `C1` key range, so a pass's `C0` drain
    /// moves along with its `C1` copy.
    fn spread_key(i: u32) -> Vec<u8> {
        format!("k{:08}", 2 * ((i * 7919) % 20_000) + 1).into_bytes()
    }

    #[test]
    fn a_writer_parked_at_the_cap_resumes_while_the_pass_is_in_flight() {
        // A writer over the hard cap waits for drain progress: the first
        // tenth of the pass's `C0` drain brings `C0` back to the high
        // water mark, long before the `C1` copy ends. A writer queued on
        // the driver instead waits out the thread's quantum — here the
        // whole pass.
        let db = threaded_over_a_large_c1(Arc::new(MemDevice::new()));
        for i in 0..100_000u32 {
            let before = db.stats();
            db.put(spread_key(i), vec![1u8; 100]).unwrap();
            let after = db.stats();
            if after.forced_stalls > before.forced_stalls {
                assert_eq!(
                    after.merges01, before.merges01,
                    "the stalled write waited out a whole C0:C1 pass"
                );
                return;
            }
        }
        panic!("the writer never reached the hard cap");
    }

    #[test]
    fn a_c1_read_fault_mid_pass_reaches_the_writer_at_the_cap() {
        use blsm_storage::{FaultMode, FaultyDevice};
        let data = Arc::new(FaultyDevice::new(
            Arc::new(MemDevice::new()),
            FaultMode::FailReads,
            u64::MAX,
        ));
        let db = threaded_over_a_large_c1(data.clone());
        let tree: &BLsmTree = &db;
        // Arm one failed read once a pass is under way: the thread's next
        // `C1` chunk read fails and the pass is dropped.
        let mut armed = false;
        for i in 0..100_000u32 {
            if !armed && tree.shared.c0.pass_mode() != PassMode::Idle {
                data.fail_next(1);
                armed = true;
            }
            if let Err(e) = db.put(spread_key(i), vec![1u8; 100]) {
                assert!(armed, "a write failed before the fault: {e}");
                assert!(e.to_string().contains("reopen the tree"), "{e}");
                assert!(db.stats().merge_errors >= 1);
                return;
            }
        }
        panic!("the failed pass never reached the writer");
    }

    #[test]
    fn a_merge_thread_that_unwinds_hands_the_cap_back_to_writers() {
        let db = new_threaded();
        let tree: &BLsmTree = &db;
        // Unwind the way a dying merge thread does, with its guard armed.
        std::thread::scope(|s| {
            let died = s.spawn(|| {
                let _detach = DetachOnPanic(tree);
                panic!("merge thread died");
            });
            assert!(died.join().is_err());
        });
        assert!(!tree.merge_threads_attached());
        assert_eq!(tree.stats().merge_errors, 1);
        // A writer over the cap no longer parks: it drains on the driver.
        assert!(!tree.park_at_cap(u64::MAX / 2));
        for i in 0..3_000u32 {
            db.put(format!("k{i:06}").into_bytes(), vec![0u8; 100])
                .unwrap();
        }
        assert!(tree.c0_bytes() <= 64 << 10);
    }

    #[test]
    fn a_ring_before_park_is_not_lost() {
        // `ring` notifies only parked threads; one that parks after the
        // ring must find it pending and return at once. A lost ring would
        // cost each park the whole wait timeout.
        let bell = Doorbell::new();
        let shutdown = AtomicBool::new(false);
        let started = Instant::now();
        for _ in 0..50 {
            bell.ring();
            bell.park(false, &shutdown);
            assert!(!bell.pending.lock().rung, "park left the ring pending");
        }
        assert!(
            started.elapsed() < MERGE_WAIT_TIMEOUT * 25,
            "rings before park were lost"
        );
    }

    fn new_threaded() -> ThreadedBLsm {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let tree = BLsmTree::open(
            data,
            wal,
            1024,
            BLsmConfig {
                mem_budget: 64 << 10,
                ..Default::default()
            },
            Arc::new(AppendOperator),
        )
        .unwrap();
        ThreadedBLsm::start(tree, 1 << 20).unwrap()
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let db = Arc::new(new_threaded());
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..2_000u32 {
                    let id = t * 10_000 + i;
                    db.put(
                        format!("user{id:08}").into_bytes(),
                        Bytes::from(vec![t as u8; 64]),
                    )
                    .unwrap();
                    if i % 64 == 0 {
                        // Read-your-writes.
                        let v = db.get(format!("user{id:08}").as_bytes()).unwrap();
                        assert_eq!(v.unwrap(), Bytes::from(vec![t as u8; 64]));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // The background thread must have driven merges.
        let stats = db.with_tree(|tree| tree.stats());
        assert!(stats.merges01 > 0, "merge thread never merged");
        for t in 0..4u32 {
            for i in (0..2_000u32).step_by(191) {
                let id = t * 10_000 + i;
                let v = db.get(format!("user{id:08}").as_bytes()).unwrap();
                assert_eq!(v.unwrap(), Bytes::from(vec![t as u8; 64]), "id {id}");
            }
        }
    }

    #[test]
    fn shutdown_returns_settled_tree() {
        let db = new_threaded();
        for i in 0..3_000u32 {
            db.put(format!("k{i:06}").into_bytes(), Bytes::from_static(b"v"))
                .unwrap();
        }
        let tree = db.shutdown().unwrap();
        assert!(tree.c0_bytes() == 0, "shutdown must checkpoint");
        assert_eq!(
            tree.get(b"k002999").unwrap().unwrap(),
            Bytes::from_static(b"v")
        );
    }

    #[test]
    fn drop_checkpoints_like_shutdown() {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let config = BLsmConfig {
            mem_budget: 64 << 10,
            ..Default::default()
        };
        let tree = BLsmTree::open(
            data.clone(),
            wal.clone(),
            1024,
            config.clone(),
            Arc::new(AppendOperator),
        )
        .unwrap();
        let db = ThreadedBLsm::start(tree, 1 << 20).unwrap();
        for i in 0..500u32 {
            db.put(format!("k{i:06}").into_bytes(), Bytes::from_static(b"v"))
                .unwrap();
        }
        drop(db);
        // The Drop hook must have checkpointed: reopening finds every
        // write in the components with an empty C0 (nothing left to
        // replay from the WAL).
        let tree = BLsmTree::open(data, wal, 1024, config, Arc::new(AppendOperator)).unwrap();
        assert_eq!(tree.c0_bytes(), 0, "drop must checkpoint");
        assert_eq!(
            tree.get(b"k000499").unwrap().unwrap(),
            Bytes::from_static(b"v")
        );
    }

    #[test]
    fn kick_hammer_against_shutdown() {
        // Regression test for the lost-wakeup handshake: hammer `kick()`
        // (via `put`) from several threads with a tiny quantum, then tear
        // the merge thread down mid-stream, many times over. A swallowed
        // kick or a missed shutdown notification shows up here as a hang
        // (test timeout) or lost data.
        for round in 0..20u32 {
            let data: SharedDevice = Arc::new(MemDevice::new());
            let wal: SharedDevice = Arc::new(MemDevice::new());
            let tree = BLsmTree::open(
                data,
                wal,
                1024,
                BLsmConfig {
                    mem_budget: 64 << 10,
                    ..Default::default()
                },
                Arc::new(AppendOperator),
            )
            .unwrap();
            // Quantum below the floor: exercises the floor clamp too.
            let db = Arc::new(ThreadedBLsm::start(tree, 1).unwrap());
            let stop = Arc::new(AtomicBool::new(false));
            let mut handles = Vec::new();
            for t in 0..3u32 {
                let db = db.clone();
                let stop = stop.clone();
                handles.push(std::thread::spawn(move || {
                    let mut i = 0u32;
                    while !stop.load(Ordering::SeqCst) || i < 50 {
                        let id = t * 1_000_000 + i;
                        db.put(format!("k{id:08}").into_bytes(), Bytes::from_static(b"v"))
                            .unwrap();
                        i += 1;
                        if i >= 10_000 {
                            break;
                        }
                    }
                    i
                }));
            }
            // Let the writers race the merge thread briefly, then stop.
            std::thread::sleep(Duration::from_millis(2));
            stop.store(true, Ordering::SeqCst);
            let counts: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            let db = Arc::try_unwrap(db)
                .unwrap_or_else(|_| panic!("writer threads exited; sole owner expected"));
            let tree = db.shutdown().unwrap();
            // Every acknowledged write must be readable after shutdown.
            for (t, n) in counts.iter().enumerate() {
                for i in (0..*n).step_by(17) {
                    let id = t as u32 * 1_000_000 + i;
                    let v = tree.get(format!("k{id:08}").as_bytes()).unwrap();
                    assert!(v.is_some(), "round {round}: lost k{id:08}");
                }
            }
        }
    }

    #[test]
    fn deref_write_above_idle_wakes_the_parked_merge_thread() {
        // On a plane writers start no merges of their own, so a started
        // pass proves the merge thread ran its quantum.
        let tree = BLsmTree::open(
            Arc::new(MemDevice::new()),
            Arc::new(MemDevice::new()),
            1024,
            BLsmConfig {
                mem_budget: 64 << 10,
                ..Default::default()
            },
            Arc::new(AppendOperator),
        )
        .unwrap();
        let db = ThreadedBLsm::start(tree, 1 << 20).unwrap();
        // Spring-and-gear starts a pass at the high water mark: fill to
        // just under it (above `Idle`, no merge yet).
        let high = (crate::HIGH_WATER * db.config().mem_budget as f64) as usize;
        let mut i = 0u32;
        let mut put_next = || {
            i += 1;
            db.put(format!("k{i:06}").into_bytes(), Bytes::from(vec![0u8; 100]))
                .unwrap();
        };
        while db.c0_bytes() + 1024 < high {
            put_next();
        }
        assert_ne!(db.backpressure(), crate::sched::BackpressureLevel::Idle);
        assert_eq!(db.merges_active(), (false, false));
        // Ring by hand and wait for the flag to be consumed, then give
        // the thread a moment to park again: it now sleeps on a fresh,
        // (almost) full wait timeout whether or not writes ring.
        bell01(&db).ring();
        while bell01(&db).pending.lock().rung {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(1));
        // Cross the mark through the deref path; only a rung doorbell
        // gets the pass started before the wait times out.
        let crossed = std::time::Instant::now();
        while db.c0_bytes() < high {
            put_next();
        }
        while !db.merges_active().0 && db.stats().merges01 == 0 {
            assert!(
                crossed.elapsed() < MERGE_WAIT_TIMEOUT / 2,
                "write above Idle did not wake the merge thread"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn c0_c1_passes_complete_while_the_c1_prime_c2_driver_is_held() {
        // Hold the `C1':C2` driver the way a long downstream quantum
        // would: the `C0` drain has its own driver and thread, so writes
        // keep flowing and `C0:C1` passes keep completing.
        let db = new_threaded();
        let tree: &BLsmTree = &db;
        let downstream = tree.merge12.lock();
        // Descending keys never join the pass in flight (§4.2: a key at
        // or below the drain cursor waits for the next pass), so each
        // pass drains at most one full `C0` and ends however fast the
        // writer runs.
        let key = |i: u32| format!("k{:06}", 4_999 - i).into_bytes();
        let before = tree.stats().merges01;
        for i in 0..5_000u32 {
            db.put(key(i), Bytes::from(vec![0u8; 100])).unwrap();
        }
        let passes = tree.stats().merges01 - before;
        assert!(
            passes >= 3,
            "{passes} C0:C1 passes behind a held C1':C2 driver"
        );
        drop(downstream);
        for i in (0..5_000u32).step_by(97) {
            assert!(db.get(&key(i)).unwrap().is_some());
        }
    }

    #[test]
    fn idle_merge_progress_without_writes() {
        let db = new_threaded();
        for i in 0..3_000u32 {
            db.put(format!("k{i:06}").into_bytes(), Bytes::from(vec![0u8; 64]))
                .unwrap();
        }
        // Stop writing; the merge thread should drain pending merges on
        // its own within its timeout loop.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let (m01, m12) = db.with_tree(super::super::tree::BLsmTree::merges_active);
            if !m01 && !m12 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background merges never finished"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn a_failing_merge_is_retried_once_per_wait_whatever_rings() {
        use blsm_storage::{FaultMode, FaultyDevice};
        // A data device that fails every write: writers fill `C0` until
        // the failed pass refuses them.
        let dead = FaultyDevice::new(Arc::new(MemDevice::new()), FaultMode::FailWrites, 0);
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let config = BLsmConfig {
            mem_budget: 64 << 10,
            ..Default::default()
        };
        let tree = BLsmTree::open(Arc::new(dead), wal, 1024, config, Arc::new(AppendOperator));
        let db = ThreadedBLsm::start(tree.unwrap(), 1 << 20).unwrap();
        let mut i = 0u32;
        while db
            .put(Bytes::from(format!("k{i:06}")), Bytes::from(vec![0u8; 100]))
            .is_ok()
        {
            i += 1;
            assert!(i < 100_000, "the dead device never surfaced");
        }
        // Ring the doorbell as no writer could: every retry still waits
        // out `MERGE_WAIT_TIMEOUT`.
        let tree: &BLsmTree = &db;
        let before = tree.stats().merge_errors;
        let started = Instant::now();
        while started.elapsed() < Duration::from_millis(200) {
            bell01(&db).ring();
        }
        let waits = (started.elapsed().as_millis() / MERGE_WAIT_TIMEOUT.as_millis()) as u64;
        let errors = tree.stats().merge_errors - before;
        assert!(errors >= 1, "the merge thread stopped retrying");
        assert!(
            errors <= waits + 2,
            "{errors} failed quanta in {waits} waits: the merge thread spins"
        );
    }
}
