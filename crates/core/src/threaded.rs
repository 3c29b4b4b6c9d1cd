//! Background merge-thread drivers.
//!
//! The paper's implementation runs each merge on a dedicated thread
//! (§4.4.1); our engine exposes merges as incremental state machines so
//! the simulated-device experiments stay deterministic. [`ThreadedBLsm`]
//! puts the threads back for real deployments: one for `C0:C1` and one
//! for `C1':C2`, each repeatedly running a bounded quantum of its own
//! merge under its own driver lock and parking when it has none. On two
//! cores both merges progress at once, and the `C0` drain never waits
//! for a downstream quantum. Application threads use the tree
//! *directly* — the handle derefs to [`BLsmTree`], whose operations are
//! all `&self`, so this wrapper declares no operations of its own and
//! adds no mutex around the tree's.
//!
//! §4.4.1 notes the concurrency pitfalls of merge threads ("it is
//! prohibitively expensive to acquire a coarse-grained mutex for each
//! merged tuple or page ... each merge thread must take action based upon
//! stale statistics"). The split here matches: writers contend only on
//! their `C0` key-range shard (plus the log mutex when durability is on),
//! each merge thread holds its driver for one bounded quantum at a time,
//! and reads never take any of those locks (see `read.rs`). The tree's
//! write tail rings the `C0:C1` thread's [`Doorbell`] whenever a write
//! leaves `C0` above `Idle`; a pass that rotates `C1` into `C1'` rings
//! the `C1':C2` thread's; and the `C0:C1` drain rings the hard-cap bell
//! that writers over the cap park on, so a writer waits for drain
//! progress, never for a driver lock the thread keeps re-taking.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blsm_storage::{Result, StorageError};
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::stats;
use crate::tree::BLsmTree;

/// How long a merge thread sleeps between staleness re-checks when
/// nobody has rung it: the bound on how stale the spring-and-gear
/// schedule can go while writes skip the doorbell at `Idle`. Also how
/// long a writer parked at the hard cap sleeps between re-checks.
pub(crate) const MERGE_WAIT_TIMEOUT: Duration = Duration::from_millis(10);

/// A wake-up call: rung by whoever hands a merge thread work (or, for
/// the hard-cap bell, by the `C0:C1` drain), parked on by the thread
/// once its merge is idle (or by writers over the cap). Last in the
/// lock hierarchy — only ever taken with nothing held.
pub(crate) struct Doorbell {
    pub(crate) pending: Mutex<Bell>,
    cv: Condvar,
}

/// A doorbell's state, under its `pending` mutex.
#[derive(Default)]
pub(crate) struct Bell {
    /// A ring not yet consumed by [`Doorbell::park`].
    pub(crate) rung: bool,
    /// Threads waiting on the condvar. `ring` notifies only when this is
    /// non-zero: a write that rings a busy merge thread costs one
    /// uncontended lock, not a `futex_wake` syscall.
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

    /// Sleeps until the bell rings, `MERGE_WAIT_TIMEOUT` passes (so paced
    /// schedulers still make progress on idle trees) or `shutdown` is
    /// set, then clears the ring. After a failed quantum (`deaf`) the
    /// wait runs its full length whatever rings arrive: the dropped merge
    /// would otherwise be restarted — region, Bloom filter and all — once
    /// per write, only to fail again. The predicate is re-checked in a
    /// loop: a bare `if` would let a ring that lands between a
    /// spurious/timeout wakeup and the `rung = false` store below be
    /// silently consumed, stalling that work until the next timeout (the
    /// classic lost-wakeup shape).
    fn park(&self, deaf: bool, shutdown: &AtomicBool) {
        let mut bell = self.pending.lock();
        self.sleep(&mut bell, |bell| {
            (!deaf && bell.rung) || shutdown.load(Ordering::SeqCst)
        });
        bell.rung = false;
    }

    /// Parks the caller until `done` holds or `MERGE_WAIT_TIMEOUT`
    /// passes, leaving the ring flag alone (any number of writers may
    /// wait on one bell). `done` is evaluated under the bell's lock, so
    /// a ring that follows the change it reads cannot be lost.
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

/// What the tree's write path does differently while merge threads
/// are attached.
impl BLsmTree {
    /// True while [`ThreadedBLsm`]'s merge threads run this tree's merges.
    pub(crate) fn merge_threads_attached(&self) -> bool {
        // ordering: Acquire — see the field docs in `catalog.rs`.
        self.shared.merge_thread_attached.load(Ordering::Acquire)
    }

    /// Wakes the attached `C0:C1` merge thread (if any) — unless the tree
    /// is idle.
    ///
    /// Below the low watermark no scheduler starts a merge (naive and
    /// spring-and-gear wait for the hard cap resp. high water; gear's
    /// fill unit is at least `LOW_WATER * mem_budget`), so waking a
    /// parked merge thread would buy a futex syscall and a context switch
    /// per write just to find nothing to do. That cost is invisible with
    /// one busy tree (the merge thread is rarely parked) but dominates
    /// with N mostly-idle shards on few cores. Skipped rings are bounded
    /// by the merge loop's wait timeout, which runs `maintenance`
    /// regardless; and a merge already in flight keeps the loop in its
    /// busy phase (it only parks once no merge is active), so nothing
    /// can stall behind a skipped ring.
    pub(crate) fn ring_doorbell(&self) {
        if self.merge_threads_attached()
            && self.backpressure() != crate::sched::BackpressureLevel::Idle
        {
            self.shared.bell01.ring();
        }
    }

    /// The hard cap with merge threads attached: parks a writer over it
    /// until the `C0:C1` thread's drain brings `C0` back to the high
    /// water mark, so the writer never queues on the driver the thread
    /// keeps re-taking. False when a merge quantum failed or a merge
    /// thread died meanwhile: the caller's locked path then returns the
    /// failure's typed error, or drains `C0` itself.
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
            self.shared.bell01.ring();
            self.shared
                .bell_cap
                .wait_until(|| c0() + incoming <= mark || c0() == 0 || failed());
        }
        true
    }
}

struct Shared {
    /// The tree itself — writes and reads are `&self`, so no wrapper
    /// mutex: application threads call straight into it while the merge
    /// threads drive its two merges.
    tree: BLsmTree,
    // ordering: SeqCst — shutdown flag checked against the condvar
    // handshake; SeqCst keeps the store totally ordered with the
    // doorbell rings so a merge loop cannot miss it (model-checked in
    // crates/modelcheck).
    shutdown: AtomicBool,
}

/// A [`BLsmTree`] with its two background merge threads. Derefs to the
/// tree, and through it to the tree's [`ReadView`](crate::ReadView):
/// every write (`put`, `commit_group`, …) is the tree's own, every read
/// (`get`, `scan`, `stats`, …) the view's.
pub struct ThreadedBLsm {
    /// `Some` until `shutdown` hands the tree back.
    shared: Option<Arc<Shared>>,
    /// The `C0:C1` and `C1':C2` threads, until stopped.
    merge_threads: Vec<std::thread::JoinHandle<()>>,
    /// Merge input bytes processed per background quantum.
    quantum: u64,
}

/// The two merges, one thread each.
#[derive(Clone, Copy)]
enum Driver {
    C0C1,
    C1C2,
}

impl std::fmt::Debug for ThreadedBLsm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedBLsm")
            .field("quantum", &self.quantum)
            .field("running", &self.shared.is_some())
            .finish_non_exhaustive()
    }
}

impl std::ops::Deref for ThreadedBLsm {
    type Target = BLsmTree;

    fn deref(&self) -> &BLsmTree {
        match &self.shared {
            Some(s) => &s.tree,
            // Unreachable: `shutdown` consumes `self`, so no method can run
            // on a shut-down handle.
            None => panic!("tree used after shutdown"),
        }
    }
}

impl ThreadedBLsm {
    /// Wraps a tree and starts its two merge threads. `quantum` bounds
    /// merge bytes processed per background quantum. Writers never run
    /// merge work or wait on a driver: one over the hard `C0` cap parks
    /// until the `C0:C1` thread's drain brings `C0` back to the high
    /// water mark; reads never wait.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::Io`] if a merge thread cannot be spawned
    /// (e.g. the process hit its thread limit); the tree itself is
    /// dropped in that case, so reopen it from its devices.
    pub fn start(tree: BLsmTree, quantum: u64) -> Result<ThreadedBLsm> {
        // ordering: Release — see the field docs in `catalog.rs`.
        tree.shared
            .merge_thread_attached
            .store(true, Ordering::Release);
        let shared = Arc::new(Shared {
            tree,
            shutdown: AtomicBool::new(false),
        });
        let mut db = ThreadedBLsm {
            shared: Some(shared.clone()),
            merge_threads: Vec::with_capacity(2),
            quantum,
        };
        for (name, driver) in [
            ("blsm-merge01", Driver::C0C1),
            ("blsm-merge12", Driver::C1C2),
        ] {
            let thread_shared = shared.clone();
            let thread = std::thread::Builder::new()
                .name(name.into())
                .spawn(move || merge_loop(&thread_shared, driver, quantum.max(64 << 10)))
                .map_err(StorageError::Io)?;
            db.merge_threads.push(thread);
        }
        Ok(db)
    }

    /// Runs `f` against the tree — for callers that want a `&BLsmTree`
    /// function (`db.with_tree(BLsmTree::checkpoint)`); equivalent to
    /// calling through the deref.
    pub fn with_tree<T>(&self, f: impl FnOnce(&BLsmTree) -> T) -> T {
        f(self)
    }

    /// Bound on merge bytes per background quantum.
    pub fn quantum(&self) -> u64 {
        self.quantum
    }

    /// Stops the merge threads, completes all pending merges, and returns
    /// the tree.
    pub fn shutdown(mut self) -> Result<BLsmTree> {
        self.stop_threads();
        let Some(shared) = self.shared.take() else {
            // Unreachable: `shutdown` takes `self` by value.
            return Err(blsm_storage::StorageError::corruption(
                blsm_storage::ComponentId::Tree,
                None,
                "shutdown on an already shut-down tree",
            ));
        };
        let shared = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("a merge thread still holds the tree"));
        let tree = shared.tree;
        tree.checkpoint()?;
        Ok(tree)
    }

    fn stop_threads(&mut self) {
        let Some(shared) = self.shared.as_ref() else {
            return;
        };
        shared.shutdown.store(true, Ordering::SeqCst);
        let tree = &shared.tree.shared;
        tree.bell01.ring();
        tree.bell12.ring();
        for thread in self.merge_threads.drain(..) {
            let _ = thread.join();
        }
        // The returned tree is a bare tree again: nobody left to wake.
        // ordering: Release — see the field docs in `catalog.rs`.
        tree.merge_thread_attached.store(false, Ordering::Release);
    }
}

impl Drop for ThreadedBLsm {
    fn drop(&mut self) {
        if !self.merge_threads.is_empty() {
            self.stop_threads();
        }
        // Drop-safe shutdown hook: a handle dropped without an explicit
        // `shutdown` (e.g. a server unwinding on error) still checkpoints
        // so the WAL closes cleanly. Best-effort — a checkpoint error
        // cannot propagate out of `drop`, and recovery replays the WAL
        // anyway; `try_unwrap` fails only if another thread still holds
        // the `Arc`, in which case the tree stays live for that thread.
        if let Some(shared) = self.shared.take() {
            if let Ok(shared) = Arc::try_unwrap(shared) {
                let _ = shared.tree.checkpoint();
            }
        }
    }
}

/// Armed for a merge thread's lifetime: if the thread unwinds (a
/// `strict-invariants` violation, a failed assert), the tree is handed
/// back to its writers. Writers parked at the hard cap would otherwise
/// wait on a drain that never comes; with the tree detached they, and
/// every later writer, pace and drain on the drivers themselves.
struct DetachOnPanic<'a>(&'a BLsmTree);

impl Drop for DetachOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let tree = &self.0.shared;
            // ordering: Release — see the field docs in `catalog.rs`.
            tree.merge_thread_attached.store(false, Ordering::Release);
            stats::bump(&tree.stats.merge_errors, 1);
            tree.bell_cap.ring();
        }
    }
}

fn merge_loop(shared: &Shared, driver: Driver, quantum: u64) {
    let tree = &shared.tree;
    let _detach = DetachOnPanic(tree);
    let (step, bell): (fn(&BLsmTree, u64) -> Result<bool>, _) = match driver {
        Driver::C0C1 => (BLsmTree::maintain01, &tree.shared.bell01),
        Driver::C1C2 => (BLsmTree::maintain12, &tree.shared.bell12),
    };
    while !shared.shutdown.load(Ordering::SeqCst) {
        // One bounded quantum of this thread's merge; writers, readers
        // and the other merge proceed concurrently. A failed quantum is
        // counted here; the error itself reaches the next writer through
        // `pace`.
        let outcome = step(tree, quantum);
        if outcome.is_err() {
            stats::bump(&tree.shared.stats.merge_errors, 1);
            // Writers parked at the hard cap pick the error up on the
            // tree's locked path.
            tree.shared.bell_cap.ring();
        }
        // Every background quantum is an invariant boundary; a
        // violation here means the merge thread corrupted the tree,
        // which no caller can recover from.
        #[cfg(feature = "strict-invariants")]
        if let Err(e) = tree.check_invariants() {
            panic!("merge-thread quantum violated a tree invariant: {e}");
        }
        if !matches!(outcome, Ok(true)) {
            bell.park(outcome.is_err(), &shared.shutdown);
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::config::BLsmConfig;
    use blsm_memtable::{AppendOperator, PassMode};
    use blsm_storage::{MemDevice, SharedDevice};
    use bytes::Bytes;
    use std::time::Duration;

    /// A tree on `data` whose `C1` holds 20 000 even-numbered keys of
    /// 100-byte values (~2.3 MB, many read-ahead chunks), reopened with
    /// a 64 KiB `C0` and `R` pinned so no pass rotates `C1`, under merge
    /// threads whose quantum covers a whole pass.
    fn threaded_over_a_large_c1(data: SharedDevice) -> ThreadedBLsm {
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
        ThreadedBLsm::start(open(64 << 10), 1 << 30).unwrap()
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
        // `external_pacing`: writers start no merges of their own, so a
        // started pass proves the merge thread ran `maintenance`.
        let tree = BLsmTree::open(
            Arc::new(MemDevice::new()),
            Arc::new(MemDevice::new()),
            1024,
            BLsmConfig {
                mem_budget: 64 << 10,
                external_pacing: true,
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
        let tree: &BLsmTree = &db;
        tree.shared.bell01.ring();
        while tree.shared.bell01.pending.lock().rung {
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
            tree.shared.bell01.ring();
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
