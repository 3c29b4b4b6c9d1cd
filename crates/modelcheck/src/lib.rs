//! Model-checked miniatures of the four core bLSM concurrency
//! protocols, written against the swappable `sync` layer so the
//! deterministic scheduler (`sync` with the `model` feature) can
//! explore every interleaving of their scheduling decisions.
//!
//! Each protocol takes a mode switch that either runs the shape the
//! real code uses (`Correct`) or deliberately reintroduces a historical
//! bug class, which the checker must catch:
//!
//! * [`condvar_handshake`] — a merge lane's sleep on the plane's
//!   `Doorbell` (`blsm`'s `plane.rs`). The buggy mode signals
//!   shutdown without taking the mutex: the notify can land between the
//!   worker's predicate check and its park, and with a timeout-free
//!   wait the lost wakeup manifests as a deadlock.
//! * [`catalog_publish_reap`] — `CatalogCell` publication plus
//!   sole-`Arc` reclamation of the superseded catalog. The buggy mode
//!   reaps without checking `Arc::strong_count`, so a reader holding a
//!   clone can observe a reaped catalog.
//! * [`snowshovel_handoff`] — the C0 snowshovel's consumed-prefix
//!   handoff: entries inserted while a merge quantum is in flight must
//!   be retained for the next pass. The buggy mode clears the whole
//!   buffer, losing concurrent inserts.
//! * [`c0_publish_pin`] — the concurrent-C0 insert / drain /
//!   catalog-publish handoff (DESIGN.md §15): a drained entry is held
//!   in the shard's retained table until the catalog publish, which
//!   runs inside an epoch-bumped seqlock section that pinning readers
//!   retry around. The buggy mode clears the retained copy *before*
//!   the publish with no odd-epoch window, so a reader's pin spans the
//!   gap and the entry vanishes from both places at once.
//!
//! The invariants are `assert!`s inside the protocols; the model
//! checker reports any schedule that violates one (or deadlocks), with
//! the decision sequence needed to replay it.

use sync::atomic::{AtomicBool, AtomicU64, Ordering};
use sync::{thread, Arc, Condvar, Mutex, RwLock};

/// How the shutdown side of the handshake behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shutdown {
    /// The shipped shape: set the flag, then set `work_pending` and
    /// notify *under the mutex* — only when the worker is parked, as
    /// the parked count kept under that mutex says.
    Correct,
    /// The historical bug: set the flag and notify without the mutex.
    /// The notify can race into the predicate-to-park window and be
    /// lost; the worker then sleeps forever.
    LostWakeup,
}

/// A merge lane's sleep/kick handshake on the plane's `Doorbell`
/// (`blsm`'s `plane.rs`), with a timeout-free wait so a lost wakeup deadlocks instead of costing
/// latency. `kicks` is the number of work units handed over before
/// shutdown (1 for PR-bounded runs, more for nightly depth).
pub fn condvar_handshake(mode: Shutdown, kicks: usize) {
    struct Bell {
        pending: bool,
        parked: usize,
    }
    struct Shared {
        work_pending: Mutex<Bell>,
        work_cv: Condvar,
        // ordering: SeqCst — mirrors the production shutdown flag; under the
        // model scheduler every ordering is sequentially consistent anyway.
        shutdown: AtomicBool,
        // ordering: SeqCst — quantum counter checked after the join.
        quanta: AtomicU64,
    }
    let shared = Arc::new(Shared {
        work_pending: Mutex::new(Bell {
            pending: false,
            parked: 0,
        }),
        work_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        quanta: AtomicU64::new(0),
    });
    // A ring: set the flag and notify only while someone is parked,
    // under the mutex (`Doorbell::ring`; `notify_all`, as there, since
    // many writers may park on the hard-cap bell).
    let ring = |s: &Shared| {
        let mut bell = s.work_pending.lock();
        bell.pending = true;
        if bell.parked > 0 {
            s.work_cv.notify_all();
        }
    };

    let worker = {
        let s = Arc::clone(&shared);
        thread::spawn(move || loop {
            if s.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let mut bell = s.work_pending.lock();
            while !bell.pending && !s.shutdown.load(Ordering::SeqCst) {
                bell.parked += 1;
                s.work_cv.wait(&mut bell);
                bell.parked -= 1;
            }
            if bell.pending {
                bell.pending = false;
                drop(bell);
                s.quanta.fetch_add(1, Ordering::SeqCst);
            }
        })
    };

    for _ in 0..kicks {
        ring(&shared);
    }

    shared.shutdown.store(true, Ordering::SeqCst);
    match mode {
        Shutdown::Correct => ring(&shared),
        Shutdown::LostWakeup => {
            shared.work_cv.notify_one();
        }
    }
    drop(worker.join());

    let quanta = shared.quanta.load(Ordering::SeqCst);
    assert!(
        quanta as usize <= kicks + 1,
        "worker ran {quanta} quanta for {kicks} kick(s)"
    );
}

/// How the superseded catalog is reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reap {
    /// The shipped shape: reclaim only as the sole `Arc` owner; a
    /// catalog still pinned by a reader is retained for a later
    /// quantum.
    SoleOwner,
    /// The bug: reclaim unconditionally on publish, ignoring pins.
    Premature,
}

/// One published catalog generation. `freed` models on-disk resources
/// being reclaimed; a reader holding the `Arc` must never see it set.
#[derive(Debug)]
pub struct Catalog {
    pub generation: u64,
    // ordering: SeqCst — models resource reclamation; the invariant is that
    // no reader's load ever observes `true` while it holds the `Arc`.
    freed: AtomicBool,
}

/// `CatalogCell` publish (`blsm::catalog`) + sole-`Arc` reap: `readers`
/// concurrently snapshot the cell (a lock-free read-path load) while
/// the main thread publishes a successor and reclaims the old
/// generation.
pub fn catalog_publish_reap(mode: Reap, readers: usize) {
    let cell = Arc::new(RwLock::new(Arc::new(Catalog {
        generation: 0,
        freed: AtomicBool::new(false),
    })));

    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                let snap = cell.read().clone();
                assert!(
                    !snap.freed.load(Ordering::SeqCst),
                    "reader observed a reaped catalog (generation {})",
                    snap.generation
                );
                snap.generation
            })
        })
        .collect();

    let old = {
        let mut slot = cell.write();
        std::mem::replace(
            &mut *slot,
            Arc::new(Catalog {
                generation: 1,
                freed: AtomicBool::new(false),
            }),
        )
    };
    match mode {
        Reap::SoleOwner => {
            // Once unpublished the count only decreases, so observing 1
            // proves no reader pins it; otherwise retain it for a later
            // quantum (modeled by simply not reaping in this run).
            if Arc::strong_count(&old) == 1 {
                old.freed.store(true, Ordering::SeqCst);
            }
        }
        Reap::Premature => {
            old.freed.store(true, Ordering::SeqCst);
        }
    }

    for h in handles {
        if let Ok(generation) = h.join() {
            assert!(generation <= 1, "reader saw unpublished generation");
        }
    }
}

/// What the merge does with C0 after writing a quantum out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Handoff {
    /// The shipped shape: remove exactly the consumed (snapshotted)
    /// prefix; entries inserted mid-merge are retained.
    RetainNew,
    /// The bug: clear the whole buffer, dropping concurrent inserts.
    ClearAll,
}

/// The snowshovel retained-entry handoff (`blsm::c0`): writers insert
/// while the merge snapshots, "writes to C1", and trims the buffer.
/// Invariant: every inserted key ends up consumed or still resident.
pub fn snowshovel_handoff(mode: Handoff, writers: usize) {
    let c0 = Arc::new(Mutex::new(vec![1u64, 2]));

    let handles: Vec<_> = (0..writers)
        .map(|i| {
            let c0 = Arc::clone(&c0);
            thread::spawn(move || c0.lock().push(10 + i as u64))
        })
        .collect();

    // Merge quantum (main thread): snapshot the consumed prefix …
    let consumed: Vec<u64> = c0.lock().clone();
    // … write it to C1 (not modeled) … then hand the buffer back.
    match mode {
        Handoff::RetainNew => {
            c0.lock().retain(|k| !consumed.contains(k));
        }
        Handoff::ClearAll => {
            c0.lock().clear();
        }
    }

    for h in handles {
        drop(h.join());
    }

    let remaining = c0.lock().clone();
    let mut expected: Vec<u64> = vec![1, 2];
    expected.extend((0..writers).map(|i| 10 + i as u64));
    for k in expected {
        assert!(
            consumed.contains(&k) || remaining.contains(&k),
            "entry {k} lost in the C0 handoff"
        );
    }
}

/// How the pass-end catalog publish interacts with pinning readers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Publish {
    /// The shipped shape: the epoch goes odd, the catalog is stored,
    /// the retained copies clear, the epoch goes even. A pin whose two
    /// epoch loads bracket any part of the publish observes odd or
    /// changed and retries.
    EpochPinned,
    /// The bug: clear the retained copies before the catalog store,
    /// with no odd-epoch window. A reader pinning across the gap finds
    /// the drained entry in neither place.
    UnpinnedClear,
}

/// The concurrent-C0 insert / drain / catalog-publish handoff
/// (`blsm_memtable::ConcurrentC0` + `blsm::read`, DESIGN.md §15).
///
/// One shard stands in for sixteen: the main thread drains the seeded
/// entry into the retained table (the `DrainGuard` step), then
/// publishes it to the catalog; a concurrent writer's insert races the
/// drain; `readers` threads pin with the epoch-seqlock check and assert
/// the drained entry is visible in C0 or the catalog — the read path's
/// "never both, never neither" guarantee. Each reader makes a single
/// pin attempt (the real loop spins until consistent; one attempt keeps
/// the schedule tree finite and loses nothing — a collision with the
/// publish just ends the reader, the invariant is asserted exactly when
/// the pin succeeds).
pub fn c0_publish_pin(mode: Publish, readers: usize) {
    struct Tables {
        current: Vec<u64>,
        retained: Vec<u64>,
    }
    struct C0 {
        /// The single modeled shard (`Shard::tables` in the real code).
        tables: Mutex<Tables>,
        /// Seqlock publish epoch.
        // ordering: SeqCst — models the Acquire/Release seqlock; under the
        // model scheduler every ordering is sequentially consistent anyway.
        epoch: AtomicU64,
        /// The published component catalog (entry list stands in for it).
        catalog: Mutex<Vec<u64>>,
    }
    const DRAINED: u64 = 1;
    let c0 = Arc::new(C0 {
        tables: Mutex::new(Tables {
            current: vec![DRAINED],
            retained: Vec::new(),
        }),
        epoch: AtomicU64::new(0),
        catalog: Mutex::new(Vec::new()),
    });

    let writer = {
        let c0 = Arc::clone(&c0);
        thread::spawn(move || c0.tables.lock().current.push(2))
    };

    // Drain step (the exclusive `DrainGuard`): move the entry to the
    // retained table so concurrent readers keep seeing it until the
    // merge output is published. The writer's insert races this.
    {
        let mut t = c0.tables.lock();
        t.current.retain(|&k| k != DRAINED);
        t.retained.push(DRAINED);
    }
    // The insert/drain race is resolved by here. Joining the writer
    // and only then spawning the readers keeps the schedule tree
    // bounded: a drain is invisible to readers (it moves the entry
    // between tables covered by the same lock), so the only race a
    // reader can observe — and the one the seeded bug breaks — is its
    // pin spanning the publish below.
    drop(writer.join());
    let handles: Vec<_> = (0..readers)
        .map(|_| {
            let c0 = Arc::clone(&c0);
            thread::spawn(move || {
                let e1 = c0.epoch.load(Ordering::SeqCst);
                if e1 & 1 == 1 {
                    return; // publish in flight; the real loop retries
                }
                let in_c0 = {
                    let t = c0.tables.lock();
                    t.current.contains(&DRAINED) || t.retained.contains(&DRAINED)
                };
                let in_catalog = c0.catalog.lock().contains(&DRAINED);
                if c0.epoch.load(Ordering::SeqCst) == e1 {
                    assert!(
                        in_c0 || in_catalog,
                        "pinned reader lost entry {DRAINED} across the publish"
                    );
                }
            })
        })
        .collect();
    // Pass end: publish the merge output and release the retained copy.
    match mode {
        Publish::EpochPinned => {
            c0.epoch.fetch_add(1, Ordering::SeqCst); // odd: publish begins
            c0.catalog.lock().push(DRAINED);
            c0.tables.lock().retained.clear();
            c0.epoch.fetch_add(1, Ordering::SeqCst); // even: publish done
        }
        Publish::UnpinnedClear => {
            c0.tables.lock().retained.clear();
            c0.catalog.lock().push(DRAINED);
        }
    }

    for h in handles {
        drop(h.join());
    }

    // The racing insert survives the publish in both modes (the seeded
    // bug is reader-visible, not durably lost).
    let t = c0.tables.lock();
    assert!(t.current.contains(&2), "concurrent insert lost at pass end");
    assert!(
        c0.catalog.lock().contains(&DRAINED),
        "drained entry never published"
    );
}
