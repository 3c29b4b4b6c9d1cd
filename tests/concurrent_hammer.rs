//! Concurrency hammer: lock-free readers racing writers and the
//! background merge thread.
//!
//! The catalog-swap read path (DESIGN.md §10) promises that point reads
//! pin a consistent `C0`/catalog snapshot: a racing merge or write can
//! never expose a torn value, a vanished key, or a double-visible
//! version. These tests drive that promise hard — many reader threads on
//! [`ReadView`] clones against put/delete writers and live merge quanta.
//! That reads never wait on a merge driver is pinned in-crate, where the
//! driver locks are reachable (`read.rs`,
//! `reads_complete_while_every_driver_lock_is_held`).
//!
//! Run with `--features strict-invariants` to additionally verify the
//! tree's structural invariants at every merge-quantum boundary (which
//! includes every catalog swap): the background merge loop checks them
//! itself after each quantum, and the writer here re-checks from the
//! application side.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use blsm_repro::blsm::{AppendOperator, BLsmConfig, BLsmTree, ThreadedBLsm};
use blsm_repro::blsm_storage::{MemDevice, SharedDevice};

const VALUE_LEN: usize = 64;

fn key(i: u64) -> Bytes {
    Bytes::from(format!("user{i:08}"))
}

/// Every write stores `VALUE_LEN` copies of one byte, so any torn read —
/// a value mixing two versions, or a truncated one — is detectable from
/// the value alone.
fn value(b: u8) -> Bytes {
    Bytes::from(vec![b; VALUE_LEN])
}

fn new_db(mem_budget: usize) -> ThreadedBLsm {
    let data: SharedDevice = Arc::new(MemDevice::new());
    let wal: SharedDevice = Arc::new(MemDevice::new());
    let tree = BLsmTree::open(
        data,
        wal,
        2048,
        BLsmConfig {
            mem_budget,
            wal_capacity: 64 << 20,
            ..Default::default()
        },
        Arc::new(AppendOperator),
    )
    .unwrap();
    // A small quantum keeps the merge thread taking and releasing the
    // tree lock at a high rate, maximizing catalog-swap frequency.
    ThreadedBLsm::start(tree, 256 << 10).unwrap()
}

#[test]
fn point_reads_are_never_torn_under_churn() {
    const KEYS: u64 = 2_000;
    const WRITES_PER_WRITER: u64 = 6_000;
    const READERS: usize = 4;

    // A tiny C0 budget forces constant C0:C1 merges and periodic
    // C1':C2 rotations while the test runs.
    let db = Arc::new(new_db(128 << 10));
    for i in 0..KEYS {
        db.put(key(i), value(1)).unwrap();
    }

    let writers_done = Arc::new(AtomicBool::new(false));
    let reads_done = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let view = db.read_view();
            let done = writers_done.clone();
            let reads = reads_done.clone();
            std::thread::spawn(move || {
                let mut rng = 0x5eed ^ (r as u64) << 32;
                let mut local = 0u64;
                while !done.load(Ordering::SeqCst) || local < 500 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let id = (rng >> 33) % KEYS;
                    // Deleted keys may read as None; a present value must
                    // be whole: full length, all bytes identical.
                    if let Some(v) = view.get(&key(id)).unwrap() {
                        assert_eq!(v.len(), VALUE_LEN, "torn read: wrong length for key {id}");
                        let b = v[0];
                        assert!(
                            v.iter().all(|&x| x == b),
                            "torn read: mixed bytes for key {id}: {v:?}"
                        );
                    }
                    // Scans must also be whole per row.
                    if local.is_multiple_of(256) {
                        for item in view.scan(&key(id), 16).unwrap() {
                            let b = item.value[0];
                            assert!(
                                item.value.len() == VALUE_LEN && item.value.iter().all(|&x| x == b),
                                "torn scan row at {:?}",
                                item.key
                            );
                        }
                    }
                    local += 1;
                }
                reads.fetch_add(local, Ordering::SeqCst);
            })
        })
        .collect();

    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut rng = 0xbeef ^ (w << 40);
                for n in 0..WRITES_PER_WRITER {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let id = (rng >> 33) % KEYS;
                    if w == 1 && n.is_multiple_of(7) {
                        db.delete(key(id)).unwrap();
                    } else {
                        db.put(key(id), value((n % 251) as u8 + 1)).unwrap();
                    }
                    // Re-check the structural invariants from the
                    // application side while merges race (the merge
                    // thread already checks at every quantum boundary).
                    #[cfg(feature = "strict-invariants")]
                    if n.is_multiple_of(1_024) {
                        db.with_tree(BLsmTree::check_invariants).unwrap();
                    }
                }
            })
        })
        .collect();

    for h in writers {
        h.join().unwrap();
    }
    writers_done.store(true, Ordering::SeqCst);
    for h in readers {
        h.join().unwrap();
    }
    assert!(
        reads_done.load(Ordering::SeqCst) >= READERS as u64 * 500,
        "readers made no progress"
    );

    let stats = db.stats();
    assert!(stats.merges01 > 0, "the hammer never drove a merge");
    let tree = Arc::try_unwrap(db)
        .unwrap_or_else(|_| panic!("threads exited; sole owner expected"))
        .shutdown()
        .unwrap();
    // Post-churn sanity: the tree is still fully readable and consistent.
    for i in 0..KEYS {
        if let Some(v) = tree.get(&key(i)).unwrap() {
            assert_eq!(v.len(), VALUE_LEN);
        }
    }
}

/// Four writers × four readers × the background merge thread, on the
/// `&self` write path (DESIGN.md §15): no torn reads, no lost writes,
/// monotone seqnos.
///
/// Each writer owns a disjoint slice of the keyspace and rewrites it
/// round by round, so "no lost writes" is exact: after shutdown every
/// key must carry its owner's final-round byte — an earlier byte means
/// a put vanished in the sharded `C0`, the snowshovel handoff, or a
/// catalog publish. Keys spread their first byte across all sixteen
/// `C0` shards so the writers genuinely run in parallel.
#[test]
fn four_writers_four_readers_no_lost_writes_monotone_seqnos() {
    const WRITERS: u64 = 4;
    const READERS: usize = 4;
    const KEYS_PER_WRITER: u64 = 512;
    const ROUNDS: u64 = 12;

    fn wkey(w: u64, i: u64) -> Bytes {
        // First byte sweeps every top nibble → all 16 C0 shards.
        let mut k = vec![(i as u8 % 16) << 4];
        k.extend_from_slice(format!("w{w}k{i:06}").as_bytes());
        Bytes::from(k)
    }
    fn round_byte(r: u64) -> u8 {
        (r % 251) as u8 + 1
    }

    // Small C0 budget: the merge thread churns C0:C1 passes (and the
    // occasional rotation) under the writers the whole time.
    let db = Arc::new(new_db(256 << 10));
    let seqno_floor = db.with_tree(|t| t.next_seqno());

    let writers_done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let view = db.read_view();
            let done = writers_done.clone();
            std::thread::spawn(move || {
                let mut rng = 0xfeed ^ (r as u64) << 32;
                let mut local = 0u64;
                while !done.load(Ordering::SeqCst) || local < 500 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let w = (rng >> 33) % WRITERS;
                    let id = (rng >> 13) % KEYS_PER_WRITER;
                    // A present value must be whole: full length, all
                    // bytes identical (every round writes uniform bytes).
                    if let Some(v) = view.get(&wkey(w, id)).unwrap() {
                        let b = v[0];
                        assert!(
                            v.len() == VALUE_LEN && v.iter().all(|&x| x == b),
                            "torn read: key w{w}k{id}: {v:?}"
                        );
                    }
                    local += 1;
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut last_seen = 0u64;
                for r in 0..ROUNDS {
                    for i in 0..KEYS_PER_WRITER {
                        db.put(wkey(w, i), value(round_byte(r))).unwrap();
                    }
                    // Seqnos must never run backwards, from any thread's
                    // point of view.
                    let now = db.with_tree(|t| t.next_seqno());
                    assert!(
                        now >= last_seen,
                        "seqno ran backwards: {now} after {last_seen}"
                    );
                    assert!(now > last_seen, "a whole round allocated no seqnos");
                    last_seen = now;
                    #[cfg(feature = "strict-invariants")]
                    db.with_tree(BLsmTree::check_invariants).unwrap();
                }
            })
        })
        .collect();

    for h in writers {
        h.join().unwrap();
    }
    writers_done.store(true, Ordering::SeqCst);
    for h in readers {
        h.join().unwrap();
    }

    // Every put claims exactly one seqno ticket; none may be skipped or
    // double-issued.
    let allocated = db.with_tree(|t| t.next_seqno()) - seqno_floor;
    assert_eq!(
        allocated,
        WRITERS * KEYS_PER_WRITER * ROUNDS,
        "seqno tickets diverged from writes issued"
    );
    let stats = db.stats();
    assert!(stats.merges01 > 0, "the hammer never drove a merge");

    let tree = Arc::try_unwrap(db)
        .unwrap_or_else(|_| panic!("threads exited; sole owner expected"))
        .shutdown()
        .unwrap();
    // No lost writes: every key reads back its owner's final round.
    let want = round_byte(ROUNDS - 1);
    for w in 0..WRITERS {
        for i in 0..KEYS_PER_WRITER {
            let v = tree
                .get(&wkey(w, i))
                .unwrap()
                .unwrap_or_else(|| panic!("write lost outright: w{w}k{i}"));
            assert!(
                v.len() == VALUE_LEN && v.iter().all(|&x| x == want),
                "stale or torn final value for w{w}k{i}: got byte {}, want {want}",
                v[0]
            );
        }
    }
}

/// The buffer pool recycles an evicted page's buffer into its next miss
/// only when no reader still holds that page (DESIGN.md §13). Holder
/// threads keep a ring of pages alive across many evictions while churn
/// threads force misses and drop their pages at once, so recycling runs
/// constantly: every held page must keep the bytes stored at its pid.
#[test]
fn held_pool_pages_are_never_recycled_under_misses() {
    use blsm_repro::blsm_storage::page::PageType;
    use blsm_repro::blsm_storage::{BufferPool, Page, PageId};
    use std::sync::Barrier;

    const PAGES: u64 = 1024;
    const HELD: usize = 24;
    let stamp = |pid: u64| (pid % 251) as u8;
    let device: SharedDevice = Arc::new(MemDevice::new());
    for pid in 0..PAGES {
        let mut page = Page::new(PageType::Data);
        let payload = page.payload_mut();
        payload.fill(stamp(pid));
        payload[..8].copy_from_slice(&pid.to_le_bytes());
        device
            .write_at(PageId(pid).offset(), &page.to_bytes())
            .unwrap();
    }
    // 16 pages a shard: a holder's ring outlives many evictions.
    let pool = BufferPool::with_shards(device, 64, 4);
    let check = |pid: u64, payload: &[u8]| {
        assert_eq!(
            payload[..8],
            pid.to_le_bytes(),
            "page {pid} holds another page"
        );
        assert_eq!(
            payload[payload.len() - 1],
            stamp(pid),
            "page {pid} overwritten"
        );
    };
    let start = Barrier::new(4);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                let mut state = 0x5eed_0000 + t;
                let mut held = std::collections::VecDeque::with_capacity(HELD);
                start.wait();
                for _ in 0..20_000 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let pid = (state >> 33) % PAGES;
                    let page = pool.read(PageId(pid)).unwrap();
                    check(pid, page.payload());
                    if t < 2 {
                        // Holder: keep the page through later misses.
                        if held.len() == HELD {
                            held.pop_front();
                        }
                        held.push_back((pid, page));
                        for (pid, page) in &held {
                            check(*pid, page.payload());
                        }
                    }
                }
            });
        }
    });
    let stats = pool.stats();
    assert!(
        stats.evictions > 40_000,
        "misses must evict constantly: {stats:?}"
    );
}
