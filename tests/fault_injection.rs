//! Failure-injection tests: the engine must surface device failures as
//! errors (never panic or corrupt), and recover from power loss that
//! tears the final write.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::sync::Arc;

use bytes::Bytes;

use blsm_repro::blsm::{AppendOperator, BLsmConfig, BLsmTree, Durability};
use blsm_repro::blsm_storage::wal::{replay_report, WalRecord, FRAME_HEADER_LEN};
use blsm_repro::blsm_storage::{FaultMode, FaultyDevice, MemDevice, SharedDevice};

fn key(i: u64) -> Bytes {
    Bytes::from(format!("user{i:08}"))
}

fn config() -> BLsmConfig {
    BLsmConfig {
        mem_budget: 128 << 10,
        wal_capacity: 32 << 20,
        ..Default::default()
    }
}

/// Writes until the data device dies mid-run; the engine must return an
/// error (not panic), and the pre-fault state must be recoverable from
/// the underlying medium.
#[test]
fn data_device_death_is_an_error_not_a_panic() {
    let medium: SharedDevice = Arc::new(MemDevice::new());
    let wal_medium: SharedDevice = Arc::new(MemDevice::new());
    // Enough budget to survive the initial manifest + some merges.
    let data: SharedDevice = Arc::new(FaultyDevice::new(
        medium.clone(),
        FaultMode::FailWrites,
        400,
    ));
    let tree = BLsmTree::open(
        data,
        wal_medium.clone(),
        512,
        config(),
        Arc::new(AppendOperator),
    )
    .unwrap();
    let mut failed_at = None;
    for i in 0..50_000u64 {
        let id = (i * 7919) % 20_000;
        match tree.put(key(id), Bytes::from(vec![0u8; 500])) {
            Ok(()) => {}
            Err(e) => {
                assert!(
                    format!("{e}").contains("injected fault"),
                    "unexpected error {e}"
                );
                failed_at = Some(i);
                break;
            }
        }
    }
    let failed_at = failed_at.expect("the fault must eventually fire");
    assert!(failed_at > 0, "some writes must succeed before the fault");
    // The medium (what survived) plus the WAL must reopen into a
    // consistent tree: recovery only trusts the last *completed* manifest.
    drop(tree);
    let recovered = BLsmTree::open(medium, wal_medium, 512, config(), Arc::new(AppendOperator))
        .expect("recovery after device death");
    // Spot-check that recovered reads behave (values are whatever the
    // durable prefix says; they must parse, not panic).
    for i in (0..20_000u64).step_by(997) {
        let _ = recovered.get(&key(i)).unwrap();
    }
}

/// The data device dies while a `C0:C1` pass seals its output (index,
/// Bloom filter, footer): the pass's merge state is gone but `C0`'s pass
/// never ended. Every later attempt to start a pass — a checkpoint, the
/// one `Drop` runs — must be the typed error, never `begin_pass`'s
/// "pass already active" panic; the log still holds every row.
#[test]
fn a_pass_that_dies_while_sealing_is_an_error_on_every_retry() {
    let medium: SharedDevice = Arc::new(MemDevice::new());
    let wal_medium: SharedDevice = Arc::new(MemDevice::new());
    // Budget 0: the first data-device write fails, and with a few pages
    // of rows that write is the builder's flush inside `finish`.
    let data: SharedDevice = Arc::new(FaultyDevice::new(medium.clone(), FaultMode::FailWrites, 0));
    let open = |data, wal| BLsmTree::open(data, wal, 512, config(), Arc::new(AppendOperator));
    let tree = open(data, wal_medium.clone()).unwrap();
    let row = || Bytes::from(vec![7u8; 100]);
    for i in 0..100u64 {
        tree.put(key(i), row()).unwrap();
    }
    // With `C0` drained and empty, then with fresh rows in it (the log
    // device is healthy, so writes still land).
    assert!(tree.checkpoint().is_err());
    assert!(tree.checkpoint().is_err());
    for i in 100..110u64 {
        let _ = tree.put(key(i), row());
    }
    assert!(tree.checkpoint().is_err());
    drop(tree);
    let recovered = open(medium, wal_medium).expect("recovery after device death");
    for i in 0..100u64 {
        assert_eq!(recovered.get(&key(i)).unwrap(), Some(row()), "row {i} lost");
    }
}

/// A device that hiccups — one failed merge-sized operation every 5 000
/// puts, healthy otherwise — under a client that retries a failed put and
/// reopens the store when told to. A merge that met the error is dropped,
/// never resumed (a resumed one reads its latched iterators as
/// "exhausted" and publishes a component cut off at the error), so every
/// acknowledged write must read back and the components must scrub clean.
fn transient_faults_lose_nothing(mode: FaultMode) {
    let wal: SharedDevice = Arc::new(MemDevice::new());
    let medium: SharedDevice = Arc::new(MemDevice::new());
    let flaky = Arc::new(FaultyDevice::new(medium, mode, u64::MAX));
    let config = BLsmConfig {
        mem_budget: 64 << 10,
        ..config()
    };
    let open = || {
        let (data, wal, op) = (flaky.clone(), wal.clone(), Arc::new(AppendOperator));
        BLsmTree::open(data, wal, 512, config.clone(), op).unwrap()
    };
    let mut tree = open();
    let mut model = std::collections::HashMap::new();
    let mut errors = 0;
    for i in 0..30_000u64 {
        if i % 5_000 == 2_500 {
            flaky.fail_next(1);
        }
        let (k, v) = (key((i * 7919) % 10_000), Bytes::from(format!("{i:0200}")));
        while let Err(e) = tree.put(k.clone(), v.clone()) {
            errors += 1;
            assert!(errors < 100, "put {i} keeps failing: {e}");
            // A failed `C0:C1` pass wedges the handle; the log holds
            // every row it had drained.
            if e.to_string().contains("reopen the tree") {
                drop(tree);
                tree = open();
            }
        }
        model.insert(k, v);
    }
    tree.checkpoint().unwrap();
    assert!(errors >= 6, "only {errors} of the 6 faults surfaced");
    let wrong = model
        .iter()
        .filter(|(k, v)| tree.get(k).unwrap().as_ref() != Some(*v))
        .count();
    assert_eq!(wrong, 0, "acknowledged keys missing or stale ({mode:?})");
    assert!(tree.scrub().is_clean(), "{:?}", tree.scrub().errors);
}

#[test]
fn a_transient_fault_mid_merge_loses_nothing() {
    transient_faults_lose_nothing(FaultMode::FailReads);
    transient_faults_lose_nothing(FaultMode::FailWrites);
}

/// Power loss that tears the final data-device write: the shadow-paged
/// manifest must fall back to the previous root, and the WAL must replay
/// every acknowledged write.
#[test]
fn torn_final_write_recovers_every_acknowledged_write() {
    let medium: SharedDevice = Arc::new(MemDevice::new());
    let wal_medium: SharedDevice = Arc::new(MemDevice::new());
    let data: SharedDevice = Arc::new(FaultyDevice::new(
        medium.clone(),
        FaultMode::TornWriteThenDead,
        300,
    ));
    let mut acknowledged = Vec::new();
    {
        let tree = BLsmTree::open(
            data,
            wal_medium.clone(),
            512,
            config(),
            Arc::new(AppendOperator),
        )
        .unwrap();
        for i in 0..50_000u64 {
            let id = (i * 7919) % 20_000;
            let v = Bytes::from(format!("v{i}"));
            match tree.put(key(id), v.clone()) {
                Ok(()) => acknowledged.push((key(id), v)),
                Err(_) => break, // power loss
            }
        }
        assert!(!acknowledged.is_empty());
    }
    // Recover from the torn medium.
    let tree = BLsmTree::open(medium, wal_medium, 512, config(), Arc::new(AppendOperator))
        .expect("recovery after torn write");
    // Last writer wins per key.
    let mut latest = std::collections::HashMap::new();
    for (k, v) in &acknowledged {
        latest.insert(k.clone(), v.clone());
    }
    for (k, v) in &latest {
        let got = tree.get(k).unwrap();
        assert_eq!(got.as_ref(), Some(v), "acknowledged write lost for {k:?}");
    }
}

/// A dying *log* device: with buffered durability the put that cannot be
/// logged must fail, and the tree must remain usable for reads.
#[test]
fn wal_device_death_fails_writes_cleanly() {
    let data: SharedDevice = Arc::new(MemDevice::new());
    let wal: SharedDevice = Arc::new(FaultyDevice::new(
        Arc::new(MemDevice::new()),
        FaultMode::FailWrites,
        200,
    ));
    let tree = BLsmTree::open(data, wal, 512, config(), Arc::new(AppendOperator)).unwrap();
    let mut wrote = 0u64;
    let mut first_err = None;
    for i in 0..10_000u64 {
        match tree.put(key(i), Bytes::from_static(b"v")) {
            Ok(()) => wrote += 1,
            Err(e) => {
                first_err = Some(format!("{e}"));
                break;
            }
        }
    }
    assert!(first_err.unwrap_or_default().contains("injected fault"));
    assert!(wrote > 0);
    // Reads of previously written keys still work.
    assert_eq!(
        tree.get(&key(0)).unwrap().unwrap(),
        Bytes::from_static(b"v")
    );
}

/// One failed log write: the write that met it errors, the next is
/// acknowledged, and after a crash replay must reach it (a flush that
/// dropped its frames made the next one write at their offset, where
/// replay stops). A failed `Buffered` write leaves the log entirely.
fn wal_hiccup_loses_nothing(durability: Durability) {
    let (data, wal_medium): (SharedDevice, SharedDevice) =
        (Arc::new(MemDevice::new()), Arc::new(MemDevice::new()));
    let wal = Arc::new(FaultyDevice::new(
        wal_medium.clone(),
        FaultMode::FailWrites,
        u64::MAX,
    ));
    let config = BLsmConfig {
        durability,
        ..config()
    };
    let open = |wal| {
        BLsmTree::open(
            data.clone(),
            wal,
            512,
            config.clone(),
            Arc::new(AppendOperator),
        )
    };
    let tree = open(wal.clone()).unwrap();
    tree.put(key(0), Bytes::from_static(b"a")).unwrap();
    wal.fail_next(1);
    assert!(
        tree.put(key(1), Bytes::from_static(b"b")).is_err(),
        "{durability:?}"
    );
    tree.put(key(2), Bytes::from_static(b"c")).unwrap();
    drop(tree); // crash: the log is all there is

    // Every record still in the log sits at its own LSN, in order.
    let report = replay_report(&wal_medium, config.wal_capacity, 0);
    let logged = if durability == Durability::Sync { 3 } else { 2 };
    assert_eq!(report.records.len(), logged, "{durability:?}: {report:?}");
    let next = |r: &WalRecord| r.lsn + (FRAME_HEADER_LEN + r.payload.len()) as u64;
    assert!(report.records.windows(2).all(|w| w[1].lsn == next(&w[0])));
    let tree = open(wal_medium).unwrap();
    assert_eq!(tree.get(&key(0)).unwrap(), Some(Bytes::from_static(b"a")));
    assert_eq!(tree.get(&key(2)).unwrap(), Some(Bytes::from_static(b"c")));
}

#[test]
fn a_wal_write_hiccup_loses_no_acknowledged_write() {
    wal_hiccup_loses_nothing(Durability::Sync);
    wal_hiccup_loses_nothing(Durability::Buffered);
}

/// Read faults surface as errors and do not poison the tree: once the
/// "flaky" period passes (budget-based injection only fails a prefix
/// here), operation resumes.
#[test]
fn read_faults_are_propagated() {
    let medium: SharedDevice = Arc::new(MemDevice::new());
    let wal: SharedDevice = Arc::new(MemDevice::new());
    // Build a tree on the raw medium first.
    {
        let tree = BLsmTree::open(
            medium.clone(),
            wal.clone(),
            512,
            config(),
            Arc::new(AppendOperator),
        )
        .unwrap();
        for i in 0..5_000u64 {
            let id = (i * 7919) % 5_000;
            tree.put(key(id), Bytes::from(vec![1u8; 500])).unwrap();
        }
        tree.checkpoint().unwrap();
    }
    // Reopen behind a read-fault wrapper with a small budget: open itself
    // reads (manifest/footers), so give it room, then trip during gets.
    let flaky: SharedDevice = Arc::new(FaultyDevice::new(medium, FaultMode::FailReads, 5_000));
    let tree = BLsmTree::open(flaky, wal, 64, config(), Arc::new(AppendOperator)).unwrap();
    let mut errors = 0;
    let mut oks = 0;
    for i in 0..20_000u64 {
        tree.pool().drop_clean();
        match tree.get(&key(i % 5_000)) {
            Ok(Some(_)) => oks += 1,
            Ok(None) => {}
            Err(_) => errors += 1,
        }
    }
    assert!(oks > 0, "reads before the fault must succeed");
    assert!(errors > 0, "the injected read fault must surface as Err");
}

/// Read faults striking *merge* work (which streams C1 back through the
/// buffer pool) must surface as errors from the write/maintenance path,
/// never as panics, and the already-durable state must stay readable from
/// the raw medium.
#[test]
fn read_faults_during_merges_are_propagated() {
    let medium: SharedDevice = Arc::new(MemDevice::new());
    let wal_medium: SharedDevice = Arc::new(MemDevice::new());
    // Seed enough data that later merges must re-read C1.
    {
        let tree = BLsmTree::open(
            medium.clone(),
            wal_medium.clone(),
            512,
            BLsmConfig {
                mem_budget: 64 << 10,
                ..config()
            },
            Arc::new(AppendOperator),
        )
        .unwrap();
        for i in 0..4_000u64 {
            tree.put(key(i % 2_000), Bytes::from(vec![2u8; 400]))
                .unwrap();
        }
        tree.checkpoint().unwrap();
    }
    // Small pool + small read budget: merge input streams prefetch whole
    // chunks per read call, so the budget must be tight to trip mid-merge
    // (open itself spends a few dozen reads on manifest/footer/index).
    let flaky: SharedDevice =
        Arc::new(FaultyDevice::new(medium.clone(), FaultMode::FailReads, 200));
    let tree = BLsmTree::open(
        flaky,
        wal_medium.clone(),
        64,
        BLsmConfig {
            mem_budget: 64 << 10,
            ..config()
        },
        Arc::new(AppendOperator),
    )
    .unwrap();
    let mut first_err = None;
    for i in 0..50_000u64 {
        tree.pool().drop_clean();
        let r = tree
            .put(key(i % 2_000), Bytes::from(vec![3u8; 400]))
            .and_then(|()| tree.maintenance(64 << 10));
        if let Err(e) = r {
            first_err = Some(format!("{e}"));
            break;
        }
    }
    let msg = first_err.expect("the merge-path read fault must eventually fire");
    assert!(msg.contains("injected fault"), "unexpected error: {msg}");
    // The raw medium still opens into a consistent tree.
    let recovered = BLsmTree::open(medium, wal_medium, 512, config(), Arc::new(AppendOperator))
        .expect("recovery after merge-time read faults");
    for i in (0..2_000u64).step_by(97) {
        let _ = recovered.get(&key(i)).unwrap();
    }
}

/// Scans pull leaves through the same pool as gets; a read fault mid-scan
/// must come back as `Err`, not a panic, and scanning must work again
/// once reads succeed (budget-based injection only fails one call here).
#[test]
fn read_faults_during_scans_are_propagated() {
    let medium: SharedDevice = Arc::new(MemDevice::new());
    let wal: SharedDevice = Arc::new(MemDevice::new());
    {
        let tree = BLsmTree::open(
            medium.clone(),
            wal.clone(),
            512,
            config(),
            Arc::new(AppendOperator),
        )
        .unwrap();
        for i in 0..5_000u64 {
            tree.put(key(i), Bytes::from(vec![4u8; 300])).unwrap();
        }
        tree.checkpoint().unwrap();
    }
    let flaky: SharedDevice = Arc::new(FaultyDevice::new(medium, FaultMode::FailReads, 4_000));
    let tree = BLsmTree::open(flaky, wal, 64, config(), Arc::new(AppendOperator)).unwrap();
    let mut errors = 0u32;
    let mut oks = 0u32;
    for i in 0..3_000u64 {
        tree.pool().drop_clean();
        match tree.scan(&key((i * 37) % 5_000), 32) {
            Ok(rows) => {
                assert!(!rows.is_empty());
                oks += 1;
            }
            Err(e) => {
                assert!(
                    format!("{e}").contains("injected fault"),
                    "unexpected error {e}"
                );
                errors += 1;
            }
        }
    }
    assert!(oks > 0, "scans before the fault must succeed");
    assert!(errors > 0, "the injected read fault must surface from scan");
}

/// Power loss that tears a *log* write: the CRC-framed WAL must stop
/// replay at the torn frame, every previously-acknowledged write must
/// survive, and nothing may panic on the way down or back up.
#[test]
fn torn_wal_write_keeps_all_prior_acknowledged_writes() {
    let data: SharedDevice = Arc::new(MemDevice::new());
    let wal_medium: SharedDevice = Arc::new(MemDevice::new());
    let wal: SharedDevice = Arc::new(FaultyDevice::new(
        wal_medium.clone(),
        FaultMode::TornWriteThenDead,
        150,
    ));
    let mut acknowledged = Vec::new();
    {
        let tree =
            BLsmTree::open(data.clone(), wal, 512, config(), Arc::new(AppendOperator)).unwrap();
        for i in 0..50_000u64 {
            let id = (i * 13) % 4_000;
            let v = Bytes::from(format!("w{i}"));
            match tree.put(key(id), v.clone()) {
                Ok(()) => acknowledged.push((key(id), v)),
                Err(_) => break, // power failed mid-log-write
            }
        }
        assert!(
            !acknowledged.is_empty(),
            "some writes must land before the tear"
        );
    }
    // Reopen from the surviving media.
    let tree = BLsmTree::open(data, wal_medium, 512, config(), Arc::new(AppendOperator))
        .expect("recovery after torn log write");
    let mut latest = std::collections::HashMap::new();
    for (k, v) in &acknowledged {
        latest.insert(k.clone(), v.clone());
    }
    for (k, v) in &latest {
        let got = tree.get(k).unwrap();
        assert_eq!(got.as_ref(), Some(v), "acknowledged write lost for {k:?}");
    }
}
