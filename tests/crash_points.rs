//! Crash-point enumeration: simulated power cuts at *every* device
//! operation index of a scripted workload (ALICE/CrashMonkey style).
//!
//! The WAL and data devices are wrapped in [`CrashDevice`]s sharing one
//! [`CrashPlan`] — one global power rail. A first counting pass
//! (`crash_at = u64::MAX`) measures how many mutating device operations
//! the workload issues; the harness then reruns the workload once per
//! crash point, cutting the power at that operation index. The cut
//! persists a seeded subset of the unsynced writes (whole, torn, or
//! dropped, then reordered), exactly the freedom a real disk has between
//! sync barriers.
//!
//! After each cut the durability oracle checks, on the survivors:
//!
//! * the tree reopens cleanly — recovery must cope with whatever the
//!   crash left behind, at any point in a merge/checkpoint/manifest save;
//! * every *acknowledged* synced write reads back its last value
//!   (`Durability::Sync` acks only after the WAL sync barrier);
//! * no phantoms: every surviving key/value pair was actually written at
//!   some point (a torn write must never fabricate data);
//! * `scrub()` is clean — components referenced by the surviving
//!   manifest were synced before the manifest pointed at them, so a
//!   crash can never leave checksum-invalid pages *inside* the tree;
//! * under `--features strict-invariants`, the full §8 invariant sweep.
//!
//! The default test sweeps a bounded, evenly-spread subset of crash
//! points (override the stride with `CRASH_POINTS_STRIDE=1` for all of
//! them); the `#[ignore]`d exhaustive variant is for nightly CI.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;

use bytes::Bytes;

use blsm_repro::blsm::{AppendOperator, BLsmConfig, BLsmTree, Durability};
use blsm_repro::blsm_storage::{CrashDevice, CrashPlan, MemDevice, SharedDevice};

const SEED: u64 = 0xB15D_C4A5_11FE_ED05;

fn config() -> BLsmConfig {
    BLsmConfig {
        // Smallest legal C0 so the scripted workload spills through
        // merges, manifest saves and a WAL checkpoint — the crash must
        // be able to land inside every one of those.
        mem_budget: 64 << 10,
        wal_capacity: 1 << 20,
        durability: Durability::Sync,
        ..Default::default()
    }
}

fn open(data: &SharedDevice, wal: &SharedDevice) -> blsm_repro::blsm_storage::Result<BLsmTree> {
    BLsmTree::open(
        data.clone(),
        wal.clone(),
        512,
        config(),
        Arc::new(AppendOperator),
    )
}

fn key(i: u64) -> Bytes {
    // Multiplicative permutation: spread inserts across the keyspace so
    // merges shuffle real interleavings, not an append-only pattern.
    Bytes::from(format!("user{:06}", (i * 257) % 1_000))
}

/// What the workload managed to get acknowledged before the power died.
#[derive(Default)]
struct Oracle {
    /// Last acknowledged state per key (`None` = tombstone). Every entry
    /// here was synced — losing one is a durability bug.
    guaranteed: BTreeMap<Bytes, Option<Bytes>>,
    /// Writes appended but never covered by a successful sync when the
    /// power died: each may legally surface or not. Per-write sync has
    /// at most one (the interrupted write); the group-commit workload
    /// crashes with a whole unsynced group in flight, any prefix of
    /// which may have reached the device.
    unacked: BTreeMap<Bytes, Vec<Option<Bytes>>>,
    /// Every value ever handed to `put` per key — the no-phantom set.
    history: BTreeSet<(Bytes, Bytes)>,
    /// True when the script ran to completion (counting pass).
    completed: bool,
}

/// Runs the scripted workload until it completes or the power dies.
/// The script mixes puts, deletes, overwrites and an explicit
/// checkpoint, so crash points land in WAL appends/syncs, C0→C1 and
/// C1→C2 merge writes, manifest saves and WAL truncation.
fn run_workload(data: &SharedDevice, wal: &SharedDevice) -> Oracle {
    let mut oracle = Oracle::default();
    let Ok(tree) = open(data, wal) else {
        // Power died during open's own writes (e.g. manifest format):
        // nothing was acknowledged, nothing to check.
        return oracle;
    };
    for i in 0..360u64 {
        let k = key(i);
        if i % 9 == 3 && oracle.guaranteed.contains_key(&key(i - 3)) {
            let victim = key(i - 3);
            match tree.delete(victim.clone()) {
                Ok(()) => {
                    oracle.guaranteed.insert(victim, None);
                }
                Err(_) => {
                    oracle.unacked.entry(victim).or_default().push(None);
                    return oracle;
                }
            }
            continue;
        }
        let v = Bytes::from(format!(
            "value-{i:04}-{}",
            "x".repeat(180 + (i % 60) as usize)
        ));
        oracle.history.insert((k.clone(), v.clone()));
        match tree.put(k.clone(), v.clone()) {
            Ok(()) => {
                oracle.guaranteed.insert(k, Some(v));
            }
            Err(_) => {
                oracle.unacked.entry(k).or_default().push(Some(v));
                return oracle;
            }
        }
        if i == 130 && tree.checkpoint().is_err() {
            return oracle;
        }
    }
    if tree.checkpoint().is_err() {
        return oracle;
    }
    oracle.completed = true;
    oracle
}

/// The group-commit variant of the script: writers append with the
/// nowait API and a batch boundary retires them with one
/// [`BLsmTree::commit_group`] — the serving tier's write path. Crash
/// points therefore land *between a group's flush and its sync*, with a
/// whole multi-write group in flight; the oracle credits a write as
/// guaranteed only when a `commit_group` covering it returned `Ok`,
/// i.e. only writes at or below the last synced group boundary.
fn run_group_workload(data: &SharedDevice, wal: &SharedDevice) -> Oracle {
    const GROUP: usize = 7;
    let mut oracle = Oracle::default();
    let Ok(tree) = open(data, wal) else {
        return oracle;
    };
    // Writes appended since the last successful group, in script order.
    let mut batch: Vec<(Bytes, Option<Bytes>)> = Vec::new();
    for i in 0..360u64 {
        let k = key(i);
        if i % 9 == 3 && oracle.guaranteed.contains_key(&key(i - 3)) {
            let victim = key(i - 3);
            oracle.unacked.entry(victim.clone()).or_default().push(None);
            match tree.delete_nowait(victim.clone()) {
                Ok(_target) => batch.push((victim, None)),
                Err(_) => return oracle,
            }
        } else {
            let v = Bytes::from(format!(
                "value-{i:04}-{}",
                "x".repeat(180 + (i % 60) as usize)
            ));
            oracle.history.insert((k.clone(), v.clone()));
            oracle
                .unacked
                .entry(k.clone())
                .or_default()
                .push(Some(v.clone()));
            match tree.put_nowait(k.clone(), v.clone()) {
                Ok(_target) => batch.push((k, Some(v))),
                Err(_) => return oracle,
            }
        }
        if batch.len() >= GROUP {
            match tree.commit_group() {
                Ok(_synced) => {
                    // The sync covers the WAL tail: every append so far
                    // is durable, in script order.
                    for (k, v) in batch.drain(..) {
                        oracle.guaranteed.insert(k, v);
                    }
                    oracle.unacked.clear();
                }
                // Power died inside the group's flush or sync: nothing
                // in the batch was acked; any prefix may have survived
                // (all still recorded in `unacked`).
                Err(_) => return oracle,
            }
        }
        if i == 130 && tree.checkpoint().is_err() {
            return oracle;
        }
    }
    if tree.commit_group().is_err() || tree.checkpoint().is_err() {
        return oracle;
    }
    oracle.completed = true;
    oracle
}

/// Reopens from the durable (post-crash) devices and checks the oracle.
fn check_survivors(data: &SharedDevice, wal: &SharedDevice, oracle: &Oracle, point: u64) {
    let tree = match open(data, wal) {
        Ok(t) => t,
        Err(e) => panic!("crash point {point}: reopen failed: {e}"),
    };

    // Acknowledged writes read back their last value. An unacked write
    // to the same key may override it — it was mid-flight (or part of
    // the unsynced commit group), both outcomes are legal.
    for (k, expected) in &oracle.guaranteed {
        let got = tree
            .get(k)
            .unwrap_or_else(|e| panic!("crash point {point}: get {k:?}: {e}"));
        let unacked_ok = oracle
            .unacked
            .get(k)
            .is_some_and(|vs| vs.iter().any(|iv| got.as_deref() == iv.as_deref()));
        let expected_ok = got.as_deref() == expected.as_deref();
        assert!(
            expected_ok || unacked_ok,
            "crash point {point}: key {k:?}: acknowledged {expected:?}, read back {got:?}"
        );
    }

    // No phantoms: everything the survivors serve was actually written.
    let rows = tree
        .scan(b"", 10_000)
        .unwrap_or_else(|e| panic!("crash point {point}: scan: {e}"));
    for row in rows {
        let pair = (row.key.clone(), Bytes::from(row.value.to_vec()));
        assert!(
            oracle.history.contains(&pair),
            "crash point {point}: phantom row {:?} => {:?}",
            row.key,
            row.value
        );
    }

    // Whatever the crash tore, it must not be *inside* the tree: every
    // component the surviving manifest references was synced first.
    let report = tree.scrub();
    assert!(
        report.is_clean(),
        "crash point {point}: scrub found damage: {:?}",
        report.errors
    );

    #[cfg(feature = "strict-invariants")]
    tree.check_invariants()
        .unwrap_or_else(|e| panic!("crash point {point}: invariants: {e}"));
}

/// A scripted workload the harness can crash at any device op.
type Workload = fn(&SharedDevice, &SharedDevice) -> Oracle;

/// One full crash-and-recover cycle at `crash_at`.
fn crash_cycle(workload: Workload, crash_at: u64) {
    let durable_data: SharedDevice = Arc::new(MemDevice::new());
    let durable_wal: SharedDevice = Arc::new(MemDevice::new());
    let plan = CrashPlan::new(crash_at, SEED ^ crash_at);
    let data: SharedDevice = Arc::new(CrashDevice::new(durable_data.clone(), &plan));
    let wal: SharedDevice = Arc::new(CrashDevice::new(durable_wal.clone(), &plan));
    let oracle = workload(&data, &wal);
    assert!(
        plan.crashed(),
        "crash point {crash_at}: the workload outran the plan"
    );
    assert!(!oracle.completed);
    check_survivors(&durable_data, &durable_wal, &oracle, crash_at);
}

/// Counting pass: how many mutating device ops the full workload
/// issues. `min_ops` is a sanity floor — the group-commit workload
/// legitimately issues ~5x fewer device ops than per-write sync for the
/// same script (that amortization is the feature under test).
fn count_ops(workload: Workload, min_ops: u64) -> u64 {
    let plan = CrashPlan::new(u64::MAX, SEED);
    let data: SharedDevice = Arc::new(CrashDevice::new(Arc::new(MemDevice::new()), &plan));
    let wal: SharedDevice = Arc::new(CrashDevice::new(Arc::new(MemDevice::new()), &plan));
    let oracle = workload(&data, &wal);
    assert!(oracle.completed, "counting pass must not fail");
    let ops = plan.ops_issued();
    assert!(
        ops > min_ops,
        "workload too small to be interesting: {ops} ops"
    );
    ops
}

fn sweep(workload: Workload, min_ops: u64, stride: u64) {
    let total = count_ops(workload, min_ops);
    let mut checked = 0u64;
    let mut point = 0u64;
    while point < total {
        crash_cycle(workload, point);
        checked += 1;
        point += stride;
    }
    println!("crash-point sweep: {checked}/{total} points checked (stride {stride})");
}

/// Bounded sweep for PR CI: an evenly-spread subset of crash points.
/// `CRASH_POINTS_STRIDE` overrides the spacing (1 = exhaustive).
#[test]
fn crash_point_subset_sweep() {
    let stride = std::env::var("CRASH_POINTS_STRIDE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&s| s > 0)
        .unwrap_or_else(|| count_ops(run_workload, 500).div_ceil(64).max(1));
    sweep(run_workload, 500, stride);
}

/// The same sweep through the group-commit write path: nowait appends
/// retired in batches by `commit_group`, so the power cut lands between
/// a group's flush and its sync with several unsynced writes in flight.
#[test]
fn group_commit_crash_point_subset_sweep() {
    let stride = std::env::var("CRASH_POINTS_STRIDE")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&s| s > 0)
        .unwrap_or_else(|| count_ops(run_group_workload, 100).div_ceil(64).max(1));
    sweep(run_group_workload, 100, stride);
}

/// Exhaustive sweep — every single operation index. Minutes, not
/// seconds; run nightly (`cargo test --release -- --ignored`).
#[test]
#[ignore = "exhaustive sweep is for nightly CI; covered by the strided subset on PRs"]
fn crash_point_exhaustive_sweep() {
    sweep(run_workload, 500, 1);
}

/// Exhaustive nightly sweep of the group-commit path.
#[test]
#[ignore = "exhaustive sweep is for nightly CI; covered by the strided subset on PRs"]
fn group_commit_crash_point_exhaustive_sweep() {
    sweep(run_group_workload, 100, 1);
}

/// The same crash point with different seeds draws different torn/kept
/// subsets; durability must hold for all of them — through both the
/// per-write-sync and the group-commit write paths.
#[test]
fn crash_point_survives_many_subset_draws() {
    for (workload, min_ops) in [
        (run_workload as Workload, 500),
        (run_group_workload as Workload, 100),
    ] {
        let total = count_ops(workload, min_ops);
        for variant in 0..8u64 {
            let crash_at = total / 2 + variant;
            let durable_data: SharedDevice = Arc::new(MemDevice::new());
            let durable_wal: SharedDevice = Arc::new(MemDevice::new());
            let plan = CrashPlan::new(crash_at, variant.wrapping_mul(0x9E37_79B9));
            let data: SharedDevice = Arc::new(CrashDevice::new(durable_data.clone(), &plan));
            let wal: SharedDevice = Arc::new(CrashDevice::new(durable_wal.clone(), &plan));
            let oracle = workload(&data, &wal);
            assert!(plan.crashed());
            check_survivors(&durable_data, &durable_wal, &oracle, crash_at);
        }
    }
}
