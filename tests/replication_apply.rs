//! Tree-level replication-apply semantics: the seam `replication.rs`
//! builds on. Pins the invariants the failover drill depends on:
//!
//! 1. Duplicated delivery of an applied record is a no-op (`Ok(None)`).
//! 2. A record whose apply *failed* is NOT deduped on retry — the
//!    dedupe floor advances only after a successful apply, so the
//!    leader's resend re-applies the record instead of silently losing
//!    it (the floor-vs-reservation distinction).
//! 3. `applied_seqno` never overstates a node's state: the reservation
//!    counter (`next_seqno`) may run ahead of a failed apply, but the
//!    applied horizon replication acks report must not.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::sync::Arc;

use bytes::Bytes;

use blsm_repro::blsm::{AppendOperator, BLsmConfig, BLsmTree};
use blsm_repro::blsm_storage::{FaultMode, FaultyDevice, MemDevice, SharedDevice};

fn config() -> BLsmConfig {
    BLsmConfig {
        mem_budget: 256 << 10,
        wal_capacity: 8 << 20,
        ..Default::default()
    }
}

fn open_tree(wal_dev: SharedDevice) -> BLsmTree {
    let data: SharedDevice = Arc::new(MemDevice::new());
    BLsmTree::open(data, wal_dev, 512, config(), Arc::new(AppendOperator)).unwrap()
}

/// A leader's already-durable WAL payloads, in log order.
fn leader_payloads(leader: &BLsmTree) -> Vec<Vec<u8>> {
    let (head, _) = leader.wal_window().unwrap();
    let (records, _) = leader.wal_records_from(head, usize::MAX).unwrap();
    records.into_iter().map(|r| r.payload).collect()
}

#[test]
fn duplicate_delivery_is_a_noop_and_floor_tracks_applies() {
    let leader = open_tree(Arc::new(MemDevice::new()));
    for i in 0..3 {
        leader
            .put(Bytes::from(format!("k{i}")), Bytes::from(format!("v{i}")))
            .unwrap();
    }
    // Fresh trees allocate seqnos from 1, so 3 puts end at 3.
    assert_eq!(leader.applied_seqno(), 3);

    let follower = open_tree(Arc::new(MemDevice::new()));
    assert_eq!(follower.applied_seqno(), 0);
    let payloads = leader_payloads(&leader);
    assert_eq!(payloads.len(), 3);
    for p in &payloads {
        assert!(follower.apply_replicated(p).unwrap().is_some());
    }
    assert_eq!(follower.applied_seqno(), 3);
    assert_eq!(
        follower.get(b"k2").unwrap().as_deref(),
        Some(b"v2".as_ref())
    );

    // A flaky link re-sending the whole batch is a no-op.
    for p in &payloads {
        assert_eq!(follower.apply_replicated(p).unwrap(), None);
    }
    assert_eq!(follower.applied_seqno(), 3);
}

/// The review-pinned loss scenario: an apply that fails (here: the
/// follower's WAL device refuses writes) must leave the dedupe floor
/// untouched, so the leader's retry of the same record is re-applied —
/// never skipped as "already applied".
#[test]
fn failed_apply_is_retried_not_deduped() {
    let leader = open_tree(Arc::new(MemDevice::new()));
    leader.put(Bytes::from("k"), Bytes::from("v")).unwrap();
    let payloads = leader_payloads(&leader);
    assert_eq!(payloads.len(), 1);

    // Every WAL append on this follower fails.
    let wal: SharedDevice = Arc::new(FaultyDevice::new(
        Arc::new(MemDevice::new()),
        FaultMode::FailWrites,
        0,
    ));
    let follower = open_tree(wal);

    assert!(follower.apply_replicated(&payloads[0]).is_err());
    // The record did not land: not readable, not counted as applied.
    assert_eq!(follower.get(b"k").unwrap(), None);
    assert_eq!(follower.applied_seqno(), 0);

    // The leader resends. Before the fix this returned `Ok(None)`
    // (deduped against the pre-advanced seqno floor) and the record
    // was silently lost on this follower; it must retry the apply —
    // here hitting the injected fault again, which the leader sees.
    assert!(
        follower.apply_replicated(&payloads[0]).is_err(),
        "a failed apply was deduped as already-applied: acked-write loss"
    );
    assert_eq!(follower.applied_seqno(), 0);
}

#[test]
fn acks_report_applied_floor_not_reservation() {
    let leader = open_tree(Arc::new(MemDevice::new()));
    for i in 0..4 {
        leader
            .put(Bytes::from(format!("k{i}")), Bytes::from(format!("v{i}")))
            .unwrap();
    }
    let payloads = leader_payloads(&leader);

    let wal: SharedDevice = Arc::new(FaultyDevice::new(
        Arc::new(MemDevice::new()),
        FaultMode::FailWrites,
        0,
    ));
    let follower = open_tree(wal);
    for p in &payloads {
        assert!(follower.apply_replicated(p).is_err());
    }
    // The ticket reservation legitimately runs ahead (promotions must
    // allocate above every replicated record)...
    assert!(follower.next_seqno() >= 5);
    // ...but the horizon an ack or election would read does not.
    assert_eq!(follower.applied_seqno(), 0);
}
