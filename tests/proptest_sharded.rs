//! Equivalence property for the sharded serving tier: identical op
//! sequences driven through a [`ShardedBLsm`] with arbitrary shard
//! boundaries (1 to 7 shards) and a single [`BLsmTree`] oracle must be
//! indistinguishable from the outside —
//! gets, existence checks, unbounded scans and bounded range scans
//! included, especially scans that straddle shard boundaries (the k-way
//! gather is exactly the code a single tree never needs).

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::sync::Arc;

use bytes::Bytes;
use proptest::prelude::*;

use blsm_repro::blsm::{
    AppendOperator, BLsmConfig, BLsmTree, MergeOperator, ShardedBLsm, ShardedConfig,
};
use blsm_repro::blsm_storage::{MemDevice, SharedDevice};

#[derive(Debug, Clone)]
enum Op {
    Put(u16, u8),
    Delete(u16),
    Delta(u16, u8),
    Insert(u16, u8),
    Get(u16),
    Scan(u16, u8),
    /// Bounded scan `[from, to)`; chosen so ranges regularly straddle
    /// one or more shard boundaries.
    ScanRange(u16, u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k % 600, v)),
        1 => any::<u16>().prop_map(|k| Op::Delete(k % 600)),
        2 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Delta(k % 600, v)),
        1 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 600, v)),
        2 => any::<u16>().prop_map(|k| Op::Get(k % 600)),
        2 => (any::<u16>(), any::<u8>()).prop_map(|(k, n)| Op::Scan(k % 600, n % 32 + 1)),
        2 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Op::ScanRange(a % 600, b % 600)),
    ]
}

fn key(k: u16) -> Bytes {
    Bytes::from(format!("k{k:05}"))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn sharded_store_matches_a_single_tree_oracle(
        raw_bounds in proptest::collection::btree_set(any::<u16>().prop_map(|b| b % 600), 0..6),
        ops in proptest::collection::vec(op_strategy(), 1..250),
    ) {
        // Boundaries inside the key population, so writes land on
        // boundary keys and scans straddle them.
        let bounds: Vec<Bytes> = raw_bounds.iter().map(|&b| key(b)).collect();
        let op: Arc<dyn MergeOperator> = Arc::new(AppendOperator);
        let tree_config = BLsmConfig {
            mem_budget: 64 << 10,
            wal_capacity: 8 << 20,
            ..Default::default()
        };
        let manifest: SharedDevice = Arc::new(MemDevice::new());
        let sharded = ShardedBLsm::open_with_devices(
            manifest,
            bounds,
            |_| Ok((
                Arc::new(MemDevice::new()) as SharedDevice,
                Arc::new(MemDevice::new()) as SharedDevice,
            )),
            &ShardedConfig {
                tree: tree_config.clone(),
                pool_pages: 128,
                quantum: 64 << 10,
            },
            &op,
        )
        .unwrap();
        let oracle = BLsmTree::open(
            Arc::new(MemDevice::new()) as SharedDevice,
            Arc::new(MemDevice::new()) as SharedDevice,
            128,
            tree_config,
            op.clone(),
        )
        .unwrap();

        for o in &ops {
            match o {
                Op::Put(k, v) => {
                    let val = Bytes::from(vec![*v; 24]);
                    sharded.put(key(*k), val.clone()).unwrap();
                    oracle.put(key(*k), val).unwrap();
                }
                Op::Delete(k) => {
                    sharded.delete(key(*k)).unwrap();
                    oracle.delete(key(*k)).unwrap();
                }
                Op::Delta(k, v) => {
                    let delta = Bytes::from(vec![*v; 2]);
                    sharded.apply_delta(key(*k), delta.clone()).unwrap();
                    oracle.apply_delta(key(*k), delta).unwrap();
                }
                Op::Insert(k, v) => {
                    let val = Bytes::from(vec![*v; 8]);
                    let a = sharded.insert_if_not_exists(key(*k), val.clone()).unwrap();
                    let b = oracle.insert_if_not_exists(key(*k), val).unwrap();
                    prop_assert_eq!(a, b, "insert_if_not_exists {}", k);
                }
                Op::Get(k) => {
                    prop_assert_eq!(
                        sharded.get(&key(*k)).unwrap(),
                        oracle.get(&key(*k)).unwrap(),
                        "get {}", k
                    );
                    prop_assert_eq!(
                        sharded.exists(&key(*k)).unwrap(),
                        oracle.exists(&key(*k)).unwrap(),
                        "exists {}", k
                    );
                }
                Op::Scan(k, n) => {
                    let got = sharded.scan(&key(*k), *n as usize).unwrap();
                    let want = oracle.scan(&key(*k), *n as usize).unwrap();
                    prop_assert_eq!(got, want, "scan {}x{}", k, n);
                }
                Op::ScanRange(a, b) => {
                    let (from, to) = (key(*a.min(b)), key(*a.max(b)));
                    let got = sharded.scan_range(&from, &to, 4096).unwrap();
                    let want = oracle.scan_range(&from, &to, 4096).unwrap();
                    prop_assert_eq!(got, want, "scan_range {}..{}", a, b);
                }
            }
        }

        // Final sweep: the whole keyspace agrees, through the store and
        // through its lock-free read view, including a scan that starts
        // exactly on each shard boundary.
        let view = sharded.read_view();
        let all = oracle.scan(b"", 4096).unwrap();
        prop_assert_eq!(sharded.scan(b"", 4096).unwrap(), all.clone());
        prop_assert_eq!(view.scan(b"", 4096).unwrap(), all);
        for &b in &raw_bounds {
            let from = key(b);
            prop_assert_eq!(
                sharded.scan(&from, 64).unwrap(),
                oracle.scan(&from, 64).unwrap(),
                "boundary scan at {}", b
            );
        }
    }
}
