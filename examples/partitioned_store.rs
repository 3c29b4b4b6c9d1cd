//! Range-partitioned bLSM — the paper's future work in action.
//!
//! Demonstrates `ShardedBLsm` (§2.3.2, §3.3, §4.2.2): eight key-range
//! shards, each a full three-level bLSM tree with its own WAL and level
//! scheduler, whose merges share the store's two merge threads. A skewed
//! write burst shows merge activity confined to the hot range while the
//! cold ranges stay scan-friendly.
//!
//! Run with: `cargo run --release --example partitioned_store`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::sync::Arc;

use blsm_repro::blsm::{AppendOperator, BLsmConfig, MergeOperator, ShardedBLsm, ShardedConfig};
use blsm_repro::blsm_storage::{DiskModel, MemDevice, SharedDevice, SimDevice};
use blsm_repro::blsm_ycsb::{format_key, make_value};

const PARTITIONS: usize = 8;
const RECORDS: u64 = 16_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let devices: Vec<(SharedDevice, SharedDevice)> = (0..PARTITIONS)
        .map(|_| {
            (
                Arc::new(SimDevice::new(DiskModel::hdd())) as SharedDevice,
                Arc::new(SimDevice::new(DiskModel::hdd())) as SharedDevice,
            )
        })
        .collect();
    let bounds = (1..PARTITIONS)
        .map(|p| format_key(RECORDS * p as u64 / PARTITIONS as u64))
        .collect();
    let mut store = ShardedBLsm::open_with_devices(
        Arc::new(MemDevice::new()),
        bounds,
        |i| Ok(devices[i].clone()),
        &ShardedConfig {
            tree: BLsmConfig {
                mem_budget: 256 << 10,
                ..Default::default()
            },
            pool_pages: 128,
            quantum: 1 << 20,
        },
        &(Arc::new(AppendOperator) as Arc<dyn MergeOperator>),
    )?;

    // Base load across the whole keyspace.
    println!("loading {RECORDS} records across {PARTITIONS} partitions...");
    for i in 0..RECORDS {
        let id = (i * 7919) % RECORDS;
        store.put(format_key(id), make_value(id, 256))?;
    }
    store.checkpoint()?;

    // A skewed burst: all writes hit partition 5's range.
    println!("hot-range write burst into partition 5...");
    let hot_base = RECORDS * 5 / PARTITIONS as u64;
    let hot_range = RECORDS / PARTITIONS as u64; // the whole partition-5 range
    for round in 0..40_000u64 {
        let id = hot_base + (round * 7919) % hot_range;
        store.put(format_key(id), make_value(id ^ round, 256))?;
    }

    println!("\nper-partition state after the burst:");
    for p in 0..PARTITIONS {
        let t = store.shard_engine(p)?;
        let (c1, c1p, c2) = t.component_bytes();
        println!(
            "  partition {p}: {:>3} merges, C0 {:>7} B, C1 {:>8} B, C1' {:>8} B, C2 {:>8} B",
            t.stats().merges01,
            t.c0_bytes(),
            c1,
            c1p,
            c2
        );
    }

    // Reads and cross-partition scans still behave.
    let v = store
        .get(&format_key(hot_base + 7))?
        .expect("hot key present");
    println!("\nhot key read back: {} bytes", v.len());
    let boundary = RECORDS * 3 / PARTITIONS as u64;
    let rows = store.scan(&format_key(boundary - 5), 10)?;
    println!(
        "cross-boundary scan at partition 2/3 border returned {} rows:",
        rows.len()
    );
    for r in &rows {
        println!("  {}", String::from_utf8_lossy(&r.key));
    }
    assert_eq!(rows.len(), 10);

    let total = store.stats();
    println!(
        "\ntotals: {} writes, {} merges, {} forced stalls",
        total.writes,
        total.merges01 + total.merges12,
        total.forced_stalls
    );
    store.shutdown()?;
    Ok(())
}
