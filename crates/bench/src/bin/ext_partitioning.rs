//! Extension experiment: key-range partitioning (§2.3.2, §3.3, §4.2.2 —
//! the paper's future work): `PARTITIONS` trees routed by
//! `blsm::route`, on one stepped [`MergePlane`] whose grant rule is the
//! partition scheduler layered over each tree's level scheduler.
//!
//! Two claims to validate:
//!
//! 1. §3.3: "one of the three on-disk components only exists to support
//!    the ongoing merge. In a system that made use of partitioning, only a
//!    small fraction of the tree would be subject to merging at any given
//!    time. The remainder of the tree would require two seeks per scan."
//!    → short scans under a sustained write load should cost fewer seeks
//!    on the partitioned store.
//! 2. §2.3.2: skewed writes should confine merge activity (and its write
//!    amplification) to the hot partitions.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use bytes::Bytes;

use blsm::{route, AppendOperator, BLsmConfig, BLsmTree, MergePlane, ScanItem};
use blsm_bench::setup::{make_blsm, Scale};
use blsm_bench::{fmt_f, print_table};
use blsm_storage::{DiskModel, SharedDevice, SimDevice};
use blsm_ycsb::{format_key, make_value};

const PARTITIONS: usize = 8;

fn main() {
    let scale = Scale::paper_scaled().with_records(20_000);
    let records = scale.records;

    // --- Unpartitioned -------------------------------------------------
    let mono = make_blsm(DiskModel::hdd(), &scale);
    let mono_dev = mono.data.clone();
    let mono_seeks = scan_seeks_under_write_load(
        records,
        scale.value_size,
        |cmd| match cmd {
            Cmd::Put(id, v) => {
                mono.tree.put(format_key(id), v).unwrap();
                0
            }
            Cmd::Scan(from, n) => mono.tree.scan(from, n).unwrap().len(),
        },
        std::slice::from_ref(&mono_dev),
    );

    // --- Partitioned ----------------------------------------------------
    let devices: Vec<(SharedDevice, SharedDevice)> = (0..PARTITIONS)
        .map(|_| {
            (
                Arc::new(SimDevice::new(DiskModel::hdd())) as SharedDevice,
                Arc::new(SimDevice::new(DiskModel::hdd())) as SharedDevice,
            )
        })
        .collect();
    let data_devs: Vec<SharedDevice> = devices.iter().map(|(d, _)| d.clone()).collect();
    let bounds: Vec<Bytes> = (1..PARTITIONS)
        .map(|p| format_key(records * p as u64 / PARTITIONS as u64))
        .collect();
    let config = BLsmConfig {
        mem_budget: scale.blsm_c0 / PARTITIONS,
        ..Default::default()
    };
    let pages = scale.blsm_cache_pages / PARTITIONS;
    let open = |(data, wal): &(SharedDevice, SharedDevice)| {
        let op = Arc::new(AppendOperator);
        BLsmTree::open(data.clone(), wal.clone(), pages, config.clone(), op).unwrap()
    };
    let plane = MergePlane::stepped(devices.iter().map(open).collect());
    let mut parted = Partitions { plane, bounds };
    let parted_seeks = scan_seeks_under_write_load(
        records,
        scale.value_size,
        |cmd| match cmd {
            Cmd::Put(id, v) => {
                parted.put(format_key(id), v);
                0
            }
            Cmd::Scan(from, n) => parted.scan(from, n).len(),
        },
        &data_devs,
    );

    print_table(
        "Partitioning extension: short scans (4 rows) under sustained uniform writes",
        &["layout", "seeks per short scan"],
        &[
            vec!["unpartitioned (3-component)".into(), fmt_f(mono_seeks)],
            vec![format!("{PARTITIONS}-way partitioned"), fmt_f(parted_seeks)],
        ],
    );
    println!(
        "\n§3.3 predicts ~3 seeks unpartitioned and ~2 with partitioning; measured \
         {} vs {}.",
        fmt_f(mono_seeks),
        fmt_f(parted_seeks)
    );
    assert!(
        parted_seeks < mono_seeks,
        "partitioning must reduce short-scan seeks"
    );

    // --- Skew: merge activity stays on the hot partition ---------------
    let before: Vec<u64> = parted
        .plane
        .trees()
        .iter()
        .map(|t| t.stats().merges01)
        .collect();
    let hot_lo = records / PARTITIONS as u64; // partition 1's range
    for round in 0..60_000u64 {
        let id = hot_lo + (round % (records / PARTITIONS as u64 / 2));
        parted.put(format_key(id), make_value(id, scale.value_size));
    }
    let mut rows = Vec::new();
    let mut cold_merges = 0u64;
    for (p, before_merges) in before.iter().enumerate() {
        let merges = parted.plane.trees()[p].stats().merges01 - before_merges;
        if p != 1 {
            cold_merges += merges;
        }
        rows.push(vec![
            format!("partition {p}{}", if p == 1 { " (hot)" } else { "" }),
            merges.to_string(),
        ]);
    }
    print_table(
        "Partitioning extension: merges per partition after a hot-range write burst",
        &["partition", "C0:C1 merges during burst"],
        &rows,
    );
    println!(
        "\n§2.3.2: merge activity concentrates on frequently updated key ranges \
         (cold partitions merged {cold_merges} times)."
    );
    assert_eq!(cold_merges, 0, "cold partitions must not merge");
}

/// Range-partitioned trees on a stepped merge plane, whose grant rule is
/// Figure 3's partition scheduler: each lane finishes one partition's
/// merge before it starts another's, so only a small fraction of the
/// keyspace is under merge at once (§3.3's two-seek scans), and a
/// partition that receives no writes never merges (§2.3.2).
struct Partitions {
    plane: MergePlane,
    /// `bounds[i]` is the inclusive lower bound of partition `i + 1`.
    bounds: Vec<Bytes>,
}

impl Partitions {
    /// Writes, then steps the plane by the write's merge debt.
    fn put(&mut self, key: Bytes, value: Bytes) {
        let incoming = (key.len() + value.len()) as u64;
        self.plane.trees()[route::shard_for(&self.bounds, &key)]
            .put(key, value)
            .unwrap();
        self.plane.step(incoming).unwrap();
    }

    fn scan(&self, from: &[u8], limit: usize) -> Vec<ScanItem> {
        route::scatter_scan(&self.bounds, from, None, limit, |i, f, _, l| {
            self.plane.trees()[i].scan(f, l)
        })
        .unwrap()
    }
}

/// One engine command (a single closure sidesteps double-borrow issues).
enum Cmd<'a> {
    Put(u64, Bytes),
    Scan(&'a [u8], usize),
}

/// Interleaves a uniform write load with short scans, returning mean data
/// seeks per scan.
fn scan_seeks_under_write_load(
    records: u64,
    value_size: usize,
    mut exec: impl FnMut(Cmd<'_>) -> usize,
    data_devices: &[SharedDevice],
) -> f64 {
    let total_seeks =
        |devs: &[SharedDevice]| -> u64 { devs.iter().map(|d| d.stats().seeks()).sum() };
    let mut rng = 0x9e3779b97f4a7c15u64;
    // Load.
    for _ in 0..records {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        let id = (rng >> 33) % records;
        exec(Cmd::Put(id, make_value(id, value_size)));
    }
    // Sustained writes with interleaved measured scans.
    let mut scan_seeks = 0u64;
    let mut scans = 0u64;
    for i in 0..20_000u64 {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        let id = (rng >> 33) % records;
        exec(Cmd::Put(id, make_value(id ^ 1, value_size)));
        if i % 50 == 0 {
            let from = format_key((rng >> 13) % records);
            let before = total_seeks(data_devices);
            let n = exec(Cmd::Scan(&from, 4));
            assert!(n > 0 || from.as_ref() > format_key(records - 5).as_ref());
            scan_seeks += total_seeks(data_devices) - before;
            scans += 1;
        }
    }
    scan_seeks as f64 / scans as f64
}
