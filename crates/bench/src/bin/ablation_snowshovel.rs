//! Snowshoveling ablation (§4.2): run lengths and throughput by input
//! order, snowshovel on vs off.
//!
//! The paper's claims:
//!
//! * random input: replacement selection doubles run length, and
//!   eliminating the `C0`/`C0'` partition doubles the usable pool —
//!   "snowshoveling increases the effective size of C0 by a factor of
//!   four", which lowers write amplification;
//! * sorted input: "it streams them directly to disk" — a single pass
//!   swallows everything;
//! * reverse-sorted input: "the run is the size of RAM" (no gain, ×2
//!   from the unpartitioned pool only).
//!
//! The six rows share one `C0` budget. What `C0` actually held in RAM —
//! the write buffer plus the drained rows a pass keeps readable until
//! its output reaches disk — is the peak-resident column, and a seventh
//! row gives snowshovel-off the RAM random snowshovel-on actually used
//! as its budget: the comparison at equal resident RAM.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use blsm::SchedulerKind;
use blsm_bench::setup::{make_blsm_with, Scale};
use blsm_bench::{fmt_f, print_table};
use blsm_storage::DiskModel;
use blsm_ycsb::{LoadOrder, Runner};

fn main() {
    let scale = Scale::paper_scaled();
    let mut rows = Vec::new();
    let mut random_on_resident = 0;

    for order in [LoadOrder::Random, LoadOrder::Sorted, LoadOrder::Reverse] {
        for snowshovel in [true, false] {
            let (row, resident) = run(&scale, order, snowshovel, "off (C0/C0')");
            if snowshovel && order == LoadOrder::Random {
                random_on_resident = resident;
            }
            rows.push(row);
        }
    }
    let equal_ram = Scale {
        blsm_c0: random_on_resident,
        ..scale.clone()
    };
    let (row, _) = run(&equal_ram, LoadOrder::Random, false, "off, C0 = on's RAM");
    rows.push(row);

    print_table(
        "Snowshovel ablation: 50k x 1000B inserts, C0 budget 8MB (HDD model)",
        &[
            "input order",
            "snowshovel",
            "ops/s",
            "C0:C1 passes",
            "avg run (MB user data)",
            "write amplification",
            "peak resident C0 (MB)",
        ],
        &rows,
    );

    // Shape checks: snowshovel-on needs fewer passes (longer runs) for
    // random input, and sorted input yields far longer runs than reverse.
    let pass_count = |order_idx: usize, snow_idx: usize| -> f64 {
        rows[order_idx * 2 + snow_idx][3].parse::<f64>().unwrap()
    };
    let random_on = pass_count(0, 0);
    let random_off = pass_count(0, 1);
    let sorted_on = pass_count(1, 0);
    let reverse_on = pass_count(2, 0);
    let random_off_equal_ram = pass_count(3, 0);
    println!(
        "\npasses: random on/off = {random_on}/{random_off} \
         (off at on's resident RAM: {random_off_equal_ram}); sorted on = {sorted_on}; \
         reverse on = {reverse_on}"
    );
    assert!(
        random_on < random_off,
        "snowshoveling must lengthen runs on random input"
    );
    assert!(
        random_on < random_off_equal_ram,
        "snowshoveling must lengthen runs on random input at equal resident RAM too"
    );
    assert!(
        sorted_on <= random_on,
        "sorted input must stream through in fewer passes"
    );
}

/// Loads the scale's records in `order` into a fresh tree and returns its
/// table row and the peak bytes its `C0` held in RAM. Snowshovel off uses
/// the gear scheduler's partitioned `C0`, labelled `off`.
fn run(scale: &Scale, order: LoadOrder, snowshovel: bool, off: &str) -> (Vec<String>, usize) {
    let kind = if snowshovel {
        SchedulerKind::SpringGear
    } else {
        SchedulerKind::Gear
    };
    let mut engine = make_blsm_with(DiskModel::hdd(), scale, kind, snowshovel);
    let report = Runner::default()
        .load(&mut engine, scale.records, scale.value_size, false, order)
        .unwrap();
    let stats = engine.tree.stats();
    let passes = stats.merges01.max(1);
    let user_bytes = stats.user_bytes_written.max(1);
    let dev_written = engine.data.stats().bytes_written;
    let row = vec![
        format!("{order:?}"),
        if snowshovel { "on" } else { off }.to_string(),
        fmt_f(report.ops_per_sec),
        passes.to_string(),
        fmt_f(user_bytes as f64 / passes as f64 / 1e6),
        fmt_f(dev_written as f64 / user_bytes as f64),
        fmt_f(stats.resident_peak_bytes as f64 / 1e6),
    ];
    (row, stats.resident_peak_bytes as usize)
}
