//! Figure 9: bLSM shifting from 100% uniform blind writes to a Zipfian
//! 80% read / 20% blind-write mix (the paper runs this on its SSDs).
//!
//! Expected shape: after the switch, "performance ramps up as internal
//! index nodes are brought into RAM ... then settles into
//! high-throughput writes with occasional drops due to merge hiccups",
//! with stable low latencies — the behaviour that makes bLSM deployable
//! for serving workloads right after a bulk-ingest phase.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use blsm_bench::setup::{make_blsm, Scale};
use blsm_bench::{fmt_f, print_table};
use blsm_storage::DiskModel;
use blsm_ycsb::{OpMix, Runner, Workload};

fn main() {
    let scale = Scale::paper_scaled();
    let runner = Runner { bucket_sec: 0.25 };
    let mut engine = make_blsm(DiskModel::ssd(), &scale);

    // Phase 1: saturate with uniform blind writes "for an extended period
    // of time" (the paper's t < 0 region).
    let mut load = Workload::uniform(scale.records, OpMix::updates_only(), 0x91);
    load.value_size = scale.value_size;
    runner.run(&mut engine, &mut load, scale.records).unwrap();

    // Phase 2 (t = 0): switch to 80/20 Zipfian read/blind-write.
    let mix = OpMix {
        read: 0.8,
        update: 0.2,
        ..Default::default()
    };
    let mut serve = Workload::zipfian(scale.records, mix, 0x92);
    serve.value_size = scale.value_size;
    let report = runner.run(&mut engine, &mut serve, 120_000).unwrap();

    let rows: Vec<Vec<String>> = report
        .timeseries
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.t_sec),
                fmt_f(p.ops_per_sec),
                fmt_f(p.mean_ms),
                fmt_f(p.max_ms),
            ]
        })
        .collect();
    print_table(
        "Figure 9: bLSM after switching to 80/20 Zipfian (t=0 at switch, SSD model)",
        &["t (s)", "ops/s", "mean lat (ms)", "max lat (ms)"],
        &rows,
    );

    // Shape checks: throughput ramps (late buckets beat the first bucket)
    // and then stays stable; latency stays in the low-millisecond range
    // (the paper reports ~2 ms with 128 unthrottled workers).
    // The run's last point is a partial bucket — its ops are still
    // divided by the full width — so it is left out of the comparison.
    let ts = &report.timeseries[..report.timeseries.len().saturating_sub(1)];
    if ts.len() >= 6 {
        let first = ts[0].ops_per_sec;
        let late: f64 = ts[ts.len() - 3..]
            .iter()
            .map(|p| p.ops_per_sec)
            .sum::<f64>()
            / 3.0;
        println!(
            "\nramp: first-bucket {} ops/s -> late {} ops/s ({}x); overall mean latency {} ms, p99 {} ms",
            fmt_f(first),
            fmt_f(late),
            fmt_f(late / first.max(1.0)),
            fmt_f(report.latency.mean() / 1e3),
            fmt_f(report.latency.percentile(0.99) as f64 / 1e3),
        );
        assert!(late >= first, "cache warm-up must raise throughput");
    }
    assert!(
        report.latency.percentile(0.99) < 50_000,
        "p99 latency must stay in the tens of milliseconds"
    );
}
