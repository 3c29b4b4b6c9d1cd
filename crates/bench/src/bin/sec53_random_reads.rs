//! §5.3: random read performance.
//!
//! "Historically, read amplification has been a major drawback of
//! LSM-trees ... Figure 8 shows that this is no longer the case for
//! random index probes." Both bLSM and the B-Tree perform ~1 seek per
//! uncached read; LevelDB performs several. We measure throughput at 100%
//! reads and the underlying seeks/read on both device models.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use blsm_bench::setup::{make_blsm, make_btree, make_leveldb, Scale};
use blsm_bench::{fmt_f, print_table};
use blsm_storage::{DiskModel, SharedDevice};
use blsm_ycsb::{KvEngine, LoadOrder, OpMix, Runner, Workload};

fn main() {
    let scale = Scale::paper_scaled().with_records(20_000);
    let runner = Runner::default();
    let ops = 8_000u64;

    for model in [DiskModel::hdd(), DiskModel::ssd()] {
        let mut rows = Vec::new();
        let engines: Vec<(&str, Box<dyn KvEngine>, SharedDevice)> = {
            let mut v: Vec<(&str, Box<dyn KvEngine>, SharedDevice)> = Vec::new();
            let e = make_blsm(model.clone(), &scale);
            let d = e.data.clone();
            v.push(("bLSM", Box::new(e), d));
            let e = make_btree(model.clone(), &scale);
            let d = e.data.clone();
            v.push(("B-Tree", Box::new(e), d));
            let e = make_leveldb(model.clone(), &scale);
            let d = e.data.clone();
            v.push(("LevelDB-like", Box::new(e), d));
            v
        };
        for (name, mut engine, device) in engines {
            runner
                .load(
                    engine.as_mut(),
                    scale.records,
                    scale.value_size,
                    false,
                    LoadOrder::Random,
                )
                .unwrap();
            // Leave the trees in their natural post-load state (the paper
            // measures after its load, not after a manual major
            // compaction) — but drain memtables so reads hit disk paths.
            engine.maintenance().unwrap();
            let before = device.stats();
            let mut wl = Workload::uniform(scale.records, OpMix::reads_only(), 0x1ead);
            wl.value_size = scale.value_size;
            let report = runner.run(engine.as_mut(), &mut wl, ops).unwrap();
            let d = device.stats().delta_since(&before);
            rows.push(vec![
                name.to_string(),
                fmt_f(report.ops_per_sec),
                fmt_f(d.random_reads as f64 / ops as f64),
                fmt_f(report.latency.mean() / 1e3),
                fmt_f(report.latency.percentile(0.99) as f64 / 1e3),
            ]);
        }
        print_table(
            &format!("Sec 5.3: 100% uniform random reads ({})", model.name),
            &["system", "ops/s", "seeks/read", "mean lat (ms)", "p99 (ms)"],
            &rows,
        );
    }
    println!(
        "\nPaper: InnoDB and bLSM perform about one disk seek per read; LevelDB performs \
         multiple seeks per read, reflected in its throughput."
    );
}
