//! Benchmark harness regenerating every table and figure of the bLSM
//! paper (see DESIGN.md §5 for the experiment index and EXPERIMENTS.md
//! for recorded results).
//!
//! Binaries (run with `cargo run --release -p blsm-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1_seek_costs` | Table 1 (seeks per operation, three engines) |
//! | `fig2_read_amplification` | Figure 2 (fractional cascading vs blooms) |
//! | `fig7_insert_timeseries` | Figure 7 (random-order load timeseries) |
//! | `fig8_throughput_vs_writes` | Figure 8 (mix sweep, HDD + SSD) |
//! | `fig9_workload_shift` | Figure 9 (uniform writes → Zipfian 80/20) |
//! | `sec52_bulk_load` | §5.2 (load semantics and throughput) |
//! | `sec53_random_reads` | §5.3 (random read performance, seeks/read) |
//! | `sec56_scans` | §5.6 (short and long scans vs the B-Tree) |
//! | `table2_page_sizes` | Table 2 / Appendix A (cache for read-amp 1) |
//! | `ablation_schedulers` | §4.1/§4.3 (naive vs gear vs spring-and-gear) |
//! | `ablation_snowshovel` | §4.2 (run lengths by input order) |
//! | `ext_partitioning` | §2.3.2/§3.3 future work (key-range partitioning: scan seeks, cold partitions) |
//! | `ycsb_suite` | §5.1 (YCSB A–F on all three engines; `--server` drives a live `blsm-server`) |
//!
//! Everything runs on simulated HDD/SSD devices (DESIGN.md §3), so results
//! are deterministic and machine-independent; scale defaults to 1/1000 of
//! the paper's 50 GB / 10 GB-RAM setup, preserving every ratio that
//! matters (data:RAM, data:C0, value size).

pub mod adapters;
pub mod models;
pub mod setup;

pub use adapters::{BLsmEngine, BTreeEngine, LevelDbEngine};
pub use setup::{EngineKind, Scale};

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(ToString::to_string).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with engineering-friendly precision.
pub fn fmt_f(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}
