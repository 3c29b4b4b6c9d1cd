//! The six standard YCSB core workloads (A–F) across all three engines.
//!
//! §5.1 uses YCSB as the load generator; the paper's own experiments
//! correspond to slices of these workloads (Figure 8 ≈ A/B/C sweeps,
//! Figure 9's serving phase ≈ B, §5.6 ≈ E). Running the full suite shows
//! where each engine's trade-offs land on the industry-standard mix:
//! bLSM should match or beat the B-Tree everywhere except the scan-heavy
//! workload E (§5.6's caveat), and should beat LevelDB everywhere except
//! possibly pure scans.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use blsm_bench::setup::{make_blsm, make_btree, make_leveldb, Scale};
use blsm_bench::{fmt_f, print_table};
use blsm_server::RemoteKv;
use blsm_storage::DiskModel;
use blsm_ycsb::{KvEngine, LoadOrder, Runner, Workload};

/// Integrity gate: numbers measured against a damaged store are
/// garbage, so every engine is scrubbed after loading and before the
/// measured phase. Any finding prints a diagnostic and exits nonzero
/// so CI (and scripted sweeps) cannot silently publish tainted results.
fn scrub_gate(engine: &mut dyn KvEngine, context: &str) {
    let errors = match engine.scrub() {
        Ok(errors) => errors,
        Err(e) => {
            eprintln!("ycsb_suite: pre-run scrub of {context} failed to run: {e}");
            std::process::exit(2);
        }
    };
    if !errors.is_empty() {
        eprintln!(
            "ycsb_suite: pre-run scrub of {context} found {} problem(s); refusing to benchmark a damaged store:",
            errors.len()
        );
        for e in &errors {
            eprintln!("ycsb_suite:   {e}");
        }
        std::process::exit(2);
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Network mode: drive a live `blsm-server` over TCP through the client
/// library, reporting the same histograms as the in-process path. The
/// engine's clock is the wall clock, so latencies include the wire.
fn run_network_suite(args: &[String]) {
    let addr = flag_value(args, "--server").expect("--server needs ADDR");
    let records: u64 = flag_value(args, "--records")
        .map_or(2_000, |v| v.parse().expect("--records: not a number"));
    let ops: u64 =
        flag_value(args, "--ops").map_or(2_000, |v| v.parse().expect("--ops: not a number"));
    let letters: Vec<char> = flag_value(args, "--workloads")
        .unwrap_or_else(|| "ABCDEF".into())
        .to_ascii_uppercase()
        .chars()
        .collect();

    let runner = Runner::default();
    let mut engine = RemoteKv::connect(addr.clone()).expect("connect to blsm-server");
    println!("loading {records} records into {addr} ...");
    runner
        .load(&mut engine, records, 100, false, LoadOrder::Random)
        .unwrap();
    scrub_gate(&mut engine, &format!("server {addr}"));

    let mut rows: Vec<Vec<String>> = Vec::new();
    for &letter in &letters {
        let mut wl = Workload::ycsb(letter, records, 0x5eed_u64 ^ letter as u64);
        wl.value_size = 100;
        let report = runner.run(&mut engine, &mut wl, ops).unwrap();
        rows.push(vec![
            letter.to_string(),
            fmt_f(report.ops_per_sec),
            report.latency.summary(),
        ]);
    }
    print_table(
        &format!("YCSB over TCP against {addr} (wall-clock latency)"),
        &["workload", "ops/s", "latency"],
        &rows,
    );
    let stats = engine.client().stats().expect("STATS");
    println!(
        "server: backpressure={:?} admitted={} delayed={} rejected={} merges01={}",
        stats.engine.backpressure,
        stats.admitted,
        stats.delayed,
        stats.rejected,
        stats.engine.merges01
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--server") {
        run_network_suite(&args);
        return;
    }
    let scale = Scale::paper_scaled().with_records(20_000);
    let runner = Runner::default();
    let ops = 5_000u64;
    let letters = ['A', 'B', 'C', 'D', 'E', 'F'];

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut results: Vec<Vec<f64>> = Vec::new();
    for &letter in &letters {
        let mut row = vec![format!(
            "{letter} ({})",
            match letter {
                'A' => "50/50 read/update, zipf",
                'B' => "95/5 read/update, zipf",
                'C' => "read-only, zipf",
                'D' => "95/5 read/insert, latest",
                'E' => "95/5 scan/insert, zipf",
                _ => "50/50 read/RMW, zipf",
            }
        )];
        let mut nums = Vec::new();
        for which in ["btree", "leveldb", "blsm"] {
            let mut engine: Box<dyn KvEngine> = match which {
                "blsm" => Box::new(make_blsm(DiskModel::ssd(), &scale)),
                "btree" => Box::new(make_btree(DiskModel::ssd(), &scale)),
                _ => Box::new(make_leveldb(DiskModel::ssd(), &scale)),
            };
            runner
                .load(
                    engine.as_mut(),
                    scale.records,
                    scale.value_size,
                    false,
                    LoadOrder::Random,
                )
                .unwrap();
            engine.settle().unwrap();
            scrub_gate(engine.as_mut(), which);
            let mut wl = Workload::ycsb(letter, scale.records, 0x5eed_u64 ^ letter as u64);
            wl.value_size = scale.value_size;
            let report = runner.run(engine.as_mut(), &mut wl, ops).unwrap();
            row.push(fmt_f(report.ops_per_sec));
            nums.push(report.ops_per_sec);
        }
        rows.push(row);
        results.push(nums);
    }

    print_table(
        "YCSB core workloads A-F, SSD model, throughput (ops/s)",
        &["workload", "B-Tree", "LevelDB-like", "bLSM"],
        &rows,
    );
    println!(
        "\nExpected shape: bLSM >= B-Tree on A-D and F; the B-Tree may win the \
         scan-heavy E (the paper's §5.6 caveat)."
    );
    // A, B, D, F: bLSM at least competitive with the B-Tree (>= 80%).
    for (i, letter) in letters.iter().enumerate() {
        if *letter == 'E' || *letter == 'C' {
            continue;
        }
        let (btree, blsm) = (results[i][0], results[i][2]);
        assert!(
            blsm >= 0.8 * btree,
            "workload {letter}: bLSM {blsm} far below B-Tree {btree}"
        );
    }
}
