//! Group-commit durability benchmark (BENCH_8): does durable write
//! throughput scale with client count?
//!
//! With per-write fsync, N clients writing synchronously share one
//! serial fsync pipeline: total throughput is pinned near `1/t_fsync`
//! no matter how many clients pile on. The group-commit WAL (DESIGN.md
//! §18) instead lets one committer amortize a single fsync over every
//! write that arrived while the previous sync was in flight, so
//! throughput should grow with client count until the device saturates.
//!
//! This binary measures exactly that, end to end over the wire:
//!
//! 1. raw device fsync latency (write + `sync_data` on a scratch file)
//!    — the floor any durable ack must pay;
//! 2. per-write-fsync baseline: one client, pipeline depth 1, against a
//!    `Durability::Sync` server — a solo writer gets a group of one,
//!    synced immediately, i.e. the classic fsync-per-write regime;
//! 3. scaling: 1, 8 and 32 clients, each pipelining `--depth` writes
//!    per round, against the same server.
//!
//! Expectations (reported as booleans, warned about, never fatal —
//! timing on shared CI boxes is advisory): 32 pipelined clients reach
//! at least 5x the baseline; throughput grows monotonically 1 -> 8 ->
//! 32; the solo-client p50 ack latency exceeds raw fsync p50 by no more
//! than 1 ms — this bench's own bound; the engine has no accumulation
//! window, so a solo writer pays one fsync and nothing else.
//!
//! Modes:
//!
//! ```text
//! group_commit_bench [--seconds S] [--depth D] [--json PATH]
//! group_commit_bench --server ADDR [--clients N] [--seconds S] [--depth D]
//! ```
//!
//! The first starts an in-process `Durability::Sync` server on a
//! file-backed device in a temp dir and runs all three phases. The
//! second drives an already-running server (the CI smoke job points it
//! at a `blsm-server --durability sync` process with 64 clients) and
//! prints one machine-parseable throughput line.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::cast_precision_loss)]

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blsm::{AppendOperator, BLsmConfig, BLsmTree, Durability, ThreadedBLsm};
use blsm_bench::{fmt_f, parse_json_path, print_table, write_json_report, Json};
use blsm_server::{Client, Request, Response, Server, ServerConfig};
use blsm_storage::{FileDevice, SharedDevice};

struct Args {
    server: Option<String>,
    clients: usize,
    seconds: f64,
    depth: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        server: None,
        clients: 64,
        seconds: 2.0,
        depth: 8,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--server" => args.server = Some(value("--server")),
            "--clients" => args.clients = value("--clients").parse().expect("--clients"),
            "--seconds" => args.seconds = value("--seconds").parse().expect("--seconds"),
            "--depth" => args.depth = value("--depth").parse().expect("--depth"),
            "--json" => {
                let _ = value("--json"); // handled by parse_json_path
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn p50(samples: &mut [u64]) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median microseconds for a small write + `sync_data` on a scratch
/// file — the device's price for one durable ack.
fn raw_fsync_micros(dir: &std::path::Path) -> u64 {
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path).expect("create fsync probe");
    file.write_all(&[0u8; 4096]).unwrap();
    file.sync_data().unwrap();
    let mut samples = Vec::with_capacity(64);
    for i in 0..64u64 {
        let start = Instant::now();
        file.write_all(&i.to_le_bytes()).unwrap();
        file.sync_data().unwrap();
        samples.push(start.elapsed().as_micros() as u64);
    }
    let _ = std::fs::remove_file(&path);
    p50(&mut samples)
}

/// One client thread: pipelined puts of `depth` per round until `stop`.
/// Returns (ops acked, per-round latency samples in µs).
fn hammer(
    addr: &str,
    client_id: usize,
    depth: usize,
    stop: &AtomicBool,
    acked: &AtomicU64,
) -> Vec<u64> {
    let mut client = Client::connect(addr).expect("connect");
    let value = vec![0x42u8; 100];
    let mut seq = 0u64;
    let mut latencies = Vec::with_capacity(4096);
    while !stop.load(Ordering::Relaxed) {
        let reqs: Vec<Request> = (0..depth)
            .map(|i| Request::Put {
                key: format!("gc-{client_id:03}-{:012}", seq + i as u64).into_bytes(),
                value: value.clone(),
            })
            .collect();
        seq += depth as u64;
        let start = Instant::now();
        match client.pipeline(&reqs) {
            Ok(resps) => {
                let ok = resps.iter().filter(|r| matches!(r, Response::Ok)).count() as u64;
                acked.fetch_add(ok, Ordering::Relaxed);
                latencies.push(start.elapsed().as_micros() as u64);
            }
            Err(_) => break,
        }
    }
    latencies
}

/// Runs `clients` pipelined writers for `seconds`; returns
/// (ops/s, p50 round latency µs).
fn scaling_point(addr: &str, clients: usize, depth: usize, seconds: f64) -> (f64, u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.to_string();
            let stop = stop.clone();
            let acked = acked.clone();
            std::thread::spawn(move || hammer(&addr, c, depth, &stop, &acked))
        })
        .collect();
    std::thread::sleep(Duration::from_secs_f64(seconds));
    stop.store(true, Ordering::Relaxed);
    let mut latencies = Vec::new();
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    (
        acked.load(Ordering::Relaxed) as f64 / elapsed,
        p50(&mut latencies),
    )
}

fn main() {
    let args = parse_args();

    if let Some(addr) = &args.server {
        // Smoke mode against an external server: one line for scripts.
        let (ops_per_sec, p50_us) = scaling_point(addr, args.clients, args.depth, args.seconds);
        println!(
            "group-commit smoke: clients={} depth={} ops_per_sec={} round_p50_us={}",
            args.clients, args.depth, ops_per_sec as u64, p50_us
        );
        assert!(ops_per_sec > 0.0, "no durable writes acked");
        return;
    }

    // In-process server on a real file device: fsyncs hit the kernel.
    let dir = std::env::temp_dir().join(format!("blsm-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    // Flush whatever the cleanup queued in the filesystem journal:
    // leftover delete transactions make every fsync in the first phase
    // stall for milliseconds, poisoning the baseline.
    let _ = std::process::Command::new("sync").status();

    // 256 MiB C0 budget (same rationale as BENCH_7): the full run
    // writes ~65 MB, so no snow-shovel merge starts mid-phase — on this
    // one-core box a background merge competing for the CPU multiplies
    // solo-client ack latency ~30x, and this benchmark prices the
    // commit pipeline, not merge interference.
    let config = BLsmConfig {
        mem_budget: 256 << 20,
        durability: Durability::Sync,
        ..Default::default()
    };
    // This bench's bound on what group commit may add to a solo
    // writer's ack over the raw fsync (JSON keys keep BENCH_8's names).
    let solo_bound_us = 1_000u64;
    let data: SharedDevice = Arc::new(FileDevice::open(&dir.join("data")).unwrap());
    let wal: SharedDevice = Arc::new(FileDevice::open(&dir.join("wal")).unwrap());
    let tree = BLsmTree::open(data, wal, 4096, config, Arc::new(AppendOperator)).expect("open");
    let db = ThreadedBLsm::start(tree, 1 << 20).expect("start merge thread");
    let server =
        Server::start(db, "127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().to_string();

    // Phases 2+3 run as rotations — baseline, 1, 8, 32, repeated
    // ROTATIONS times, medians reported — because single-pass numbers
    // on this box drift up to 2x with external CPU throttling (same
    // methodology as BENCH_7). The baseline is a solo client at depth
    // 1: the committer syncs a lone writer's group immediately, so this
    // is the fsync-per-write regime the paper's §5.1 complains about.
    const ROTATIONS: usize = 3;
    let counts = [1usize, 8, 32];
    let mut raw_samples = Vec::new();
    let mut baseline_samples = Vec::new();
    let mut samples: Vec<Vec<(f64, u64)>> = vec![Vec::new(); counts.len()];
    for _ in 0..ROTATIONS {
        // Probe raw fsync inside each rotation, not once at startup:
        // device fsync cost is bimodal on this box (journal pressure
        // turns a 100µs fsync into 3.5ms for a while), and the latency
        // comparison is only meaningful against the price the device
        // charged *during* the measured phases.
        raw_samples.push(raw_fsync_micros(&dir));
        baseline_samples.push(scaling_point(&addr, 1, 1, args.seconds));
        for (i, &n) in counts.iter().enumerate() {
            samples[i].push(scaling_point(&addr, n, args.depth, args.seconds));
        }
    }
    let raw_fsync_us = p50(&mut raw_samples);
    let median = |runs: &mut Vec<(f64, u64)>| {
        runs.sort_by(|a, b| a.0.total_cmp(&b.0));
        runs[runs.len() / 2]
    };
    let (baseline_ops, baseline_p50_us) = median(&mut baseline_samples);
    let points: Vec<(usize, f64, u64)> = counts
        .iter()
        .zip(samples.iter_mut())
        .map(|(&n, runs)| {
            let (ops, p) = median(runs);
            (n, ops, p)
        })
        .collect();

    let trees = server.shutdown().expect("graceful shutdown");
    let stats = trees[0].stats();
    let _ = std::fs::remove_dir_all(&dir);

    let ops = |i: usize| points[i].1;
    let meets_5x = ops(2) >= 5.0 * baseline_ops;
    let monotonic = ops(0) <= ops(1) && ops(1) <= ops(2);
    let latency_within_deadline = baseline_p50_us.saturating_sub(raw_fsync_us) <= solo_bound_us;
    for (cond, msg) in [
        (
            meets_5x,
            "32 pipelined clients did not reach 5x the per-write-fsync baseline",
        ),
        (
            monotonic,
            "throughput is not monotonic over 1 -> 8 -> 32 clients",
        ),
        (
            latency_within_deadline,
            "solo-client ack latency exceeds raw fsync + 1 ms",
        ),
    ] {
        if !cond {
            eprintln!("WARN: {msg} (timing advisory on shared hardware, not fatal)");
        }
    }

    let mean_group = if stats.commit_groups == 0 {
        0.0
    } else {
        stats.commit_group_writes as f64 / stats.commit_groups as f64
    };
    print_table(
        "group-commit durable write scaling (Durability::Sync, FileDevice)",
        &["clients", "depth", "ops/s", "round p50 µs"],
        &points
            .iter()
            .map(|&(n, ops, p)| {
                vec![
                    n.to_string(),
                    args.depth.to_string(),
                    fmt_f(ops),
                    p.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("\nraw fsync p50: {raw_fsync_us} µs  solo-latency bound: {solo_bound_us} µs");
    println!(
        "baseline (1 client, depth 1): {} ops/s, p50 {} µs",
        fmt_f(baseline_ops),
        baseline_p50_us
    );
    println!(
        "commit groups: {} over {} writes (mean {:.1} writes/fsync)",
        stats.commit_groups, stats.commit_group_writes, mean_group
    );
    println!("meets_5x={meets_5x} monotonic={monotonic} latency_within_deadline={latency_within_deadline}");

    if let Some(path) = parse_json_path() {
        let report = Json::obj(vec![
            (
                "bench",
                Json::Str("group_commit_bench (BENCH_8: durable write scaling)".into()),
            ),
            (
                "metric",
                Json::Str(format!(
                    "acked durable puts/s over TCP against a Durability::Sync server on a \
                     FileDevice temp dir; {}s per phase, pipeline depth {}, medians of 3 \
                     rotations within one invocation; baseline is one client at depth 1 \
                     (solo commit groups sync immediately = per-write fsync)",
                    args.seconds, args.depth
                )),
            ),
            ("raw_fsync_us_p50", Json::Int(raw_fsync_us)),
            ("commit_deadline_us", Json::Int(solo_bound_us)),
            (
                "baseline_per_write_fsync",
                Json::obj(vec![
                    ("ops_per_sec", Json::Num(baseline_ops)),
                    ("p50_us", Json::Int(baseline_p50_us)),
                ]),
            ),
            (
                "pipelined_scaling",
                Json::Arr(
                    points
                        .iter()
                        .map(|&(n, ops, p)| {
                            Json::obj(vec![
                                ("clients", Json::Int(n as u64)),
                                ("depth", Json::Int(args.depth as u64)),
                                ("ops_per_sec", Json::Num(ops)),
                                ("round_p50_us", Json::Int(p)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "commit_groups",
                Json::obj(vec![
                    ("groups", Json::Int(stats.commit_groups)),
                    ("writes", Json::Int(stats.commit_group_writes)),
                    ("mean_writes_per_fsync", Json::Num(mean_group)),
                    ("fsync_micros_total", Json::Int(stats.fsync_micros_total)),
                ]),
            ),
            ("meets_5x", Json::Int(u64::from(meets_5x))),
            ("monotonic_1_8_32", Json::Int(u64::from(monotonic))),
            (
                "solo_latency_within_commit_deadline",
                Json::Int(u64::from(latency_within_deadline)),
            ),
        ]);
        write_json_report(&path, &report);
    }
}
