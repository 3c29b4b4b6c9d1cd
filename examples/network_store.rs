//! Networked deployment shape: a [`Server`] wraps a [`ThreadedBLsm`] on
//! an ephemeral TCP port while clients talk to it over the wire through
//! the [`Client`] library — GET/PUT/SCAN, pipelined bursts, admission
//! stats, and a graceful shutdown that checkpoints before exit.
//!
//! Run with `cargo run --example network_store`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::sync::Arc;

use blsm_repro::blsm::{AppendOperator, BLsmConfig, BLsmTree, ThreadedBLsm};
use blsm_repro::blsm_server::{Client, Server, ServerConfig};
use blsm_repro::blsm_storage::{MemDevice, SharedDevice};

fn main() {
    let data: SharedDevice = Arc::new(MemDevice::new());
    let wal: SharedDevice = Arc::new(MemDevice::new());
    let config = BLsmConfig {
        mem_budget: 256 << 10,
        wal_capacity: 32 << 20,
        ..Default::default()
    };
    let tree = BLsmTree::open(data, wal, 1024, config, Arc::new(AppendOperator)).unwrap();
    let db = ThreadedBLsm::start(tree, 256 << 10).unwrap();

    // Bind an ephemeral port; the accept loop and per-connection threads
    // run in the background while this thread acts as a client.
    let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    println!("serving on {addr}");

    // Two client connections write disjoint key ranges concurrently.
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..2_000u64 {
                    let id = w * 10_000 + i;
                    c.put(
                        format!("user{id:08}").as_bytes(),
                        format!("v-{w}-{i}").as_bytes(),
                    )
                    .unwrap();
                }
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }

    let mut c = Client::connect(addr).unwrap();
    let sample = c.get(b"user00000000").unwrap();
    println!("sample read over the wire: {:?}", sample.map(|v| v.len()));
    let rows = c.scan(b"user", None, 10).unwrap();
    println!("first {} keys via SCAN", rows.len());

    let stats = c.stats().unwrap();
    println!(
        "server stats: writes={} backpressure={:?} admitted={} delayed={} rejected={}",
        stats.engine.writes,
        stats.engine.backpressure,
        stats.admitted,
        stats.delayed,
        stats.rejected
    );

    // Graceful shutdown: stop accepting, drain connections, checkpoint,
    // and hand the tree back for a final in-process look.
    let tree = server.shutdown().unwrap().remove(0);
    let all = tree.scan(b"", 100_000).unwrap();
    assert_eq!(all.len(), 4_000, "every acknowledged write must survive");
    assert_eq!(tree.c0_bytes(), 0, "shutdown checkpoints C0");
    println!(
        "network store OK: 4000 writes over TCP, clean shutdown, {} C0:C1 passes",
        tree.stats().merges01
    );
}
