//! End-to-end tests over real sockets: concurrent clients racing the
//! merge thread, mid-request disconnects, pipelining, admission-control
//! saturation, and graceful shutdown with WAL-clean recovery.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blsm::{
    AppendOperator, BLsmConfig, BLsmTree, Durability, SchedulerKind, ShardedBLsm, ShardedConfig,
    ThreadedBLsm,
};
use blsm_server::protocol::{encode_request, Request, Response};
use blsm_server::{Client, ErrKind, Server, ServerConfig};
use blsm_storage::{FaultMode, FaultyDevice, MemDevice, SharedDevice};

fn open_tree(data: &SharedDevice, wal: &SharedDevice, config: &BLsmConfig) -> BLsmTree {
    BLsmTree::open(
        data.clone(),
        wal.clone(),
        2048,
        config.clone(),
        Arc::new(AppendOperator),
    )
    .unwrap()
}

fn start_server(config: BLsmConfig) -> (Server, SharedDevice, SharedDevice) {
    let data: SharedDevice = Arc::new(MemDevice::new());
    let wal: SharedDevice = Arc::new(MemDevice::new());
    let tree = open_tree(&data, &wal, &config);
    let db = ThreadedBLsm::start(tree, 256 << 10).unwrap();
    let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    (server, data, wal)
}

fn small_config() -> BLsmConfig {
    BLsmConfig {
        mem_budget: 64 << 10,
        ..Default::default()
    }
}

#[test]
fn basic_roundtrip_over_the_wire() {
    let (server, _data, _wal) = start_server(small_config());
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(addr).unwrap();

    c.ping().unwrap();
    assert_eq!(c.get(b"missing").unwrap(), None);
    c.put(b"alpha", b"1").unwrap();
    c.put(b"beta", b"2").unwrap();
    assert_eq!(c.get(b"alpha").unwrap().unwrap(), b"1");
    assert!(c.insert_if_not_exists(b"gamma", b"3").unwrap());
    assert!(!c.insert_if_not_exists(b"gamma", b"x").unwrap());
    c.apply_delta(b"alpha", b"+").unwrap();
    assert_eq!(c.get(b"alpha").unwrap().unwrap(), b"1+");
    c.delete(b"beta").unwrap();
    assert_eq!(c.get(b"beta").unwrap(), None);

    let rows = c.scan(b"", None, 100).unwrap();
    assert_eq!(
        rows.iter().map(|(k, _)| k.as_slice()).collect::<Vec<_>>(),
        vec![b"alpha".as_slice(), b"gamma".as_slice()]
    );
    let bounded = c.scan(b"a", Some(b"b"), 100).unwrap();
    assert_eq!(bounded.len(), 1);

    let stats = c.stats().unwrap();
    assert!(stats.engine.gets >= 3);
    assert!(stats.engine.writes >= 4);
    // A counter the old fixed-field STATS never carried.
    assert!(stats.engine.user_bytes_written > 0);

    let tree = server.shutdown().unwrap().remove(0);
    assert_eq!(tree.get(b"alpha").unwrap().unwrap().as_ref(), b"1+");
}

/// A SCAN frame's limit is a `u32` the server used to reserve rows for
/// up front: `u32::MAX` asked the allocator for hundreds of gigabytes and
/// the process aborted. It is a ceiling — the store's rows come back and
/// the server keeps serving — and 0 asks for nothing.
#[test]
fn scan_limit_extremes_do_not_hurt_the_server() {
    let (server, _data, _wal) = start_server(small_config());
    let mut c = Client::connect(server.local_addr().to_string()).unwrap();
    for i in 0..10u8 {
        c.put(&[b'k', i], b"v").unwrap();
    }
    assert_eq!(c.scan(b"", None, u32::MAX).unwrap().len(), 10);
    assert_eq!(c.scan(b"k", Some(b"l"), u32::MAX).unwrap().len(), 10);
    assert!(c.scan(b"", None, 0).unwrap().is_empty());
    c.ping().unwrap();
    c.put(b"after", b"still serving").unwrap();
    assert_eq!(c.get(b"after").unwrap().unwrap(), b"still serving");
    server.shutdown().unwrap();
}

/// ≥4 client connections race GET/PUT/SCAN against the live merge
/// thread. Runs under strict-invariants in CI (the merge thread panics
/// on any violated tree invariant, which this test then observes as
/// lost writes).
#[test]
fn concurrent_clients_race_merge_thread() {
    let (server, _data, _wal) = start_server(small_config());
    let addr = server.local_addr().to_string();

    let mut handles = Vec::new();
    for t in 0..5u32 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for i in 0..400u32 {
                let id = t * 10_000 + i;
                let key = format!("user{id:08}");
                c.put(key.as_bytes(), format!("v{t}-{i}").as_bytes())
                    .unwrap();
                if i % 7 == 0 {
                    // Read-your-writes through a different code path.
                    let got = c.get(key.as_bytes()).unwrap();
                    assert_eq!(got.unwrap(), format!("v{t}-{i}").into_bytes());
                }
                if i % 31 == 0 {
                    let rows = c.scan(format!("user{:08}", t * 10_000).as_bytes(), None, 5);
                    assert!(!rows.unwrap().is_empty());
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let mut c = Client::connect(addr).unwrap();
    let stats = c.stats().unwrap();
    assert!(
        stats.engine.writes >= 2000,
        "writes: {}",
        stats.engine.writes
    );

    let tree = server.shutdown().unwrap().remove(0);
    // Every acknowledged write survives shutdown.
    for t in 0..5u32 {
        for i in (0..400u32).step_by(37) {
            let id = t * 10_000 + i;
            let got = tree.get(format!("user{id:08}").as_bytes()).unwrap();
            assert_eq!(got.unwrap().as_ref(), format!("v{t}-{i}").as_bytes());
        }
    }
    assert!(tree.stats().merges01 > 0, "merge thread never ran a pass");
}

/// Pipelining: many requests written in one burst come back in order,
/// batched through a single connection.
#[test]
fn pipelined_burst_preserves_order() {
    let (server, _data, _wal) = start_server(small_config());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();

    let mut wire = Vec::new();
    for i in 0..50u64 {
        let key = format!("p{i:04}").into_bytes();
        encode_request(
            &mut wire,
            i,
            &Request::Put {
                key,
                value: vec![b'x'; 32],
            },
        )
        .unwrap();
    }
    encode_request(
        &mut wire,
        50,
        &Request::Get {
            key: b"p0049".to_vec(),
        },
    )
    .unwrap();
    stream.write_all(&wire).unwrap();

    let mut decoder = blsm_server::FrameDecoder::new();
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    while got.len() < 51 {
        use std::io::Read;
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "server closed early");
        decoder.feed(&buf[..n]);
        while let Some(payload) = decoder.next_frame().unwrap() {
            got.push(blsm_server::protocol::decode_response(&payload).unwrap());
        }
    }
    for (i, (id, resp)) in got.iter().take(50).enumerate() {
        assert_eq!(*id, i as u64);
        assert!(matches!(resp, Response::Ok | Response::RetryLater { .. }));
    }
    let (id, last) = &got[50];
    assert_eq!(*id, 50);
    assert!(matches!(last, Response::Value(Some(v)) if v == &vec![b'x'; 32]));

    server.shutdown().unwrap();
}

/// A `Durability::Sync` server whose log device fails one write: writes
/// parked on the failed group get a typed I/O error (reactors compare the
/// engine's failure epoch), the next write acks, and acked keys survive.
#[test]
fn a_failed_commit_group_errors_its_parked_writes_then_acks_again() {
    let (data, wal_medium): (SharedDevice, SharedDevice) =
        (Arc::new(MemDevice::new()), Arc::new(MemDevice::new()));
    let wal = Arc::new(FaultyDevice::new(
        wal_medium.clone(),
        FaultMode::FailWrites,
        u64::MAX,
    ));
    let faulty: SharedDevice = wal.clone();
    let config = BLsmConfig {
        durability: Durability::Sync,
        ..small_config()
    };
    let db = ThreadedBLsm::start(open_tree(&data, &faulty, &config), 256 << 10).unwrap();
    let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr().to_string()).unwrap();
    client.put(b"before", b"ok").unwrap();

    wal.fail_next(1);
    let keys: Vec<Vec<u8>> = (0..32u32)
        .map(|i| format!("g{i:04}").into_bytes())
        .collect();
    let batch: Vec<Request> = keys
        .iter()
        .map(|k| Request::Put {
            key: k.clone(),
            value: vec![b'v'; 64],
        })
        .collect();
    let resps = client.pipeline(&batch).unwrap();
    let group_failed = |r: &Response| {
        matches!(r, Response::Err { kind: ErrKind::Io, message }
            if message.starts_with("commit group failed"))
    };
    // The first write is in the group that met the fault; later ones
    // either shared it or retired on the next, healthy group.
    assert!(group_failed(&resps[0]), "{:?}", resps[0]);
    assert!(
        resps.iter().all(|r| *r == Response::Ok || group_failed(r)),
        "{resps:?}"
    );
    client.put(b"after", b"ok").unwrap();
    server.shutdown().unwrap();

    let tree = open_tree(&data, &wal_medium, &config);
    let acked = keys.iter().zip(&resps).filter(|(_, r)| **r == Response::Ok);
    for key in acked
        .map(|(k, _)| k.as_slice())
        .chain([&b"before"[..], b"after"])
    {
        assert!(
            tree.get(key).unwrap().is_some(),
            "acknowledged {key:?} lost"
        );
    }
}

/// A client that dies mid-request (torn frame, then hard disconnect)
/// must leak neither its connection thread nor a tree lock.
#[test]
fn mid_request_disconnect_leaks_nothing() {
    let (server, _data, _wal) = start_server(small_config());
    let addr = server.local_addr();

    // Torn frame: a length prefix promising more than is ever sent.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut torn = Vec::new();
        encode_request(
            &mut torn,
            1,
            &Request::Put {
                key: b"torn".to_vec(),
                value: vec![0u8; 1000],
            },
        )
        .unwrap();
        stream.write_all(&torn[..torn.len() / 2]).unwrap();
        // Hard drop, mid-frame.
    }
    // Garbage: an oversized length prefix.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&[0xFF; 64]).unwrap();
    }

    // Both connection threads must notice and exit.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.active_connections() > 0 {
        assert!(
            Instant::now() < deadline,
            "connection thread leaked: {} still active",
            server.active_connections()
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // No tree lock leaked either: a fresh client can still write.
    let mut c = Client::connect(addr.to_string()).unwrap();
    c.put(b"alive", b"yes").unwrap();
    assert_eq!(c.get(b"alive").unwrap().unwrap(), b"yes");
    assert_eq!(c.get(b"torn").unwrap(), None, "torn write must not apply");

    server.shutdown().unwrap();
}

/// Saturation: with the naive scheduler (merges only start when C0 is
/// completely full), unthrottled puts walk C0 up through the paced band
/// into saturation. Writes must see proportional delays and then
/// RETRY_LATER, while reads keep completing throughout.
#[test]
fn saturation_sheds_writes_while_reads_flow() {
    let config = BLsmConfig {
        mem_budget: 64 << 10,
        scheduler: SchedulerKind::Naive,
        ..Default::default()
    };
    let (server, _data, _wal) = start_server(config);
    let addr = server.local_addr().to_string();

    let mut writer = Client::connect(addr.clone()).unwrap();
    let mut reader = Client::connect(addr).unwrap();
    writer.put(b"seed", b"v").unwrap();

    // Raw calls (no retry) so RETRY_LATER is observable.
    let value = vec![0u8; 1024];
    let mut saw_retry_later = false;
    for i in 0..200u32 {
        let req = Request::Put {
            key: format!("fill{i:06}").into_bytes(),
            value: value.clone(),
        };
        match writer.call(&req).unwrap() {
            Response::Ok => {}
            Response::RetryLater { backoff_ms } => {
                assert!(backoff_ms > 0);
                saw_retry_later = true;
                break;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(
        saw_retry_later,
        "C0 crossed the high water mark but no write was rejected"
    );

    // Reads keep flowing while writes are shed.
    assert_eq!(reader.get(b"seed").unwrap().unwrap(), b"v");
    assert_eq!(reader.get(b"fill000000").unwrap().unwrap(), value);

    let stats = reader.stats().unwrap();
    assert!(
        stats.engine.backpressure.is_saturated(),
        "{:?}",
        stats.engine.backpressure
    );
    assert!(stats.rejected > 0, "rejections not counted");
    assert!(
        stats.delayed > 0,
        "the paced band was crossed without any proportional delay"
    );

    // And rejected writes really were not applied.
    let mut probe = 0;
    for i in 0..200u32 {
        if reader
            .get(format!("fill{i:06}").as_bytes())
            .unwrap()
            .is_some()
        {
            probe += 1;
        }
    }
    assert!(probe < 200, "a rejected write was applied anyway");

    server.shutdown().unwrap();
}

/// Graceful shutdown over the wire: SHUTDOWN drains and checkpoints, so
/// a reopen finds every acknowledged write with an empty C0 (nothing
/// left to replay from the WAL).
#[test]
fn wire_shutdown_checkpoints_for_clean_recovery() {
    let config = small_config();
    let (server, data, wal) = start_server(config.clone());
    let addr = server.local_addr().to_string();

    let mut c = Client::connect(addr).unwrap();
    for i in 0..300u32 {
        c.put(format!("k{i:06}").as_bytes(), format!("v{i}").as_bytes())
            .unwrap();
    }
    c.shutdown_server().unwrap();

    // The stop flag is set; finish the drain and take the tree back.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !server.shutdown_requested() {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    let tree = server.shutdown().unwrap().remove(0);
    assert_eq!(tree.c0_bytes(), 0, "shutdown must checkpoint");
    drop(tree);

    // Recovery: reopen from the same devices.
    let tree = open_tree(&data, &wal, &config);
    assert_eq!(tree.c0_bytes(), 0, "clean WAL: nothing to replay");
    for i in (0..300u32).step_by(23) {
        let got = tree.get(format!("k{i:06}").as_bytes()).unwrap();
        assert_eq!(got.unwrap().as_ref(), format!("v{i}").as_bytes());
    }
}

/// A single flipped bit in one on-disk component page surfaces as a
/// *typed* corruption error for keys on that page, while keys on other
/// pages stay readable over the same connection — degraded reads, not a
/// dead store. Scrub over the wire then pinpoints the damage.
#[test]
fn corrupt_component_degrades_reads_without_killing_connection() {
    let config = small_config();
    let data: SharedDevice = Arc::new(MemDevice::new());
    let wal: SharedDevice = Arc::new(MemDevice::new());
    let sentinel_value = b"SENTINEL-VALUE-0123456789-ABCDEF";
    {
        let tree = open_tree(&data, &wal, &config);
        for i in 0..2000u32 {
            tree.put(
                format!("k{i:06}").into_bytes(),
                format!("v{i}").into_bytes(),
            )
            .unwrap();
        }
        tree.put(b"zzz-target".to_vec(), sentinel_value.to_vec())
            .unwrap();
        tree.checkpoint().unwrap();
        // Everything must live in on-disk components now, or the WAL
        // replay would mask the corruption behind a C0 hit.
        assert_eq!(tree.c0_bytes(), 0, "checkpoint left data in C0");
    }

    // Flip one bit inside the leaf page holding the sentinel value.
    let off = {
        let mut bytes = vec![0u8; data.len() as usize];
        data.read_at(0, &mut bytes).unwrap();
        bytes
            .windows(sentinel_value.len())
            .position(|w| w == sentinel_value)
            .expect("sentinel value not found on the data device") as u64
    };
    let mut b = [0u8; 1];
    data.read_at(off, &mut b).unwrap();
    b[0] ^= 0x01;
    data.write_at(off, &b).unwrap();

    let tree = open_tree(&data, &wal, &config);
    let db = ThreadedBLsm::start(tree, 256 << 10).unwrap();
    let server = Server::start(db, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr().to_string()).unwrap();

    // The damaged key comes back as a *typed* corruption error...
    let err = c.get(b"zzz-target").unwrap_err();
    assert!(err.is_corruption(), "expected corruption error, got: {err}");

    // ...while the same connection keeps serving keys on other pages.
    for i in (0..100u32).step_by(9) {
        let got = c.get(format!("k{i:06}").as_bytes()).unwrap();
        assert_eq!(got.unwrap(), format!("v{i}").into_bytes());
    }
    assert_eq!(
        server.active_connections(),
        1,
        "connection died after a corruption error"
    );

    // Scrub over the wire pinpoints the damage and bumps the counters.
    let report = c.scrub().unwrap();
    assert!(!report.errors.is_empty(), "scrub missed the flipped bit");
    assert!(report.components > 0 && report.pages > 0);
    let stats = c.stats().unwrap();
    assert!(stats.engine.scrubs >= 1, "scrubs: {}", stats.engine.scrubs);
    assert!(
        stats.engine.scrub_errors >= 1,
        "scrub_errors: {}",
        stats.engine.scrub_errors
    );

    server.shutdown().unwrap();
}

/// Scrub over the wire on a healthy store: clean report, counters move.
#[test]
fn wire_scrub_on_clean_store_reports_no_errors() {
    let (server, _data, _wal) = start_server(small_config());
    let mut c = Client::connect(server.local_addr().to_string()).unwrap();
    for i in 0..500u32 {
        c.put(format!("s{i:05}").as_bytes(), b"v").unwrap();
    }
    let report = c.scrub().unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let stats = c.stats().unwrap();
    assert_eq!(stats.engine.scrub_errors, 0);
    assert!(stats.engine.scrubs >= 1);
    server.shutdown().unwrap();
}

// ---------------------------------------------------------------------------
// Sharded serving: per-key routing, scatter-gather SCAN, per-shard
// admission isolation, and per-shard STATS over the wire.
// ---------------------------------------------------------------------------

/// Starts a sharded server over MemDevices with explicit boundaries.
/// Returns the server plus the devices so tests can reopen the store.
fn start_sharded_server(
    config: BLsmConfig,
    bounds: Vec<bytes::Bytes>,
) -> (Server, SharedDevice, Vec<(SharedDevice, SharedDevice)>) {
    let manifest: SharedDevice = Arc::new(MemDevice::new());
    let devs: Vec<(SharedDevice, SharedDevice)> = (0..=bounds.len())
        .map(|_| {
            (
                Arc::new(MemDevice::new()) as SharedDevice,
                Arc::new(MemDevice::new()) as SharedDevice,
            )
        })
        .collect();
    let sharded_config = ShardedConfig {
        tree: config,
        pool_pages: 2048,
        quantum: 256 << 10,
    };
    let devs_for_open = devs.clone();
    let store = ShardedBLsm::open_with_devices(
        manifest.clone(),
        bounds,
        move |i| Ok(devs_for_open[i].clone()),
        &sharded_config,
        &(Arc::new(AppendOperator) as Arc<dyn blsm::MergeOperator>),
    )
    .unwrap();
    let server = Server::start_sharded(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    (server, manifest, devs)
}

/// The full protocol over a 4-shard server: point ops route by key,
/// SCAN scatter-gathers into one globally key-ordered stream (straddling
/// every shard boundary), and STATS carries a per-shard breakdown
/// showing the writes actually spread across shards.
#[test]
fn sharded_server_routes_and_scatter_gathers() {
    let bounds = vec![
        bytes::Bytes::from_static(b"g"),
        bytes::Bytes::from_static(b"n"),
        bytes::Bytes::from_static(b"t"),
    ];
    let (server, _manifest, _devs) = start_sharded_server(small_config(), bounds);
    let mut c = Client::connect(server.local_addr().to_string()).unwrap();

    // Keys covering all four shards.
    for (k, v) in [
        (&b"apple"[..], &b"0"[..]),
        (b"fig", b"0"),
        (b"grape", b"1"),
        (b"mango", b"1"),
        (b"nectarine", b"2"),
        (b"peach", b"2"),
        (b"tomato", b"3"),
        (b"zucchini", b"3"),
    ] {
        c.put(k, v).unwrap();
    }
    assert_eq!(c.get(b"apple").unwrap().unwrap(), b"0");
    assert_eq!(c.get(b"peach").unwrap().unwrap(), b"2");
    assert_eq!(c.get(b"zucchini").unwrap().unwrap(), b"3");
    assert!(c.insert_if_not_exists(b"quince", b"2x").unwrap());
    assert!(!c.insert_if_not_exists(b"quince", b"no").unwrap());
    c.apply_delta(b"tomato", b"+").unwrap();
    assert_eq!(c.get(b"tomato").unwrap().unwrap(), b"3+");
    c.delete(b"fig").unwrap();
    assert_eq!(c.get(b"fig").unwrap(), None);

    // Unbounded scatter-gather SCAN: globally key-ordered across all
    // four shards.
    let rows = c.scan(b"", None, 100).unwrap();
    let keys: Vec<&[u8]> = rows.iter().map(|(k, _)| k.as_slice()).collect();
    assert_eq!(
        keys,
        vec![
            b"apple".as_slice(),
            b"grape",
            b"mango",
            b"nectarine",
            b"peach",
            b"quince",
            b"tomato",
            b"zucchini",
        ]
    );
    // A bounded scan straddling the middle boundary only.
    let rows = c.scan(b"mango", Some(b"peach"), 100).unwrap();
    let keys: Vec<&[u8]> = rows.iter().map(|(k, _)| k.as_slice()).collect();
    assert_eq!(keys, vec![b"mango".as_slice(), b"nectarine"]);
    // Limit applies across shards, not per shard.
    assert_eq!(c.scan(b"", None, 3).unwrap().len(), 3);

    // Per-shard STATS breakdown: 4 serving shards, writes spread.
    let stats = c.stats().unwrap();
    assert_eq!(stats.shards.len(), 4);
    assert!(stats.shards.iter().all(|s| s.engine.is_some()));
    let busy = stats
        .shards
        .iter()
        .filter(|s| s.engine.is_some_and(|e| e.writes > 0))
        .count();
    assert_eq!(busy, 4, "writes must have landed on every shard");
    assert_eq!(
        stats
            .shards
            .iter()
            .map(|s| s.engine.map_or(0, |e| e.writes))
            .sum::<u64>(),
        stats.engine.writes
    );

    let trees = server.shutdown().unwrap();
    assert_eq!(trees.len(), 4);
}

/// The acceptance-criterion isolation test: saturating one shard must
/// not RETRY_LATER writes addressed to another. Shard 0 (keys < "m")
/// is flooded until its spring-and-gear saturates and rejects; writes
/// routed to shard 1 (keys >= "m") must still be admitted, and the
/// per-shard STATS breakdown must pin every rejection on shard 0.
#[test]
fn saturating_one_shard_does_not_reject_writes_to_another() {
    let config = BLsmConfig {
        mem_budget: 64 << 10,
        scheduler: SchedulerKind::Naive,
        ..Default::default()
    };
    let (server, _manifest, _devs) =
        start_sharded_server(config, vec![bytes::Bytes::from_static(b"m")]);
    let addr = server.local_addr().to_string();
    let mut writer = Client::connect(addr.clone()).unwrap();
    let mut cold = Client::connect(addr).unwrap();

    // Flood shard 0 with raw calls (no retry) until it sheds writes.
    let value = vec![0u8; 1024];
    let mut saw_retry_later = false;
    for i in 0..200u32 {
        let req = Request::Put {
            key: format!("a-fill{i:06}").into_bytes(),
            value: value.clone(),
        };
        match writer.call(&req).unwrap() {
            Response::Ok => {}
            Response::RetryLater { backoff_ms } => {
                assert!(backoff_ms > 0);
                saw_retry_later = true;
                break;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert!(saw_retry_later, "shard 0 never crossed its high water mark");

    // While shard 0 is shedding, every write addressed to shard 1 is
    // admitted — raw calls again, so a RETRY_LATER would be visible.
    for i in 0..50u32 {
        let req = Request::Put {
            key: format!("z-cold{i:06}").into_bytes(),
            value: b"v".to_vec(),
        };
        match cold.call(&req).unwrap() {
            Response::Ok => {}
            other => panic!("cold-shard write throttled by hot shard: {other:?}"),
        }
    }
    // And reads flow everywhere, including the saturated shard.
    assert_eq!(cold.get(b"z-cold000000").unwrap().unwrap(), b"v");
    assert_eq!(cold.get(b"a-fill000000").unwrap().unwrap(), value);

    // The per-shard breakdown pins the rejections on shard 0 alone.
    let stats = cold.stats().unwrap();
    assert_eq!(stats.shards.len(), 2);
    assert!(
        stats.shards[0].rejected > 0,
        "shard 0 rejections missing: {:?}",
        stats.shards[0]
    );
    assert_eq!(
        stats.shards[1].rejected, 0,
        "cold shard rejected writes: {:?}",
        stats.shards[1]
    );
    assert!(stats.shards[1].admitted >= 50);
    assert_eq!(stats.rejected, stats.shards[0].rejected);

    server.shutdown().unwrap();
}

/// Wire shutdown + restart over the same devices: the shard manifest
/// recovers the boundary layout (ignoring a different requested one),
/// every shard replays its own WAL independently, and all acknowledged
/// writes survive.
#[test]
fn sharded_wire_shutdown_then_restart_recovers_every_shard() {
    let bounds = vec![bytes::Bytes::from_static(b"m")];
    let config = small_config();
    let (server, manifest, devs) = start_sharded_server(config.clone(), bounds.clone());
    let addr = server.local_addr().to_string();
    {
        let mut c = Client::connect(addr).unwrap();
        for i in 0..300u32 {
            c.put(format!("a{i:05}").as_bytes(), b"low").unwrap();
            c.put(format!("z{i:05}").as_bytes(), b"high").unwrap();
        }
        c.shutdown_server().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !server.shutdown_requested() {
        assert!(Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    let trees = server.shutdown().unwrap();
    assert_eq!(trees.len(), 2);
    for tree in &trees {
        assert_eq!(tree.c0_bytes(), 0, "shutdown must checkpoint each shard");
    }
    drop(trees);

    // Restart on the same devices, requesting *different* bounds: the
    // persisted manifest wins and every row is found again.
    let sharded_config = ShardedConfig {
        tree: config,
        pool_pages: 2048,
        quantum: 256 << 10,
    };
    let store = ShardedBLsm::open_with_devices(
        manifest,
        vec![bytes::Bytes::from_static(b"zzz")],
        move |i| Ok(devs[i].clone()),
        &sharded_config,
        &(Arc::new(AppendOperator) as Arc<dyn blsm::MergeOperator>),
    )
    .unwrap();
    assert_eq!(store.bounds(), &bounds[..]);
    assert!(store.degraded_shards().is_empty());
    let server = Server::start_sharded(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr().to_string()).unwrap();
    assert_eq!(c.get(b"a00000").unwrap().unwrap(), b"low");
    assert_eq!(c.get(b"z00299").unwrap().unwrap(), b"high");
    assert_eq!(c.scan(b"", None, 10_000).unwrap().len(), 600);
    server.shutdown().unwrap();
}
