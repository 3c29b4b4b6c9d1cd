//! Failover drill harness: the replication analogue of `crash_points`.
//!
//! Where `crash_points` sweeps the device-operation index at which a
//! simulated crash lands, this harness sweeps the *write index* at
//! which a network partition lands, and the [`NetFaultMode`] a flaky
//! link degrades with. Every swept state must satisfy the same four
//! invariants (DESIGN.md §17):
//!
//! 1. **No acked write lost** — a write acknowledged to the client is
//!    readable on the post-failover leader, with the exact value.
//! 2. **No torn or future reads** — a follower serves either nothing or
//!    the exact written value for any key, never torn or foreign bytes.
//!    Note the asymmetry: a gate-*refused* write is not rolled back, so
//!    in general it may still replicate and become visible (standard
//!    quorum-system semantics — the guarantee is one-way). The drills
//!    only assert invisibility where the fault guarantees the record
//!    never reached a follower at all (the one-way partition below).
//! 3. **Deterministic convergence** — `elect_and_promote` picks the
//!    highest `(applied_seqno, node_id)` node from every swept state,
//!    and after the partition heals exactly one node is leader; the
//!    deposed leader is fenced down to a follower.
//! 4. **No corruption** — scrub is clean on the new leader after every
//!    drill, whatever the flaky link did to the byte stream.
//!
//! Topology per drill: one leader and two followers in-process on
//! ephemeral ports, with the leader→follower hops routed through
//! [`FlakyProxy`] so faults and partitions hit real sockets. The
//! followers talk to each other directly (the post-promotion quorum
//! path must work while the old leader is still dark).
//!
//! The default sweep is bounded so PR CI stays fast; set
//! `REPL_DRILL_EXHAUSTIVE=1` (the nightly job does) to sweep every
//! partition point and a denser fault-budget grid.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blsm::{AppendOperator, BLsmConfig, BLsmTree, ThreadedBLsm};
use blsm_server::protocol::ReplRole;
use blsm_server::{
    elect_and_promote, Client, ClientConfig, FlakyProxy, NetFaultMode, ReplicationConfig, Server,
    ServerConfig,
};
use blsm_storage::{MemDevice, SharedDevice};

fn exhaustive() -> bool {
    std::env::var("REPL_DRILL_EXHAUSTIVE").is_ok_and(|v| v == "1")
}

fn tree_config() -> BLsmConfig {
    BLsmConfig {
        mem_budget: 256 << 10,
        wal_capacity: 8 << 20, // never wraps during a drill
        ..Default::default()
    }
}

fn open_db() -> ThreadedBLsm {
    let data: SharedDevice = Arc::new(MemDevice::new());
    let wal: SharedDevice = Arc::new(MemDevice::new());
    let tree = BLsmTree::open(data, wal, 1024, tree_config(), Arc::new(AppendOperator)).unwrap();
    ThreadedBLsm::start(tree, 256 << 10).unwrap()
}

/// Reserves an ephemeral port by bind-and-release, so two nodes can
/// name each other in their static peer lists before either is up.
/// (The tiny reuse race is acceptable in a test container.)
fn reserve_port() -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().port()
}

fn drill_client(addr: &str) -> Client {
    Client::with_config(
        addr,
        ClientConfig {
            max_attempts: 2,
            read_timeout: Duration::from_secs(10),
        },
    )
    .unwrap()
}

/// One leader (node 1) + two followers (nodes 2, 3); leader ships
/// through one [`FlakyProxy`] per follower.
struct Cluster {
    leader: Server,
    /// Held for their lifetime: dropping a follower kills the cluster.
    _followers: Vec<Server>,
    /// Real (un-proxied) follower addresses, in node order.
    follower_addrs: Vec<String>,
    proxies: Vec<FlakyProxy>,
}

impl Cluster {
    fn start(mode: NetFaultMode, budget: u64, quorum_timeout: Duration) -> Cluster {
        // Follower B's port is reserved up front so follower A can list
        // it as a peer; everything else binds ephemerally.
        let b_port = reserve_port();
        let b_addr = format!("127.0.0.1:{b_port}");

        let follower_a = Server::start_replicated(
            open_db(),
            "127.0.0.1:0",
            ServerConfig::default(),
            ReplicationConfig {
                node_id: 2,
                peers: vec![b_addr.clone()],
                start_as_leader: false,
                quorum_timeout,
                ship_interval: Duration::from_millis(5),
                ship_read_timeout: Duration::from_millis(250),
            },
        )
        .unwrap();
        let a_addr = follower_a.local_addr().to_string();

        let follower_b = Server::start_replicated(
            open_db(),
            b_addr.as_str(),
            ServerConfig::default(),
            ReplicationConfig {
                node_id: 3,
                peers: vec![a_addr.clone()],
                start_as_leader: false,
                quorum_timeout,
                ship_interval: Duration::from_millis(5),
                ship_read_timeout: Duration::from_millis(250),
            },
        )
        .unwrap();

        let proxy_a = FlakyProxy::start(a_addr.clone(), mode, budget).unwrap();
        let proxy_b = FlakyProxy::start(b_addr.clone(), mode, budget).unwrap();

        let leader = Server::start_replicated(
            open_db(),
            "127.0.0.1:0",
            ServerConfig::default(),
            ReplicationConfig {
                node_id: 1,
                peers: vec![proxy_a.addr().to_string(), proxy_b.addr().to_string()],
                start_as_leader: true,
                quorum_timeout,
                ship_interval: Duration::from_millis(5),
                ship_read_timeout: Duration::from_millis(250),
            },
        )
        .unwrap();

        let cluster = Cluster {
            leader,
            _followers: vec![follower_a, follower_b],
            follower_addrs: vec![a_addr, b_addr],
            proxies: vec![proxy_a, proxy_b],
        };
        // Wait for formation: both followers must have adopted epoch 1
        // from the leader's subscribe before a drill starts, so every
        // sweep (including cut_at = 0) begins from the same state.
        assert!(
            poll_until(Duration::from_secs(10), || {
                cluster.follower_addrs.iter().all(|addr| {
                    drill_client(addr)
                        .stats()
                        .ok()
                        .and_then(|s| s.repl)
                        .is_some_and(|r| r.epoch >= 1)
                })
            }),
            "cluster never formed: followers did not adopt epoch 1"
        );
        cluster
    }

    fn leader_addr(&self) -> String {
        self.leader.local_addr().to_string()
    }

    /// Severs both leader→follower hops (a full partition of the
    /// leader); `heal` reopens them for new connections.
    fn partition_leader(&self) {
        for p in &self.proxies {
            p.control().cut.store(true, Ordering::Release);
        }
    }

    fn heal(&self) {
        for p in &self.proxies {
            p.control().cut.store(false, Ordering::Release);
        }
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("drill-{i:05}").into_bytes()
}

fn value(i: usize) -> Vec<u8> {
    format!("payload-{i}-{}", "x".repeat(64)).into_bytes()
}

/// Writes `key(i)` with a bounded retry loop; returns true iff the
/// write was *acknowledged*. A put is idempotent by value, so retrying
/// a gate-timeout failure is safe: the invariant under test only covers
/// writes that eventually acked.
fn put_retrying(client: &mut Client, i: usize, attempts: u32) -> bool {
    for _ in 0..attempts {
        if client.put(&key(i), &value(i)).is_ok() {
            return true;
        }
    }
    false
}

/// Asserts invariant 2 on one node: `key(i)` is either invisible or
/// carries the exact written value — never a torn or foreign byte
/// string.
fn assert_read_integrity(client: &mut Client, i: usize) -> bool {
    match client.get(&key(i)).unwrap() {
        None => false,
        Some(v) => {
            assert_eq!(
                v,
                value(i),
                "torn read: key {i} returned a value that was never written"
            );
            true
        }
    }
}

fn poll_until<F: FnMut() -> bool>(deadline: Duration, mut f: F) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    false
}

/// Runs one full drill at a given partition point: write `cut_at` acked
/// writes, partition, fail over, verify all four invariants.
fn drill_at_partition_point(cut_at: usize) {
    let cluster = Cluster::start(
        NetFaultMode::Drop,
        u64::MAX, // the link itself is healthy; only the partition hits
        Duration::from_millis(400),
    );
    let mut client = drill_client(&cluster.leader_addr());

    let mut acked: Vec<usize> = Vec::new();
    for i in 0..cut_at {
        assert!(
            put_retrying(&mut client, i, 5),
            "cut_at={cut_at}: write {i} never acked on a healthy cluster"
        );
        acked.push(i);
    }

    cluster.partition_leader();

    // Post-partition writes must fail the quorum gate — but record
    // honestly: any ack, however surprising, joins the durability set.
    let mut unacked: Vec<usize> = Vec::new();
    for i in cut_at..cut_at + 2 {
        if put_retrying(&mut client, i, 1) {
            acked.push(i);
        } else {
            unacked.push(i);
        }
    }

    // Deterministic failover among the reachable nodes. The dead
    // leader is omitted from the poll but still counted in the group:
    // the two followers are a majority of 3, so the election quorum
    // holds.
    let (winner, epoch) = elect_and_promote(&cluster.follower_addrs, 3).unwrap();
    assert_eq!(epoch, 2, "cut_at={cut_at}: first failover must be epoch 2");

    // Invariant 1: every acked write is on the winner, byte-exact.
    let mut on_winner = drill_client(&winner);
    for &i in &acked {
        assert!(
            assert_read_integrity(&mut on_winner, i),
            "cut_at={cut_at}: acked write {i} lost across failover"
        );
    }

    // Invariant 2: the partition severed both hops before these writes,
    // so their records provably never reached a follower — the one case
    // where a gate-refused write is guaranteed invisible there.
    for f in &cluster.follower_addrs {
        let mut c = drill_client(f);
        for &i in &unacked {
            assert_read_integrity(&mut c, i);
        }
    }

    // The new leader accepts writes (its quorum peer is the other
    // follower, reachable directly).
    for i in 100..103 {
        assert!(
            put_retrying(&mut on_winner, i, 5),
            "cut_at={cut_at}: new leader at {winner} refuses writes after promotion"
        );
    }

    // Invariant 3: heal the partition; the deposed leader must fence
    // itself down, leaving exactly one leader in the group.
    cluster.heal();
    let leader_addr = cluster.leader_addr();
    assert!(
        poll_until(Duration::from_secs(10), || {
            let mut c = drill_client(&leader_addr);
            let Ok(stats) = c.stats() else { return false };
            let repl = stats.repl.expect("leader node reports repl stats");
            repl.role == ReplRole::Follower && repl.epoch >= 2
        }),
        "cut_at={cut_at}: deposed leader never fenced itself after the heal"
    );
    let mut roles = Vec::new();
    for addr in std::iter::once(&leader_addr).chain(&cluster.follower_addrs) {
        let repl = drill_client(addr).stats().unwrap().repl.unwrap();
        roles.push(repl.role);
    }
    assert_eq!(
        roles.iter().filter(|r| **r == ReplRole::Leader).count(),
        1,
        "cut_at={cut_at}: exactly one leader expected after convergence, got {roles:?}"
    );
    // A fenced ex-leader refuses client writes instead of silently
    // diverging.
    assert!(
        drill_client(&leader_addr).put(b"stale", b"w").is_err(),
        "cut_at={cut_at}: fenced ex-leader still accepts writes"
    );

    // Invariant 4: whatever the drill did to the wire, the winner's
    // store is intact.
    let report = on_winner.scrub().unwrap();
    assert!(
        report.errors.is_empty(),
        "cut_at={cut_at}: scrub found damage after drill: {:?}",
        report.errors
    );
}

#[test]
fn failover_drill_sweeps_partition_points() {
    let points: Vec<usize> = if exhaustive() {
        (0..=16).collect()
    } else {
        vec![0, 3, 7, 12, 16]
    };
    for cut_at in points {
        drill_at_partition_point(cut_at);
    }
}

/// Runs a drill with a degraded (not severed) leader→follower link:
/// each proxied connection passes `budget` writes, then `mode` engages.
/// Shippers must keep making progress through reconnects (every
/// reconnection gets a fresh budget), so all writes eventually ack.
fn drill_under_fault_mode(mode: NetFaultMode, budget: u64, writes: usize) {
    // Generous quorum timeout: progress, not latency, is under test.
    let cluster = Cluster::start(mode, budget, Duration::from_secs(5));
    let mut client = drill_client(&cluster.leader_addr());

    for i in 0..writes {
        assert!(
            put_retrying(&mut client, i, 10),
            "{mode:?}/budget={budget}: write {i} never acked through the flaky link"
        );
        // Invariant 2, continuously: a follower mid-fault serves
        // nothing or the exact value — never torn bytes.
        if i % 5 == 0 {
            for f in &cluster.follower_addrs {
                assert_read_integrity(&mut drill_client(f), i / 2);
            }
        }
    }

    // Fail over while the link is still flaky.
    cluster.partition_leader();
    let (winner, _) = elect_and_promote(&cluster.follower_addrs, 3).unwrap();
    let mut on_winner = drill_client(&winner);
    for i in 0..writes {
        assert!(
            assert_read_integrity(&mut on_winner, i),
            "{mode:?}/budget={budget}: acked write {i} lost across failover"
        );
    }
    let report = on_winner.scrub().unwrap();
    assert!(
        report.errors.is_empty(),
        "{mode:?}/budget={budget}: scrub found damage: {:?}",
        report.errors
    );
}

#[test]
fn failover_drill_survives_every_fault_mode() {
    let modes = [
        NetFaultMode::TornWrite { keep: 9 },
        NetFaultMode::Stall { ms: 120 },
        NetFaultMode::Drop,
        NetFaultMode::Blackhole,
        NetFaultMode::Duplicate,
    ];
    // A budget below 2 never delivers a REPLICATE frame (the SUBSCRIBE
    // burns the first write), making the link a permanent partition —
    // that regime is `failover_drill_sweeps_partition_points`' job.
    let budgets: Vec<u64> = if exhaustive() {
        vec![2, 4, 8, 16, 32]
    } else {
        vec![4, 16]
    };
    for mode in modes {
        for &budget in &budgets {
            drill_under_fault_mode(mode, budget, 20);
        }
    }
}

/// One-way partition: follower acks are delivered but leader traffic is
/// silently discarded. The gate must refuse new writes (no false acks),
/// and the discarded records must stay invisible on followers — this is
/// the one fault shape where refused-write invisibility *is* guaranteed,
/// because the record's bytes provably never arrived (in general a
/// gate-refused write is not rolled back and may become visible; see
/// the module doc).
#[test]
fn one_way_partition_refuses_writes_and_leaks_nothing() {
    let cluster = Cluster::start(NetFaultMode::Drop, u64::MAX, Duration::from_millis(400));
    let mut client = drill_client(&cluster.leader_addr());

    for i in 0..4 {
        assert!(put_retrying(&mut client, i, 5));
    }

    // Flip to a one-way partition on both hops: bytes toward the
    // followers vanish, the return path stays up.
    for p in &cluster.proxies {
        p.control().drop_to_upstream.store(true, Ordering::Release);
    }

    // New writes cannot form a quorum — the blackholed records never
    // arrive, so no follower can ack past them.
    assert!(
        !put_retrying(&mut client, 50, 1),
        "write acked through a one-way partition"
    );

    // The refused write is invisible on every follower, and the acked
    // prefix is intact (None-or-exact on each).
    for f in &cluster.follower_addrs {
        let mut c = drill_client(f);
        assert_read_integrity(&mut c, 50);
        for i in 0..4 {
            assert_read_integrity(&mut c, i);
        }
    }

    // Failover must still converge from this state.
    cluster.partition_leader();
    let (winner, _) = elect_and_promote(&cluster.follower_addrs, 3).unwrap();
    let mut on_winner = drill_client(&winner);
    for i in 0..4 {
        assert!(
            assert_read_integrity(&mut on_winner, i),
            "acked write {i} lost after one-way-partition failover"
        );
    }
}
