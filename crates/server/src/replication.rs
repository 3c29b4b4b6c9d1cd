//! Replicated serving tier: WAL shipping, follower reads, deterministic
//! failover (DESIGN.md §17).
//!
//! One leader streams its already-durable logical WAL records to a
//! static set of follower servers over the existing length-prefixed
//! protocol ([`crate::protocol`]): `REPLICATE` carries batches of raw
//! WAL payloads bracketed by leader-WAL LSNs (an empty one at
//! `CURSOR_UNSET` opens, or re-opens, a shipping session), and every
//! reply is a `REPL_ACK` naming the follower's current epoch, its
//! applied seqno, and the LSN it wants next. Followers apply records
//! through the engine's normal `&self` write path (keeping the
//! *leader's* seqnos via [`blsm::BLsmTree::apply_replicated`],
//! which skips duplicates), log them in their own WAL for independent
//! durability, and serve snapshot-consistent reads from the lock-free
//! read view — a follower never surfaces a seqno it has not fully
//! applied, because records land through the same atomic insert path
//! local writes use.
//!
//! **Fencing.** Every replication frame carries `(epoch, leader_id)`.
//! A receiver rejects epochs below its own with a typed
//! [`ErrKind::Fenced`] error; a deposed leader learns of its demotion
//! from the first such reply (or from any ack carrying a higher epoch)
//! and stops shipping immediately. Promotion is a deterministic
//! handshake — no election protocol: an external driver (the CLI, the
//! drill harness, an operator) reads every reachable peer's STATS,
//! picks the highest `(applied_seqno, node_id)`, and sends `PROMOTE`
//! with an epoch strictly above every epoch it saw. The driver refuses
//! to promote unless a **majority of the group** answered the poll —
//! acked writes live on a majority, so only a majority poll is
//! guaranteed to intersect it and see a candidate holding every acked
//! write ([`elect_and_promote`]). The promote handler refuses stale
//! epochs, so two racing drivers converge on exactly one leader per
//! epoch.
//!
//! **Commit gate.** A leader acknowledges a client write only after a
//! majority of the group (itself included) holds the write: the write
//! handler samples the leader's flushed WAL LSN after the local apply
//! and spin-waits — atomics only, no locks — until enough followers
//! have acked at least that LSN, bounded by a timeout that surfaces as
//! a typed I/O error. The guarantee is **one-way**: acked ⇒ durable on
//! a majority (so a failover can never lose it). A write that *fails*
//! the gate is not rolled back — it is already in the leader's WAL and
//! `C0` and keeps shipping to followers, so it may still commit and
//! become visible to later reads (standard quorum-system semantics;
//! clients must treat a gate error as "outcome unknown", not "write
//! undone"). Only when the failed write's records provably never
//! reached a follower — e.g. a full partition from before the write —
//! does a post-failover group exclude it.
//!
//! **Concurrency invariant — one leaf lock.** Shared state is plain
//! atomics ([`ReplState`]), shipper threads hold only `Arc<ReplState>`
//! and a [`ReadView`] of the engine (never the server's `Inner`, so
//! graceful shutdown's sole-owner unwrap still holds), and the only
//! blocking is bounded sleeps, the engine's own log mutex inside the
//! view's shipping reads, and the `apply` mutex. That one serializes
//! follower applies (fence → cursor check → apply → cursor store) and
//! promotion against them, so a key's replicated versions reach `C0`
//! in the leader's order and no local write overtakes one in flight
//! (DESIGN.md §17.3). It is a leaf: nothing else is acquired while it
//! is held, so the lock-order lint's server hierarchy stays empty —
//! see `xtask/src/rules/lock_order.rs`.
//!
//! The second half of this module is the network fault harness:
//! [`FlakyStream`] mirrors `blsm_storage::FaultyDevice` at the socket
//! layer (torn frames, mid-frame stalls, connection drops, one-way
//! partitions, duplicated delivery, each on a deterministic operation
//! budget), and [`FlakyProxy`] interposes it on a real TCP hop so the
//! failover drill (`tests/replication_drill.rs`) can sweep partition
//! points the way `crash.rs` sweeps device-op indices.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blsm::{ReadView, ThreadedBLsm};
use blsm_storage::{Result, StorageError};
use parking_lot::Mutex;

use crate::client::{Client, ClientConfig};
use crate::protocol::{ErrKind, ReplRole, Response, WireReplStats};

/// A follower cursor meaning "no position yet — accept whatever the
/// leader sends next". Set at startup and on every epoch adoption
/// (a new leader's WAL is a new LSN space, so the old cursor is
/// meaningless). As a `REPLICATE` bracket it marks the session-opening
/// frame, which applies nothing and just learns the follower's cursor.
const CURSOR_UNSET: u64 = u64::MAX;

/// Soft cap on the record bytes packed into one REPLICATE frame (a
/// single larger record still ships, alone).
const BATCH_BYTES: usize = 256 << 10;

/// Replication tuning and topology.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// This node's id — unique within the group; also the tiebreak in
    /// the failover handshake.
    pub node_id: u64,
    /// Addresses of every *other* node in the group.
    pub peers: Vec<String>,
    /// Start as the epoch-1 leader (exactly one node per group should).
    pub start_as_leader: bool,
    /// How long a client write may wait for the replication quorum
    /// before failing with a typed I/O error.
    pub quorum_timeout: Duration,
    /// Idle poll/heartbeat interval of the shipper threads.
    pub ship_interval: Duration,
    /// Socket read timeout of shipping connections (bounds how long a
    /// mid-frame stall can hold a shipper).
    pub ship_read_timeout: Duration,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        ReplicationConfig {
            node_id: 0,
            peers: Vec::new(),
            start_as_leader: false,
            quorum_timeout: Duration::from_secs(5),
            ship_interval: Duration::from_millis(20),
            ship_read_timeout: Duration::from_secs(2),
        }
    }
}

/// Shared replication state — atomics only (see the module doc's
/// no-new-locks invariant).
#[derive(Debug)]
pub struct ReplState {
    node_id: u64,
    /// Current epoch; strictly monotonic on every node.
    // ordering: AcqRel CAS advances paired with Acquire loads — role
    // and leader_id stores happen-before the epoch publication.
    epoch: AtomicU64,
    /// [`ReplRole`] encoding (1 = leader, 2 = follower).
    // ordering: Release stores on role flips; Acquire loads so shipper
    // exit and write-path checks see the latest flip.
    role: AtomicU8,
    /// Last known leader's node id (self when leading).
    // ordering: Release stores / Acquire loads — an advisory routing
    // hint carried in errors; nothing else is published through it.
    leader_id: AtomicU64,
    /// Follower cursor: the leader-WAL LSN expected next
    /// (`CURSOR_UNSET` = accept anything).
    // ordering: Release stores / Acquire loads — the batch apply
    // happens-before the cursor advance, so an acked cursor implies
    // fully applied records.
    cursor: AtomicU64,
    /// Server shutdown flag; shippers poll it.
    // ordering: Release store on shutdown, Acquire polls.
    stop: AtomicBool,
    /// Leader side: per-peer highest acked leader-WAL LSN.
    // ordering: Release store after each ack, Acquire loads in the
    // commit gate — the follower's apply happens-before its ack.
    peer_acked: Vec<AtomicU64>,
}

impl ReplState {
    fn new(config: &ReplicationConfig) -> ReplState {
        let (epoch, role) = if config.start_as_leader {
            (1, ReplRole::Leader)
        } else {
            (0, ReplRole::Follower)
        };
        ReplState {
            node_id: config.node_id,
            epoch: AtomicU64::new(epoch),
            role: AtomicU8::new(role.to_u8()),
            leader_id: AtomicU64::new(if config.start_as_leader {
                config.node_id
            } else {
                u64::MAX
            }),
            cursor: AtomicU64::new(CURSOR_UNSET),
            stop: AtomicBool::new(false),
            peer_acked: (0..config.peers.len()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel epoch advances.
        self.epoch.load(Ordering::Acquire)
    }

    /// Current role.
    pub fn role(&self) -> ReplRole {
        // ordering: Acquire — pairs with the Release role flips.
        ReplRole::from_u8(self.role.load(Ordering::Acquire)).unwrap_or_default()
    }

    /// True while this node is the leader of exactly `epoch`.
    fn leading_at(&self, epoch: u64) -> bool {
        // ordering: Acquire (both) — see `epoch`/`role`.
        !self.stop.load(Ordering::Acquire)
            && self.role() == ReplRole::Leader
            && self.epoch() == epoch
    }

    /// Adopts `epoch` as a follower of `leader_id` if it is not below
    /// the current epoch. Returns false (and changes nothing) when the
    /// caller's epoch is stale — the caller answers `Fenced`.
    fn follow(&self, epoch: u64, leader_id: u64) -> bool {
        loop {
            let cur = self.epoch();
            if epoch < cur {
                return false;
            }
            if epoch == cur {
                // Same epoch: a leader never follows its own epoch's
                // traffic (two leaders per epoch cannot be minted, so
                // this is a deposed peer's echo — fence it).
                if self.role() == ReplRole::Leader {
                    return false;
                }
                // ordering: Release — advisory hint.
                self.leader_id.store(leader_id, Ordering::Release);
                return true;
            }
            // ordering: AcqRel on success — the cursor reset below and
            // the role flip are published together with the new epoch.
            if self
                .epoch
                .compare_exchange_weak(cur, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // New epoch ⇒ new leader ⇒ new LSN space: drop the old
                // cursor *before* any frame of the new epoch applies.
                // ordering: Release — paired with the cursor CAS loop.
                self.cursor.store(CURSOR_UNSET, Ordering::Release);
                // ordering: Release — demotion visible to shippers.
                self.role
                    .store(ReplRole::Follower.to_u8(), Ordering::Release);
                // ordering: Release — advisory hint.
                self.leader_id.store(leader_id, Ordering::Release);
                return true;
            }
        }
    }

    /// Takes leadership of `epoch` if it is strictly above the current
    /// epoch (the promote fence).
    fn lead(&self, epoch: u64) -> bool {
        loop {
            let cur = self.epoch();
            if epoch <= cur {
                return false;
            }
            // ordering: AcqRel on success — the role flip below is
            // published together with the new epoch.
            if self
                .epoch
                .compare_exchange_weak(cur, epoch, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                for acked in &self.peer_acked {
                    // ordering: Release — fresh term bookkeeping.
                    acked.store(0, Ordering::Release);
                }
                // ordering: Release — promotion visible to the write
                // path's follower check before any gate runs.
                self.role.store(ReplRole::Leader.to_u8(), Ordering::Release);
                // ordering: Release — advisory hint.
                self.leader_id.store(self.node_id, Ordering::Release);
                return true;
            }
        }
    }
}

/// The server's replication half: state, the engine's read view, and
/// the request handlers `serve_replication` dispatches to.
pub struct Replication {
    state: Arc<ReplState>,
    source: ReadView,
    config: ReplicationConfig,
    /// Held across a whole `REPLICATE` batch and across promotion (see
    /// the module doc).
    apply: Mutex<()>,
}

/// One open commit gate: the quorum a leader write's acknowledgement is
/// waiting on. Produced by [`Replication::gate_open`], polled with
/// [`Replication::gate_poll`] — pure data, so a reactor can park
/// thousands of these without holding a thread each.
#[derive(Debug, Clone, Copy)]
pub struct GateTicket {
    /// Peers must ack at least this LSN.
    target: u64,
    /// How many peer acks constitute a majority (leader included).
    needed: usize,
    /// Give up and report a quorum timeout past this instant.
    deadline: Instant,
}

impl std::fmt::Debug for Replication {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replication")
            .field("node_id", &self.config.node_id)
            .field("epoch", &self.state.epoch())
            .field("role", &self.state.role())
            .finish_non_exhaustive()
    }
}

impl Replication {
    /// Builds the replication half over a single-shard store and, when
    /// configured as the initial leader, starts shipping.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if the store is
    /// sharded (replication ships one WAL; a sharded store would need
    /// one stream per shard — future work, DESIGN.md §17) or runs
    /// without a WAL (nothing to ship).
    pub fn new(db: &ThreadedBLsm, config: ReplicationConfig) -> Result<Replication> {
        let source = db.read_view();
        // Fail fast if there is no WAL to ship.
        source.wal_window().map_err(|_| {
            StorageError::InvalidFormat("replication requires a durable (WAL-backed) store".into())
        })?;
        let state = Arc::new(ReplState::new(&config));
        let repl = Replication {
            state,
            source,
            config,
            apply: Mutex::new(()),
        };
        if repl.config.start_as_leader {
            repl.spawn_shippers(1);
        }
        Ok(repl)
    }

    /// The shared state (drill harness inspects it).
    pub fn state(&self) -> &Arc<ReplState> {
        &self.state
    }

    /// Signals every shipper thread to exit (server shutdown). Shippers
    /// hold no reference to the server, so shutdown does not join them;
    /// they notice within one ship interval.
    pub fn stop(&self) {
        // ordering: Release — pairs with the shippers' Acquire polls.
        self.state.stop.store(true, Ordering::Release);
    }

    /// True when client writes must be refused with `NotLeader`.
    pub fn refuses_writes(&self) -> bool {
        self.state.role() != ReplRole::Leader
    }

    /// The `NotLeader` error clients get on a follower, naming the
    /// leader when known.
    pub fn not_leader_response(&self) -> Response {
        // ordering: Acquire — advisory hint.
        let leader = self.state.leader_id.load(Ordering::Acquire);
        Response::Err {
            kind: ErrKind::NotLeader,
            message: if leader == u64::MAX {
                "not the leader (no leader known yet)".into()
            } else {
                format!("not the leader; leader is node {leader}")
            },
        }
    }

    /// Opens a non-blocking commit gate for one acknowledged write.
    ///
    /// Returns `None` when there is nothing to wait for (no peers →
    /// trivially a majority of one). Otherwise the ticket's target LSN
    /// is the larger of `local_target` (the write's group-commit target
    /// from the nowait API; 0 under `Durability::Buffered`) and the WAL
    /// flushed horizon sampled now — whichever covers the write — and
    /// the caller polls [`Replication::gate_poll`] until it yields.
    ///
    /// The reactor front end uses this pair so a 5-second quorum wait
    /// parks one *response*, never one reactor thread. It is opened
    /// *after* the local apply succeeded, so the target covers the write
    /// being acknowledged; both halves only read atomics, so the gate
    /// cannot participate in any lock cycle.
    ///
    /// A gate failure (timeout or demotion mid-wait) does **not**
    /// unapply the write: it stays in this node's WAL and `C0` and may
    /// still replicate and become visible. The error means "not
    /// promised", never "undone" — see the module doc.
    pub fn gate_open(&self, local_target: u64) -> Option<GateTicket> {
        let needed = quorum_peers(self.config.peers.len());
        if needed == 0 {
            return None;
        }
        // A wal_window error degrades to gating on the write's own
        // target; a zero target with no window means the write predates
        // the sample and the flushed horizon already covers it, so the
        // max() with 0 is still correct.
        let flushed = self.source.wal_window().map_or(0, |(_, f)| f);
        Some(GateTicket {
            target: flushed.max(local_target),
            needed,
            deadline: Instant::now() + self.config.quorum_timeout,
        })
    }

    /// Polls an open gate: `None` means keep waiting; `Some(resp)` is
    /// the final verdict (`Ok`, `Fenced`, or a quorum-timeout `Io`).
    pub fn gate_poll(&self, ticket: &GateTicket) -> Option<Response> {
        let acked = self
            .state
            .peer_acked
            .iter()
            // ordering: Acquire — pairs with the Release ack stores.
            .filter(|a| a.load(Ordering::Acquire) >= ticket.target)
            .count();
        if acked >= ticket.needed {
            return Some(Response::Ok);
        }
        // `stop` counts as demotion: a server shutting down must not
        // keep a response parked out the full quorum timeout.
        // ordering: Acquire — pairs with the Release store in `stop`.
        if self.state.role() != ReplRole::Leader || self.state.stop.load(Ordering::Acquire) {
            // Fenced mid-write: the write stays in this node's WAL
            // and C0 and may still commit via the new leader, but
            // this node cannot promise that (see the module doc on
            // commit-gate semantics).
            return Some(Response::Err {
                kind: ErrKind::Fenced {
                    epoch: self.state.epoch(),
                    // ordering: Acquire — advisory hint.
                    leader_id: self.state.leader_id.load(Ordering::Acquire),
                },
                message: format!(
                    "demoted while awaiting quorum (epoch {})",
                    self.state.epoch()
                ),
            });
        }
        if Instant::now() >= ticket.deadline {
            return Some(Response::Err {
                kind: ErrKind::Io,
                message: format!(
                    "replication quorum timeout: {acked}/{} peers acked lsn {}",
                    ticket.needed, ticket.target
                ),
            });
        }
        None
    }

    /// Handles one `REPLICATE` batch: fence, check LSN continuity,
    /// apply through the normal write path, advance the cursor — all
    /// under the `apply` mutex, so two deliveries of one batch (two
    /// reactors after a reconnect) apply it once, in order. The
    /// session-opening frame (`from_lsn` = `CURSOR_UNSET`) stops right
    /// after the fence and answers with the follower's cursor.
    pub fn handle_replicate(
        &self,
        db: &ThreadedBLsm,
        leader_id: u64,
        epoch: u64,
        from_lsn: u64,
        next_lsn: u64,
        records: &[Vec<u8>],
    ) -> Response {
        let _apply = self.apply.lock();
        if !self.state.follow(epoch, leader_id) {
            return fenced(&self.state);
        }
        // ordering: Acquire — pairs with the Release cursor stores.
        let expected = self.state.cursor.load(Ordering::Acquire);
        if from_lsn == CURSOR_UNSET || (expected != CURSOR_UNSET && from_lsn != expected) {
            // A session opening, or a dropped, duplicated, or reordered
            // batch: apply nothing and repeat the cursor so the leader
            // (re)starts from it. Applying a mismatched batch would be
            // safe record-wise (seqnos dedupe) but would let a gap in
            // the stream go unnoticed.
            return self.repl_ack();
        }
        // Group commit across the batch: every record appends without
        // syncing, then ONE commit_group fsyncs the whole batch — the
        // follower pays one disk sync per REPLICATE frame instead of one
        // per record. Heartbeats (empty or all-duplicate batches, where
        // every nowait apply returns no durability target) skip the sync
        // entirely, so an idle group does not fsync every ship interval.
        let mut needs_sync = false;
        for payload in records {
            match db.apply_replicated_nowait(payload) {
                Ok(applied) => {
                    if matches!(applied, Some((_, target)) if target > 0) {
                        needs_sync = true;
                    }
                }
                Err(e) => {
                    // Partial batch: the cursor stays put, the leader
                    // resends, and the seqno check skips what did apply.
                    return Response::Err {
                        kind: ErrKind::classify(&e),
                        message: format!("replicated apply failed: {e}"),
                    };
                }
            }
        }
        if needs_sync {
            if let Err(e) = db.commit_group() {
                // Batch applied but not durable: keep the cursor so the
                // leader resends; the seqno dedupe absorbs the replay.
                return Response::Err {
                    kind: ErrKind::classify(&e),
                    message: format!("replicated commit failed: {e}"),
                };
            }
        }
        // ordering: Release — everything above is visible before any
        // reader of the advanced cursor (the ack we are about to send
        // promises these records are applied and durable).
        self.state.cursor.store(next_lsn, Ordering::Release);
        self.repl_ack()
    }

    /// Handles `PROMOTE`: fence stale epochs, take leadership, start
    /// shipping to every peer. Leadership is taken under the `apply`
    /// mutex: a batch in flight finishes first, so no local write takes
    /// a seqno above its records and reaches `C0` before them.
    pub fn handle_promote(&self, epoch: u64) -> Response {
        let led = {
            let _apply = self.apply.lock();
            self.state.lead(epoch)
        };
        if !led {
            return fenced(&self.state);
        }
        self.spawn_shippers(epoch);
        self.repl_ack()
    }

    /// The standard ack: current epoch, applied horizon, wanted LSN.
    /// The horizon is the *applied* floor (advanced only after a
    /// record's WAL-append + insert completed), never the reservation
    /// counter — an ack must not overstate what this node holds.
    fn repl_ack(&self) -> Response {
        Response::ReplAck {
            epoch: self.state.epoch(),
            applied_seqno: self.source.applied_seqno(),
            // ordering: Acquire — pairs with the Release cursor stores.
            next_lsn: self.state.cursor.load(Ordering::Acquire),
        }
    }

    /// Replication block for STATS.
    pub fn wire_stats(&self) -> WireReplStats {
        let role = self.state.role();
        let (acked_lsn, lag_bytes) = match role {
            ReplRole::Leader => {
                let min_acked = self
                    .state
                    .peer_acked
                    .iter()
                    // ordering: Acquire — pairs with the Release ack stores.
                    .map(|a| a.load(Ordering::Acquire))
                    .min()
                    .unwrap_or(0);
                let flushed = self.source.wal_window().map_or(min_acked, |(_, f)| f);
                (min_acked, flushed.saturating_sub(min_acked))
            }
            _ => {
                // ordering: Acquire — pairs with the Release cursor stores.
                let cursor = self.state.cursor.load(Ordering::Acquire);
                (if cursor == CURSOR_UNSET { 0 } else { cursor }, 0)
            }
        };
        WireReplStats {
            node_id: self.config.node_id,
            role,
            epoch: self.state.epoch(),
            applied_seqno: self.source.applied_seqno(),
            acked_lsn,
            lag_bytes,
        }
    }

    /// Starts one shipper thread per peer for leadership term `epoch`.
    /// Threads are detached by design: they hold only `Arc<ReplState>`
    /// and a [`ReadView`] (never the server), and exit on their own as
    /// soon as the epoch moves, the role flips, or `stop` is set.
    fn spawn_shippers(&self, epoch: u64) {
        for (idx, peer) in self.config.peers.iter().enumerate() {
            let state = self.state.clone();
            let source = self.source.clone();
            let config = self.config.clone();
            let peer = peer.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("blsm-ship-{idx}"))
                .spawn(move || shipper_loop(&state, &source, &config, idx, &peer, epoch));
            if spawned.is_err() {
                eprintln!("blsm-server: failed to spawn shipper thread {idx}");
            }
        }
    }
}

/// A one-attempt connection: replication traffic owns its retry policy
/// and inspects raw (fencing) responses itself.
fn single_shot(addr: &str, read_timeout: Duration) -> Result<Client> {
    let config = ClientConfig {
        max_attempts: 1,
        read_timeout,
    };
    Client::with_config(addr, config)
}

/// Peers (excluding the leader) that must ack before a write commits:
/// majority of `peers + 1` total nodes, minus the leader's own vote.
fn quorum_peers(peers: usize) -> usize {
    // Majority of `peers + 1` is `(peers + 1) / 2 + 1`; dropping the
    // leader's own vote leaves `ceil(peers / 2)`.
    peers.div_ceil(2)
}

/// A fencing reply carrying the receiver's *actual* epoch and leader
/// hint as structured fields — the deposed sender adopts these instead
/// of fabricating an epoch locally.
fn fenced(state: &ReplState) -> Response {
    let epoch = state.epoch();
    // ordering: Acquire — advisory hint.
    let leader_id = state.leader_id.load(Ordering::Acquire);
    Response::Err {
        kind: ErrKind::Fenced { epoch, leader_id },
        message: format!("fenced: receiver is at epoch {epoch}"),
    }
}

/// One leadership term's shipping loop toward one peer: connect, open
/// the session, send one bounded batch from the WAL per iteration,
/// track acks, and exit the moment this node stops being the leader of
/// `epoch`.
fn shipper_loop(
    state: &Arc<ReplState>,
    source: &ReadView,
    config: &ReplicationConfig,
    peer_idx: usize,
    peer: &str,
    epoch: u64,
) {
    let mut reconnect = Duration::from_millis(10);
    'session: while state.leading_at(epoch) {
        let Ok(mut client) = single_shot(peer, config.ship_read_timeout) else {
            std::thread::sleep(reconnect);
            reconnect = (reconnect * 2).min(Duration::from_millis(500));
            continue 'session;
        };
        reconnect = Duration::from_millis(10);
        // The session's first frame is the empty opening `REPLICATE` at
        // `CURSOR_UNSET`; the follower answers with its cursor.
        let mut cursor = CURSOR_UNSET;
        while state.leading_at(epoch) {
            // WAL gone (server shutting down): nothing to ship.
            let Ok((head, horizon)) = source.wal_window() else {
                return;
            };
            if cursor < head {
                // The ring truncated past this peer's catch-up point:
                // the records it lacks are gone, so log shipping alone
                // cannot repair it (it needs a full state copy).
                eprintln!(
                    "blsm-server: peer {peer} needs a snapshot \
                     (wants lsn {cursor}, wal head is {head})"
                );
                std::thread::sleep(config.ship_interval.max(Duration::from_millis(50)));
                continue;
            }
            let (records, next) = if cursor >= horizon {
                // Nothing new (or the opening): heartbeat. Keeps the
                // epoch fence fresh and the peer's ack (hence the commit
                // gate) current.
                if cursor != CURSOR_UNSET {
                    std::thread::sleep(config.ship_interval);
                }
                (Vec::new(), cursor)
            } else {
                match source.wal_records_from(cursor, BATCH_BYTES) {
                    Ok(out) => out,
                    Err(StorageError::SnapshotNeeded { .. }) => continue,
                    Err(_) => {
                        std::thread::sleep(config.ship_interval);
                        continue;
                    }
                }
            };
            let payloads = records.into_iter().map(|r| r.payload).collect();
            match client.replicate(state.node_id, epoch, cursor, next, payloads) {
                Ok(resp) => match ack_cursor(state, source, epoch, &resp) {
                    AckOutcome::Resume(lsn) => {
                        // ordering: Release — the peer's applied state
                        // happens-before the gate reads this.
                        state.peer_acked[peer_idx].store(lsn, Ordering::Release);
                        // A peer that rewound (or refused a gap) names
                        // the LSN the next batch starts from.
                        cursor = lsn;
                    }
                    AckOutcome::Fenced => return,
                    AckOutcome::Broken => continue 'session,
                },
                Err(_) => continue 'session,
            }
        }
    }
}

enum AckOutcome {
    /// Stream (or restart) from this leader-WAL LSN.
    Resume(u64),
    /// The peer is at a higher epoch: this term is over.
    Fenced,
    /// Unusable reply; reconnect and reopen the session.
    Broken,
}

/// Digests a peer's reply into the shipper's next move, demoting this
/// node the moment any reply reveals a higher epoch.
fn ack_cursor(
    state: &Arc<ReplState>,
    source: &ReadView,
    epoch: u64,
    resp: &Response,
) -> AckOutcome {
    match resp {
        Response::ReplAck {
            epoch: peer_epoch,
            next_lsn,
            ..
        } => {
            if *peer_epoch > epoch {
                state.follow(*peer_epoch, u64::MAX);
                return AckOutcome::Fenced;
            }
            let lsn = *next_lsn;
            match source.wal_window() {
                Ok((head, flushed)) => {
                    if lsn == CURSOR_UNSET || lsn > flushed {
                        // Fresh follower (or one from another leader's
                        // LSN space): restart from our head. Records it
                        // already holds dedupe by seqno.
                        AckOutcome::Resume(head)
                    } else {
                        AckOutcome::Resume(lsn)
                    }
                }
                Err(_) => AckOutcome::Broken,
            }
        }
        Response::Err {
            kind:
                ErrKind::Fenced {
                    epoch: peer_epoch,
                    leader_id,
                },
            ..
        } => {
            // The peer told us our epoch is stale; adopt its *actual*
            // epoch (floored at a one-step demotion in case the reply
            // is somehow self-inconsistent) and keep its leader hint so
            // this node's NOT_LEADER replies redirect clients at the
            // real leader instead of "no leader known".
            state.follow((*peer_epoch).max(epoch + 1), *leader_id);
            AckOutcome::Fenced
        }
        _ => AckOutcome::Broken,
    }
}

/// Reads every reachable node's STATS, picks the winner by the
/// deterministic rule — highest `(applied_seqno, node_id)` — and sends
/// it `PROMOTE` with an epoch above every epoch observed. Returns the
/// winner's address and the new epoch.
///
/// `group_size` is the total number of nodes in the replication group
/// (`addrs` may be a subset — e.g. the confirmed-dead leader omitted).
/// Promotion requires STATS from a **majority** of the group: the
/// commit gate guarantees every acked write is on a majority, so only a
/// poll that covers a majority is guaranteed to intersect that set and
/// see a node holding every acked write. Run against a reachable
/// minority (say, the small side of a partition), the old rule would
/// crown a leader missing acked writes — with no reverse-sync on heal,
/// those writes would never be readable again.
///
/// Used by `blsm-cli promote-auto`, the drill harness, and the CI
/// smoke job; running it twice concurrently is safe because the promote
/// fence accepts only strictly increasing epochs.
///
/// # Errors
///
/// Fails if fewer than a majority of the group answered STATS, or the
/// winner refuses the promotion.
pub fn elect_and_promote(addrs: &[String], group_size: usize) -> Result<(String, u64)> {
    let mut best: Option<(u64, u64, String)> = None;
    let mut max_epoch = 0;
    let mut polled = 0usize;
    for addr in addrs {
        let Ok(mut client) = single_shot(addr, Duration::from_secs(2)) else {
            continue;
        };
        let Ok(stats) = client.stats() else { continue };
        let Some(repl) = stats.repl else { continue };
        polled += 1;
        max_epoch = max_epoch.max(repl.epoch);
        let key = (repl.applied_seqno, repl.node_id);
        if best.as_ref().is_none_or(|(s, n, _)| key > (*s, *n)) {
            best = Some((repl.applied_seqno, repl.node_id, addr.clone()));
        }
    }
    // The majority-intersection argument above only holds if the poll
    // actually covered a majority of the group.
    let majority = group_size.max(addrs.len()) / 2 + 1;
    if polled < majority {
        return Err(StorageError::Io(std::io::Error::other(format!(
            "election quorum not met: {polled}/{} nodes answered, need {majority} \
             (group of {group_size})",
            addrs.len(),
        ))));
    }
    let Some((_, _, winner)) = best else {
        return Err(StorageError::Io(std::io::Error::other(
            "no replication-enabled node reachable",
        )));
    };
    let epoch = max_epoch + 1;
    match single_shot(&winner, Duration::from_secs(5))?.promote(epoch)? {
        Response::ReplAck { .. } => Ok((winner, epoch)),
        Response::Err { kind, message } => Err(StorageError::InvalidFormat(format!(
            "promotion refused ({kind:?}): {message}"
        ))),
        other => Err(StorageError::InvalidFormat(format!(
            "unexpected promotion reply: {other:?}"
        ))),
    }
}

// ---------------------------------------------------------------------
// Network fault injection: FaultyDevice's socket-layer sibling.
// ---------------------------------------------------------------------

/// What a [`FlakyStream`] does once its operation budget is spent.
/// Mirrors [`blsm_storage::FaultMode`] shapes at the socket layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultMode {
    /// The triggering write delivers only its first `keep` bytes, then
    /// the stream is dead — a torn frame on the wire.
    TornWrite {
        /// Bytes of the triggering write that still get through.
        keep: usize,
    },
    /// The triggering operation (and all later ones) first stalls for
    /// the given duration — a mid-frame stall that exercises read
    /// timeouts rather than error paths.
    Stall {
        /// Stall length in milliseconds.
        ms: u64,
    },
    /// The triggering operation and everything after it fails with a
    /// connection-reset error — a dropped connection.
    Drop,
    /// Writes keep "succeeding" but deliver nothing — a one-way
    /// partition (the peer's traffic still arrives; ours vanishes).
    Blackhole,
    /// Every write after the trigger is delivered twice — duplicated
    /// delivery (retransmit bugs, misbehaving middleboxes).
    Duplicate,
}

/// A `Read + Write` wrapper that injects one network fault on a
/// deterministic schedule: the first `budget` write operations pass
/// through untouched, then [`NetFaultMode`] engages. The socket-layer
/// mirror of [`blsm_storage::FaultyDevice`].
#[derive(Debug)]
pub struct FlakyStream<S> {
    inner: S,
    mode: NetFaultMode,
    // ordering: AcqRel fetch_update decrements the budget; Acquire
    // loads pair with it (same discipline as FaultyDevice).
    remaining: AtomicU64,
    // ordering: Release store publishes the trip; Acquire loads pair.
    tripped: AtomicBool,
}

impl<S> FlakyStream<S> {
    /// Wraps `inner`; the first `budget` writes succeed, then `mode`
    /// engages.
    pub fn new(inner: S, mode: NetFaultMode, budget: u64) -> FlakyStream<S> {
        FlakyStream {
            inner,
            mode,
            remaining: AtomicU64::new(budget),
            tripped: AtomicBool::new(false),
        }
    }

    /// True once the fault has fired.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// Consumes one unit of budget; true when the fault engages (now or
    /// previously).
    fn spend(&self) -> bool {
        if self.tripped() {
            return true;
        }
        let spent = self
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| r.checked_sub(1))
            .is_err();
        if spent {
            self.tripped.store(true, Ordering::Release);
        }
        spent
    }
}

fn reset_err() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::ConnectionReset, "injected fault")
}

impl<S: Read> Read for FlakyStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        // Faults are modeled on the write side (the direction under
        // test); wrap the opposite endpoint — or the proxy's other
        // copy direction — to fault reads.
        if self.tripped() {
            match self.mode {
                NetFaultMode::TornWrite { .. } | NetFaultMode::Drop => return Err(reset_err()),
                NetFaultMode::Stall { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                NetFaultMode::Blackhole | NetFaultMode::Duplicate => {}
            }
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FlakyStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        // A torn/dropped connection stays dead: only the write that
        // exhausts the budget leaks its partial bytes.
        let already_dead = self.tripped();
        if !self.spend() {
            return self.inner.write(buf);
        }
        if already_dead
            && matches!(
                self.mode,
                NetFaultMode::TornWrite { .. } | NetFaultMode::Drop
            )
        {
            return Err(reset_err());
        }
        match self.mode {
            NetFaultMode::TornWrite { keep } => {
                let keep = keep.min(buf.len());
                if keep > 0 {
                    let _ = self.inner.write_all(&buf[..keep]);
                    let _ = self.inner.flush();
                }
                Err(reset_err())
            }
            NetFaultMode::Stall { ms } => {
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.write(buf)
            }
            NetFaultMode::Drop => Err(reset_err()),
            // Lie about delivery: the bytes vanish.
            NetFaultMode::Blackhole => Ok(buf.len()),
            NetFaultMode::Duplicate => {
                self.inner.write_all(buf)?;
                self.inner.write_all(buf)?;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.tripped()
            && matches!(
                self.mode,
                NetFaultMode::Drop | NetFaultMode::TornWrite { .. }
            )
        {
            return Err(reset_err());
        }
        self.inner.flush()
    }
}

/// Live switches on a running [`FlakyProxy`] — the drill harness flips
/// these at swept operation indices.
#[derive(Debug, Default)]
pub struct ProxyControl {
    /// Sever every current and future connection (a full partition of
    /// this hop).
    // ordering: Release on flip, Acquire polls in the copy loops.
    pub cut: AtomicBool,
    /// Silently discard client→upstream bytes while still delivering
    /// upstream→client (a one-way partition).
    // ordering: Release on flip, Acquire polls in the copy loops.
    pub drop_to_upstream: AtomicBool,
}

/// A TCP proxy that interposes [`FlakyStream`] on one network hop, so
/// fault injection works against real servers without touching their
/// code. Accepts any number of connections; each is bridged to
/// `upstream` with the configured fault on the client→upstream
/// direction.
#[derive(Debug)]
pub struct FlakyProxy {
    addr: SocketAddr,
    control: Arc<ProxyControl>,
    // ordering: Release on shutdown, Acquire polls in the accept loop.
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl FlakyProxy {
    /// Starts a proxy on an ephemeral local port toward `upstream`.
    /// `mode`/`budget` configure the per-connection fault (each new
    /// connection gets a fresh budget).
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Io`] if the port cannot be bound.
    pub fn start(upstream: String, mode: NetFaultMode, budget: u64) -> Result<FlakyProxy> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(StorageError::Io)?;
        listener.set_nonblocking(true).map_err(StorageError::Io)?;
        let addr = listener.local_addr().map_err(StorageError::Io)?;
        let control = Arc::new(ProxyControl::default());
        let stop = Arc::new(AtomicBool::new(false));
        let t_control = control.clone();
        let t_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name("flaky-proxy".into())
            .spawn(move || {
                proxy_accept_loop(&listener, &upstream, mode, budget, &t_control, &t_stop);
            })
            .map_err(StorageError::Io)?;
        Ok(FlakyProxy {
            addr,
            control,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The proxy's listening address (point clients/leaders here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live fault switches.
    pub fn control(&self) -> &Arc<ProxyControl> {
        &self.control
    }
}

impl Drop for FlakyProxy {
    fn drop(&mut self) {
        // ordering: Release — pairs with the accept loop's Acquire poll.
        self.stop.store(true, Ordering::Release);
        // ordering: Release — sever live connections so their copy
        // threads exit too.
        self.control.cut.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

fn proxy_accept_loop(
    listener: &TcpListener,
    upstream: &str,
    mode: NetFaultMode,
    budget: u64,
    control: &Arc<ProxyControl>,
    stop: &Arc<AtomicBool>,
) {
    let mut handles = Vec::new();
    // ordering: Acquire — pairs with the Release stop store.
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                let Ok(server) = TcpStream::connect(upstream) else {
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                // client → upstream carries the injected fault.
                let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                let faulted = FlakyStream::new(server, mode, budget);
                let ctl_up = control.clone();
                let ctl_down = control.clone();
                handles.push(std::thread::spawn(move || {
                    proxy_copy(client, faulted, &ctl_up, true);
                }));
                handles.push(std::thread::spawn(move || {
                    proxy_copy(s2, c2, &ctl_down, false);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

/// One direction of a proxied connection. `to_upstream` marks the
/// client→server direction, which honors `drop_to_upstream`.
fn proxy_copy<R: Read, W: Write>(
    mut from: R,
    mut to: W,
    control: &Arc<ProxyControl>,
    to_upstream: bool,
) {
    let mut buf = [0u8; 16 << 10];
    loop {
        // ordering: Acquire — pairs with the Release control flips.
        if control.cut.load(Ordering::Acquire) {
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                // ordering: Acquire — see above.
                if to_upstream && control.drop_to_upstream.load(Ordering::Acquire) {
                    continue;
                }
                if to.write_all(&buf[..n]).is_err() || to.flush().is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn election_refuses_without_a_majority_poll() {
        // Nothing is listening on a reserved port: zero nodes answer
        // STATS, so whatever the group size, promotion must be refused
        // — polling a minority proves nothing about acked writes.
        let err = elect_and_promote(&["127.0.0.1:1".into()], 3).unwrap_err();
        assert!(
            err.to_string().contains("election quorum not met"),
            "expected a quorum refusal, got: {err}"
        );
    }

    #[test]
    fn quorum_needs_a_majority_of_the_group() {
        assert_eq!(quorum_peers(0), 0); // singleton group: self-majority
        assert_eq!(quorum_peers(1), 1); // 2 nodes: both
        assert_eq!(quorum_peers(2), 1); // 3 nodes: self + 1
        assert_eq!(quorum_peers(3), 2); // 4 nodes: majority 3 = self + 2
        assert_eq!(quorum_peers(4), 2); // 5 nodes: self + 2
    }

    fn state_with(peers: usize, leader: bool) -> ReplState {
        ReplState::new(&ReplicationConfig {
            node_id: 7,
            peers: (0..peers).map(|i| format!("peer-{i}")).collect(),
            start_as_leader: leader,
            ..ReplicationConfig::default()
        })
    }

    #[test]
    fn epoch_fencing_is_monotonic() {
        let s = state_with(2, false);
        assert_eq!(s.epoch(), 0);
        // Adopt a first leader.
        assert!(s.follow(1, 1));
        assert_eq!(s.epoch(), 1);
        assert_eq!(s.role(), ReplRole::Follower);
        // A stale epoch is fenced; the state is untouched.
        assert!(!s.follow(0, 9));
        assert_eq!(s.epoch(), 1);
        // Same epoch re-subscribes fine (reconnects after a fault).
        assert!(s.follow(1, 1));
        // Promotion must be strictly above the current epoch.
        assert!(!s.lead(1));
        assert!(s.lead(2));
        assert_eq!(s.role(), ReplRole::Leader);
        assert_eq!(s.leader_id.load(Ordering::Relaxed), 7);
        // A leader fences same-epoch subscribe traffic (one leader per
        // epoch), but yields to a genuinely newer epoch.
        assert!(!s.follow(2, 3));
        assert!(s.follow(3, 3));
        assert_eq!(s.role(), ReplRole::Follower);
        // Adoption reset the cursor for the new leader's LSN space.
        assert_eq!(s.cursor.load(Ordering::Acquire), CURSOR_UNSET);
    }

    fn mem_tree() -> blsm::BLsmTree {
        let dev = || -> blsm_storage::SharedDevice { Arc::new(blsm_storage::MemDevice::new()) };
        let op = Arc::new(blsm::AppendOperator);
        blsm::BLsmTree::open(dev(), dev(), 256, blsm::BLsmConfig::default(), op).unwrap()
    }

    #[test]
    fn an_opening_replicate_applies_nothing_and_reports_the_cursor() {
        let leader = mem_tree();
        for k in ["k1", "k2", "k3"] {
            leader.put(k.as_bytes().to_vec(), b"v".to_vec()).unwrap();
        }
        let (records, next) = leader.wal_records_from(0, usize::MAX).unwrap();
        let payloads: Vec<Vec<u8>> = records.into_iter().map(|r| r.payload).collect();

        let db = ThreadedBLsm::start(mem_tree(), 1 << 20).unwrap();
        let repl = Replication::new(&db, ReplicationConfig::default()).unwrap();
        let cursor = |resp: Response| match resp {
            Response::ReplAck { next_lsn, .. } => next_lsn,
            other => panic!("expected an ack, got {other:?}"),
        };
        // Fresh follower: the opening adopts the epoch, applies nothing
        // (even records riding along) and reports the unset cursor.
        let opening = repl.handle_replicate(&db, 1, 1, CURSOR_UNSET, CURSOR_UNSET, &payloads);
        assert_eq!(cursor(opening), CURSOR_UNSET);
        assert_eq!(repl.state().epoch(), 1);
        assert_eq!(db.applied_seqno(), 0);
        // After a batch, the opening reports the batch's `next_lsn`.
        let batch = repl.handle_replicate(&db, 1, 1, 0, next, &payloads);
        assert_eq!(cursor(batch), next);
        assert_eq!(db.applied_seqno(), 3);
        let opening = repl.handle_replicate(&db, 1, 1, CURSOR_UNSET, CURSOR_UNSET, &[]);
        assert_eq!(cursor(opening), next);
        // From a stale epoch it is fenced, naming the live epoch.
        let stale = repl.handle_replicate(&db, 1, 0, CURSOR_UNSET, CURSOR_UNSET, &[]);
        assert_eq!(stale, fenced(repl.state()));
    }

    #[test]
    fn a_batch_delivered_twice_at_once_applies_once() {
        // Two reactors hand the follower the same batch at the same time
        // (a leader reconnecting while its old session still delivers).
        // One applies it; the other finds the cursor moved and applies
        // nothing — no delta lands twice.
        let counter_tree = || {
            let dev = || -> blsm_storage::SharedDevice { Arc::new(blsm_storage::MemDevice::new()) };
            let op = Arc::new(blsm::AddOperator);
            blsm::BLsmTree::open(dev(), dev(), 256, blsm::BLsmConfig::default(), op).unwrap()
        };
        const DELTAS: i64 = 2000;
        let leader = counter_tree();
        for _ in 0..DELTAS {
            leader
                .apply_delta(b"counter".to_vec(), 1i64.to_le_bytes().to_vec())
                .unwrap();
        }
        let db = ThreadedBLsm::start(counter_tree(), 1 << 20).unwrap();
        let repl = Replication::new(&db, ReplicationConfig::default()).unwrap();
        repl.handle_replicate(&db, 1, 1, CURSOR_UNSET, CURSOR_UNSET, &[]);
        let mut from = 0;
        loop {
            let (records, next) = leader.wal_records_from(from, 20 * 32).unwrap();
            if records.is_empty() {
                break;
            }
            let payloads: Vec<Vec<u8>> = records.into_iter().map(|r| r.payload).collect();
            let both = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        both.wait();
                        repl.handle_replicate(&db, 1, 1, from, next, &payloads);
                    });
                }
            });
            from = next;
        }
        let value = db.get(b"counter").unwrap().unwrap();
        assert_eq!(i64::from_le_bytes(value[..8].try_into().unwrap()), DELTAS);
        db.shutdown().unwrap();
    }

    #[test]
    fn flaky_stream_tears_the_triggering_write() {
        let mut out = Vec::new();
        {
            let mut s = FlakyStream::new(&mut out, NetFaultMode::TornWrite { keep: 3 }, 1);
            s.write_all(b"first").unwrap();
            assert!(!s.tripped());
            // Budget spent: this write is torn after 3 bytes.
            assert!(s.write_all(b"second").is_err());
            assert!(s.tripped());
            // Dead afterwards.
            assert!(s.write_all(b"third").is_err());
        }
        assert_eq!(&out, b"firstsec");
    }

    #[test]
    fn flaky_stream_blackhole_lies_about_delivery() {
        let mut out = Vec::new();
        {
            let mut s = FlakyStream::new(&mut out, NetFaultMode::Blackhole, 1);
            s.write_all(b"seen").unwrap();
            // The fault engages silently: success reported, no bytes.
            s.write_all(b"lost").unwrap();
            s.flush().unwrap();
        }
        assert_eq!(&out, b"seen");
    }

    #[test]
    fn flaky_stream_duplicates_after_budget() {
        let mut out = Vec::new();
        {
            let mut s = FlakyStream::new(&mut out, NetFaultMode::Duplicate, 1);
            s.write_all(b"a|").unwrap();
            s.write_all(b"b|").unwrap();
        }
        assert_eq!(&out, b"a|b|b|");
    }

    #[test]
    fn flaky_stream_drop_errors_reads_too() {
        let data = b"hello".to_vec();
        let mut s = FlakyStream::new(std::io::Cursor::new(data), NetFaultMode::Drop, 0);
        let mut buf = [0u8; 4];
        assert!(s.write(b"x").is_err());
        assert!(s.read(&mut buf).is_err());
    }
}
