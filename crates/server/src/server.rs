//! Event-driven TCP server over a shard-routed bLSM store.
//!
//! Thread model (documented in DESIGN.md §11): one nonblocking accept
//! loop, **N reactor threads** multiplexing nonblocking sockets over
//! epoll (`poller.rs`), and **one group-commit thread** per server.
//! This replaces the earlier thread-per-connection model: durable write
//! throughput now scales with *client count*, not thread count, because
//! no thread ever blocks on an fsync that another client's fsync could
//! have covered (bLSM §5.1 — group commit amortizes one log sync over
//! every write that arrived while the previous sync was in flight).
//!
//! The write path under `Durability::Sync`:
//!
//! 1. a reactor decodes a write frame and applies it with the engine's
//!    *nowait* API — WAL append + C0 insert, no sync — which returns a
//!    commit target LSN;
//! 2. the response is parked in the connection's pending set, the
//!    owning shard is marked dirty, and the committer is signalled;
//! 3. the committer calls the shard engine's `commit_group()` — one
//!    flush + one fsync covering every write appended since the last
//!    group — and rings
//!    every reactor's [`WakeFd`];
//! 4. reactors release all responses whose target is now ≤ the shard's
//!    `durable_lsn`, out of order by request id as groups retire.
//!
//! Under `Durability::Buffered` the nowait target is 0 and responses
//! leave immediately in frame order, exactly as before. Reads are
//! served inline on the reactor through the lock-free
//! [`blsm::ShardedReadView`] — they never wait on any commit group.
//!
//! Admission control is scheduler-coupled **and per shard** (see
//! `admission.rs`, `router.rs`): each write consults the backpressure
//! level of the shard that owns its key and is admitted, delayed, or
//! rejected with RETRY_LATER. A pacing delay holds the *response* (the
//! write applies immediately; the client just sees it acknowledged
//! later), so a paced writer costs a timer entry, never a reactor
//! thread — sibling connections and all reads proceed.
//!
//! A replicated leader parks gated writes the same way: the quorum wait
//! becomes a [`GateTicket`] polled as acks arrive, so a slow peer
//! stalls one response, not one thread. `REPLICATE` batches on a
//! follower are the one deliberate exception — the handler group-syncs
//! the whole batch inline (one fsync per frame), which is the follower
//! durability contract and bounded by the leader's batch size.
//!
//! **Server lock hierarchy** (leaf locks only, never nested, never held
//! across engine calls): each reactor's connection `inbox` and the
//! committer's `commit-signal` wake flag. A failed commit group is
//! recorded by the engine itself (its commit failure epoch and last
//! error), which reactors read. The engine's own hierarchy (DESIGN.md
//! §14) sits entirely below; no server lock is ever held while calling
//! into it.
//!
//! Graceful shutdown: [`Server::shutdown`] stops the accept loop, wakes
//! every reactor (each drops its connections) and the committer (which
//! runs one final group per dirty shard), joins them all, then shuts
//! every shard down — completing pending merges, checkpointing and
//! closing each WAL.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blsm::{BLsmTree, ShardedBLsm, ShardedReadView, ThreadedBLsm};
use blsm_storage::{Result, StorageError};
use parking_lot::{Condvar, Mutex};

use crate::admission::{AdmissionConfig, WriteAdmission};
use crate::poller::{Interest, Poller, WakeFd};
use crate::protocol::{
    decode_request, encode_response, CloseReason, ErrKind, FrameDecoder, Request, Response,
    WireScrubReport, WireShardStats, WireStats,
};
use crate::replication::{GateTicket, Replication, ReplicationConfig};
use crate::router::ShardRouter;

/// Upper bound on an idle reactor's epoll sleep; bounds how long a fully
/// quiescent reactor takes to notice the stop flag without a wake.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Admission policy.
    pub admission: AdmissionConfig,
    /// Reactor thread count; 0 picks one per available core, clamped to
    /// [2, 8].
    pub reactors: usize,
}

fn effective_reactors(config: &ServerConfig) -> usize {
    if config.reactors > 0 {
        config.reactors
    } else {
        std::thread::available_parallelism()
            .map_or(4, std::num::NonZeroUsize::get)
            .clamp(2, 8)
    }
}

/// Per-reactor handoff slot the accept thread fills.
struct ReactorHandle {
    /// Connections accepted but not yet registered with the reactor's
    /// poller. Leaf lock `inbox` (see the module-doc hierarchy): held
    /// only to push or swap the Vec, never across any other call.
    inbox: Mutex<Vec<TcpStream>>,
    /// Rung by the accept thread (new connection), the committer (a
    /// group retired) and shutdown.
    wake: WakeFd,
}

/// The committer's doorbell.
struct CommitSignal {
    /// Leaf lock `commit-signal`: guards only this wake flag.
    pending: Mutex<bool>,
    cond: Condvar,
}

struct Inner {
    router: ShardRouter,
    /// Present when this server is part of a replication group; holds
    /// role/epoch state and the request handlers (`replication.rs`).
    repl: Option<Replication>,
    /// Set by `shutdown()` or a SHUTDOWN request; accept loop, reactors
    /// and the committer poll it.
    // ordering: SeqCst — shutdown flag; totally ordered with the wakes
    // so no thread can miss it.
    stop: AtomicBool,
    /// Live client connections (leak detector for tests).
    // ordering: SeqCst — paired inc/dec observed by test drain loops;
    // SeqCst keeps it totally ordered with `stop`.
    active_connections: AtomicU64,
    /// One handoff slot per reactor thread.
    reactors: Vec<ReactorHandle>,
    commit_signal: CommitSignal,
    /// Per-shard "has unsynced writes" flags the committer swaps.
    // ordering: SeqCst — set after the nowait apply, swapped by the
    // committer before its commit_group; SeqCst pairs the handoff.
    commit_dirty: Vec<AtomicBool>,
}

impl Inner {
    /// Flips the stop flag and rouses every sleeping thread.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for r in &self.reactors {
            r.wake.wake();
        }
        self.ring_committer();
    }

    /// Marks `shard` dirty and rings the committer.
    fn signal_commit(&self, shard: usize) {
        self.commit_dirty[shard].store(true, Ordering::SeqCst);
        self.ring_committer();
    }

    /// Sets the committer's wake flag (guard dropped before the notify).
    fn ring_committer(&self) {
        *self.commit_signal.pending.lock() = true;
        self.commit_signal.cond.notify_one();
    }
}

/// A running blsm server.
///
/// Dropping a `Server` without calling [`Server::shutdown`] still stops
/// every thread and checkpoints each shard (via the [`ThreadedBLsm`]
/// drop hook); `shutdown` additionally hands the settled
/// [`BLsmTree`]s back.
pub struct Server {
    inner: Option<Arc<Inner>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("running", &self.inner.is_some())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `db` — the classic one-tree deployment, served as the
    /// 1-shard case of the router.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Io`] if the address cannot be bound or
    /// the server threads cannot be spawned.
    pub fn start(
        db: ThreadedBLsm,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server> {
        Self::start_sharded(ShardedBLsm::from_single(db), addr, config)
    }

    /// Binds `addr` and starts serving a sharded store: requests are
    /// key-range-routed, scans scatter-gather, and each shard's writers
    /// are paced by that shard's own backpressure.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Io`] if the address cannot be bound or
    /// the server threads cannot be spawned.
    pub fn start_sharded(
        store: ShardedBLsm,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> Result<Server> {
        Self::start_inner(store, addr, config, None)
    }

    /// [`Server::start`] plus a replication role: the server joins the
    /// static group described by `repl_config` — as the initial leader
    /// (shipping WAL records to every peer, gating client-write acks on
    /// a majority) or as a follower (applying shipped records, serving
    /// reads, refusing client writes with `NotLeader`).
    ///
    /// # Errors
    ///
    /// Fails like [`Server::start`], or with
    /// [`StorageError::InvalidFormat`] if the store is not a durable
    /// single-shard store (see [`Replication::new`]).
    pub fn start_replicated(
        db: ThreadedBLsm,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        repl_config: ReplicationConfig,
    ) -> Result<Server> {
        Self::start_inner(
            ShardedBLsm::from_single(db),
            addr,
            config,
            Some(repl_config),
        )
    }

    fn start_inner(
        store: ShardedBLsm,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        repl_config: Option<ReplicationConfig>,
    ) -> Result<Server> {
        let listener = TcpListener::bind(addr).map_err(StorageError::Io)?;
        listener.set_nonblocking(true).map_err(StorageError::Io)?;
        let local_addr = listener.local_addr().map_err(StorageError::Io)?;
        let repl = match repl_config {
            Some(rc) => {
                let db = store.single().ok_or_else(|| {
                    StorageError::InvalidFormat(
                        "replication requires a single-shard store (one WAL stream)".into(),
                    )
                })?;
                Some(Replication::new(db, rc)?)
            }
            None => None,
        };
        let n_reactors = effective_reactors(&config);
        let mut reactors = Vec::with_capacity(n_reactors);
        for _ in 0..n_reactors {
            reactors.push(ReactorHandle {
                inbox: Mutex::new(Vec::new()),
                wake: WakeFd::new().map_err(StorageError::Io)?,
            });
        }
        let shard_count = store.shard_count();
        let inner = Arc::new(Inner {
            router: ShardRouter::new(store, config.admission),
            repl,
            stop: AtomicBool::new(false),
            active_connections: AtomicU64::new(0),
            reactors,
            commit_signal: CommitSignal {
                pending: Mutex::new(false),
                cond: Condvar::new(),
            },
            commit_dirty: (0..shard_count).map(|_| AtomicBool::new(false)).collect(),
        });
        let mut workers = Vec::with_capacity(n_reactors + 1);
        for idx in 0..n_reactors {
            let reactor_inner = inner.clone();
            let h = std::thread::Builder::new()
                .name(format!("blsm-reactor-{idx}"))
                .spawn(move || reactor_loop(&reactor_inner, idx))
                .map_err(StorageError::Io)?;
            workers.push(h);
        }
        let commit_inner = inner.clone();
        let h = std::thread::Builder::new()
            .name("blsm-committer".into())
            .spawn(move || committer_loop(&commit_inner))
            .map_err(StorageError::Io)?;
        workers.push(h);
        let accept_inner = inner.clone();
        let accept_thread = std::thread::Builder::new()
            .name("blsm-accept".into())
            .spawn(move || accept_loop(&accept_inner, &listener, workers))
            .map_err(StorageError::Io)?;
        Ok(Server {
            inner: Some(inner),
            accept_thread: Some(accept_thread),
            local_addr,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    fn inner(&self) -> &Arc<Inner> {
        match &self.inner {
            Some(i) => i,
            // Unreachable: `shutdown` consumes `self`.
            None => panic!("server used after shutdown"),
        }
    }

    /// Stops every server thread (`None` if already stopped): flips the
    /// stop flag, stops the shippers, and joins the accept loop, which
    /// joins the reactors and the committer.
    fn stop_threads(&mut self) -> Option<Arc<Inner>> {
        let inner = self.inner.take()?;
        inner.request_stop();
        // Shipper threads hold only the replication state + engine seam
        // (never `inner`), so stopping them is a flag, not a join.
        if let Some(repl) = &inner.repl {
            repl.stop();
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        Some(inner)
    }

    /// True once a client sent SHUTDOWN (or `shutdown` began). The
    /// server binary polls this to decide when to exit its wait loop.
    pub fn shutdown_requested(&self) -> bool {
        self.inner().stop.load(Ordering::SeqCst)
    }

    /// Client connections currently registered with a reactor (or in
    /// flight to one).
    pub fn active_connections(&self) -> u64 {
        self.inner().active_connections.load(Ordering::SeqCst)
    }

    /// Stops accepting, drains the reactors and the committer, then
    /// shuts every shard down (pending merges completed, checkpoints
    /// written, WALs closed, shard-manifest epoch bumped) and returns
    /// the settled trees in shard order — one tree for a
    /// [`Server::start`] server.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint errors from the shard shutdowns.
    pub fn shutdown(mut self) -> Result<Vec<BLsmTree>> {
        let Some(inner) = self.stop_threads() else {
            return Err(StorageError::corruption(
                blsm_storage::ComponentId::Server,
                None,
                "shutdown on an already shut-down server",
            ));
        };
        // The accept loop joins every reactor and the committer before
        // exiting, so this Arc is now the sole owner.
        let inner = Arc::try_unwrap(inner).map_err(|_| {
            StorageError::corruption(
                blsm_storage::ComponentId::Server,
                None,
                "server thread leaked past accept-loop join",
            )
        })?;
        inner.router.shutdown()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Each shard's own Drop hook checkpoints once the Arc dies.
        drop(self.stop_threads());
    }
}

/// Accepts connections and deals them round-robin to the reactors. On
/// stop it joins every reactor and the committer, so `shutdown` only
/// has to join this one thread.
fn accept_loop(
    inner: &Arc<Inner>,
    listener: &TcpListener,
    workers: Vec<std::thread::JoinHandle<()>>,
) {
    let mut next = 0usize;
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                inner.active_connections.fetch_add(1, Ordering::SeqCst);
                let r = &inner.reactors[next % inner.reactors.len()];
                next = next.wrapping_add(1);
                r.inbox.lock().push(stream);
                r.wake.wake();
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // Belt and braces: the loop can exit on an accept error without the
    // stop flag set; the workers must still be told to wind down.
    inner.request_stop();
    for h in workers {
        let _ = h.join();
    }
}

/// One response parked on a connection, waiting for its release
/// condition: a pacing timer, the shard's durable horizon reaching the
/// write's commit target, and/or a replication quorum.
struct PendingWrite {
    id: u64,
    shard: usize,
    /// Durable once the shard's `durable_lsn` reaches this; 0 = no
    /// durability wait (Buffered, or already satisfied).
    target: u64,
    /// The shard engine's commit failure epoch when this write was
    /// parked.
    failures_at: u64,
    /// Open replication quorum gate, if any.
    gate: Option<GateTicket>,
    /// Admission pacing: do not release before this instant.
    not_before: Option<Instant>,
    resp: Response,
}

/// One registered client connection.
struct Conn {
    stream: TcpStream,
    fd: RawFd,
    peer: String,
    decoder: FrameDecoder,
    /// Encoded responses not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    pending: Vec<PendingWrite>,
    /// Whether the poller registration currently includes EPOLLOUT.
    wants_write: bool,
    /// Set when the connection must close (EOF, unframable stream,
    /// socket error); torn down at the end of the reactor tick.
    dead: Option<CloseReason>,
}

impl Conn {
    fn flushed(&self) -> bool {
        self.out_pos >= self.out.len()
    }
}

/// One reactor: multiplexes its share of the connections over epoll.
fn reactor_loop(inner: &Arc<Inner>, idx: usize) {
    let handle = &inner.reactors[idx];
    let poller =
        Poller::new().and_then(|p| p.add(handle.wake.raw_fd(), 0, Interest::READ).map(|()| p));
    let Ok(poller) = poller else {
        // No epoll instance (or no wake registration): this reactor can
        // serve nothing. The others keep the server alive; connections
        // dealt here would hang, so close what already arrived and bail.
        eprintln!("blsm-server: reactor {idx} failed to set up its poller");
        drain_inbox_closed(inner, idx);
        return;
    };
    let view = inner.router.store().read_view();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events = Vec::new();
    let mut buf = vec![0u8; 64 << 10];
    while !inner.stop.load(Ordering::SeqCst) {
        // Sleep until woken (socket activity, new connection, a commit
        // group retiring) — but poll on a short tick while responses are
        // parked, as the safety net for pacing timers and gate deadlines.
        let timeout = if conns.values().any(|c| !c.pending.is_empty()) {
            Duration::from_millis(3)
        } else {
            IDLE_POLL
        };
        events.clear();
        if poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        let mut woken = false;
        for ev in &events {
            if ev.token == 0 {
                woken = true;
            }
        }
        if woken {
            handle.wake.drain();
            // Adopt connections the accept thread dealt us.
            let incoming = std::mem::take(&mut *handle.inbox.lock());
            for stream in incoming {
                let fd = stream.as_raw_fd();
                let token = next_token;
                next_token += 1;
                let peer = stream
                    .peer_addr()
                    .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string());
                if poller.add(fd, token, Interest::READ).is_err() {
                    inner.active_connections.fetch_sub(1, Ordering::SeqCst);
                    continue;
                }
                conns.insert(
                    token,
                    Conn {
                        stream,
                        fd,
                        peer,
                        decoder: FrameDecoder::new(),
                        out: Vec::new(),
                        out_pos: 0,
                        pending: Vec::new(),
                        wants_write: false,
                        dead: None,
                    },
                );
            }
        }
        // Socket readiness: drain readable sockets and process frames.
        for ev in &events {
            if ev.token == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue;
            };
            if ev.readable || ev.closed {
                service_readable(inner, &view, conn, &mut buf);
            }
        }
        // Release parked responses whose conditions are met.
        for conn in conns.values_mut() {
            settle_pending(inner, conn);
        }
        // Push out-buffers, drop dead connections, fix write interest.
        conns.retain(|&token, conn| {
            if flush_out(conn).is_err() && conn.dead.is_none() {
                conn.dead = Some(CloseReason::CleanEof);
            }
            if let Some(reason) = &conn.dead {
                // Whatever flushed above, flushed; unflushed responses
                // die with the connection (the thread-per-connection
                // model dropped them the same way at EOF).
                log_close(&conn.peer, reason);
                let _ = poller.delete(conn.fd);
                inner.active_connections.fetch_sub(1, Ordering::SeqCst);
                return false;
            }
            let wants = !conn.flushed();
            if wants != conn.wants_write {
                let interest = if wants {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                if poller.modify(conn.fd, token, interest).is_ok() {
                    conn.wants_write = wants;
                }
            }
            true
        });
    }
    // Wind-down: drop every connection (clients see EOF; unanswered
    // in-flight requests are dropped, as in the thread-per-connection
    // model) and adopt-and-close anything still parked in the inbox.
    for conn in conns.values() {
        let _ = poller.delete(conn.fd);
        inner.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
    drain_inbox_closed(inner, idx);
}

/// Closes (and un-counts) connections still sitting in reactor `idx`'s
/// inbox — used on reactor wind-down and startup failure.
fn drain_inbox_closed(inner: &Arc<Inner>, idx: usize) {
    let incoming = std::mem::take(&mut *inner.reactors[idx].inbox.lock());
    for stream in incoming {
        drop(stream);
        inner.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Drains a readable socket, feeds the frame decoder, and serves every
/// complete frame. Marks the connection dead on EOF, error, or an
/// unframable stream.
fn service_readable(inner: &Arc<Inner>, view: &ShardedReadView, conn: &mut Conn, buf: &mut [u8]) {
    if conn.dead.is_some() {
        return;
    }
    let mut eof = false;
    // Bounded drain: a peer streaming faster than we read must not pin
    // this reactor — level-triggered epoll re-reports the leftovers on
    // the next tick, letting sibling connections interleave.
    for _ in 0..16 {
        match conn.stream.read(buf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => conn.decoder.feed(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                eof = true;
                break;
            }
        }
    }
    loop {
        match conn.decoder.next_frame() {
            Ok(Some(payload)) => {
                if let Err(e) = serve_frame(inner, view, conn, &payload) {
                    // Undecodable request payload: drop the connection
                    // (ids can no longer be trusted).
                    conn.dead = Some(CloseReason::Corrupt {
                        detail: e.to_string(),
                    });
                    return;
                }
            }
            Ok(None) => break,
            // Unframable stream: nothing sane to answer.
            Err(e) => {
                conn.dead = Some(CloseReason::Corrupt {
                    detail: e.to_string(),
                });
                return;
            }
        }
    }
    if eof {
        // EOF: let the decoder say whether the peer stopped on a frame
        // boundary or vanished mid-frame.
        conn.dead = Some(conn.decoder.close_reason_at_eof());
    }
}

/// Serves one decoded frame: writes apply immediately through the
/// engine's nowait path with the response parked until durable (and
/// quorum-acked on a replicated leader); reads, stats and control
/// answer inline.
///
/// # Errors
///
/// An undecodable request payload (the caller drops the connection).
fn serve_frame(
    inner: &Arc<Inner>,
    view: &ShardedReadView,
    conn: &mut Conn,
    payload: &[u8],
) -> Result<()> {
    let (id, req) = decode_request(payload)?;
    if let Some(key) = req.write_key() {
        // Followers never take client writes: replicated state must
        // flow through the leader's WAL, not around it.
        if let Some(repl) = inner.repl.as_ref().filter(|r| r.refuses_writes()) {
            push_response(&mut conn.out, id, &repl.not_leader_response())?;
            return Ok(());
        }
        // Routed once: the shard the write was metered against is the
        // shard it is applied to.
        let (shard, verdict) = inner.router.write_admission(key);
        let not_before = match verdict {
            WriteAdmission::Admit => None,
            // Proportional pacing: the write applies now, but its
            // acknowledgement is held back — this writer's feedback
            // loop slows without costing a thread or stalling sibling
            // connections.
            WriteAdmission::Delay(d) => Some(Instant::now() + d),
            WriteAdmission::RetryLater { backoff_ms } => {
                push_response(&mut conn.out, id, &Response::RetryLater { backoff_ms })?;
                return Ok(());
            }
        };
        let (target, resp) = apply_write_nowait(inner, shard, req);
        // Leader commit gate: the ack leaves only once a majority of
        // the group holds the write (DESIGN.md §17). Opened here,
        // polled as peer acks arrive.
        let gate = match (&resp, &inner.repl) {
            (Response::Ok | Response::Inserted(true), Some(repl)) => repl.gate_open(target),
            _ => None,
        };
        if target == 0 && gate.is_none() && not_before.is_none() {
            push_response(&mut conn.out, id, &resp)?;
            return Ok(());
        }
        // Read after the apply: a group that fails from here on may have
        // covered this write.
        let failures_at = inner
            .router
            .store()
            .shard_engine(shard)
            .map_or(0, |db| db.commit_failure_epoch());
        if target > 0 {
            inner.signal_commit(shard);
        }
        conn.pending.push(PendingWrite {
            id,
            shard,
            target,
            failures_at,
            gate,
            not_before,
            resp,
        });
        return Ok(());
    }
    // Reads (and control commands) see every write applied so far on
    // this connection: nowait applies above completed before this point
    // (durability lags, visibility does not).
    let resp = match &req {
        Request::Ping => Response::Ok,
        Request::Get { key } => match view.get(key) {
            Ok(v) => Response::Value(v.map(|b| b.to_vec())),
            Err(e) => err_response(&e),
        },
        Request::Scan { from, to, limit } => {
            let limit = *limit as usize;
            let scanned = match to {
                Some(to) => view.scan_range(from, to, limit),
                None => view.scan(from, limit),
            };
            match scanned {
                Ok(rows) => Response::Rows(
                    rows.into_iter()
                        .map(|r| (r.key.to_vec(), r.value.to_vec()))
                        .collect(),
                ),
                Err(e) => err_response(&e),
            }
        }
        Request::Stats => Response::Stats(wire_stats(inner, view)),
        Request::Scrub => {
            let r = view.scrub();
            Response::ScrubReport(WireScrubReport {
                components: r.components_checked,
                pages: r.pages_checked,
                entries: r.entries_checked,
                errors: r.errors,
            })
        }
        Request::Shutdown => {
            push_response(&mut conn.out, id, &Response::Ok)?;
            // The requester deserves its ack: push the out-buffer with a
            // bounded blocking flush before the stop flag tears the
            // connection down.
            force_flush(conn, Duration::from_secs(2));
            inner.request_stop();
            return Ok(());
        }
        Request::Replicate { .. } | Request::Promote { .. } => serve_replication(inner, &req),
        // Writes were handled above.
        _ => Response::Err {
            kind: ErrKind::Invalid,
            message: "unhandled request".into(),
        },
    };
    push_response(&mut conn.out, id, &resp)
}

/// Releases every parked response whose conditions are now met: pacing
/// timer expired, shard durable horizon past the commit target (or the
/// commit failed — the failure epoch moved), replication gate resolved.
/// Responses leave out of order by request id; the wire protocol's id
/// matching makes that safe.
fn settle_pending(inner: &Arc<Inner>, conn: &mut Conn) {
    if conn.pending.is_empty() {
        return;
    }
    let now = Instant::now();
    let mut pending = std::mem::take(&mut conn.pending);
    pending.retain_mut(|p| {
        if let Some(t) = p.not_before {
            if now < t {
                return true;
            }
            p.not_before = None;
        }
        if p.target > 0 {
            match inner.router.store().shard_engine(p.shard) {
                Ok(db) if db.commit_failure_epoch() != p.failures_at => {
                    // A group covering this write failed to flush or
                    // sync: the write is applied but its durability is
                    // unknown. Surface that as an I/O error rather than
                    // acknowledging a promise the log cannot keep.
                    p.resp = Response::Err {
                        kind: ErrKind::Io,
                        message: format!("commit group failed: {}", db.last_commit_error()),
                    };
                    let _ = push_response(&mut conn.out, p.id, &p.resp);
                    return false;
                }
                Ok(db) if db.durable_lsn() >= p.target => p.target = 0,
                Ok(_) => return true,
                Err(e) => {
                    p.resp = err_response(&e);
                    let _ = push_response(&mut conn.out, p.id, &p.resp);
                    return false;
                }
            }
        }
        if let (Some(gate), Some(repl)) = (&p.gate, &inner.repl) {
            match repl.gate_poll(gate) {
                None => return true,
                Some(Response::Ok) => {}
                Some(err) => p.resp = err,
            }
        }
        let _ = push_response(&mut conn.out, p.id, &p.resp);
        false
    });
    conn.pending = pending;
}

/// Writes as much of the out-buffer as the socket accepts right now.
///
/// # Errors
///
/// A fatal socket error (the caller tears the connection down).
fn flush_out(conn: &mut Conn) -> std::io::Result<()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.flushed() {
        conn.out.clear();
        conn.out_pos = 0;
    }
    Ok(())
}

/// Bounded blocking flush for the SHUTDOWN acknowledgement:
/// [`flush_out`] with 1ms naps on `WouldBlock` until the buffer drains,
/// the socket fails, or the deadline passes.
fn force_flush(conn: &mut Conn, limit: Duration) {
    let deadline = Instant::now() + limit;
    while flush_out(conn).is_ok() && !conn.flushed() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The group-commit thread: the sole caller of `commit_group` for
/// client writes. Sleeps on the commit signal, syncs every dirty shard
/// (one flush + fsync per shard covering everything appended since the
/// last group), then wakes every reactor to release parked responses.
///
/// Batching comes from overlap, not waiting: while this thread is
/// inside one fsync, reactors keep appending — the next `commit_group`
/// scoops up everything that accumulated.
fn committer_loop(inner: &Arc<Inner>) {
    loop {
        let stopping = inner.stop.load(Ordering::SeqCst);
        {
            let mut pending = inner.commit_signal.pending.lock();
            if !*pending && !stopping {
                // The timeout is a safety net: every signal_commit
                // notifies, so this normally wakes on the condvar.
                let _ = inner
                    .commit_signal
                    .cond
                    .wait_for(&mut pending, Duration::from_millis(50));
            }
            *pending = false;
        }
        let mut committed = false;
        for shard in 0..inner.commit_dirty.len() {
            if inner.commit_dirty[shard].swap(false, Ordering::SeqCst) {
                // A failed group bumps the engine's failure epoch, which
                // the woken reactors compare; either way they re-check.
                let store = inner.router.store();
                let _ = store.shard_engine(shard).and_then(|db| db.commit_group());
                committed = true;
            }
        }
        if committed {
            for r in &inner.reactors {
                r.wake.wake();
            }
        }
        if stopping {
            break;
        }
    }
}

/// Logs non-clean connection closes with their typed reason.
fn log_close(peer: &str, reason: &CloseReason) {
    if *reason == CloseReason::CleanEof {
        return;
    }
    eprintln!("blsm-server: closing connection from {peer}: {reason}");
}

/// Maps an engine error to the typed wire error, preserving the
/// corruption/I-O/invalid distinction so clients can react (a corrupt
/// key is permanent; an I/O hiccup may be worth a retry).
fn err_response(e: &StorageError) -> Response {
    Response::Err {
        kind: ErrKind::classify(e),
        message: e.to_string(),
    }
}

/// Serves the two replication opcodes (an error on a replication-less
/// server).
///
/// `REPLICATE` is the one handler that does blocking I/O on a reactor:
/// it group-syncs the whole batch inline (one fsync per frame — the
/// follower's durability contract). Follower reactors carry replication
/// traffic from exactly one leader, so the stall is bounded and cannot
/// starve client reads behind more than one batch.
fn serve_replication(inner: &Inner, req: &Request) -> Response {
    let invalid = |message: &str| Response::Err {
        kind: ErrKind::Invalid,
        message: message.into(),
    };
    let Some(repl) = &inner.repl else {
        return invalid("replication not configured on this server");
    };
    match req {
        Request::Replicate {
            leader_id,
            epoch,
            from_lsn,
            next_lsn,
            records,
        } => {
            // `start_replicated` guarantees a single shard.
            let Some(db) = inner.router.store().single() else {
                return invalid("replication requires a single-shard store");
            };
            repl.handle_replicate(db, *leader_id, *epoch, *from_lsn, *next_lsn, records)
        }
        Request::Promote { epoch } => repl.handle_promote(*epoch),
        _ => invalid("not a replication request"),
    }
}

/// Applies one admitted write to `shard`'s engine through its nowait
/// path (WAL append + C0 insert, no sync). Returns `(commit_target,
/// provisional_response)` — a zero target means no durability wait is
/// owed (Buffered durability, a no-op insert, or an error response).
fn apply_write_nowait(inner: &Inner, shard: usize, req: Request) -> (u64, Response) {
    let applied = inner
        .router
        .store()
        .shard_engine(shard)
        .and_then(|db| match req {
            Request::Put { key, value } => db.put_nowait(key, value).map(|t| (t, Response::Ok)),
            Request::Delete { key } => db.delete_nowait(key).map(|t| (t, Response::Ok)),
            Request::InsertIfNotExists { key, value } => db
                .insert_if_not_exists_nowait(key, value)
                .map(|(inserted, t)| (t, Response::Inserted(inserted))),
            Request::ApplyDelta { key, delta } => {
                db.apply_delta_nowait(key, delta).map(|t| (t, Response::Ok))
            }
            // `write_key` admits only the four arms above.
            _ => Ok((
                0,
                Response::Err {
                    kind: ErrKind::Invalid,
                    message: "non-write in write path".into(),
                },
            )),
        });
    applied.unwrap_or_else(|e| (0, err_response(&e)))
}

/// Encodes `resp`, downgrading frames that exceed the ceiling (giant
/// scans) to an in-band error instead of a torn connection.
fn push_response(out: &mut Vec<u8>, id: u64, resp: &Response) -> Result<()> {
    let before = out.len();
    if encode_response(out, id, resp).is_err() {
        out.truncate(before);
        return encode_response(
            out,
            id,
            &Response::Err {
                kind: ErrKind::Invalid,
                message: "response exceeds frame ceiling".into(),
            },
        );
    }
    Ok(())
}

fn wire_stats(inner: &Inner, view: &ShardedReadView) -> WireStats {
    let a = inner.router.admission_counters();
    let shards = view
        .shard_stats()
        .into_iter()
        .enumerate()
        .map(|(i, engine)| {
            let a = inner.router.shard_admission_counters(i);
            WireShardStats {
                shard: i as u32,
                admitted: a.admitted,
                delayed: a.delayed,
                rejected: a.rejected,
                engine,
            }
        })
        .collect();
    WireStats {
        admitted: a.admitted,
        delayed: a.delayed,
        rejected: a.rejected,
        engine: view.stats(),
        shards,
        repl: inner.repl.as_ref().map(Replication::wire_stats),
    }
}
