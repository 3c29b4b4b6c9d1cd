//! Blocking client for the blsm wire protocol.
//!
//! [`Client`] owns one TCP connection (re-established lazily after any
//! I/O failure, with exponential backoff) and offers typed helpers over
//! [`crate::protocol`]. Write helpers honor the server's admission
//! control: a RETRY_LATER reply sleeps the server's backoff hint and
//! retries, up to a configured attempt budget — so a caller sees
//! backpressure as latency, exactly like an in-process writer stalling
//! on the hard `C0` cap, never as a spurious error. [`Client::call`]
//! is public for callers (tests, the saturation probe) that want the
//! raw single-shot outcome instead.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use blsm_storage::{ComponentId, Result, StorageError};
use rand::{Rng, SeedableRng};

use crate::protocol::{
    decode_response, encode_request, ErrKind, FrameDecoder, Request, Response, WireScrubReport,
    WireStats,
};

/// Base reconnect backoff; doubles per consecutive failure, capped at
/// [`MAX_RECONNECT_BACKOFF`], then *fully jittered* — each sleep is
/// uniform in `[0, backoff]` so a fleet of clients cut off by the same
/// failover does not reconnect in lockstep.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(10);

/// Ceiling the reconnect backoff's doubling stops at.
const MAX_RECONNECT_BACKOFF: Duration = Duration::from_secs(1);

/// Client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Attempts per logical operation (I/O failures and RETRY_LATER
    /// replies both consume attempts).
    pub max_attempts: u32,
    /// Socket read timeout (an unresponsive server surfaces as an
    /// I/O error rather than a hang).
    pub read_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_attempts: 8,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// A blocking connection to a blsm server.
#[derive(Debug)]
pub struct Client {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    next_id: u64,
    /// Per-client jitter source, seeded per instance so concurrent
    /// clients desynchronize even when they fail at the same instant.
    jitter: rand::rngs::StdRng,
}

impl Client {
    /// Creates a client for `addr` and connects eagerly.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Io`] if the first connection cannot be
    /// established.
    pub fn connect(addr: impl Into<String>) -> Result<Client> {
        Client::with_config(addr, ClientConfig::default())
    }

    /// [`Client::connect`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Io`] if the first connection cannot be
    /// established.
    pub fn with_config(addr: impl Into<String>, config: ClientConfig) -> Result<Client> {
        let mut c = Client {
            addr: addr.into(),
            config,
            stream: None,
            decoder: FrameDecoder::new(),
            next_id: 1,
            jitter: rand::rngs::StdRng::seed_from_u64(jitter_seed()),
        };
        c.ensure_connected()?;
        Ok(c)
    }

    fn ensure_connected(&mut self) -> Result<&mut TcpStream> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(StorageError::Io)?;
            stream
                .set_read_timeout(Some(self.config.read_timeout))
                .map_err(StorageError::Io)?;
            stream.set_nodelay(true).map_err(StorageError::Io)?;
            // A fresh connection starts a fresh framing context.
            self.decoder = FrameDecoder::new();
            self.stream = Some(stream);
        }
        match self.stream.as_mut() {
            Some(s) => Ok(s),
            // Unreachable: just stored above.
            None => Err(StorageError::Io(std::io::Error::other("no stream"))),
        }
    }

    /// Single-shot request/response over the current connection: a
    /// one-request [`Client::pipeline`]. Any I/O failure drops the
    /// connection (the next call reconnects).
    ///
    /// # Errors
    ///
    /// As [`Client::pipeline`].
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        self.pipeline(std::slice::from_ref(req))?
            .pop()
            .ok_or_else(|| StorageError::InvalidFormat("pipeline of one returned nothing".into()))
    }

    /// Pipelines `reqs` over the connection: every request frame is
    /// written before any response is awaited, and responses — which
    /// the server may complete **out of order** as commit groups retire
    /// — are collected by request id and returned in request order.
    ///
    /// This is the client half of the group-commit bargain: N durable
    /// writes in one pipeline cost one round trip and (typically) one
    /// server-side fsync, instead of N of each. Single-shot: no retry,
    /// and any failure drops the connection so the next call reconnects.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::Io`] on socket errors or timeout and
    /// [`StorageError::InvalidFormat`] on protocol violations (garbage
    /// frames).
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let first_id = self.next_id;
        self.next_id += reqs.len() as u64;
        let mut wire = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            encode_request(&mut wire, first_id + i as u64, req)?;
        }
        let out = (|| -> Result<Vec<Response>> {
            let config_read_timeout = self.config.read_timeout;
            let stream = self.ensure_connected()?;
            stream.write_all(&wire).map_err(StorageError::Io)?;
            stream.flush().map_err(StorageError::Io)?;
            let deadline = std::time::Instant::now() + config_read_timeout;
            let mut slots: Vec<Option<Response>> = (0..reqs.len()).map(|_| None).collect();
            let mut filled = 0usize;
            let mut buf = [0u8; 8 << 10];
            while filled < reqs.len() {
                if let Some(payload) = self.decoder.next_frame()? {
                    let (got, resp) = decode_response(&payload)?;
                    let Some(slot) = got
                        .checked_sub(first_id)
                        .and_then(|i| slots.get_mut(i as usize))
                    else {
                        // A stale reply from a previous (torn) exchange.
                        continue;
                    };
                    if slot.replace(resp).is_none() {
                        filled += 1;
                    }
                    continue;
                }
                if std::time::Instant::now() >= deadline {
                    return Err(StorageError::Io(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "response deadline exceeded",
                    )));
                }
                let Some(stream) = self.stream.as_mut() else {
                    return Err(StorageError::Io(std::io::Error::other("no stream")));
                };
                match stream.read(&mut buf) {
                    Ok(0) => {
                        return Err(StorageError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed the connection",
                        )))
                    }
                    Ok(n) => self.decoder.feed(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(StorageError::Io(e)),
                }
            }
            Ok(slots.into_iter().flatten().collect())
        })();
        if out.is_err() {
            // Connection state is unknown; force a reconnect next time.
            self.stream = None;
        }
        out
    }

    /// `call` with reconnect/retry: I/O errors reconnect with capped,
    /// fully-jittered exponential backoff; RETRY_LATER sleeps a
    /// jittered version of the server's hint. Both consume attempts
    /// from the same budget.
    ///
    /// Jitter matters more than the curve: after a failover or a
    /// saturation rejection every affected client holds the *same*
    /// deterministic schedule, and without randomization they all
    /// reconnect in the same instant — a retry storm that re-saturates
    /// the server exactly when it is weakest. Full jitter (uniform in
    /// `[0, backoff]`) provably spreads that spike; the RETRY_LATER
    /// hint keeps at least half its value so the server still gets the
    /// breathing room it asked for.
    fn call_retrying(&mut self, req: &Request) -> Result<Response> {
        let mut backoff = RECONNECT_BACKOFF;
        let mut last_err: Option<StorageError> = None;
        for _ in 0..self.config.max_attempts.max(1) {
            match self.call(req) {
                Ok(Response::RetryLater { backoff_ms }) => {
                    // Equal jitter: uniform in [hint/2, hint].
                    let hint = u64::from(backoff_ms);
                    let sleep_ms = if hint == 0 {
                        0
                    } else {
                        self.jitter.random_range(hint.div_ceil(2)..=hint)
                    };
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                    last_err = Some(StorageError::Io(std::io::Error::other(
                        "server saturated (RETRY_LATER)",
                    )));
                }
                Ok(resp) => return Ok(resp),
                Err(e @ StorageError::Io(_)) => {
                    // Full jitter: uniform in [0, backoff].
                    let ceil = backoff.as_nanos().min(u128::from(u64::MAX)) as u64;
                    if ceil > 0 {
                        std::thread::sleep(Duration::from_nanos(
                            self.jitter.random_range(0..=ceil),
                        ));
                    }
                    backoff = (backoff * 2).min(MAX_RECONNECT_BACKOFF);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err
            .unwrap_or_else(|| StorageError::Io(std::io::Error::other("retry budget exhausted"))))
    }

    fn expect_ok(resp: Response) -> Result<()> {
        match resp {
            Response::Ok => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable past the retry budget.
    pub fn ping(&mut self) -> Result<()> {
        Self::expect_ok(self.call_retrying(&Request::Ping)?)
    }

    /// Point lookup.
    ///
    /// # Errors
    ///
    /// Fails on transport errors past the retry budget or server-side
    /// engine errors.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        match self.call_retrying(&Request::Get { key: key.to_vec() })? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected(&other)),
        }
    }

    /// Blind write, retrying through backpressure.
    ///
    /// # Errors
    ///
    /// Fails if the retry budget is exhausted (server saturated or
    /// unreachable) or the engine rejects the write.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        Self::expect_ok(self.call_retrying(&Request::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })?)
    }

    /// Delete, retrying through backpressure.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::put`].
    pub fn delete(&mut self, key: &[u8]) -> Result<()> {
        Self::expect_ok(self.call_retrying(&Request::Delete { key: key.to_vec() })?)
    }

    /// Checked insert (§3.1.2), retrying through backpressure; false if
    /// the key already existed.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::put`].
    pub fn insert_if_not_exists(&mut self, key: &[u8], value: &[u8]) -> Result<bool> {
        match self.call_retrying(&Request::InsertIfNotExists {
            key: key.to_vec(),
            value: value.to_vec(),
        })? {
            Response::Inserted(b) => Ok(b),
            other => Err(unexpected(&other)),
        }
    }

    /// Merge-operator delta write, retrying through backpressure.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Client::put`].
    pub fn apply_delta(&mut self, key: &[u8], delta: &[u8]) -> Result<()> {
        Self::expect_ok(self.call_retrying(&Request::ApplyDelta {
            key: key.to_vec(),
            delta: delta.to_vec(),
        })?)
    }

    /// Ordered scan from `from`, up to `limit` rows (`to = None` for
    /// unbounded above).
    ///
    /// # Errors
    ///
    /// Fails on transport errors past the retry budget or server-side
    /// engine errors.
    pub fn scan(
        &mut self,
        from: &[u8],
        to: Option<&[u8]>,
        limit: u32,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        match self.call_retrying(&Request::Scan {
            from: from.to_vec(),
            to: to.map(<[u8]>::to_vec),
            limit,
        })? {
            Response::Rows(rows) => Ok(rows),
            other => Err(unexpected(&other)),
        }
    }

    /// Engine + admission statistics.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable past the retry budget.
    pub fn stats(&mut self) -> Result<WireStats> {
        match self.call_retrying(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to verify every on-disk component and report
    /// the findings.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable past the retry budget. A
    /// *corrupt* store is not an error here — the damage comes back in
    /// the report's `errors` list.
    pub fn scrub(&mut self) -> Result<WireScrubReport> {
        match self.call_retrying(&Request::Scrub)? {
            Response::ScrubReport(r) => Ok(r),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the server to shut down gracefully. The acknowledgment
    /// arrives before the server begins stopping.
    ///
    /// # Errors
    ///
    /// Fails if the server is already unreachable.
    pub fn shutdown_server(&mut self) -> Result<()> {
        Self::expect_ok(self.call(&Request::Shutdown)?)
    }

    /// Ships one batch of WAL records (an empty one at
    /// `from_lsn = next_lsn = u64::MAX` opens a shipping session and
    /// learns the follower's cursor). Single-shot, no retry — the
    /// shipper loop owns its own retry policy, and the raw [`Response`]
    /// comes back so it can distinguish an ack from a fencing error.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or protocol violations.
    pub fn replicate(
        &mut self,
        leader_id: u64,
        epoch: u64,
        from_lsn: u64,
        next_lsn: u64,
        records: Vec<Vec<u8>>,
    ) -> Result<Response> {
        self.call(&Request::Replicate {
            leader_id,
            epoch,
            from_lsn,
            next_lsn,
            records,
        })
    }

    /// Instructs the connected server to become leader for `epoch`
    /// (single-shot, raw response — the failover driver inspects
    /// fencing errors itself).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or protocol violations.
    pub fn promote(&mut self, epoch: u64) -> Result<Response> {
        self.call(&Request::Promote { epoch })
    }
}

/// A per-client RNG seed: wall clock mixed with a process-wide counter,
/// so clients created in the same nanosecond (or across forked workers)
/// still jitter independently.
fn jitter_seed() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    // ordering: Relaxed — the counter only needs uniqueness, not to
    // synchronize any other memory.
    static NONCE: AtomicU64 = AtomicU64::new(0);
    let nonce = NONCE.fetch_add(1, Ordering::Relaxed);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    now ^ nonce.rotate_left(32) ^ (std::process::id() as u64)
}

/// Rehydrates a server-side failure into a typed [`StorageError`], so
/// `client.get(..).is_err_and(|e| e.is_corruption())` works exactly like
/// the in-process read path.
fn unexpected(resp: &Response) -> StorageError {
    match resp {
        Response::Err { kind, message } => match kind {
            ErrKind::Corruption => StorageError::corruption(
                ComponentId::Server,
                None,
                format!("server error: {message}"),
            ),
            ErrKind::Io => {
                StorageError::Io(std::io::Error::other(format!("server error: {message}")))
            }
            ErrKind::Invalid | ErrKind::Other => {
                StorageError::InvalidFormat(format!("server error: {message}"))
            }
            // Replication-control errors carry their own routing
            // semantics; at the generic client surface they are typed
            // request failures (the replication layer matches on the
            // raw `Response::Err` kind before this rehydration runs).
            ErrKind::Fenced { epoch, .. } => {
                StorageError::InvalidFormat(format!("fenced at epoch {epoch}: {message}"))
            }
            ErrKind::NotLeader => StorageError::InvalidFormat(format!("not leader: {message}")),
            ErrKind::SnapshotNeeded => {
                StorageError::InvalidFormat(format!("snapshot needed: {message}"))
            }
        },
        other => StorageError::InvalidFormat(format!("unexpected response: {other:?}")),
    }
}
