//! The length-prefixed binary wire protocol shared by server and client.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload. Payloads start with a `u64` request id (the
//! client picks it; the server echoes it back, so clients may pipeline
//! several requests per connection) and a one-byte opcode/tag. Field
//! encodings reuse [`blsm_storage::codec`] — the same explicit
//! little-endian + LEB128 conventions as every on-disk structure in the
//! workspace.
//!
//! The decoder is incremental and paranoid: a torn frame (bytes still in
//! flight) is "not yet", an oversized length prefix or a malformed
//! payload is an error, and nothing panics — the lint wall's
//! `unwrap_used = deny` applies here like everywhere else.

use blsm_storage::codec::{self, Reader};
use blsm_storage::{Result, StorageError};

use blsm::TreeStatsSnapshot;

/// Hard ceiling on a frame payload (4 MiB). Anything larger is treated
/// as protocol corruption, not a request.
pub const MAX_FRAME: usize = 4 << 20;

/// Bytes of frame header (the `u32` payload length).
pub const FRAME_HEADER: usize = 4;

/// A client-to-server command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Point lookup.
    Get { key: Vec<u8> },
    /// Blind write.
    Put { key: Vec<u8>, value: Vec<u8> },
    /// Delete (tombstone write).
    Delete { key: Vec<u8> },
    /// Ordered scan of `[from, to)` (unbounded above when `to` is
    /// `None`), up to `limit` rows.
    Scan {
        from: Vec<u8>,
        to: Option<Vec<u8>>,
        limit: u32,
    },
    /// The paper's zero-seek checked insert (§3.1.2).
    InsertIfNotExists { key: Vec<u8>, value: Vec<u8> },
    /// Merge-operator delta write.
    ApplyDelta { key: Vec<u8>, delta: Vec<u8> },
    /// Engine + admission counters.
    Stats,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Verify every on-disk component (checksums, ordering, Bloom
    /// agreement) and report the findings.
    Scrub,
    /// One batch of already-durable leader WAL records, in LSN order.
    /// `from_lsn`/`next_lsn` bracket the batch in the **leader's** log,
    /// so the follower can detect dropped or duplicated batches without
    /// trusting delivery order; `records` are raw logical WAL payloads
    /// (kind | seqno | key | value), each applied through the follower's
    /// normal write path. An empty batch is a heartbeat that still
    /// exercises the epoch fence; an empty batch at
    /// `from_lsn = next_lsn = u64::MAX` opens a shipping session — the
    /// follower adopts `epoch` if it is newer than its own and answers
    /// with the cursor it wants next, applying nothing (an ack carrying
    /// a higher epoch is how a stale leader learns it was fenced).
    Replicate {
        /// The sending leader's node id.
        leader_id: u64,
        /// The sending leader's epoch; the follower rejects anything
        /// below its own current epoch (fencing).
        epoch: u64,
        /// Leader-WAL LSN of the first record in the batch.
        from_lsn: u64,
        /// Leader-WAL LSN the next batch will start from.
        next_lsn: u64,
        /// Raw logical WAL record payloads, in LSN order.
        records: Vec<Vec<u8>>,
    },
    /// Instruct this node to become the leader for `epoch`. Sent by the
    /// failover driver after the deterministic handshake (highest
    /// `(applied_seqno, node_id)` among reachable peers wins); the node
    /// refuses epochs at or below its current one, which makes the
    /// promotion idempotent and race-safe.
    Promote {
        /// The new epoch, strictly above every epoch the driver saw.
        epoch: u64,
    },
}

impl Request {
    /// True for commands the admission controller may throttle.
    pub fn is_write(&self) -> bool {
        self.write_key().is_some()
    }

    /// The key a write command addresses — the routing input for both
    /// shard dispatch and per-shard admission. `None` for non-writes.
    pub fn write_key(&self) -> Option<&[u8]> {
        match self {
            Request::Put { key, .. }
            | Request::Delete { key }
            | Request::InsertIfNotExists { key, .. }
            | Request::ApplyDelta { key, .. } => Some(key),
            _ => None,
        }
    }

    fn opcode(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Get { .. } => 1,
            Request::Put { .. } => 2,
            Request::Delete { .. } => 3,
            Request::Scan { .. } => 4,
            Request::InsertIfNotExists { .. } => 5,
            Request::ApplyDelta { .. } => 6,
            Request::Stats => 7,
            Request::Shutdown => 8,
            Request::Scrub => 9,
            Request::Replicate { .. } => 11,
            Request::Promote { .. } => 12,
        }
    }
}

/// A node's role in the replication group, as reported over the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReplRole {
    /// Replication is not configured on this server.
    #[default]
    Standalone,
    /// Accepts client writes and ships WAL records to followers.
    Leader,
    /// Applies shipped records; rejects client writes with
    /// [`ErrKind::NotLeader`].
    Follower,
}

impl ReplRole {
    /// One-byte encoding, shared by the wire and `ReplState`'s atomic.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            ReplRole::Standalone => 0,
            ReplRole::Leader => 1,
            ReplRole::Follower => 2,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Result<ReplRole> {
        Ok(match v {
            0 => ReplRole::Standalone,
            1 => ReplRole::Leader,
            2 => ReplRole::Follower,
            other => return Err(frame_error(&format!("bad repl role {other}"))),
        })
    }
}

/// The replication block of [`WireStats`], present when the server runs
/// in a replication group. It is protocol state, not a counter: the
/// failover handshake compares its `(applied_seqno, node_id)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireReplStats {
    /// This node's id (unique within the static peer list).
    pub node_id: u64,
    /// Current role.
    pub role: ReplRole,
    /// Current epoch (0 until the group elects its first leader).
    pub epoch: u64,
    /// Highest seqno fully applied locally — the failover handshake's
    /// comparison key, and the follower read horizon.
    pub applied_seqno: u64,
    /// Leader: the smallest WAL LSN every live follower has acked.
    /// Follower: the leader-WAL LSN it expects next.
    pub acked_lsn: u64,
    /// Leader: bytes of durable WAL not yet acked by the slowest
    /// follower (replication lag). Follower: 0.
    pub lag_bytes: u64,
}

/// One shard's slice of a STATS reply, so operators can see *which* key
/// range is hot, degraded, or pacing its writers (aggregates alone hide
/// exactly the skew sharding exists to isolate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireShardStats {
    /// Shard index (routing order).
    pub shard: u32,
    /// Writes admitted to this shard without throttling.
    pub admitted: u64,
    /// Writes to this shard whose responses were delayed.
    pub delayed: u64,
    /// Writes to this shard rejected with RETRY_LATER.
    pub rejected: u64,
    /// This shard's engine counters; `None` when the shard failed to open
    /// and serves typed degraded errors while its siblings stay healthy.
    pub engine: Option<TreeStatsSnapshot>,
}

/// The reply to [`Request::Stats`]: admission counters, the engine's
/// counters for the store and for each shard, and replication state.
///
/// The engine counters travel by name: each [`TreeStatsSnapshot`] is a
/// list of `(name, value)` pairs plus its named histograms, so a counter
/// the engine adds reaches every client with no change here. A decoder
/// skips a name it does not know and reads a name it was not sent as 0.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Writes admitted without throttling.
    pub admitted: u64,
    /// Writes whose responses were delayed (paced band).
    pub delayed: u64,
    /// Writes rejected with RETRY_LATER (above the high water mark).
    pub rejected: u64,
    /// The store's engine counters, summed over its serving shards.
    pub engine: TreeStatsSnapshot,
    /// Per-shard breakdown, one entry per shard in routing order (a
    /// single-tree server reports one entry).
    pub shards: Vec<WireShardStats>,
    /// Replication state, present only when the server runs in a
    /// replication group.
    pub repl: Option<WireReplStats>,
}

/// Broad classification of a server-side failure, carried with every
/// [`Response::Err`] so clients can tell data corruption from transient
/// I/O trouble from a bad request without parsing message strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrKind {
    /// A checksum or invariant failure: the data is damaged; retrying
    /// will not help, but other keys may still be readable.
    Corruption,
    /// A device/transport failure (possibly transient).
    Io,
    /// The request itself was malformed or out of range.
    Invalid,
    /// Anything else.
    Other,
    /// A replication frame carried an epoch below the receiver's: the
    /// sender is a deposed leader and must stop shipping immediately.
    /// Carries the receiver's current epoch and last-known leader as
    /// structured fields (`leader_id == u64::MAX` when unknown), so the
    /// deposed node adopts the *true* epoch — not a locally fabricated
    /// one — and can hint redirecting clients at the real leader.
    Fenced {
        /// The receiver's current epoch.
        epoch: u64,
        /// The receiver's last-known leader (`u64::MAX` = unknown).
        leader_id: u64,
    },
    /// A client write reached a follower; the client should redirect to
    /// the current leader (named in the message when known).
    NotLeader,
    /// A follower asked to catch up from a WAL LSN the leader's ring has
    /// already truncated — log shipping cannot bridge the gap, the
    /// follower needs a full state copy.
    SnapshotNeeded,
}

impl ErrKind {
    /// Maps an engine error to its wire classification.
    pub fn classify(e: &StorageError) -> ErrKind {
        match e {
            StorageError::Corruption { .. } => ErrKind::Corruption,
            StorageError::Io(_) | StorageError::Fault { .. } => ErrKind::Io,
            StorageError::InvalidFormat(_) | StorageError::OutOfBounds { .. } => ErrKind::Invalid,
            StorageError::SnapshotNeeded { .. } => ErrKind::SnapshotNeeded,
            _ => ErrKind::Other,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ErrKind::Corruption => 0,
            ErrKind::Io => 1,
            ErrKind::Invalid => 2,
            ErrKind::Other => 3,
            ErrKind::Fenced { .. } => 4,
            ErrKind::NotLeader => 5,
            ErrKind::SnapshotNeeded => 6,
        }
    }

    /// Wire form: the kind byte, then (for `Fenced` only) the
    /// receiver's epoch and last-known leader id.
    fn encode(self, out: &mut Vec<u8>) {
        codec::put_u8(out, self.to_u8());
        if let ErrKind::Fenced { epoch, leader_id } = self {
            codec::put_u64(out, epoch);
            codec::put_u64(out, leader_id);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<ErrKind> {
        Ok(match r.u8()? {
            0 => ErrKind::Corruption,
            1 => ErrKind::Io,
            2 => ErrKind::Invalid,
            3 => ErrKind::Other,
            4 => ErrKind::Fenced {
                epoch: r.u64()?,
                leader_id: r.u64()?,
            },
            5 => ErrKind::NotLeader,
            6 => ErrKind::SnapshotNeeded,
            other => return Err(frame_error(&format!("bad error kind {other}"))),
        })
    }
}

/// SCRUB findings carried by [`Response::ScrubReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireScrubReport {
    /// On-disk components scrubbed.
    pub components: u64,
    /// Pages read back from the device and checksum-verified.
    pub pages: u64,
    /// Logical entries walked.
    pub entries: u64,
    /// Every problem found (empty ⇒ clean).
    pub errors: Vec<String>,
}

/// A server-to-client reply.
// The STATS variant dominates the enum size (WireStats holds whole
// engine snapshots, histograms included), but a Response
// is built once per request and immediately serialized — it is never
// stored in bulk, so boxing would buy nothing but an allocation on the
// stats path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Write (or ping/shutdown) acknowledged.
    Ok,
    /// GET result; `None` for an absent key.
    Value(Option<Vec<u8>>),
    /// SCAN result rows, in key order.
    Rows(Vec<(Vec<u8>, Vec<u8>)>),
    /// INSERT_IF_NOT_EXISTS outcome; false if the key already existed.
    Inserted(bool),
    /// STATS reply.
    Stats(WireStats),
    /// Write rejected above the high water mark; retry after the hint.
    RetryLater {
        /// Server's backoff hint, milliseconds.
        backoff_ms: u32,
    },
    /// Request failed server-side. `kind` classifies the failure;
    /// `message` is human-readable detail.
    Err {
        /// Failure classification.
        kind: ErrKind,
        /// Human-readable detail.
        message: String,
    },
    /// SCRUB findings.
    ScrubReport(WireScrubReport),
    /// Follower's answer to every [`Request::Replicate`] (the opening
    /// one included) and to [`Request::Promote`]. `epoch`
    /// is the follower's *current* epoch — a leader seeing one above its
    /// own has been fenced; `next_lsn` names the leader-WAL LSN the
    /// follower wants next (on a batch mismatch it repeats the expected
    /// LSN so the leader rewinds instead of skipping).
    ReplAck {
        /// The responder's current epoch.
        epoch: u64,
        /// Highest seqno the responder has fully applied.
        applied_seqno: u64,
        /// Leader-WAL LSN the responder expects the next batch to start
        /// from.
        next_lsn: u64,
    },
}

impl Response {
    fn tag(&self) -> u8 {
        match self {
            Response::Ok => 0,
            Response::Value(_) => 1,
            Response::Rows(_) => 2,
            Response::Inserted(_) => 3,
            Response::Stats(_) => 4,
            Response::RetryLater { .. } => 5,
            Response::Err { .. } => 6,
            Response::ScrubReport(_) => 7,
            Response::ReplAck { .. } => 8,
        }
    }
}

fn frame_error(what: &str) -> StorageError {
    StorageError::InvalidFormat(format!("wire protocol: {what}"))
}

/// Wraps `payload` in a frame (length prefix + payload), appended to
/// `out`.
///
/// # Errors
///
/// Fails if `payload` exceeds [`MAX_FRAME`].
fn put_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(frame_error("outgoing frame exceeds MAX_FRAME"));
    }
    codec::put_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    Ok(())
}

/// Encodes one request frame (header included) onto `out`.
///
/// # Errors
///
/// Fails only if the encoded payload would exceed [`MAX_FRAME`]
/// (oversized key/value).
pub fn encode_request(out: &mut Vec<u8>, id: u64, req: &Request) -> Result<()> {
    let mut payload = Vec::with_capacity(64);
    codec::put_u64(&mut payload, id);
    codec::put_u8(&mut payload, req.opcode());
    match req {
        Request::Ping | Request::Stats | Request::Shutdown | Request::Scrub => {}
        Request::Get { key } | Request::Delete { key } => {
            codec::put_bytes(&mut payload, key);
        }
        Request::Put { key, value } | Request::InsertIfNotExists { key, value } => {
            codec::put_bytes(&mut payload, key);
            codec::put_bytes(&mut payload, value);
        }
        Request::ApplyDelta { key, delta } => {
            codec::put_bytes(&mut payload, key);
            codec::put_bytes(&mut payload, delta);
        }
        Request::Scan { from, to, limit } => {
            codec::put_bytes(&mut payload, from);
            match to {
                Some(to) => {
                    codec::put_u8(&mut payload, 1);
                    codec::put_bytes(&mut payload, to);
                }
                None => codec::put_u8(&mut payload, 0),
            }
            codec::put_u32(&mut payload, *limit);
        }
        Request::Replicate {
            leader_id,
            epoch,
            from_lsn,
            next_lsn,
            records,
        } => {
            codec::put_u64(&mut payload, *leader_id);
            codec::put_u64(&mut payload, *epoch);
            codec::put_u64(&mut payload, *from_lsn);
            codec::put_u64(&mut payload, *next_lsn);
            codec::put_varint(&mut payload, records.len() as u64);
            for rec in records {
                codec::put_bytes(&mut payload, rec);
            }
        }
        Request::Promote { epoch } => {
            codec::put_u64(&mut payload, *epoch);
        }
    }
    put_frame(out, &payload)
}

/// Decodes a request frame payload (header already stripped).
///
/// # Errors
///
/// Fails with [`StorageError::InvalidFormat`] on unknown opcodes,
/// truncated fields, or trailing garbage.
pub fn decode_request(payload: &[u8]) -> Result<(u64, Request)> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let opcode = r.u8()?;
    let req = match opcode {
        0 => Request::Ping,
        1 => Request::Get {
            key: r.bytes()?.to_vec(),
        },
        2 => Request::Put {
            key: r.bytes()?.to_vec(),
            value: r.bytes()?.to_vec(),
        },
        3 => Request::Delete {
            key: r.bytes()?.to_vec(),
        },
        4 => {
            let from = r.bytes()?.to_vec();
            let to = match r.u8()? {
                0 => None,
                1 => Some(r.bytes()?.to_vec()),
                other => return Err(frame_error(&format!("bad scan bound marker {other}"))),
            };
            Request::Scan {
                from,
                to,
                limit: r.u32()?,
            }
        }
        5 => Request::InsertIfNotExists {
            key: r.bytes()?.to_vec(),
            value: r.bytes()?.to_vec(),
        },
        6 => Request::ApplyDelta {
            key: r.bytes()?.to_vec(),
            delta: r.bytes()?.to_vec(),
        },
        7 => Request::Stats,
        8 => Request::Shutdown,
        9 => Request::Scrub,
        11 => {
            let leader_id = r.u64()?;
            let epoch = r.u64()?;
            let from_lsn = r.u64()?;
            let next_lsn = r.u64()?;
            let n = r.varint()? as usize;
            // Bound the pre-allocation by what the payload could hold.
            let mut records = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                records.push(r.bytes()?.to_vec());
            }
            Request::Replicate {
                leader_id,
                epoch,
                from_lsn,
                next_lsn,
                records,
            }
        }
        12 => Request::Promote { epoch: r.u64()? },
        other => return Err(frame_error(&format!("unknown opcode {other}"))),
    };
    if r.remaining() != 0 {
        return Err(frame_error("trailing bytes after request"));
    }
    Ok((id, req))
}

/// Writes `snap` as its `(name, value)` pairs, then its named histograms.
fn put_snapshot(out: &mut Vec<u8>, snap: &TreeStatsSnapshot) {
    codec::put_varint(out, snap.named().count() as u64);
    for (name, value) in snap.named() {
        codec::put_bytes(out, name.as_bytes());
        codec::put_varint(out, value);
    }
    let histograms = snap.histograms();
    codec::put_varint(out, histograms.len() as u64);
    for (name, buckets) in histograms {
        codec::put_bytes(out, name.as_bytes());
        codec::put_varint(out, buckets.len() as u64);
        for n in buckets {
            codec::put_varint(out, n);
        }
    }
}

/// Reads what [`put_snapshot`] wrote. A name this build does not know (a
/// newer server's counter) or a bucket past the end is skipped; anything
/// not sent reads 0.
fn read_snapshot(r: &mut Reader<'_>) -> Result<TreeStatsSnapshot> {
    let mut snap = TreeStatsSnapshot::default();
    for _ in 0..r.varint()? {
        let name = String::from_utf8_lossy(r.bytes()?);
        snap.set_named(&name, r.varint()?);
    }
    for _ in 0..r.varint()? {
        let name = String::from_utf8_lossy(r.bytes()?);
        let mut histograms = snap.histograms_mut();
        let mut buckets = histograms
            .iter_mut()
            .find(|(known, _)| *known == name)
            .map(|(_, buckets)| buckets.iter_mut());
        for _ in 0..r.varint()? {
            let n = r.varint()?;
            if let Some(bucket) = buckets.as_mut().and_then(Iterator::next) {
                *bucket = n;
            }
        }
    }
    Ok(snap)
}

/// Encodes one response frame (header included) onto `out`.
///
/// # Errors
///
/// Fails only if the encoded payload would exceed [`MAX_FRAME`]
/// (e.g. a scan reply larger than the frame ceiling).
pub fn encode_response(out: &mut Vec<u8>, id: u64, resp: &Response) -> Result<()> {
    let mut payload = Vec::with_capacity(64);
    codec::put_u64(&mut payload, id);
    codec::put_u8(&mut payload, resp.tag());
    match resp {
        Response::Ok => {}
        Response::Value(v) => match v {
            Some(v) => {
                codec::put_u8(&mut payload, 1);
                codec::put_bytes(&mut payload, v);
            }
            None => codec::put_u8(&mut payload, 0),
        },
        Response::Rows(rows) => {
            codec::put_varint(&mut payload, rows.len() as u64);
            for (k, v) in rows {
                codec::put_bytes(&mut payload, k);
                codec::put_bytes(&mut payload, v);
            }
        }
        Response::Inserted(inserted) => codec::put_u8(&mut payload, u8::from(*inserted)),
        Response::Stats(s) => {
            codec::put_u64(&mut payload, s.admitted);
            codec::put_u64(&mut payload, s.delayed);
            codec::put_u64(&mut payload, s.rejected);
            put_snapshot(&mut payload, &s.engine);
            codec::put_varint(&mut payload, s.shards.len() as u64);
            for sh in &s.shards {
                codec::put_u32(&mut payload, sh.shard);
                codec::put_u64(&mut payload, sh.admitted);
                codec::put_u64(&mut payload, sh.delayed);
                codec::put_u64(&mut payload, sh.rejected);
                match &sh.engine {
                    Some(engine) => {
                        codec::put_u8(&mut payload, 1);
                        put_snapshot(&mut payload, engine);
                    }
                    None => codec::put_u8(&mut payload, 0),
                }
            }
            match &s.repl {
                Some(repl) => {
                    codec::put_u8(&mut payload, 1);
                    codec::put_u8(&mut payload, repl.role.to_u8());
                    codec::put_u64(&mut payload, repl.node_id);
                    codec::put_u64(&mut payload, repl.epoch);
                    codec::put_u64(&mut payload, repl.applied_seqno);
                    codec::put_u64(&mut payload, repl.acked_lsn);
                    codec::put_u64(&mut payload, repl.lag_bytes);
                }
                None => codec::put_u8(&mut payload, 0),
            }
        }
        Response::RetryLater { backoff_ms } => codec::put_u32(&mut payload, *backoff_ms),
        Response::Err { kind, message } => {
            kind.encode(&mut payload);
            codec::put_bytes(&mut payload, message.as_bytes());
        }
        Response::ScrubReport(report) => {
            codec::put_u64(&mut payload, report.components);
            codec::put_u64(&mut payload, report.pages);
            codec::put_u64(&mut payload, report.entries);
            codec::put_varint(&mut payload, report.errors.len() as u64);
            for e in &report.errors {
                codec::put_bytes(&mut payload, e.as_bytes());
            }
        }
        Response::ReplAck {
            epoch,
            applied_seqno,
            next_lsn,
        } => {
            codec::put_u64(&mut payload, *epoch);
            codec::put_u64(&mut payload, *applied_seqno);
            codec::put_u64(&mut payload, *next_lsn);
        }
    }
    put_frame(out, &payload)
}

/// Decodes a response frame payload (header already stripped).
///
/// # Errors
///
/// Fails with [`StorageError::InvalidFormat`] on unknown tags, truncated
/// fields, or trailing garbage.
pub fn decode_response(payload: &[u8]) -> Result<(u64, Response)> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let tag = r.u8()?;
    let resp = match tag {
        0 => Response::Ok,
        1 => match r.u8()? {
            0 => Response::Value(None),
            1 => Response::Value(Some(r.bytes()?.to_vec())),
            other => return Err(frame_error(&format!("bad value marker {other}"))),
        },
        2 => {
            let n = r.varint()? as usize;
            // Bound the pre-allocation by what the payload could hold.
            let mut rows = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let k = r.bytes()?.to_vec();
                let v = r.bytes()?.to_vec();
                rows.push((k, v));
            }
            Response::Rows(rows)
        }
        3 => Response::Inserted(r.u8()? != 0),
        4 => {
            let mut stats = WireStats {
                admitted: r.u64()?,
                delayed: r.u64()?,
                rejected: r.u64()?,
                engine: read_snapshot(&mut r)?,
                ..WireStats::default()
            };
            let n = r.varint()? as usize;
            stats.shards.reserve(n.min(1024));
            for _ in 0..n {
                stats.shards.push(WireShardStats {
                    shard: r.u32()?,
                    admitted: r.u64()?,
                    delayed: r.u64()?,
                    rejected: r.u64()?,
                    engine: if r.u8()? != 0 {
                        Some(read_snapshot(&mut r)?)
                    } else {
                        None
                    },
                });
            }
            if r.u8()? != 0 {
                stats.repl = Some(WireReplStats {
                    role: ReplRole::from_u8(r.u8()?)?,
                    node_id: r.u64()?,
                    epoch: r.u64()?,
                    applied_seqno: r.u64()?,
                    acked_lsn: r.u64()?,
                    lag_bytes: r.u64()?,
                });
            }
            Response::Stats(stats)
        }
        5 => Response::RetryLater {
            backoff_ms: r.u32()?,
        },
        6 => Response::Err {
            kind: ErrKind::decode(&mut r)?,
            message: String::from_utf8_lossy(r.bytes()?).into_owned(),
        },
        8 => Response::ReplAck {
            epoch: r.u64()?,
            applied_seqno: r.u64()?,
            next_lsn: r.u64()?,
        },
        7 => {
            let components = r.u64()?;
            let pages = r.u64()?;
            let entries = r.u64()?;
            let n = r.varint()? as usize;
            let mut errors = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                errors.push(String::from_utf8_lossy(r.bytes()?).into_owned());
            }
            Response::ScrubReport(WireScrubReport {
                components,
                pages,
                entries,
                errors,
            })
        }
        other => return Err(frame_error(&format!("unknown response tag {other}"))),
    };
    if r.remaining() != 0 {
        return Err(frame_error("trailing bytes after response"));
    }
    Ok((id, resp))
}

/// Incremental frame reassembler.
///
/// Feed it raw socket bytes in whatever chunks arrive; pull complete
/// frame payloads out with [`FrameDecoder::next_frame`]. A torn frame
/// returns `Ok(None)` (wait for more bytes); a length prefix above the
/// configured ceiling is an error — the connection should be dropped,
/// since the stream can no longer be trusted to be framed at all.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Bytes already consumed from the front of `buf`; compacted lazily
    /// so every `next_frame` is O(frame), not O(buffer).
    start: usize,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder with the standard [`MAX_FRAME`] ceiling.
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_max(MAX_FRAME)
    }

    /// A decoder with a custom frame ceiling (tests use small ones).
    pub fn with_max(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends raw bytes from the wire.
    pub fn feed(&mut self, data: &[u8]) {
        // Compact once consumed bytes dominate, amortizing the copy.
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Extracts the next complete frame payload, if one has fully
    /// arrived.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if the length prefix
    /// exceeds the ceiling — the stream is unframable garbage and the
    /// connection must be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let avail = &self.buf[self.start..];
        if avail.len() < FRAME_HEADER {
            return Ok(None);
        }
        let len = codec::le_u32(&avail[..FRAME_HEADER]) as usize;
        if len > self.max_frame {
            return Err(frame_error(&format!(
                "frame length {len} exceeds ceiling {}",
                self.max_frame
            )));
        }
        if avail.len() < FRAME_HEADER + len {
            return Ok(None);
        }
        let payload = avail[FRAME_HEADER..FRAME_HEADER + len].to_vec();
        self.start += FRAME_HEADER + len;
        Ok(Some(payload))
    }

    /// Classifies an EOF observed *now*: a peer that closed on a frame
    /// boundary disconnected cleanly, while buffered bytes mean the
    /// stream died mid-frame — which after a fenced leader is cut off,
    /// or under fault injection, is evidence worth logging rather than
    /// an event indistinguishable from a polite hangup.
    pub fn close_reason_at_eof(&self) -> CloseReason {
        if self.pending() == 0 {
            CloseReason::CleanEof
        } else {
            CloseReason::TornFrame {
                pending: self.pending(),
            }
        }
    }
}

/// Why a connection's read loop stopped — the typed
/// disconnect-vs-corrupt distinction the server logs instead of
/// treating every exit as an anonymous EOF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed on a frame boundary: an ordinary disconnect.
    CleanEof,
    /// The peer vanished mid-frame, leaving `pending` undelivered bytes
    /// buffered — a torn frame (killed peer, cut partition, or a fenced
    /// old-epoch leader whose stream was severed).
    TornFrame {
        /// Bytes of the unfinished frame that had arrived.
        pending: usize,
    },
    /// The stream stopped being parseable as frames (oversized length
    /// prefix or malformed payload): protocol corruption, not EOF.
    Corrupt {
        /// The decode error's detail.
        detail: String,
    },
}

impl std::fmt::Display for CloseReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CloseReason::CleanEof => write!(f, "clean eof"),
            CloseReason::TornFrame { pending } => {
                write!(
                    f,
                    "torn frame: peer vanished with {pending} byte(s) of an unfinished frame"
                )
            }
            CloseReason::Corrupt { detail } => write!(f, "corrupt stream: {detail}"),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use blsm::BackpressureLevel;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        encode_request(&mut wire, 42, &req).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let payload = dec.next_frame().unwrap().unwrap();
        let (id, back) = decode_request(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(back, req);
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Get { key: b"k".to_vec() });
        roundtrip_request(Request::Put {
            key: b"k".to_vec(),
            value: vec![0xAB; 300],
        });
        roundtrip_request(Request::Delete { key: Vec::new() });
        roundtrip_request(Request::Scan {
            from: b"a".to_vec(),
            to: Some(b"z".to_vec()),
            limit: 17,
        });
        roundtrip_request(Request::Scan {
            from: Vec::new(),
            to: None,
            limit: 0,
        });
        roundtrip_request(Request::InsertIfNotExists {
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        });
        roundtrip_request(Request::ApplyDelta {
            key: b"k".to_vec(),
            delta: b"+1".to_vec(),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Scrub);
        roundtrip_request(Request::Replicate {
            leader_id: 3,
            epoch: 12,
            from_lsn: 4096,
            next_lsn: 4200,
            records: vec![vec![0u8, 1, 2, 3], Vec::new(), vec![0xFF; 64]],
        });
        roundtrip_request(Request::Replicate {
            leader_id: 1,
            epoch: 1,
            from_lsn: 0,
            next_lsn: 0,
            records: Vec::new(),
        });
        roundtrip_request(Request::Promote { epoch: 7 });
    }

    #[test]
    fn repl_requests_are_not_client_writes() {
        // Replication frames bypass per-key admission: they carry no
        // routing key and must not look like throttleable writes.
        for req in [
            Request::Replicate {
                leader_id: 1,
                epoch: 1,
                from_lsn: 0,
                next_lsn: 16,
                records: vec![vec![1, 2, 3]],
            },
            Request::Promote { epoch: 2 },
        ] {
            assert!(!req.is_write());
            assert!(req.write_key().is_none());
        }
    }

    #[test]
    fn response_roundtrips() {
        for resp in [
            Response::Ok,
            Response::Value(None),
            Response::Value(Some(vec![7; 99])),
            Response::Rows(vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"b".to_vec(), vec![]),
            ]),
            Response::Inserted(true),
            Response::Inserted(false),
            Response::Stats(WireStats {
                admitted: 6,
                delayed: 7,
                rejected: 8,
                engine: TreeStatsSnapshot {
                    gets: 1,
                    writes: 2,
                    merge_errors: 3,
                    backpressure: BackpressureLevel::Paced(512),
                    group_size_hist: [1, 2, 3, 4, 5, 6, 7, 8],
                    ..TreeStatsSnapshot::default()
                },
                shards: vec![
                    WireShardStats {
                        shard: 0,
                        admitted: 90,
                        delayed: 7,
                        rejected: 3,
                        engine: Some(TreeStatsSnapshot {
                            writes: 100,
                            forced_stalls: 4,
                            backpressure: BackpressureLevel::Saturated,
                            ..TreeStatsSnapshot::default()
                        }),
                    },
                    WireShardStats {
                        shard: 1,
                        ..WireShardStats::default()
                    },
                ],
                repl: Some(WireReplStats {
                    node_id: 1,
                    role: ReplRole::Leader,
                    epoch: 3,
                    applied_seqno: 42,
                    acked_lsn: 4096,
                    lag_bytes: 128,
                }),
            }),
            Response::RetryLater { backoff_ms: 250 },
            Response::Err {
                kind: ErrKind::Corruption,
                message: "boom".into(),
            },
            Response::Err {
                kind: ErrKind::Other,
                message: String::new(),
            },
            Response::ScrubReport(WireScrubReport::default()),
            Response::ScrubReport(WireScrubReport {
                components: 3,
                pages: 100,
                entries: 5000,
                errors: vec!["C1: page p7 bad".into(), "C2: footer".into()],
            }),
            Response::ReplAck {
                epoch: 9,
                applied_seqno: 12345,
                next_lsn: 1 << 40,
            },
            Response::Err {
                kind: ErrKind::Fenced {
                    epoch: 5,
                    leader_id: 2,
                },
                message: "epoch 3 < 5".into(),
            },
            Response::Err {
                kind: ErrKind::Fenced {
                    epoch: 1,
                    leader_id: u64::MAX,
                },
                message: "fenced, no leader known".into(),
            },
            Response::Err {
                kind: ErrKind::NotLeader,
                message: "leader is node 2".into(),
            },
            Response::Err {
                kind: ErrKind::SnapshotNeeded,
                message: "lsn 0 predates head 4096".into(),
            },
            Response::Stats(WireStats {
                repl: Some(WireReplStats {
                    node_id: 2,
                    role: ReplRole::Follower,
                    epoch: 4,
                    applied_seqno: 99,
                    acked_lsn: 8192,
                    lag_bytes: 0,
                }),
                ..WireStats::default()
            }),
        ] {
            let mut wire = Vec::new();
            encode_response(&mut wire, 7, &resp).unwrap();
            let (id, back) = decode_response(&wire[FRAME_HEADER..]).unwrap();
            assert_eq!(id, 7);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn torn_frames_wait_byte_by_byte() {
        let mut wire = Vec::new();
        encode_request(
            &mut wire,
            9,
            &Request::Put {
                key: b"key".to_vec(),
                value: b"value".to_vec(),
            },
        )
        .unwrap();
        let mut dec = FrameDecoder::new();
        for (i, b) in wire.iter().enumerate() {
            dec.feed(&[*b]);
            let got = dec.next_frame().unwrap();
            if i + 1 < wire.len() {
                assert!(got.is_none(), "frame complete early at byte {i}");
            } else {
                let (_, req) = decode_request(&got.unwrap()).unwrap();
                assert!(matches!(req, Request::Put { .. }));
            }
        }
    }

    #[test]
    fn oversized_frame_is_an_error() {
        let mut dec = FrameDecoder::with_max(16);
        let mut wire = Vec::new();
        codec::put_u32(&mut wire, 17);
        dec.feed(&wire);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn garbage_payload_is_an_error_not_a_panic() {
        // A well-formed frame whose payload is noise: decode must error.
        let payload = vec![0xFFu8; 32];
        let mut wire = Vec::new();
        codec::put_u32(&mut wire, payload.len() as u32);
        wire.extend_from_slice(&payload);
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let frame = dec.next_frame().unwrap().unwrap();
        assert!(decode_request(&frame).is_err());
        assert!(decode_response(&frame).is_err());
    }

    #[test]
    fn stats_decode_by_name_skips_the_unknown_and_zeroes_the_missing() {
        // A STATS payload from a server whose engine has one counter this
        // build does not know and lacks every other one but `gets`.
        let mut payload = Vec::new();
        codec::put_u64(&mut payload, 1);
        codec::put_u8(&mut payload, 4);
        for admission in [10, 20, 30] {
            codec::put_u64(&mut payload, admission);
        }
        codec::put_varint(&mut payload, 2);
        codec::put_bytes(&mut payload, b"core.future.counter");
        codec::put_varint(&mut payload, 99);
        let value_at = payload.len() + 1 + b"core.read.gets".len();
        codec::put_bytes(&mut payload, b"core.read.gets");
        codec::put_varint(&mut payload, 5);
        codec::put_varint(&mut payload, 0); // no histograms
        codec::put_varint(&mut payload, 0); // no shards
        codec::put_u8(&mut payload, 0); // no replication
        let (_, back) = decode_response(&payload).unwrap();
        let want = WireStats {
            admitted: 10,
            delayed: 20,
            rejected: 30,
            engine: TreeStatsSnapshot {
                gets: 5,
                ..TreeStatsSnapshot::default()
            },
            ..WireStats::default()
        };
        assert_eq!(back, Response::Stats(want));

        // A pair cut after its name, or inside it, is a typed error.
        for cut in [value_at, value_at - 3] {
            let err = decode_response(&payload[..cut]).unwrap_err();
            assert!(matches!(err, StorageError::InvalidFormat(_)), "{err:?}");
        }
    }

    #[test]
    fn close_reason_tells_clean_eof_from_torn_frame() {
        let mut wire = Vec::new();
        encode_request(&mut wire, 1, &Request::Ping).unwrap();

        // All frames consumed: EOF here is a polite disconnect.
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(dec.next_frame().unwrap().is_some());
        assert_eq!(dec.close_reason_at_eof(), CloseReason::CleanEof);

        // The peer died mid-frame: EOF leaves buffered torn bytes, and
        // the reason says how many.
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..wire.len() - 3]);
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(
            dec.close_reason_at_eof(),
            CloseReason::TornFrame {
                pending: wire.len() - 3
            }
        );
        let msg = dec.close_reason_at_eof().to_string();
        assert!(msg.contains("torn frame"), "{msg}");
    }

    #[test]
    fn pipelined_frames_come_out_in_order() {
        let mut wire = Vec::new();
        for id in 0..10u64 {
            encode_request(&mut wire, id, &Request::Ping).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        for id in 0..10u64 {
            let payload = dec.next_frame().unwrap().unwrap();
            let (got, _) = decode_request(&payload).unwrap();
            assert_eq!(got, id);
        }
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.pending(), 0);
    }
}
