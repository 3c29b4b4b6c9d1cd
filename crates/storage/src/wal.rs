//! Logical write-ahead log.
//!
//! §4.4.2: bLSM uses "a second, logical, log to provide durability for
//! individual writes". The log is replayed into `C0` at startup and is
//! truncated once a `C0:C1` merge has made its contents durable in `C1`.
//! The paper also notes a *degraded durability* mode in which updates are
//! not logged at all and only a well-defined prefix survives a crash; the
//! engine layer implements that by simply skipping `append`.
//!
//! Physically the log is a ring over a dedicated device (the paper expects
//! logs on dedicated hardware: "filers with NVRAM, RAID controllers with
//! battery backups, enterprise SSDs with supercapacitors", §5.1). LSNs are
//! logical, monotonically increasing byte positions; the physical offset is
//! `lsn % capacity`. Because `C0` is bounded, the live portion of the log is
//! bounded and the ring never overtakes itself as long as the engine
//! checkpoints (truncates) after each memtable merge.
//!
//! Frame format: `crc32c(4) | len(4) | lsn(8) | payload`. The LSN inside the
//! frame (covered by the CRC) makes replay self-terminating: a stale frame
//! left over from a previous lap of the ring carries an older LSN and is
//! rejected.

use crate::codec::Crc32c;
use crate::device::SharedDevice;
use crate::error::{Result, StorageError};

/// Logical log sequence number: a monotonically increasing byte position.
pub type Lsn = u64;

/// Bytes of framing per record.
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 8;

/// A record recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// LSN at which the record's frame starts.
    pub lsn: Lsn,
    /// The payload handed to [`Wal::append`].
    pub payload: Vec<u8>,
}

/// Append-only logical log over a dedicated device.
pub struct Wal {
    device: SharedDevice,
    capacity: u64,
    head: Lsn,
    tail: Lsn,
    /// LSN up to which bytes have been handed to the device.
    flushed: Lsn,
    /// LSN up to which bytes are known stable (device sync'd).
    synced: Lsn,
    /// Appends not yet written to the device: (start_lsn, frame bytes).
    pending: Vec<u8>,
    pending_start: Lsn,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("capacity", &self.capacity)
            .field("head", &self.head)
            .field("tail", &self.tail)
            .field("flushed", &self.flushed)
            .field("synced", &self.synced)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Creates a log on `device` with the given ring capacity. `head` is the
    /// truncation point recovered from the manifest (0 for a fresh log);
    /// `tail` must be the value returned by [`replay`] (equal to `head` for
    /// a fresh log).
    pub fn new(device: SharedDevice, capacity: u64, head: Lsn, tail: Lsn) -> Wal {
        assert!(
            capacity > FRAME_HEADER_LEN as u64 * 2,
            "wal capacity too small"
        );
        assert!(head <= tail);
        Wal {
            device,
            capacity,
            head,
            tail,
            flushed: tail,
            synced: tail,
            pending: Vec::new(),
            pending_start: tail,
        }
    }

    /// Ring capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Oldest live LSN.
    pub fn head_lsn(&self) -> Lsn {
        self.head
    }

    /// Next LSN to be assigned.
    pub fn tail_lsn(&self) -> Lsn {
        self.tail
    }

    /// Bytes between head and tail — what replay would have to read.
    pub fn live_bytes(&self) -> u64 {
        self.tail - self.head
    }

    /// Appends a record, returning its LSN. The record is buffered; call
    /// [`flush`](Self::flush) or [`sync`](Self::sync) to make it durable.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::OutOfSpace`] when the record would
    /// overrun the ring capacity (the caller must advance the head by
    /// completing a merge before retrying).
    pub fn append(&mut self, payload: &[u8]) -> Result<Lsn> {
        let frame_len = FRAME_HEADER_LEN as u64 + payload.len() as u64;
        if self.live_bytes() + frame_len > self.capacity {
            return Err(StorageError::OutOfSpace {
                requested_pages: frame_len.div_ceil(crate::page::PAGE_SIZE as u64),
            });
        }
        let lsn = self.tail;
        // CRC covers len | lsn | payload, computed incrementally over the
        // parts: no temporary concatenation per record.
        let len_le = (payload.len() as u32).to_le_bytes();
        let lsn_le = lsn.to_le_bytes();
        let mut crc = Crc32c::new();
        crc.update(&len_le);
        crc.update(&lsn_le);
        crc.update(payload);
        self.pending.reserve(FRAME_HEADER_LEN + payload.len());
        self.pending.extend_from_slice(&crc.finish().to_le_bytes());
        self.pending.extend_from_slice(&len_le);
        self.pending.extend_from_slice(&lsn_le);
        self.pending.extend_from_slice(payload);
        self.tail += frame_len;
        Ok(lsn)
    }

    /// Writes buffered records to the device (no device sync). With the
    /// paper's §5.1 configuration ("none of the systems sync their logs at
    /// commit") this is all that runs on the commit path.
    ///
    /// # Errors
    ///
    /// Fails if the device write fails; buffered records stay pending, so
    /// the next flush rewrites them at their own LSNs.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.write_ring(self.pending_start, &self.pending)?;
        self.pending.clear();
        self.flushed = self.tail;
        self.pending_start = self.tail;
        Ok(())
    }

    /// [`append`](Self::append) then [`flush`](Self::flush), all or
    /// nothing: if the flush fails the record is taken back out (frames
    /// appended before it stay pending), so a write reported failed
    /// leaves nothing a later flush could resurrect.
    ///
    /// # Errors
    ///
    /// As `append` and `flush`.
    pub fn append_flush(&mut self, payload: &[u8]) -> Result<Lsn> {
        let (pending, tail) = (self.pending.len(), self.tail);
        let lsn = self.append(payload)?;
        if let Err(e) = self.flush() {
            self.pending.truncate(pending);
            self.tail = tail;
            return Err(e);
        }
        Ok(lsn)
    }

    /// Flushes and then forces the device.
    ///
    /// # Errors
    ///
    /// Fails if the flush or the device sync fails.
    pub fn sync(&mut self) -> Result<()> {
        self.flush()?;
        self.device.sync()?;
        self.synced = self.flushed;
        Ok(())
    }

    /// A clone of the log's device handle, for a group committer that
    /// forces the device *outside* the WAL lock: the committer flushes
    /// under the lock, captures [`flushed_lsn`](Self::flushed_lsn) and
    /// this handle, releases the lock, calls `device.sync()`, then
    /// retakes the lock and records the barrier with
    /// [`mark_synced`](Self::mark_synced). Appends that land during the
    /// unlocked sync only buffer into `pending` — they touch no device
    /// state — so the sync covers exactly the flushed prefix.
    pub fn device(&self) -> SharedDevice {
        self.device.clone()
    }

    /// Records that the device has been forced through `lsn` (a value of
    /// [`flushed_lsn`](Self::flushed_lsn) captured before the sync).
    /// Monotone: a late-arriving older barrier never regresses `synced`.
    pub fn mark_synced(&mut self, lsn: Lsn) {
        assert!(
            lsn <= self.flushed,
            "mark_synced({lsn}) past flushed tail {}",
            self.flushed
        );
        self.synced = self.synced.max(lsn);
    }

    /// LSN below which every record is flushed to the device.
    pub fn flushed_lsn(&self) -> Lsn {
        self.flushed
    }

    /// LSN below which every record is known stable.
    pub fn synced_lsn(&self) -> Lsn {
        self.synced
    }

    /// Advances the truncation point. The caller persists `new_head` in the
    /// manifest; space behind it is logically reclaimed.
    pub fn truncate(&mut self, new_head: Lsn) {
        assert!(
            new_head >= self.head && new_head <= self.tail,
            "bad truncate point"
        );
        self.head = new_head;
    }

    /// Reads already-durable records from `start_lsn` (inclusive) up to
    /// `min(horizon, flushed)`, for replication catch-up, and returns
    /// them with the LSN the next read resumes from. Only flushed bytes
    /// are visible — a record still sitting in the append buffer is not
    /// yet durable and must not be shipped to a follower; under group
    /// commit the caller passes the last synced group boundary as the
    /// horizon. The read stops before the record that would take the
    /// payload total past `budget`, but always returns at least one
    /// record when any is readable.
    ///
    /// # Errors
    ///
    /// - [`StorageError::SnapshotNeeded`] when `start_lsn` predates the
    ///   ring's truncation point: the requested history is gone and the
    ///   caller must bootstrap from a snapshot, not the log.
    /// - [`StorageError::InvalidFormat`] when `start_lsn` lies past the
    ///   (clamped) horizon (a reader asking for the future — e.g. a
    ///   fenced stale leader whose view of this log is wrong).
    /// - [`StorageError::Corruption`] when a frame between `start_lsn`
    ///   and the flushed tail fails validation: everything below the
    ///   flushed LSN must be intact, so an invalid frame there is real
    ///   damage, not a clean end.
    pub fn records_up_to(
        &self,
        start_lsn: Lsn,
        horizon: Lsn,
        budget: usize,
    ) -> Result<(Vec<WalRecord>, Lsn)> {
        let horizon = horizon.min(self.flushed);
        if start_lsn < self.head {
            return Err(StorageError::SnapshotNeeded {
                requested_lsn: start_lsn,
                head_lsn: self.head,
            });
        }
        if start_lsn > horizon {
            return Err(StorageError::InvalidFormat(format!(
                "wal catch-up from lsn {start_lsn} past readable horizon {horizon}"
            )));
        }
        let mut records = Vec::new();
        let mut lsn = start_lsn;
        let mut bytes = 0usize;
        while lsn < horizon {
            match read_frame(&self.device, self.capacity, lsn) {
                FrameOutcome::Record(rec) => {
                    bytes += rec.payload.len();
                    if bytes > budget && !records.is_empty() {
                        break;
                    }
                    lsn += FRAME_HEADER_LEN as u64 + rec.payload.len() as u64;
                    records.push(rec);
                }
                FrameOutcome::End(end) => {
                    return Err(StorageError::corruption(
                        crate::error::ComponentId::Wal,
                        Some(lsn % self.capacity),
                        format!(
                            "invalid frame ({:?}) at lsn {lsn} below the flushed \
                             tail {} during catch-up read",
                            end.tail_state, self.flushed
                        ),
                    ));
                }
            }
        }
        Ok((records, lsn))
    }

    fn write_ring(&self, lsn: Lsn, bytes: &[u8]) -> Result<()> {
        let mut off = lsn % self.capacity;
        let mut rest = bytes;
        while !rest.is_empty() {
            let room = (self.capacity - off) as usize;
            let n = room.min(rest.len());
            self.device.write_at(off, &rest[..n])?;
            rest = &rest[n..];
            off = 0;
        }
        Ok(())
    }
}

/// What replay found at the position where it stopped. Used to distinguish
/// a log that ended cleanly from one whose tail was cut by a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WalTailState {
    /// The frame header was all zeroes or unreadable: the log simply ends.
    #[default]
    CleanEnd,
    /// An intact frame from a previous lap of the ring starts here — the
    /// normal stopping condition for a wrapped log; nothing was lost.
    StaleLap,
    /// A frame whose header claims this LSN but whose checksum fails: a
    /// write to the current lap was torn by a crash.
    TornFrame,
    /// Nonzero bytes that are not a recognizable frame on the first lap of
    /// the ring: an interrupted write left partial header bytes behind.
    Garbage,
}

/// Where and how a replay stopped: what [`replay_each`] returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalReplayEnd {
    /// LSN at which replay stopped; new appends resume here.
    pub tail: Lsn,
    /// What was found at the stop position.
    pub tail_state: WalTailState,
    /// Estimated bytes of a partially-written frame discarded at the tail
    /// (zero unless `tail_state` is `TornFrame` or `Garbage`).
    pub torn_tail_bytes: u64,
}

/// Result of [`replay_report`]: the recovered records plus diagnostics
/// about how the log ended.
#[derive(Debug, Clone, Default)]
pub struct WalReplayReport {
    /// Every intact record from `head` to the first invalid frame.
    pub records: Vec<WalRecord>,
    /// LSN at which replay stopped; new appends resume here.
    pub tail: Lsn,
    /// What was found at the stop position.
    pub tail_state: WalTailState,
    /// Estimated bytes of a partially-written frame discarded at the tail
    /// (zero unless `tail_state` is `TornFrame` or `Garbage`).
    pub torn_tail_bytes: u64,
}

enum FrameOutcome {
    Record(WalRecord),
    /// No valid frame at the LSN: the log ends there.
    End(WalReplayEnd),
}

/// Reads one frame at `lsn` from the ring, classifying the end of the log
/// when the frame is invalid.
fn read_frame(device: &SharedDevice, capacity: u64, lsn: Lsn) -> FrameOutcome {
    let read_ring = |lsn: Lsn, buf: &mut [u8]| -> Result<()> {
        let mut off = lsn % capacity;
        let mut pos = 0usize;
        while pos < buf.len() {
            let room = (capacity - off) as usize;
            let n = room.min(buf.len() - pos);
            device.read_at(off, &mut buf[pos..pos + n])?;
            pos += n;
            off = 0;
        }
        Ok(())
    };
    let end = |tail_state: WalTailState, torn_tail_bytes: u64| {
        FrameOutcome::End(WalReplayEnd {
            tail: lsn,
            tail_state,
            torn_tail_bytes,
        })
    };

    let mut header = [0u8; FRAME_HEADER_LEN];
    if read_ring(lsn, &mut header).is_err() || header.iter().all(|&b| b == 0) {
        return end(WalTailState::CleanEnd, 0);
    }
    let stored_crc = crate::codec::le_u32(&header[..4]);
    let len = crate::codec::le_u32(&header[4..8]) as usize;
    let frame_lsn = crate::codec::le_u64(&header[8..16]);
    let dirty_header_bytes = header.iter().filter(|&&b| b != 0).count() as u64;
    if frame_lsn != lsn {
        if lsn >= capacity {
            // The ring has wrapped, so leftover bytes from a previous lap
            // are expected here; the LSN-in-frame check rejects them.
            return end(WalTailState::StaleLap, 0);
        }
        // First lap: nothing was ever written here before, so nonzero
        // bytes that do not form a frame for this LSN are debris of a
        // torn write.
        return end(WalTailState::Garbage, dirty_header_bytes);
    }
    if len as u64 > capacity {
        // The header names this LSN but its length field is insane: the
        // frame was cut mid-header.
        return end(WalTailState::TornFrame, u64::from(FRAME_HEADER_LEN as u32));
    }
    let mut payload = vec![0u8; len];
    if read_ring(lsn + FRAME_HEADER_LEN as u64, &mut payload).is_err() {
        // Header claims a payload the device does not hold.
        return end(WalTailState::TornFrame, (FRAME_HEADER_LEN + len) as u64);
    }
    // CRC covers len | lsn | payload, verified incrementally over the
    // header tail and the payload buffer without re-concatenating them.
    let mut crc = Crc32c::new();
    crc.update(&header[4..]);
    crc.update(&payload);
    if crc.finish() == stored_crc {
        return FrameOutcome::Record(WalRecord { lsn, payload });
    }
    end(WalTailState::TornFrame, (FRAME_HEADER_LEN + len) as u64)
}

/// Replays the log from `head`, handing each valid record to `visit` in
/// log order, one at a time, and reports where and how the log ended.
/// Replay stops at the first invalid frame, which is where the crash cut
/// the log (§4.4.2: "replaying the log at startup").
///
/// # Errors
///
/// Stops at, and returns, the first error `visit` returns.
pub fn replay_each<E>(
    device: &SharedDevice,
    capacity: u64,
    head: Lsn,
    mut visit: impl FnMut(WalRecord) -> std::result::Result<(), E>,
) -> std::result::Result<WalReplayEnd, E> {
    if device.is_empty() {
        return Ok(WalReplayEnd {
            tail: head,
            ..WalReplayEnd::default()
        });
    }
    let mut tail = head;
    loop {
        match read_frame(device, capacity, tail) {
            FrameOutcome::Record(rec) => {
                tail += FRAME_HEADER_LEN as u64 + rec.payload.len() as u64;
                visit(rec)?;
            }
            FrameOutcome::End(end) => return Ok(end),
        }
    }
}

/// [`replay_each`], collecting every record: the recovered records, the
/// tail LSN, and diagnostics about how the log ended.
pub fn replay_report(device: &SharedDevice, capacity: u64, head: Lsn) -> WalReplayReport {
    let mut records = Vec::new();
    let Ok(end) = replay_each(device, capacity, head, |rec| {
        records.push(rec);
        Ok::<(), std::convert::Infallible>(())
    });
    WalReplayReport {
        records,
        tail: end.tail,
        tail_state: end.tail_state,
        torn_tail_bytes: end.torn_tail_bytes,
    }
}

/// [`replay_report`] without the tail diagnostics.
pub fn replay(device: &SharedDevice, capacity: u64, head: Lsn) -> (Vec<WalRecord>, Lsn) {
    let report = replay_report(device, capacity, head);
    (report.records, report.tail)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::device::MemDevice;
    use std::sync::Arc;

    /// Every durable record from `start`, unbudgeted.
    fn read_from(wal: &Wal, start: Lsn) -> Result<Vec<WalRecord>> {
        wal.records_up_to(start, wal.flushed_lsn(), usize::MAX)
            .map(|(records, _)| records)
    }

    fn mem_wal(capacity: u64) -> (SharedDevice, Wal) {
        let dev: SharedDevice = Arc::new(MemDevice::new());
        // Pre-size the device so ring reads past the flushed tail see zeroes
        // rather than out-of-bounds (a fresh file would be sparse-extended).
        dev.write_at(capacity - 1, &[0]).unwrap();
        let wal = Wal::new(dev.clone(), capacity, 0, 0);
        (dev, wal)
    }

    #[test]
    fn append_flush_replay() {
        let (dev, mut wal) = mem_wal(4096);
        let l0 = wal.append(b"alpha").unwrap();
        let l1 = wal.append(b"beta").unwrap();
        wal.flush().unwrap();
        assert_eq!(l0, 0);
        assert_eq!(l1, FRAME_HEADER_LEN as u64 + 5);
        let (records, tail) = replay(&dev, 4096, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].payload, b"alpha");
        assert_eq!(records[1].payload, b"beta");
        assert_eq!(tail, wal.tail_lsn());
    }

    #[test]
    fn unflushed_records_are_lost() {
        let (dev, mut wal) = mem_wal(4096);
        wal.append(b"durable").unwrap();
        wal.flush().unwrap();
        wal.append(b"volatile").unwrap();
        // No flush: simulate a crash by replaying the device as-is.
        let (records, _) = replay(&dev, 4096, 0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"durable");
    }

    #[test]
    fn replay_from_truncation_point() {
        let (dev, mut wal) = mem_wal(4096);
        wal.append(b"old-1").unwrap();
        wal.append(b"old-2").unwrap();
        wal.flush().unwrap();
        let cut = wal.tail_lsn();
        wal.truncate(cut);
        wal.append(b"new-1").unwrap();
        wal.flush().unwrap();
        let (records, _) = replay(&dev, 4096, cut);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"new-1");
    }

    #[test]
    fn ring_wraps_and_rejects_stale_frames() {
        let capacity = 256u64;
        let (dev, mut wal) = mem_wal(capacity);
        // Fill several laps of the ring, truncating to frame boundaries so
        // that at most two records stay live at a time.
        let mut boundaries = std::collections::VecDeque::new();
        for i in 0..50u32 {
            let payload = format!("record-{i:04}");
            let lsn = wal.append(payload.as_bytes()).unwrap();
            wal.flush().unwrap();
            boundaries.push_back(lsn);
            while boundaries.len() > 2 {
                boundaries.pop_front();
            }
            wal.truncate(*boundaries.front().unwrap());
        }
        let head = wal.head_lsn();
        let tail = wal.tail_lsn();
        assert!(tail > capacity, "must have wrapped");
        let (records, recovered_tail) = replay(&dev, capacity, head);
        assert_eq!(recovered_tail, tail);
        assert_eq!(records.len(), 2);
        // Every replayed record must be from the live window.
        for r in &records {
            assert!(r.lsn >= head && r.lsn < tail);
        }
    }

    #[test]
    fn append_past_capacity_is_rejected() {
        let (_dev, mut wal) = mem_wal(128);
        let payload = vec![0u8; 64];
        wal.append(&payload).unwrap();
        assert!(matches!(
            wal.append(&payload),
            Err(StorageError::OutOfSpace { .. })
        ));
        // After truncation there is room again.
        wal.flush().unwrap();
        wal.truncate(wal.tail_lsn());
        wal.append(&payload).unwrap();
    }

    #[test]
    fn corrupt_frame_terminates_replay() {
        let (dev, mut wal) = mem_wal(4096);
        wal.append(b"one").unwrap();
        let l1 = wal.append(b"two").unwrap();
        wal.append(b"three").unwrap();
        wal.flush().unwrap();
        // Corrupt the middle frame's payload.
        let off = (l1 + FRAME_HEADER_LEN as u64) % 4096;
        dev.write_at(off, b"XXX").unwrap();
        let (records, tail) = replay(&dev, 4096, 0);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].payload, b"one");
        assert_eq!(tail, l1);
    }

    #[test]
    fn empty_device_replays_empty() {
        let dev: SharedDevice = Arc::new(MemDevice::new());
        let (records, tail) = replay(&dev, 4096, 0);
        assert!(records.is_empty());
        assert_eq!(tail, 0);
    }

    #[test]
    fn report_flags_torn_tail() {
        let (dev, mut wal) = mem_wal(4096);
        wal.append(b"one").unwrap();
        let l1 = wal.append(b"two").unwrap();
        wal.append(b"three").unwrap();
        wal.flush().unwrap();
        // Corrupt the middle frame's payload: its header still names l1,
        // so the damage reads as a torn write of that frame.
        let off = (l1 + FRAME_HEADER_LEN as u64) % 4096;
        dev.write_at(off, b"XXX").unwrap();
        let report = replay_report(&dev, 4096, 0);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.tail, l1);
        assert_eq!(report.tail_state, WalTailState::TornFrame);
        assert_eq!(report.torn_tail_bytes, FRAME_HEADER_LEN as u64 + 3);
    }

    #[test]
    fn report_clean_end_after_flush() {
        let (dev, mut wal) = mem_wal(4096);
        wal.append(b"alpha").unwrap();
        wal.flush().unwrap();
        let report = replay_report(&dev, 4096, 0);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.tail_state, WalTailState::CleanEnd);
        assert_eq!(report.torn_tail_bytes, 0);
    }

    #[test]
    fn report_garbage_on_first_lap() {
        let (dev, mut wal) = mem_wal(4096);
        wal.append(b"good").unwrap();
        wal.flush().unwrap();
        let tail = wal.tail_lsn();
        // A torn append left partial header bytes (no valid frame) behind.
        dev.write_at(tail % 4096, &[0xAB; 6]).unwrap();
        let report = replay_report(&dev, 4096, 0);
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.tail, tail);
        assert_eq!(report.tail_state, WalTailState::Garbage);
        assert_eq!(report.torn_tail_bytes, 6);
    }

    #[test]
    fn report_stale_lap_is_not_torn() {
        // Reuse the wrapping workload: once the ring has lapped, the bytes
        // past the tail are stale frames, not corruption.
        let capacity = 256u64;
        let (dev, mut wal) = mem_wal(capacity);
        let mut boundaries = std::collections::VecDeque::new();
        for i in 0..50u32 {
            let payload = format!("record-{i:04}");
            let lsn = wal.append(payload.as_bytes()).unwrap();
            wal.flush().unwrap();
            boundaries.push_back(lsn);
            while boundaries.len() > 2 {
                boundaries.pop_front();
            }
            wal.truncate(*boundaries.front().unwrap());
        }
        assert!(wal.tail_lsn() > capacity, "must have wrapped");
        let report = replay_report(&dev, capacity, wal.head_lsn());
        assert_eq!(report.tail, wal.tail_lsn());
        assert_eq!(report.tail_state, WalTailState::StaleLap);
        assert_eq!(report.torn_tail_bytes, 0);
    }

    #[test]
    fn records_up_to_reads_the_durable_window() {
        let (_dev, mut wal) = mem_wal(4096);
        wal.append(b"one").unwrap();
        let l1 = wal.append(b"two").unwrap();
        wal.append(b"three").unwrap();
        wal.flush().unwrap();
        // From the head: every flushed record.
        let all = read_from(&wal, 0).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].payload, b"one");
        // From a mid-log frame boundary: the suffix.
        let suffix = read_from(&wal, l1).unwrap();
        assert_eq!(suffix.len(), 2);
        assert_eq!(suffix[0].payload, b"two");
        assert_eq!(suffix[0].lsn, l1);
        // From the flushed tail: empty, not an error.
        assert!(read_from(&wal, wal.tail_lsn()).unwrap().is_empty());
    }

    #[test]
    fn budgeted_reads_resume_with_no_gap_or_overlap() {
        let (_dev, mut wal) = mem_wal(1 << 16);
        let payloads: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 10 + 7 * i as usize]).collect();
        for p in &payloads {
            wal.append(p).unwrap();
        }
        wal.flush().unwrap();
        let end = wal.flushed_lsn();
        for budget in [0, 1, 50, 300, 1000] {
            let (mut got, mut cursor) = (Vec::new(), wal.head_lsn());
            while cursor < end {
                let (batch, next) = wal.records_up_to(cursor, end, budget).unwrap();
                // A non-empty prefix within the budget plus one record.
                let past_first: usize = batch.iter().skip(1).map(|r| r.payload.len()).sum();
                assert!(!batch.is_empty() && past_first <= budget, "budget {budget}");
                assert_eq!(batch[0].lsn, cursor);
                got.extend(batch.into_iter().map(|r| r.payload));
                cursor = next;
            }
            assert_eq!(got, payloads, "budget {budget}");
        }
    }

    #[test]
    fn records_up_to_excludes_unflushed_appends() {
        let (_dev, mut wal) = mem_wal(4096);
        wal.append(b"durable").unwrap();
        wal.flush().unwrap();
        let flushed = wal.flushed_lsn();
        wal.append(b"buffered").unwrap();
        // The buffered record is not durable: it must not ship, and
        // asking for it by LSN is a reader error, not silence.
        assert_eq!(read_from(&wal, 0).unwrap().len(), 1);
        assert!(matches!(
            read_from(&wal, wal.tail_lsn()),
            Err(StorageError::InvalidFormat(_))
        ));
        assert_eq!(read_from(&wal, flushed).unwrap().len(), 0);
    }

    #[test]
    fn records_up_to_truncated_history_is_snapshot_needed() {
        // A ring that wrapped mid-catch-up: a follower resuming from an
        // LSN the leader already truncated must get the typed
        // "snapshot needed" error, not silence or garbage.
        let capacity = 256u64;
        let (_dev, mut wal) = mem_wal(capacity);
        let mut boundaries = std::collections::VecDeque::new();
        let follower_lsn = 0u64; // the follower never advanced
        for i in 0..50u32 {
            let payload = format!("record-{i:04}");
            let lsn = wal.append(payload.as_bytes()).unwrap();
            wal.flush().unwrap();
            boundaries.push_back(lsn);
            while boundaries.len() > 2 {
                boundaries.pop_front();
            }
            wal.truncate(*boundaries.front().unwrap());
        }
        assert!(wal.tail_lsn() > capacity, "must have wrapped");
        match read_from(&wal, follower_lsn) {
            Err(StorageError::SnapshotNeeded {
                requested_lsn,
                head_lsn,
            }) => {
                assert_eq!(requested_lsn, follower_lsn);
                assert_eq!(head_lsn, wal.head_lsn());
            }
            other => panic!("expected SnapshotNeeded, got {other:?}"),
        }
        // Resuming from the live window still works after the wrap:
        // the records come back in order with their original LSNs.
        let live = read_from(&wal, wal.head_lsn()).unwrap();
        assert_eq!(live.len(), 2);
        assert!(live.windows(2).all(|w| w[0].lsn < w[1].lsn));
        assert_eq!(
            replay(&_dev, capacity, wal.head_lsn()).0.len(),
            live.len(),
            "catch-up and crash replay agree on the live window"
        );
    }

    #[test]
    fn replay_report_on_wrapped_ring_recovers_only_live_records() {
        // The same wrapped ring, seen through replay_report the way a
        // restart would: the stale-lap stop state, not a torn frame.
        let capacity = 256u64;
        let (dev, mut wal) = mem_wal(capacity);
        let mut boundaries = std::collections::VecDeque::new();
        for i in 0..40u32 {
            let payload = format!("wrap-{i:04}");
            let lsn = wal.append(payload.as_bytes()).unwrap();
            wal.flush().unwrap();
            boundaries.push_back(lsn);
            while boundaries.len() > 3 {
                boundaries.pop_front();
            }
            wal.truncate(*boundaries.front().unwrap());
        }
        assert!(wal.tail_lsn() > capacity);
        let report = replay_report(&dev, capacity, wal.head_lsn());
        assert_eq!(report.tail, wal.tail_lsn());
        assert_eq!(report.records.len(), 3);
        assert!(report.records.iter().all(|r| r.lsn >= wal.head_lsn()));
        assert_eq!(report.tail_state, WalTailState::StaleLap);
    }

    #[test]
    fn sync_tracks_synced_lsn() {
        let (_dev, mut wal) = mem_wal(4096);
        wal.append(b"a").unwrap();
        assert_eq!(wal.synced_lsn(), 0);
        wal.sync().unwrap();
        assert_eq!(wal.synced_lsn(), wal.tail_lsn());
    }
}
