//! Storage devices: in-memory, file-backed, and simulated.
//!
//! Everything above this layer is generic over [`Device`]. The paper's
//! experiments ran on two hardware setups (a 2×10K-RPM SATA RAID-0 and a
//! 2×OCZ Vertex 2 SSD RAID-0, §5.1); we reproduce their *shapes* with
//! [`SimDevice`], which stores data in memory but charges every access
//! against a deterministic cost model ([`DiskModel`]) and a virtual clock.
//! Real deployments use [`FileDevice`].
//!
//! The cost model distinguishes sequential from random accesses (an access is
//! sequential when it starts where the previous one ended), which is exactly
//! the distinction the paper's read/write-amplification arguments rest on
//! (§2.1: "we measure read amplification in terms of seeks ... writes can be
//! performed using sequential I/O").

use std::fs::File;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{Result, StorageError};

/// A byte-addressed storage device.
///
/// Methods take `&self`; implementations use interior mutability so a device
/// can be shared between the buffer pool, WAL, and merge writers via
/// [`SharedDevice`].
pub trait Device: Send + Sync {
    /// Reads `buf.len()` bytes starting at `offset`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Writes `buf` starting at `offset`, growing the device if needed.
    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()>;

    /// Forces all written data to stable storage.
    fn sync(&self) -> Result<()>;

    /// Current device length in bytes.
    fn len(&self) -> u64;

    /// True when nothing has been written yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Access and timing statistics accumulated so far.
    fn stats(&self) -> DeviceStats;

    /// Virtual microseconds of device busy time accumulated so far.
    /// Non-simulated devices report 0.
    fn now_us(&self) -> u64 {
        self.stats().busy_us
    }
}

/// Shared handle to a device.
pub type SharedDevice = Arc<dyn Device>;

/// Counters every device keeps. For [`SimDevice`] these drive the virtual
/// clock; for real devices they still let benchmarks count seeks, which is
/// the paper's definition of read amplification (§2.1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Random (non-contiguous) reads — each one is a "seek" in paper terms.
    pub random_reads: u64,
    /// Random (non-contiguous) writes.
    pub random_writes: u64,
    /// Reads that continued where the previous access ended.
    pub sequential_reads: u64,
    /// Writes that continued where the previous access ended.
    pub sequential_writes: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of `sync` calls.
    pub syncs: u64,
    /// Virtual busy time in microseconds (simulated devices only).
    pub busy_us: u64,
}

impl DeviceStats {
    /// Total seeks: random reads plus random writes.
    pub fn seeks(&self) -> u64 {
        self.random_reads + self.random_writes
    }

    /// Difference between two snapshots (`self` taken after `earlier`).
    pub fn delta_since(&self, earlier: &DeviceStats) -> DeviceStats {
        DeviceStats {
            random_reads: self.random_reads - earlier.random_reads,
            random_writes: self.random_writes - earlier.random_writes,
            sequential_reads: self.sequential_reads - earlier.sequential_reads,
            sequential_writes: self.sequential_writes - earlier.sequential_writes,
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            syncs: self.syncs - earlier.syncs,
            busy_us: self.busy_us - earlier.busy_us,
        }
    }
}

// ---------------------------------------------------------------------------
// MemDevice
// ---------------------------------------------------------------------------

/// Pure in-memory device. Useful for tests and as the backing store of
/// [`SimDevice`].
pub struct MemDevice {
    inner: Mutex<MemInner>,
}

struct MemInner {
    data: Vec<u8>,
    stats: DeviceStats,
    last_read_end: u64,
    last_write_end: u64,
}

impl std::fmt::Debug for MemDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemDevice").finish_non_exhaustive()
    }
}

impl MemDevice {
    /// Creates an empty in-memory device.
    pub fn new() -> Self {
        MemDevice {
            inner: Mutex::new(MemInner {
                data: Vec::new(),
                stats: DeviceStats::default(),
                last_read_end: u64::MAX,
                last_write_end: u64::MAX,
            }),
        }
    }
}

impl Default for MemDevice {
    fn default() -> Self {
        Self::new()
    }
}

impl Device for MemDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let end = offset as usize + buf.len();
        if end > inner.data.len() {
            return Err(StorageError::OutOfBounds {
                offset,
                len: buf.len(),
                device_len: inner.data.len() as u64,
            });
        }
        buf.copy_from_slice(&inner.data[offset as usize..end]);
        if offset == inner.last_read_end {
            inner.stats.sequential_reads += 1;
        } else {
            inner.stats.random_reads += 1;
        }
        inner.last_read_end = end as u64;
        inner.stats.bytes_read += buf.len() as u64;
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let end = offset as usize + buf.len();
        if end > inner.data.len() {
            inner.data.resize(end, 0);
        }
        inner.data[offset as usize..end].copy_from_slice(buf);
        if offset == inner.last_write_end {
            inner.stats.sequential_writes += 1;
        } else {
            inner.stats.random_writes += 1;
        }
        inner.last_write_end = end as u64;
        inner.stats.bytes_written += buf.len() as u64;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.inner.lock().stats.syncs += 1;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.lock().data.len() as u64
    }

    fn stats(&self) -> DeviceStats {
        self.inner.lock().stats
    }
}

// ---------------------------------------------------------------------------
// FileDevice
// ---------------------------------------------------------------------------

/// File-backed device for real deployments.
///
/// Reads are the buffer pool's miss path, so their statistics are atomic
/// counters rather than a mutex taken after every `pread`; writes and
/// syncs, which batch behind merges and the log, keep theirs under one.
pub struct FileDevice {
    file: File,
    // ordering: Release fetch_max publishes the new end-of-device after
    // the backing write completes; Acquire loads pair with it.
    len: AtomicU64,
    reads: ReadTracking,
    inner: Mutex<WriteTracking>,
}

/// Read statistics. Each read swaps its end into `last_end`, so the
/// sequential/random call is made in the order the swaps land, exactly
/// as a mutex would order them.
#[derive(Debug)]
struct ReadTracking {
    random: AtomicU64,     // ordering: Relaxed (statistic; publishes no data)
    sequential: AtomicU64, // ordering: Relaxed (statistic; publishes no data)
    bytes: AtomicU64,      // ordering: Relaxed (statistic; publishes no data)
    last_end: AtomicU64,   // ordering: Relaxed (position hint for the statistic above)
}

struct WriteTracking {
    stats: DeviceStats,
    last_write_end: u64,
}

impl std::fmt::Debug for FileDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileDevice")
            .field("len", &self.len.load(std::sync::atomic::Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl FileDevice {
    /// Opens (creating if necessary) a file-backed device at `path`.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened/created or its metadata read.
    pub fn open(path: &Path) -> Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileDevice {
            file,
            len: AtomicU64::new(len),
            reads: ReadTracking {
                random: AtomicU64::new(0),
                sequential: AtomicU64::new(0),
                bytes: AtomicU64::new(0),
                last_end: AtomicU64::new(u64::MAX),
            },
            inner: Mutex::new(WriteTracking {
                stats: DeviceStats::default(),
                last_write_end: u64::MAX,
            }),
        })
    }
}

impl Device for FileDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, offset)?;
        let r = &self.reads;
        let end = offset + buf.len() as u64;
        if r.last_end.swap(end, Ordering::Relaxed) == offset {
            r.sequential.fetch_add(1, Ordering::Relaxed);
        } else {
            r.random.fetch_add(1, Ordering::Relaxed);
        }
        r.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.write_all_at(buf, offset)?;
        let end = offset + buf.len() as u64;
        self.len.fetch_max(end, Ordering::Release);
        let mut t = self.inner.lock();
        if offset == t.last_write_end {
            t.stats.sequential_writes += 1;
        } else {
            t.stats.random_writes += 1;
        }
        t.last_write_end = end;
        t.stats.bytes_written += buf.len() as u64;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        self.inner.lock().stats.syncs += 1;
        Ok(())
    }

    fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    fn stats(&self) -> DeviceStats {
        let r = &self.reads;
        DeviceStats {
            random_reads: r.random.load(Ordering::Relaxed),
            sequential_reads: r.sequential.load(Ordering::Relaxed),
            bytes_read: r.bytes.load(Ordering::Relaxed),
            ..self.inner.lock().stats
        }
    }
}

// ---------------------------------------------------------------------------
// DiskModel / SimDevice
// ---------------------------------------------------------------------------

/// Cost model for a simulated device.
///
/// All times are in microseconds; bandwidths in bytes per microsecond
/// (1 MB/s == 1 byte/us).
#[derive(Debug, Clone, PartialEq)]
pub struct DiskModel {
    /// Human-readable name ("hdd", "ssd", ...).
    pub name: &'static str,
    /// Cost of a random (non-contiguous) read before transfer.
    pub read_seek_us: f64,
    /// Cost of a random (non-contiguous) write before transfer.
    pub write_seek_us: f64,
    /// Sequential read bandwidth, bytes/us.
    pub read_bw: f64,
    /// Sequential write bandwidth, bytes/us.
    pub write_bw: f64,
    /// Cost charged per `sync` call.
    pub sync_us: f64,
}

impl DiskModel {
    /// The paper's hard-disk setup: two 10K-RPM SATA enterprise drives in
    /// RAID-0 (§5.1). Mean access time "over 5 ms" (§2.2); 110–130 MB/s per
    /// drive, so ~230 MB/s aggregate sequential bandwidth. RAID-0 does not
    /// help random IOPS for single-threaded access, so the seek time stays
    /// at the single-drive figure.
    pub fn hdd() -> DiskModel {
        DiskModel {
            name: "hdd",
            read_seek_us: 5_000.0,
            write_seek_us: 5_000.0,
            read_bw: 230.0,
            write_bw: 230.0,
            sync_us: 100.0,
        }
    }

    /// The paper's SSD setup: two OCZ Vertex 2 drives in RAID-0 (§5.4:
    /// "Each SSD provides 285 (275) MB/sec sequential reads (writes)").
    /// SSDs "provide many more IOPS per MB/sec of sequential bandwidth, but
    /// they severely penalize random writes" (§5.4) — hence the asymmetric
    /// seek costs: ~10K random reads/s per the SATA-SSD column of Table 2
    /// scaled to the two-drive array, random writes several times costlier.
    pub fn ssd() -> DiskModel {
        DiskModel {
            name: "ssd",
            read_seek_us: 100.0,
            write_seek_us: 700.0,
            read_bw: 570.0,
            write_bw: 550.0,
            sync_us: 50.0,
        }
    }

    /// A free device: zero seek cost, effectively infinite bandwidth.
    /// Used by tests that only care about behaviour, not timing.
    pub fn ram() -> DiskModel {
        DiskModel {
            name: "ram",
            read_seek_us: 0.0,
            write_seek_us: 0.0,
            read_bw: 1e9,
            write_bw: 1e9,
            sync_us: 0.0,
        }
    }

    /// Cost in microseconds of one read of `len` bytes.
    pub fn read_cost_us(&self, sequential: bool, len: usize) -> f64 {
        let seek = if sequential { 0.0 } else { self.read_seek_us };
        seek + len as f64 / self.read_bw
    }

    /// Cost in microseconds of one write of `len` bytes.
    pub fn write_cost_us(&self, sequential: bool, len: usize) -> f64 {
        let seek = if sequential { 0.0 } else { self.write_seek_us };
        seek + len as f64 / self.write_bw
    }
}

/// Device that stores data in memory but charges accesses against a
/// [`DiskModel`], accumulating a deterministic virtual clock.
///
/// This is the substitution that lets us rerun the paper's hardware
/// experiments: throughput and latency are computed from `busy_us` rather
/// than wall time, so the results are exact and machine-independent.
pub struct SimDevice {
    model: DiskModel,
    inner: Mutex<SimInner>,
}

struct SimInner {
    data: Vec<u8>,
    stats: DeviceStats,
    /// Fractional microseconds not yet added to `stats.busy_us`.
    carry_us: f64,
    last_read_end: u64,
    last_write_end: u64,
}

impl std::fmt::Debug for SimDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDevice")
            .field("model", &self.model)
            .finish_non_exhaustive()
    }
}

impl SimDevice {
    /// Creates a simulated device with the given cost model.
    pub fn new(model: DiskModel) -> Self {
        SimDevice {
            model,
            inner: Mutex::new(SimInner {
                data: Vec::new(),
                stats: DeviceStats::default(),
                carry_us: 0.0,
                last_read_end: u64::MAX,
                last_write_end: u64::MAX,
            }),
        }
    }

    /// The model this device charges against.
    pub fn model(&self) -> &DiskModel {
        &self.model
    }
}

impl SimInner {
    fn charge(&mut self, us: f64) {
        let total = us + self.carry_us;
        let whole = total.floor();
        self.stats.busy_us += whole as u64;
        self.carry_us = total - whole;
    }
}

impl Device for SimDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let end = offset as usize + buf.len();
        if end > inner.data.len() {
            return Err(StorageError::OutOfBounds {
                offset,
                len: buf.len(),
                device_len: inner.data.len() as u64,
            });
        }
        buf.copy_from_slice(&inner.data[offset as usize..end]);
        let sequential = offset == inner.last_read_end;
        if sequential {
            inner.stats.sequential_reads += 1;
        } else {
            inner.stats.random_reads += 1;
        }
        inner.last_read_end = end as u64;
        inner.stats.bytes_read += buf.len() as u64;
        let cost = self.model.read_cost_us(sequential, buf.len());
        inner.charge(cost);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        let end = offset as usize + buf.len();
        if end > inner.data.len() {
            inner.data.resize(end, 0);
        }
        inner.data[offset as usize..end].copy_from_slice(buf);
        let sequential = offset == inner.last_write_end;
        if sequential {
            inner.stats.sequential_writes += 1;
        } else {
            inner.stats.random_writes += 1;
        }
        inner.last_write_end = end as u64;
        inner.stats.bytes_written += buf.len() as u64;
        let cost = self.model.write_cost_us(sequential, buf.len());
        inner.charge(cost);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.stats.syncs += 1;
        let cost = self.model.sync_us;
        inner.charge(cost);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.lock().data.len() as u64
    }

    fn stats(&self) -> DeviceStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn rw_roundtrip(dev: &dyn Device) {
        dev.write_at(0, b"hello world").unwrap();
        let mut buf = [0u8; 5];
        dev.read_at(6, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        assert_eq!(dev.len(), 11);
    }

    #[test]
    fn mem_device_roundtrip() {
        rw_roundtrip(&MemDevice::new());
    }

    #[test]
    fn sim_device_roundtrip() {
        rw_roundtrip(&SimDevice::new(DiskModel::hdd()));
    }

    #[test]
    fn file_device_roundtrip() {
        let dir = std::env::temp_dir().join(format!("blsm-dev-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dev.bin");
        let dev = FileDevice::open(&path).unwrap();
        rw_roundtrip(&dev);
        dev.sync().unwrap();
        drop(dev);
        // Reopen and verify persistence.
        let dev2 = FileDevice::open(&path).unwrap();
        let mut buf = [0u8; 11];
        dev2.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_past_end_is_error() {
        let dev = MemDevice::new();
        dev.write_at(0, b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert!(matches!(
            dev.read_at(0, &mut buf),
            Err(StorageError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn sequential_vs_random_classification() {
        let dev = MemDevice::new();
        dev.write_at(0, &[0u8; 100]).unwrap(); // random (first access)
        dev.write_at(100, &[0u8; 100]).unwrap(); // sequential
        dev.write_at(0, &[0u8; 10]).unwrap(); // random (rewind)
        let s = dev.stats();
        assert_eq!(s.random_writes, 2);
        assert_eq!(s.sequential_writes, 1);

        let mut buf = [0u8; 50];
        dev.read_at(0, &mut buf).unwrap(); // random
        dev.read_at(50, &mut buf).unwrap(); // sequential
        dev.read_at(10, &mut buf).unwrap(); // random
        let s = dev.stats();
        assert_eq!(s.random_reads, 2);
        assert_eq!(s.sequential_reads, 1);
    }

    #[test]
    fn hdd_charges_seek_plus_transfer() {
        let dev = SimDevice::new(DiskModel::hdd());
        dev.write_at(0, &vec![0u8; 230_000]).unwrap(); // 1 seek + 1000us transfer
        let s = dev.stats();
        assert_eq!(s.busy_us, 6_000); // 5000 seek + 1000 transfer
    }

    #[test]
    fn sequential_write_avoids_seek() {
        let dev = SimDevice::new(DiskModel::hdd());
        dev.write_at(0, &vec![0u8; 230]).unwrap(); // seek + 1us
        dev.write_at(230, &vec![0u8; 230]).unwrap(); // 1us only
        assert_eq!(dev.stats().busy_us, 5_002);
    }

    #[test]
    fn fractional_costs_accumulate_via_carry() {
        let dev = SimDevice::new(DiskModel::ram());
        // 1e9 bytes/us bandwidth: each 1-byte write costs 1e-9 us. The carry
        // must accumulate rather than truncate to zero... but also must never
        // overcount. After 100 writes busy time is still ~0us.
        for i in 0..100u64 {
            dev.write_at(i, &[0u8]).unwrap();
        }
        assert_eq!(dev.stats().busy_us, 0);

        // With a model where each op costs 0.5us, 100 ops must sum to 50us.
        let model = DiskModel {
            name: "half",
            read_seek_us: 0.0,
            write_seek_us: 0.5,
            read_bw: 1e9,
            write_bw: 1e9,
            sync_us: 0.0,
        };
        let dev = SimDevice::new(model);
        for _ in 0..100u64 {
            dev.write_at(0, &[0u8]).unwrap(); // always random (same offset)
        }
        assert_eq!(dev.stats().busy_us, 50);
    }

    #[test]
    fn ssd_random_write_costlier_than_read() {
        let m = DiskModel::ssd();
        assert!(m.write_cost_us(false, 4096) > m.read_cost_us(false, 4096));
    }

    #[test]
    fn stats_delta() {
        let dev = MemDevice::new();
        dev.write_at(0, &[1, 2, 3]).unwrap();
        let before = dev.stats();
        dev.write_at(3, &[4, 5]).unwrap();
        let d = dev.stats().delta_since(&before);
        assert_eq!(d.bytes_written, 2);
        assert_eq!(d.sequential_writes, 1);
        assert_eq!(d.random_writes, 0);
    }
}
