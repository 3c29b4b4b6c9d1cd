//! Fault-injecting device wrapper for failure testing.
//!
//! Wraps any [`Device`] and injects failures on a deterministic schedule:
//! hard I/O errors after a budget of operations, and *torn writes* (only a
//! prefix of the final write reaches the medium — the failure mode that
//! motivates the double-slot manifest and CRC-framed WAL). Tests use this
//! to prove that every error path surfaces as an `Err` rather than a
//! panic, and that recovery tolerates a torn final write.
//!
//! For exhaustive crash-point enumeration (crash at *every* device
//! operation index, persisting a seeded subset of unsynced writes) see
//! [`crate::CrashDevice`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::device::{Device, DeviceStats, SharedDevice};
use crate::error::{Result, StorageError};
use crate::page::PAGE_SIZE;

/// Where a torn write is cut. Real disks tear on sector/page boundaries;
/// buggy controllers tear anywhere — both shapes are expressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TearPoint {
    /// Keep `num/den` of the write's bytes (`Fraction(1, 2)` is the
    /// classic half-write).
    Fraction(u32, u32),
    /// Keep exactly the first `n` bytes (clamped to the write length).
    Bytes(u64),
    /// Keep the first `n` whole [`PAGE_SIZE`] pages, so the tear lands
    /// on a page boundary like a real disk's atomic-sector behavior.
    Pages(u64),
}

impl TearPoint {
    /// How many bytes of a `len`-byte write survive the tear.
    pub fn kept_bytes(self, len: usize) -> usize {
        match self {
            TearPoint::Fraction(num, den) => {
                if den == 0 {
                    0
                } else {
                    ((len as u64).saturating_mul(u64::from(num)) / u64::from(den)) as usize
                }
            }
            TearPoint::Bytes(n) => (n as usize).min(len),
            TearPoint::Pages(n) => ((n as usize).saturating_mul(PAGE_SIZE)).min(len),
        }
        .min(len)
    }
}

/// What happens when the fault budget is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Every subsequent write fails with an I/O error.
    FailWrites,
    /// Every subsequent read fails with an I/O error.
    FailReads,
    /// The triggering write is torn: only the first half of its bytes
    /// reach the medium, and all later writes are silently dropped
    /// (simulating power loss mid-write). Equivalent to
    /// `TornWriteAt(TearPoint::Fraction(1, 2))`.
    TornWriteThenDead,
    /// The triggering write is torn at the configured [`TearPoint`],
    /// then the device is dead (all later operations fail).
    TornWriteAt(TearPoint),
}

impl FaultMode {
    /// The tear point, for the torn-write modes.
    fn tear_point(self) -> Option<TearPoint> {
        match self {
            FaultMode::TornWriteThenDead => Some(TearPoint::Fraction(1, 2)),
            FaultMode::TornWriteAt(t) => Some(t),
            _ => None,
        }
    }
}

/// A device that starts failing after `budget` operations of the faulted
/// kind — for good — and that can be told to fail just the next few
/// ([`FaultyDevice::fail_next`]) and then heal.
pub struct FaultyDevice {
    inner: SharedDevice,
    mode: FaultMode,
    // ordering: Release store arms a transient fault; the AcqRel
    // fetch_update (Acquire when it finds none) that spends it pairs.
    transient: AtomicU64,
    // ordering: AcqRel fetch_update decrements the budget; Acquire
    // loads pair with it.
    remaining: AtomicU64,
    // ordering: Release store publishes the trip after the budget hits
    // zero; Acquire loads pair with it.
    tripped: std::sync::atomic::AtomicBool,
}

impl std::fmt::Debug for FaultyDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyDevice")
            .field("mode", &self.mode)
            .field(
                "remaining",
                &self.remaining.load(std::sync::atomic::Ordering::Acquire),
            )
            .finish_non_exhaustive()
    }
}

impl FaultyDevice {
    /// Wraps `inner`; the first `budget` operations of the faulted kind
    /// succeed, after which the configured failure mode engages.
    pub fn new(inner: SharedDevice, mode: FaultMode, budget: u64) -> FaultyDevice {
        FaultyDevice {
            inner,
            mode,
            transient: AtomicU64::new(0),
            remaining: AtomicU64::new(budget),
            tripped: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Transient fault: the next `n` operations of the faulted kind
    /// ([`FaultMode::FailReads`] / [`FaultMode::FailWrites`]) fail, then
    /// the device works again — a hiccup, where exhausting the budget is
    /// a death. Spends no budget and can be armed any number of times.
    pub fn fail_next(&self, n: u64) {
        self.transient.store(n, Ordering::Release);
    }

    /// True once the (permanent) budget fault has fired.
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    fn fault(&self, op: &'static str, offset: u64) -> StorageError {
        StorageError::Fault { op, offset }
    }

    /// Consumes one unit of budget; returns true when the fault fires.
    fn spend(&self) -> bool {
        if self.tripped() {
            return true;
        }
        let hiccup = self
            .transient
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1));
        if hiccup.is_ok() {
            return true;
        }
        let prev = self
            .remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| v.checked_sub(1))
            .ok();
        if prev.is_none() {
            self.tripped.store(true, Ordering::Release);
            return true;
        }
        false
    }
}

impl Device for FaultyDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if self.mode == FaultMode::FailReads && self.spend() {
            return Err(self.fault("read", offset));
        }
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        match self.mode {
            FaultMode::FailWrites => {
                if self.spend() {
                    return Err(self.fault("write", offset));
                }
                self.inner.write_at(offset, buf)
            }
            FaultMode::TornWriteThenDead | FaultMode::TornWriteAt(_) => {
                if self.tripped() {
                    // Dead device: writes vanish but the caller is not told
                    // (power already failed; nobody is listening anyway).
                    return Err(self.fault("write after power loss", offset));
                }
                if self.spend() {
                    // Tear this write at the configured point.
                    let kept = self
                        .mode
                        .tear_point()
                        .map_or(0, |t| t.kept_bytes(buf.len()));
                    if kept > 0 {
                        self.inner.write_at(offset, &buf[..kept])?;
                    }
                    return Err(self.fault("torn write", offset));
                }
                self.inner.write_at(offset, buf)
            }
            FaultMode::FailReads => self.inner.write_at(offset, buf),
        }
    }

    fn sync(&self) -> Result<()> {
        if self.tripped() && self.mode != FaultMode::FailReads {
            return Err(self.fault("sync", 0));
        }
        self.inner.sync()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::device::MemDevice;
    use std::sync::Arc;

    #[test]
    fn fails_writes_after_budget() {
        let dev = FaultyDevice::new(Arc::new(MemDevice::new()), FaultMode::FailWrites, 3);
        for i in 0..3u64 {
            dev.write_at(i * 8, &[1u8; 8]).unwrap();
        }
        assert!(!dev.tripped());
        assert!(dev.write_at(100, &[1u8; 8]).is_err());
        assert!(dev.tripped());
        // Reads still work.
        let mut buf = [0u8; 8];
        dev.read_at(0, &mut buf).unwrap();
    }

    #[test]
    fn fails_reads_after_budget() {
        let dev = FaultyDevice::new(Arc::new(MemDevice::new()), FaultMode::FailReads, 1);
        dev.write_at(0, &[7u8; 16]).unwrap();
        let mut buf = [0u8; 8];
        dev.read_at(0, &mut buf).unwrap();
        assert!(dev.read_at(0, &mut buf).is_err());
    }

    #[test]
    fn torn_write_leaves_prefix() {
        let inner = Arc::new(MemDevice::new());
        let dev = FaultyDevice::new(inner.clone(), FaultMode::TornWriteThenDead, 1);
        dev.write_at(0, &[0xAA; 16]).unwrap();
        let err = dev.write_at(16, &[0xBB; 16]).unwrap_err();
        assert!(format!("{err}").contains("torn"));
        assert!(matches!(
            err,
            StorageError::Fault {
                op: "torn write",
                offset: 16
            }
        ));
        // First half of the torn write landed; second half did not.
        assert_eq!(inner.len(), 24);
        let mut buf = [0u8; 8];
        inner.read_at(16, &mut buf).unwrap();
        assert_eq!(buf, [0xBB; 8]);
        // The device is dead afterwards.
        assert!(dev.write_at(32, &[1u8; 4]).is_err());
        assert!(dev.sync().is_err());
    }

    #[test]
    fn tear_point_fraction_and_bytes() {
        assert_eq!(TearPoint::Fraction(1, 2).kept_bytes(16), 8);
        assert_eq!(TearPoint::Fraction(3, 4).kept_bytes(16), 12);
        assert_eq!(TearPoint::Fraction(0, 1).kept_bytes(16), 0);
        assert_eq!(TearPoint::Fraction(1, 0).kept_bytes(16), 0);
        assert_eq!(TearPoint::Fraction(5, 4).kept_bytes(16), 16); // clamped
        assert_eq!(TearPoint::Bytes(3).kept_bytes(16), 3);
        assert_eq!(TearPoint::Bytes(99).kept_bytes(16), 16);
    }

    #[test]
    fn tear_point_pages_lands_on_page_boundary() {
        let len = 3 * PAGE_SIZE + 100;
        assert_eq!(TearPoint::Pages(1).kept_bytes(len), PAGE_SIZE);
        assert_eq!(TearPoint::Pages(2).kept_bytes(len), 2 * PAGE_SIZE);
        assert_eq!(TearPoint::Pages(10).kept_bytes(len), len);
        assert_eq!(TearPoint::Pages(0).kept_bytes(len), 0);
    }

    #[test]
    fn torn_write_at_byte_offset() {
        let inner = Arc::new(MemDevice::new());
        let dev = FaultyDevice::new(
            inner.clone(),
            FaultMode::TornWriteAt(TearPoint::Bytes(5)),
            0,
        );
        let err = dev.write_at(0, &[0xCC; 16]).unwrap_err();
        assert!(format!("{err}").contains("torn"));
        assert_eq!(inner.len(), 5);
    }

    #[test]
    fn torn_write_at_page_boundary() {
        let inner = Arc::new(MemDevice::new());
        let dev = FaultyDevice::new(
            inner.clone(),
            FaultMode::TornWriteAt(TearPoint::Pages(1)),
            0,
        );
        let buf = vec![0xDD; 2 * PAGE_SIZE];
        let err = dev.write_at(0, &buf).unwrap_err();
        assert!(format!("{err}").contains("torn"));
        // Exactly one whole page landed.
        assert_eq!(inner.len(), PAGE_SIZE as u64);
    }
}
