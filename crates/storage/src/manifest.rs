//! Atomically-swapped metadata root ("manifest").
//!
//! Stasis used a physical write-ahead log to guarantee that "a physically
//! consistent version of the tree is available at crash" (§4.4.2). Our tree
//! components are strictly append-only — merge threads never overwrite live
//! pages — so shadow paging gives the identical guarantee with far less
//! machinery: engine metadata (component list, WAL truncation point, next
//! sequence number) is serialized into one of two fixed slots at the front
//! of the data device, alternating by epoch; every page the component list
//! does not name is free (`RegionAllocator::around`). A
//! torn write corrupts only the slot being written; recovery picks the
//! valid slot with the highest epoch, which always describes a complete,
//! physically consistent tree. This substitution is documented in
//! DESIGN.md §3.
//!
//! Slot format: `crc32c(4) | epoch(8) | len(4) | payload`, padded to
//! `slot_pages` pages. The CRC covers epoch, length and payload.

use crate::device::SharedDevice;
use crate::error::{Result, StorageError};
use crate::page::PAGE_SIZE;

/// Default slot size: 64 pages = 256 KiB per slot, plenty for hundreds of
/// component descriptors.
pub const DEFAULT_SLOT_PAGES: u64 = 64;

const SLOT_HEADER: usize = 4 + 8 + 4;

/// What [`ManifestStore::load`] found in the two slots, for recovery
/// reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManifestLoadReport {
    /// Epoch of the slot recovery chose, if any.
    pub chosen_epoch: Option<u64>,
    /// True when a slot held bytes that failed validation while another
    /// valid slot existed — i.e. a newer save attempt was torn by a
    /// crash and recovery rolled back to the surviving epoch.
    pub rolled_back: bool,
}

/// One slot's condition as seen by [`ManifestStore::load`].
enum SlotState {
    Valid(u64, Vec<u8>),
    /// Bytes present but checksum/length validation failed.
    Damaged,
    /// Never written (absent or all zeros).
    Empty,
}

/// Double-slot manifest store at the front of a device.
pub struct ManifestStore {
    device: SharedDevice,
    slot_pages: u64,
    epoch: u64,
    load_report: ManifestLoadReport,
}

impl std::fmt::Debug for ManifestStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManifestStore")
            .field("slot_pages", &self.slot_pages)
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

impl ManifestStore {
    /// Opens the store (no I/O happens until [`load`](Self::load) or
    /// [`save`](Self::save)).
    pub fn new(device: SharedDevice, slot_pages: u64) -> ManifestStore {
        assert!(slot_pages > 0);
        ManifestStore {
            device,
            slot_pages,
            epoch: 0,
            load_report: ManifestLoadReport::default(),
        }
    }

    /// What the most recent [`load`](Self::load) found (fresh default
    /// before any load).
    pub fn load_report(&self) -> ManifestLoadReport {
        self.load_report
    }

    /// Opens the store and recovers the newest valid manifest, if any.
    /// Returns the store and the recovered payload.
    ///
    /// # Errors
    ///
    /// Fails if reading either manifest slot from the device fails.
    /// Torn or corrupt slots are not errors; they are simply skipped.
    pub fn open(device: SharedDevice, slot_pages: u64) -> Result<(ManifestStore, Option<Vec<u8>>)> {
        let mut store = ManifestStore::new(device, slot_pages);
        let payload = store.load()?;
        Ok((store, payload))
    }

    /// First page on the device past the two manifest slots; the region
    /// allocator must start at or after this page.
    pub fn first_free_page(&self) -> u64 {
        2 * self.slot_pages
    }

    /// Bytes per slot.
    fn slot_bytes(&self) -> u64 {
        self.slot_pages * PAGE_SIZE as u64
    }

    /// Maximum payload size this store can hold.
    pub fn max_payload(&self) -> usize {
        self.slot_bytes() as usize - SLOT_HEADER
    }

    /// Current (last saved or recovered) epoch; 0 when fresh.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Persists `payload` with the next epoch, alternating slots, with a
    /// write barrier on each side: the device is synced *before* the
    /// slot is written (so every page the new root references — sstable
    /// blocks written by merge builders — is durable before the root
    /// that points at them can become durable) and again *after* (so
    /// the caller may free superseded regions).
    ///
    /// Without the leading sync, a power cut could persist the slot
    /// write while dropping earlier unsynced component pages, leaving a
    /// durable root that references garbage — exactly the reordering
    /// the crash-point harness enumerates.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if `payload` exceeds the
    /// slot capacity, or if the device write or sync fails (in which case
    /// the previous manifest remains the recovery root).
    pub fn save(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() > self.max_payload() {
            return Err(StorageError::InvalidFormat(format!(
                "manifest payload of {} bytes exceeds slot capacity {}",
                payload.len(),
                self.max_payload()
            )));
        }
        let epoch = self.epoch + 1;
        let mut body = Vec::with_capacity(SLOT_HEADER + payload.len());
        body.extend_from_slice(&epoch.to_le_bytes());
        body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        body.extend_from_slice(payload);
        let crc = crate::codec::crc32c(&body);
        let mut slot = Vec::with_capacity(4 + body.len());
        slot.extend_from_slice(&crc.to_le_bytes());
        slot.extend_from_slice(&body);
        let slot_idx = epoch % 2;
        self.device.sync()?;
        self.device.write_at(slot_idx * self.slot_bytes(), &slot)?;
        self.device.sync()?;
        self.epoch = epoch;
        Ok(())
    }

    /// Reads both slots and returns the payload of the newest valid one.
    ///
    /// # Errors
    ///
    /// Fails if a device read fails. Slots that fail checksum or length
    /// validation are skipped, not reported as errors.
    pub fn load(&mut self) -> Result<Option<Vec<u8>>> {
        let mut best: Option<(u64, Vec<u8>)> = None;
        let mut damaged = false;
        for slot_idx in 0..2u64 {
            match self.read_slot(slot_idx)? {
                SlotState::Valid(epoch, payload) => {
                    if best.as_ref().is_none_or(|(e, _)| epoch > *e) {
                        best = Some((epoch, payload));
                    }
                }
                SlotState::Damaged => damaged = true,
                SlotState::Empty => {}
            }
        }
        match best {
            Some((epoch, payload)) => {
                self.epoch = epoch;
                self.load_report = ManifestLoadReport {
                    chosen_epoch: Some(epoch),
                    rolled_back: damaged,
                };
                Ok(Some(payload))
            }
            None => {
                self.load_report = ManifestLoadReport {
                    chosen_epoch: None,
                    // Damaged bytes with nothing to fall back to still
                    // mean a save attempt was lost.
                    rolled_back: damaged,
                };
                Ok(None)
            }
        }
    }

    fn read_slot(&self, slot_idx: u64) -> Result<SlotState> {
        let off = slot_idx * self.slot_bytes();
        if self.device.len() < off + SLOT_HEADER as u64 {
            return Ok(SlotState::Empty);
        }
        let mut header = [0u8; SLOT_HEADER];
        // An I/O failure is the *device* dying, not a torn slot; swallowing
        // it here would silently reopen a dead disk as a fresh empty store.
        self.device.read_at(off, &mut header)?;
        if header.iter().all(|&b| b == 0) {
            return Ok(SlotState::Empty);
        }
        let stored_crc = crate::codec::le_u32(&header[..4]);
        let epoch = crate::codec::le_u64(&header[4..12]);
        let len = crate::codec::le_u32(&header[12..16]) as usize;
        if len > self.max_payload() {
            return Ok(SlotState::Damaged);
        }
        let mut payload = vec![0u8; len];
        if len > 0 {
            match self.device.read_at(off + SLOT_HEADER as u64, &mut payload) {
                Ok(()) => {}
                // A plausible header whose payload runs past the end of the
                // device is a torn slot write (the tail never hit the
                // medium) — recoverable damage, not an I/O failure.
                Err(StorageError::OutOfBounds { .. }) => return Ok(SlotState::Damaged),
                Err(e) => return Err(e),
            }
        }
        let mut body = Vec::with_capacity(12 + len);
        body.extend_from_slice(&header[4..]);
        body.extend_from_slice(&payload);
        if crate::codec::crc32c(&body) != stored_crc {
            return Ok(SlotState::Damaged);
        }
        Ok(SlotState::Valid(epoch, payload))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::device::MemDevice;
    use std::sync::Arc;

    fn store() -> ManifestStore {
        ManifestStore::new(Arc::new(MemDevice::new()), 2)
    }

    #[test]
    fn fresh_store_loads_none() {
        let mut s = store();
        assert!(s.load().unwrap().is_none());
    }

    #[test]
    fn save_load_roundtrip() {
        let mut s = store();
        s.save(b"state-1").unwrap();
        assert_eq!(s.load().unwrap().unwrap(), b"state-1");
        s.save(b"state-2").unwrap();
        assert_eq!(s.load().unwrap().unwrap(), b"state-2");
        assert_eq!(s.epoch(), 2);
    }

    #[test]
    fn recovery_across_reopen() {
        let dev: SharedDevice = Arc::new(MemDevice::new());
        {
            let mut s = ManifestStore::new(dev.clone(), 2);
            s.save(b"v1").unwrap();
            s.save(b"v2").unwrap();
            s.save(b"v3").unwrap();
        }
        let (s2, payload) = ManifestStore::open(dev, 2).unwrap();
        assert_eq!(payload.unwrap(), b"v3");
        assert_eq!(s2.epoch(), 3);
    }

    #[test]
    fn torn_write_falls_back_to_previous_epoch() {
        let dev: SharedDevice = Arc::new(MemDevice::new());
        let mut s = ManifestStore::new(dev.clone(), 2);
        s.save(b"good-old").unwrap(); // epoch 1, slot 1
        s.save(b"good-new").unwrap(); // epoch 2, slot 0
                                      // Corrupt slot 0's epoch field (the newest) to simulate a torn write.
        dev.write_at(4, &[0xff; 8]).unwrap();
        let mut s2 = ManifestStore::new(dev, 2);
        assert_eq!(s2.load().unwrap().unwrap(), b"good-old");
        assert_eq!(s2.epoch(), 1);
    }

    #[test]
    fn next_save_after_torn_write_does_not_clobber_good_slot() {
        let dev: SharedDevice = Arc::new(MemDevice::new());
        let mut s = ManifestStore::new(dev.clone(), 2);
        s.save(b"old").unwrap(); // epoch 1 -> slot 1
        s.save(b"new").unwrap(); // epoch 2 -> slot 0
        dev.write_at(4, &[0xff; 8]).unwrap(); // tear slot 0's epoch field
        let (mut s2, payload) = ManifestStore::open(dev, 2).unwrap();
        assert_eq!(payload.unwrap(), b"old"); // recovered epoch 1
        s2.save(b"newer").unwrap(); // epoch 2 -> slot 0 (the torn one)
        assert_eq!(s2.load().unwrap().unwrap(), b"newer");
    }

    #[test]
    fn load_report_flags_torn_slot_rollback() {
        let dev: SharedDevice = Arc::new(MemDevice::new());
        let mut s = ManifestStore::new(dev.clone(), 2);
        assert!(s.load().unwrap().is_none());
        assert_eq!(s.load_report(), ManifestLoadReport::default());
        s.save(b"old").unwrap();
        s.save(b"new").unwrap();
        let mut clean = ManifestStore::new(dev.clone(), 2);
        assert!(clean.load().unwrap().is_some());
        assert_eq!(
            clean.load_report(),
            ManifestLoadReport {
                chosen_epoch: Some(2),
                rolled_back: false
            }
        );
        // Tear the newest slot: recovery rolls back and says so.
        dev.write_at(4, &[0xff; 8]).unwrap();
        let mut torn = ManifestStore::new(dev, 2);
        assert_eq!(torn.load().unwrap().unwrap(), b"old");
        assert_eq!(
            torn.load_report(),
            ManifestLoadReport {
                chosen_epoch: Some(1),
                rolled_back: true
            }
        );
    }

    #[test]
    fn save_syncs_before_writing_the_slot() {
        // The leading sync is the ordering barrier that makes component
        // pages durable before the root that references them. Count
        // syncs around a save to pin the two-sync protocol.
        let dev: SharedDevice = Arc::new(MemDevice::new());
        let mut s = ManifestStore::new(dev.clone(), 2);
        let before = dev.stats().syncs;
        s.save(b"payload").unwrap();
        assert_eq!(dev.stats().syncs, before + 2);
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut s = store();
        let big = vec![0u8; s.max_payload() + 1];
        assert!(s.save(&big).is_err());
        let ok = vec![0u8; s.max_payload()];
        s.save(&ok).unwrap();
    }

    #[test]
    fn empty_payload_roundtrip() {
        let mut s = store();
        s.save(b"").unwrap();
        assert_eq!(s.load().unwrap().unwrap(), b"");
    }
}
