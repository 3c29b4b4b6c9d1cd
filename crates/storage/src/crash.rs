//! Crash-point enumeration device: simulated power cuts at arbitrary
//! device-operation indices.
//!
//! [`CrashDevice`] wraps a *durable* device (what the platters hold) and
//! keeps an OS-cache view on the side: every `write_at` lands in a
//! volatile journal + image and only reaches the durable device when
//! `sync()` replays the journal. A shared [`CrashPlan`] counts mutating
//! operations (`write_at`/`sync`) across *all* wrapped devices — the WAL
//! and data devices share one plan, modeling one global power rail — and
//! when the configured operation index is reached the power is cut:
//!
//! * a deterministic, seeded subset of each device's unsynced journal is
//!   persisted — entries survive whole, vanish, or are **torn**
//!   (page-granular for page-sized writes, byte-granular otherwise);
//! * kept entries are applied in a seeded shuffle, modeling the disk's
//!   freedom to reorder writes between sync barriers;
//! * every subsequent operation fails with [`StorageError::Fault`].
//!
//! Writes that were synced before the cut are already on the durable
//! device and can never be lost — that is the durability contract the
//! crash-point harness (`tests/crash_points.rs`) checks the whole engine
//! against, at every operation index of a scripted workload.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::device::{Device, DeviceStats, SharedDevice};
use crate::error::{Result, StorageError};
use crate::page::PAGE_SIZE;

/// Outcome of counting one mutating operation against the plan.
enum OpVerdict {
    /// Power is still on; perform the operation.
    Proceed,
    /// This operation is the crash point: cut the power now.
    CrashNow,
    /// Power already failed; the operation errors.
    Dead,
}

/// One unsynced write waiting for a sync barrier.
struct JournalEntry {
    offset: u64,
    data: Vec<u8>,
}

/// Volatile (OS-cache) state of one [`CrashDevice`].
struct Volatile {
    /// The cache view: durable contents overlaid with unsynced writes.
    image: Vec<u8>,
    /// Unsynced writes in issue order.
    journal: Vec<JournalEntry>,
}

/// The per-device half shared between a [`CrashDevice`] and its plan.
struct CrashCore {
    durable: SharedDevice,
    state: Mutex<Volatile>,
}

impl CrashCore {
    /// Applies the seeded crash subset of the journal to the durable
    /// device: per entry keep / drop / tear, then a seeded shuffle of
    /// the kept entries (unsynced writes may reach the platter in any
    /// order).
    fn cut_power(&self, rng: &mut SplitMix64) -> Result<()> {
        let mut state = self.state.lock();
        let journal = std::mem::take(&mut state.journal);
        state.image.clear();
        let mut kept: Vec<JournalEntry> = Vec::with_capacity(journal.len());
        for mut entry in journal {
            match rng.next() % 8 {
                // Half the entries land whole.
                0..=3 => kept.push(entry),
                // A quarter vanish entirely.
                4 | 5 => {}
                // A quarter are torn: page-granular for page-sized
                // writes (disks tear on sector boundaries), byte-
                // granular otherwise.
                _ => {
                    let len = entry.data.len();
                    let keep = if len >= PAGE_SIZE {
                        let pages = len / PAGE_SIZE;
                        (rng.below(pages as u64 + 1) as usize) * PAGE_SIZE
                    } else {
                        rng.below(len as u64 + 1) as usize
                    };
                    if keep > 0 {
                        entry.data.truncate(keep);
                        kept.push(entry);
                    }
                }
            }
        }
        // Fisher-Yates shuffle: the order unsynced writes hit the
        // platter is unconstrained.
        for i in (1..kept.len()).rev() {
            kept.swap(i, rng.below(i as u64 + 1) as usize);
        }
        for entry in &kept {
            self.durable.write_at(entry.offset, &entry.data)?;
        }
        Ok(())
    }
}

/// Shared crash schedule: a global operation counter across every
/// [`CrashDevice`] registered against it.
pub struct CrashPlan {
    crash_at: u64,
    seed: u64,
    // ordering: AcqRel fetch_add hands out crash-point indexes; Acquire
    // loads pair with it so observers see a consistent count.
    ops: AtomicU64,
    // ordering: Release store publishes the tripped state after the
    // partial write is staged; Acquire loads pair with it.
    crashed: AtomicBool,
    devices: Mutex<Vec<Arc<CrashCore>>>,
}

impl std::fmt::Debug for CrashPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashPlan")
            .field("crash_at", &self.crash_at)
            .field("ops", &self.ops.load(Ordering::Acquire))
            .field("crashed", &self.crashed.load(Ordering::Acquire))
            .finish_non_exhaustive()
    }
}

impl CrashPlan {
    /// A plan that cuts the power on mutating operation number
    /// `crash_at` (0-based, counted across all registered devices).
    /// Pass `u64::MAX` for a counting run that never crashes.
    pub fn new(crash_at: u64, seed: u64) -> Arc<CrashPlan> {
        Arc::new(CrashPlan {
            crash_at,
            seed,
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            devices: Mutex::new(Vec::new()),
        })
    }

    /// Mutating operations (`write_at`/`sync`) observed so far across
    /// all registered devices.
    pub fn ops_issued(&self) -> u64 {
        self.ops.load(Ordering::Acquire)
    }

    /// True once the power has been cut.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    fn note_op(&self) -> OpVerdict {
        if self.crashed() {
            return OpVerdict::Dead;
        }
        let idx = self.ops.fetch_add(1, Ordering::AcqRel);
        if idx == self.crash_at {
            OpVerdict::CrashNow
        } else {
            OpVerdict::Proceed
        }
    }

    /// Cuts the power: persists a seeded subset of every registered
    /// device's unsynced journal, then marks the plan crashed.
    fn trigger(&self) {
        self.crashed.store(true, Ordering::Release);
        let mut rng =
            SplitMix64::new(self.seed ^ self.crash_at.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let devices = self.devices.lock();
        for core in devices.iter() {
            // The durable device is in-memory in every harness; a write
            // failure here would be a harness bug, not a crash outcome.
            // Swallowing it keeps `Device::write_at` the only fallible
            // surface.
            let _ = core.cut_power(&mut rng);
        }
    }
}

/// A device whose unsynced writes survive a power cut only as a seeded
/// subset. See the module docs for the full model.
pub struct CrashDevice {
    core: Arc<CrashCore>,
    plan: Arc<CrashPlan>,
}

impl std::fmt::Debug for CrashDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrashDevice")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl CrashDevice {
    /// Wraps `durable` under `plan`'s power rail. The durable device's
    /// current contents seed the cache image (reopening after a crash
    /// starts from exactly what survived).
    pub fn new(durable: SharedDevice, plan: &Arc<CrashPlan>) -> CrashDevice {
        let len = durable.len() as usize;
        let mut image = vec![0u8; len];
        if len > 0 {
            // A fresh MemDevice read can only fail out-of-bounds, which
            // `len` rules out; leave zeros on the (unreachable) error.
            let _ = durable.read_at(0, &mut image);
        }
        let core = Arc::new(CrashCore {
            durable,
            state: Mutex::new(Volatile {
                image,
                journal: Vec::new(),
            }),
        });
        plan.devices.lock().push(core.clone());
        CrashDevice {
            core,
            plan: plan.clone(),
        }
    }

    fn dead(op: &'static str, offset: u64) -> StorageError {
        StorageError::Fault { op, offset }
    }
}

impl Device for CrashDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if self.plan.crashed() {
            return Err(Self::dead("read after power cut", offset));
        }
        let state = self.core.state.lock();
        let end = offset as usize + buf.len();
        if end > state.image.len() {
            return Err(StorageError::OutOfBounds {
                offset,
                len: buf.len(),
                device_len: state.image.len() as u64,
            });
        }
        buf.copy_from_slice(&state.image[offset as usize..end]);
        Ok(())
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let verdict = self.plan.note_op();
        if matches!(verdict, OpVerdict::Dead) {
            return Err(Self::dead("write after power cut", offset));
        }
        {
            let mut state = self.core.state.lock();
            let end = offset as usize + buf.len();
            if end > state.image.len() {
                state.image.resize(end, 0);
            }
            state.image[offset as usize..end].copy_from_slice(buf);
            state.journal.push(JournalEntry {
                offset,
                data: buf.to_vec(),
            });
        }
        if matches!(verdict, OpVerdict::CrashNow) {
            // The in-flight write joined the journal first: it is part
            // of the subset draw and may land whole, torn, or not at
            // all.
            self.plan.trigger();
            return Err(Self::dead("power cut during write", offset));
        }
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        match self.plan.note_op() {
            OpVerdict::Dead => Err(Self::dead("sync after power cut", 0)),
            OpVerdict::CrashNow => {
                // The barrier never completed: unsynced writes get the
                // subset treatment, not durability.
                self.plan.trigger();
                Err(Self::dead("power cut during sync", 0))
            }
            OpVerdict::Proceed => {
                let mut state = self.core.state.lock();
                // Counted before the cut but reaching the cache after it
                // (another device's operation was the crash point and
                // `cut_power` already took this journal under this
                // lock): the barrier did not complete.
                if self.plan.crashed() {
                    return Err(Self::dead("sync after power cut", 0));
                }
                let journal = std::mem::take(&mut state.journal);
                for entry in &journal {
                    self.core.durable.write_at(entry.offset, &entry.data)?;
                }
                self.core.durable.sync()
            }
        }
    }

    fn len(&self) -> u64 {
        self.core.state.lock().image.len() as u64
    }

    fn stats(&self) -> DeviceStats {
        self.core.durable.stats()
    }
}

/// Sebastiano Vigna's splitmix64: tiny, seedable, good enough to pick
/// crash subsets deterministically without pulling in a rand crate.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish draw in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use crate::device::MemDevice;

    #[test]
    fn synced_writes_reach_durable_unsynced_do_not() {
        let durable = Arc::new(MemDevice::new());
        let plan = CrashPlan::new(u64::MAX, 7);
        let dev = CrashDevice::new(durable.clone(), &plan);
        dev.write_at(0, &[1u8; 8]).unwrap();
        assert_eq!(durable.len(), 0, "write must buffer until sync");
        dev.sync().unwrap();
        assert_eq!(durable.len(), 8);
        dev.write_at(8, &[2u8; 8]).unwrap();
        assert_eq!(durable.len(), 8, "second write unsynced");
        // The cache view still serves the unsynced write.
        let mut buf = [0u8; 8];
        dev.read_at(8, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 8]);
    }

    #[test]
    fn crash_at_op_index_kills_all_devices_on_the_plan() {
        let durable_a = Arc::new(MemDevice::new());
        let durable_b = Arc::new(MemDevice::new());
        let plan = CrashPlan::new(2, 7);
        let a = CrashDevice::new(durable_a.clone(), &plan);
        let b = CrashDevice::new(durable_b.clone(), &plan);
        a.write_at(0, &[1u8; 4]).unwrap(); // op 0
        b.write_at(0, &[2u8; 4]).unwrap(); // op 1
        let err = a.write_at(4, &[3u8; 4]).unwrap_err(); // op 2: crash
        assert!(format!("{err}").contains("injected fault"));
        assert!(plan.crashed());
        // Both devices are dead now.
        assert!(b.write_at(8, &[4u8; 4]).is_err());
        assert!(a.sync().is_err());
        let mut buf = [0u8; 4];
        assert!(a.read_at(0, &mut buf).is_err());
    }

    #[test]
    fn crash_persists_a_subset_never_a_phantom() {
        // Whatever the seed selects, durable contents after a crash are
        // drawn from the journaled writes: bytes are either the written
        // pattern or still zero, never anything else.
        for seed in 0..50u64 {
            let durable = Arc::new(MemDevice::new());
            let plan = CrashPlan::new(4, seed);
            let dev = CrashDevice::new(durable.clone(), &plan);
            for i in 0..4u64 {
                dev.write_at(i * 16, &[0x10 + i as u8; 16]).unwrap();
            }
            assert!(dev.sync().is_err(), "op 4 is the crash point");
            // Check each 16-byte stripe: all-pattern prefix then zeros
            // (whole, torn, or dropped — never foreign bytes).
            let len = durable.len() as usize;
            let mut data = vec![0u8; len];
            if len > 0 {
                durable.read_at(0, &mut data).unwrap();
            }
            for i in 0..4usize {
                let pat = 0x10 + i as u8;
                let stripe: Vec<u8> = data.iter().skip(i * 16).take(16).copied().collect();
                let mut seen_zero = false;
                for &b in &stripe {
                    if b == 0 {
                        seen_zero = true;
                    } else {
                        assert_eq!(b, pat, "seed {seed} stripe {i}: foreign byte");
                        assert!(!seen_zero, "seed {seed} stripe {i}: non-prefix tear");
                    }
                }
            }
        }
    }

    #[test]
    fn crash_subset_is_deterministic_per_seed() {
        let snapshot = |seed: u64| -> Vec<u8> {
            let durable = Arc::new(MemDevice::new());
            let plan = CrashPlan::new(3, seed);
            let dev = CrashDevice::new(durable.clone(), &plan);
            for i in 0..3u64 {
                dev.write_at(i * 8, &[i as u8 + 1; 8]).unwrap();
            }
            let _ = dev.sync();
            let mut data = vec![0u8; durable.len() as usize];
            if !data.is_empty() {
                durable.read_at(0, &mut data).unwrap();
            }
            data
        };
        assert_eq!(snapshot(42), snapshot(42));
    }

    #[test]
    fn page_sized_writes_tear_on_page_boundaries() {
        // Across many seeds, any torn multi-page journal entry must cut
        // on a PAGE_SIZE boundary.
        for seed in 0..40u64 {
            let durable = Arc::new(MemDevice::new());
            let plan = CrashPlan::new(1, seed);
            let dev = CrashDevice::new(durable.clone(), &plan);
            let buf = vec![0xEE; 4 * PAGE_SIZE];
            dev.write_at(0, &buf).unwrap(); // op 0, journaled
            let _ = dev.sync(); // op 1: crash
            let len = durable.len() as usize;
            if len > 0 {
                let mut data = vec![0u8; len];
                durable.read_at(0, &mut data).unwrap();
                let written = data.iter().take_while(|&&b| b == 0xEE).count();
                assert_eq!(
                    written % PAGE_SIZE,
                    0,
                    "seed {seed}: page-sized write torn mid-page ({written} bytes)"
                );
                assert!(data.iter().skip(written).all(|&b| b == 0));
            }
        }
    }

    #[test]
    fn reopen_seeds_image_from_durable_contents() {
        let durable = Arc::new(MemDevice::new());
        durable.write_at(0, &[9u8; 32]).unwrap();
        let plan = CrashPlan::new(u64::MAX, 1);
        let dev = CrashDevice::new(durable, &plan);
        let mut buf = [0u8; 32];
        dev.read_at(0, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 32]);
    }
}
