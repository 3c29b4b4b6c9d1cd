//! Device wrappers the benchmark owns: [`TracedDevice`] observes the
//! calls the engine makes, [`CutDevice`] remembers what a power cut
//! would lose.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use blsm_storage::device::Device;
use blsm_storage::{DeviceStats, Result, SharedDevice, StorageError};

use crate::trace::{Call, DeviceRole, Tracer};

/// Passes every call through to `inner`, reporting it to the tracer.
pub struct TracedDevice {
    inner: SharedDevice,
    role: DeviceRole,
    tracer: Arc<Tracer>,
}

impl TracedDevice {
    pub fn wrap(inner: SharedDevice, role: DeviceRole, tracer: &Arc<Tracer>) -> SharedDevice {
        Arc::new(TracedDevice {
            inner,
            role,
            tracer: tracer.clone(),
        })
    }
}

impl Device for TracedDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let len = buf.len();
        self.tracer.device_call(self.role, Call::Read, len, || {
            self.inner.read_at(offset, buf)
        })
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.tracer
            .device_call(self.role, Call::Write, buf.len(), || {
                self.inner.write_at(offset, buf)
            })
    }

    fn sync(&self) -> Result<()> {
        self.tracer
            .device_call(self.role, Call::Sync, 0, || self.inner.sync())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }
}

/// Remembers which byte ranges were written since the last completed
/// `sync`, and can be killed: after [`CutDevice::cut`] every call fails,
/// as a device that lost power would, and
/// [`CutDevice::unsynced_ranges`] says what the power cut may have
/// taken with it.
///
/// Killing the process would not do: the operating system's cache would
/// still hold, and later write out, everything the engine wrote but
/// never flushed.
pub struct CutDevice {
    inner: SharedDevice,
    /// Ranges `(offset, len)` written and not yet covered by a `sync`
    /// that started after the write returned.
    unsynced: Mutex<Vec<(u64, u64)>>,
    // ordering: SeqCst — checked on every call against a flag set once.
    dead: AtomicBool,
}

fn dead() -> StorageError {
    StorageError::Io(std::io::Error::other("power cut"))
}

impl CutDevice {
    pub fn new(inner: SharedDevice) -> Arc<CutDevice> {
        Arc::new(CutDevice {
            inner,
            unsynced: Mutex::new(Vec::new()),
            dead: AtomicBool::new(false),
        })
    }

    /// Cuts power: every later call fails.
    pub fn cut(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    pub fn unsynced_ranges(&self) -> Vec<(u64, u64)> {
        self.unsynced.lock().expect("range list poisoned").clone()
    }
}

impl Device for CutDevice {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead());
        }
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead());
        }
        self.inner.write_at(offset, buf)?;
        self.unsynced
            .lock()
            .expect("range list poisoned")
            .push((offset, buf.len() as u64));
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead());
        }
        // Only writes that returned before the flush began are covered
        // by it; one racing with it stays on the list.
        let covered = self.unsynced.lock().expect("range list poisoned").len();
        self.inner.sync()?;
        if self.dead.load(Ordering::SeqCst) {
            return Err(dead());
        }
        self.unsynced
            .lock()
            .expect("range list poisoned")
            .drain(..covered);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn now_us(&self) -> u64 {
        self.inner.now_us()
    }
}

/// Overwrites `ranges` of the file at `path` with zeroes: the bytes a
/// power cut took.
pub fn zero_ranges(path: &Path, ranges: &[(u64, u64)]) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    let file_len = file.metadata()?.len();
    let zeroes = [0u8; 4096];
    for &(offset, len) in ranges {
        let end = (offset + len).min(file_len);
        let mut at = offset;
        while at < end {
            let n = (end - at).min(zeroes.len() as u64) as usize;
            file.write_all_at(&zeroes[..n], at)?;
            at += n as u64;
        }
    }
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DeviceTotals;
    use blsm_storage::MemDevice;

    fn drive(dev: &dyn Device) {
        dev.write_at(0, &[1u8; 100]).unwrap();
        dev.write_at(100, &[2u8; 50]).unwrap();
        dev.sync().unwrap();
        dev.write_at(4096, &[3u8; 10]).unwrap();
        let mut buf = [0u8; 50];
        dev.read_at(100, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 50]);
        dev.read_at(0, &mut buf).unwrap();
    }

    #[test]
    fn wrappers_pass_through_to_the_inner_device() {
        let plain = MemDevice::new();
        drive(&plain);

        let tracer = Arc::new(Tracer::new(true));
        let traced_inner: SharedDevice = Arc::new(MemDevice::new());
        let traced = TracedDevice::wrap(traced_inner.clone(), DeviceRole::Data, &tracer);
        drive(traced.as_ref());
        assert_eq!(traced.stats(), plain.stats());
        assert_eq!(traced_inner.stats(), plain.stats());
        assert_eq!(traced.len(), plain.len());
        let totals = tracer.totals();
        let stats = plain.stats();
        assert_eq!(
            totals.of(DeviceRole::Data, Call::Write).bytes,
            stats.bytes_written
        );
        assert_eq!(
            totals.of(DeviceRole::Data, Call::Read).bytes,
            stats.bytes_read
        );
        assert_eq!(totals.of(DeviceRole::Data, Call::Sync).calls, stats.syncs);
        assert_eq!(totals.of(DeviceRole::Wal, Call::Write).calls, 0);
        assert_ne!(totals, DeviceTotals::default());

        let cut = CutDevice::new(Arc::new(MemDevice::new()));
        drive(cut.as_ref());
        assert_eq!(cut.stats(), plain.stats());
        assert_eq!(cut.len(), plain.len());
    }

    #[test]
    fn cut_device_tracks_what_a_power_cut_would_lose() {
        let cut = CutDevice::new(Arc::new(MemDevice::new()));
        cut.write_at(0, &[1u8; 100]).unwrap();
        assert_eq!(cut.unsynced_ranges(), vec![(0, 100)]);
        cut.sync().unwrap();
        assert!(cut.unsynced_ranges().is_empty());
        cut.write_at(200, &[2u8; 30]).unwrap();
        cut.write_at(500, &[3u8; 7]).unwrap();
        assert_eq!(cut.unsynced_ranges(), vec![(200, 30), (500, 7)]);

        cut.cut();
        assert!(cut.write_at(0, &[9u8; 1]).is_err());
        assert!(cut.sync().is_err());
        assert!(cut.read_at(0, &mut [0u8; 1]).is_err());
        // Dying loses nothing more and forgives nothing.
        assert_eq!(cut.unsynced_ranges(), vec![(200, 30), (500, 7)]);
    }

    #[test]
    fn zeroing_takes_exactly_the_named_ranges() {
        let dir = crate::sys::TempDir::new(Path::new(".bench_tmp"), "zero").unwrap();
        let path = dir.path().join("f");
        std::fs::write(&path, vec![7u8; 10_000]).unwrap();
        zero_ranges(&path, &[(10, 5), (5_000, 4_500), (9_990, 100)]).unwrap();
        let got = std::fs::read(&path).unwrap();
        assert_eq!(got.len(), 10_000);
        for (i, &b) in got.iter().enumerate() {
            let zeroed = (10..15).contains(&i) || (5_000..9_500).contains(&i) || i >= 9_990;
            assert_eq!(b == 0, zeroed, "byte {i}");
        }
    }
}
