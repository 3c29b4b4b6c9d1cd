//! What the operating system knows about the run: CPU time, peak
//! memory, context switches, and the environment the numbers came from.
//! Also the scratch directory every run works in.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::hist::median;
use crate::json::Json;

/// A scratch directory removed when the guard drops — on success, on a
/// returned error, and on a panic that unwinds.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `base/<tag>-<pid>`, emptying any leftover of that name.
    pub fn new(base: &Path, tag: &str) -> std::io::Result<TempDir> {
        let path = base.join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Bytes under `dir`, for the disk-footprint line of a result.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Asks the kernel to write out everything dirty, so one phase's
/// leftovers are not flushed on the next phase's time.
pub fn sync_filesystems() {
    let _ = std::process::Command::new("sync").status();
}

/// Linux reports process times in ticks of 1/100 s whatever the kernel's
/// own timer rate is.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds of the whole process, every thread,
/// living or exited.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis. utime and stime are fields 14 and 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(user), Some(sys)) => (user + sys) / TICKS_PER_SECOND,
        _ => 0.0,
    }
}

fn status_field(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process, MB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Context switches, voluntary and not, of every thread now alive.
/// Threads that have exited take their counts with them, so callers
/// read this while the threads they care about still run.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Median microseconds of a small write followed by `sync_data` on a
/// scratch file in `dir`: what this filesystem charges for one durable
/// acknowledgement.
fn raw_fsync_us(dir: &Path, samples: usize) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut file) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let _ = file.write_all(&[0u8; 4096]);
    let _ = file.sync_data();
    let mut us = Vec::with_capacity(samples);
    for i in 0..samples as u64 {
        let start = Instant::now();
        let _ = file.write_all(&i.to_le_bytes());
        let _ = file.sync_data();
        us.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    let _ = std::fs::remove_file(&path);
    median(&us)
}

/// Filesystem type of the mount `dir` lives on.
fn filesystem_of(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> <source> ..."
    mounts
        .lines()
        .filter_map(|l| {
            let (head, tail) = l.split_once(" - ")?;
            let mount_point = head.split(' ').nth(4)?;
            let fstype = tail.split(' ').next()?;
            dir.starts_with(mount_point)
                .then(|| (mount_point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Where the numbers came from; goes into every result file.
pub fn fingerprint(dir: &Path) -> Json {
    let fsync_p50 = raw_fsync_us(dir, 32);
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "kernel",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            ),
        ),
        ("filesystem", Json::str(filesystem_of(dir))),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("raw_fsync_p50_us", Json::Num(fsync_p50)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dir_is_removed_on_drop_and_on_panic() {
        let base = Path::new(".bench_tmp");
        let kept;
        {
            let t = TempDir::new(base, "sys-drop").unwrap();
            std::fs::write(t.path().join("x"), b"abc").unwrap();
            assert_eq!(dir_bytes(t.path()), 3);
            kept = t.path().to_path_buf();
        }
        assert!(!kept.exists());

        let panicked = std::panic::catch_unwind(|| {
            let t = TempDir::new(Path::new(".bench_tmp"), "sys-panic").unwrap();
            let p = t.path().to_path_buf();
            std::panic::panic_any(p);
        });
        let path = *panicked.unwrap_err().downcast::<PathBuf>().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn proc_readers_return_plausible_numbers() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 60 {
            x = x.wrapping_add(crate::gen::mix64(x));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() - before >= 0.03);
        assert!(rss_peak_mb() > 1.0);
        assert!(context_switches() > 0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(text, "VmHWM"), Some(2048));
        assert_eq!(status_field(text, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(text, "VmRSS"), None);
    }

    #[test]
    fn fingerprint_names_the_environment() {
        let t = TempDir::new(Path::new(".bench_tmp"), "sys-fp").unwrap();
        let fp = fingerprint(t.path());
        for key in [
            "nproc",
            "kernel",
            "filesystem",
            "rustc",
            "git_commit",
            "raw_fsync_p50_us",
        ] {
            assert!(fp.get(key).is_some(), "missing {key}");
        }
        assert_ne!(fp.get("filesystem").unwrap().as_str(), Some("unknown"));
        assert!(fp.get("raw_fsync_p50_us").unwrap().as_f64().unwrap() > 0.0);
    }
}
