//! Spans and device-call totals for the traced run.
//!
//! The program under test records nothing itself (that is a later
//! change); everything here is observed from outside it: a root span
//! around each operation the generator issues, and a child span around
//! each call the engine makes into a device wrapper the benchmark owns
//! ([`crate::devices::TracedDevice`]). Generator threads mark
//! themselves, so a device call can be told apart as made *for* the
//! current operation (same thread, inside a root span) or by somebody
//! else (merge thread, reactor, committer).
//!
//! Spans stay in memory until the phase ends. Device calls are also
//! counted exactly, per device and per caller kind, whether or not the
//! tracer is switched on: the sampled spans alone would make ratios such
//! as bytes written per user byte noisy. Only timing is switched, which
//! is what lets one run alternate traced and untraced time slices and
//! report what tracing costs.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// What a span covers. Root spans are operations, the rest device calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    OpRead = 0,
    OpWrite = 1,
    OpScan = 2,
    /// One pipelined batch over the wire.
    OpBatch = 3,
    DataRead = 4,
    DataWrite = 5,
    DataSync = 6,
    WalRead = 7,
    WalWrite = 8,
    WalSync = 9,
}

pub const SPAN_NAMES: [&str; 10] = [
    "op.read",
    "op.write",
    "op.scan",
    "op.batch",
    "storage.device.data.read",
    "storage.device.data.write",
    "storage.device.data.sync",
    "storage.device.wal.read",
    "storage.device.wal.write",
    "storage.device.wal.sync",
];

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// Generator thread, from 1.
    pub thread: u32,
    /// Position of the enclosing root span in the same thread's list,
    /// or `u32::MAX` for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Which device a wrapper stands in front of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceRole {
    Data = 0,
    Wal = 1,
}

/// The kind of device call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Read = 0,
    Write = 1,
    Sync = 2,
}

/// Totals of one kind of call on one device by one kind of caller.
#[derive(Debug, Default)]
struct CallTotals {
    // ordering: Relaxed throughout — statistics read after the threads
    // that bump them have been joined or quiesced.
    calls: AtomicU64,
    bytes: AtomicU64,
    timed_calls: AtomicU64,
    nanos: AtomicU64,
}

/// Calls and bytes count every call; `timed_calls` and `nanos` only the
/// calls made while the tracer was switched on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallSnapshot {
    pub calls: u64,
    pub bytes: u64,
    pub timed_calls: u64,
    pub nanos: u64,
}

impl CallSnapshot {
    /// Mean duration of a timed call, microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.timed_calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.timed_calls as f64 / 1e3
        }
    }
}

/// Exact device-call totals: `[device][call][by a generator thread?]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceTotals(pub [[[CallSnapshot; 2]; 3]; 2]);

impl DeviceTotals {
    pub fn of(&self, dev: DeviceRole, call: Call) -> CallSnapshot {
        let [bg, fg] = self.0[dev as usize][call as usize];
        CallSnapshot {
            calls: bg.calls + fg.calls,
            bytes: bg.bytes + fg.bytes,
            timed_calls: bg.timed_calls + fg.timed_calls,
            nanos: bg.nanos + fg.nanos,
        }
    }

    /// Calls made by threads other than the generators.
    pub fn background(&self, dev: DeviceRole, call: Call) -> CallSnapshot {
        self.0[dev as usize][call as usize][0]
    }

    pub fn since(&self, earlier: &DeviceTotals) -> DeviceTotals {
        let mut out = *self;
        for (d, dev) in out.0.iter_mut().enumerate() {
            for (c, call) in dev.iter_mut().enumerate() {
                for (w, who) in call.iter_mut().enumerate() {
                    let e = earlier.0[d][c][w];
                    who.calls -= e.calls;
                    who.bytes -= e.bytes;
                    who.timed_calls -= e.timed_calls;
                    who.nanos -= e.nanos;
                }
            }
        }
        out
    }
}

/// Shared by the device wrappers and the generator threads of one run.
#[derive(Debug)]
pub struct Tracer {
    // ordering: Relaxed — a switch the generator flips between time
    // slices; a device call that sees the old value is traced or not
    // traced one call late, which is noise, not an error.
    enabled: AtomicBool,
    epoch: Instant,
    totals: [[[CallTotals; 2]; 3]; 2],
}

thread_local! {
    /// 0 on threads the benchmark did not start as generators.
    static GENERATOR: Cell<u32> = const { Cell::new(0) };
    /// Position of the open, sampled root span in `SPANS`, if any.
    static OPEN_ROOT: Cell<u32> = const { Cell::new(u32::MAX) };
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// Spans one generator thread may hold; past it, sampling stops.
const MAX_SPANS_PER_THREAD: usize = 4 << 20;

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            totals: Default::default(),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Marks the calling thread as generator `id` (from 1).
    pub fn enter_generator(id: u32) {
        GENERATOR.set(id);
        OPEN_ROOT.set(u32::MAX);
        SPANS.with_borrow_mut(Vec::clear);
    }

    /// The calling generator thread's spans; the thread stops being a
    /// generator.
    pub fn leave_generator() -> Vec<Span> {
        GENERATOR.set(0);
        OPEN_ROOT.set(u32::MAX);
        SPANS.take()
    }

    /// Opens a root span for the operation the calling generator is
    /// about to issue. Device calls on this thread become its children
    /// until [`Tracer::close_root`].
    pub fn open_root(&self, kind: SpanKind, start_ns: u64) {
        if !self.enabled() {
            return;
        }
        SPANS.with_borrow_mut(|spans| {
            if spans.len() < MAX_SPANS_PER_THREAD {
                OPEN_ROOT.set(spans.len() as u32);
                spans.push(Span {
                    kind,
                    thread: GENERATOR.get(),
                    parent: u32::MAX,
                    start_ns,
                    end_ns: start_ns,
                });
            }
        });
    }

    pub fn close_root(&self, end_ns: u64) {
        let at = OPEN_ROOT.replace(u32::MAX);
        if at != u32::MAX {
            SPANS.with_borrow_mut(|spans| spans[at as usize].end_ns = end_ns);
        }
    }

    /// Counts one device call; while the tracer is on, also times it,
    /// and records a child span when it runs inside a sampled root span.
    pub fn device_call<T>(
        &self,
        dev: DeviceRole,
        call: Call,
        bytes: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let generator = GENERATOR.get();
        let t = &self.totals[dev as usize][call as usize][usize::from(generator != 0)];
        t.calls.fetch_add(1, Ordering::Relaxed);
        t.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        if !self.enabled() {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        t.timed_calls.fetch_add(1, Ordering::Relaxed);
        t.nanos.fetch_add(end_ns - start_ns, Ordering::Relaxed);
        let parent = OPEN_ROOT.get();
        if parent != u32::MAX {
            let kind = match (dev, call) {
                (DeviceRole::Data, Call::Read) => SpanKind::DataRead,
                (DeviceRole::Data, Call::Write) => SpanKind::DataWrite,
                (DeviceRole::Data, Call::Sync) => SpanKind::DataSync,
                (DeviceRole::Wal, Call::Read) => SpanKind::WalRead,
                (DeviceRole::Wal, Call::Write) => SpanKind::WalWrite,
                (DeviceRole::Wal, Call::Sync) => SpanKind::WalSync,
            };
            SPANS.with_borrow_mut(|spans| {
                spans.push(Span {
                    kind,
                    thread: generator,
                    parent,
                    start_ns,
                    end_ns,
                });
            });
        }
        out
    }

    pub fn totals(&self) -> DeviceTotals {
        let mut out = DeviceTotals::default();
        for (d, dev) in self.totals.iter().enumerate() {
            for (c, call) in dev.iter().enumerate() {
                for (w, who) in call.iter().enumerate() {
                    out.0[d][c][w] = CallSnapshot {
                        calls: who.calls.load(Ordering::Relaxed),
                        bytes: who.bytes.load(Ordering::Relaxed),
                        timed_calls: who.timed_calls.load(Ordering::Relaxed),
                        nanos: who.nanos.load(Ordering::Relaxed),
                    };
                }
            }
        }
        out
    }
}

/// Mean self time of the root spans of `kind`: each root's duration
/// minus what its children (device calls on the same thread) cover.
/// Returns the mean in nanoseconds and the number of roots.
pub fn mean_self_ns(threads: &[Vec<Span>], kind: SpanKind) -> (f64, u64) {
    let mut self_ns = 0u64;
    let mut roots = 0u64;
    for spans in threads {
        for (i, root) in spans.iter().enumerate() {
            if root.parent != u32::MAX || root.kind != kind {
                continue;
            }
            // Children follow their root directly: a thread has one
            // open root at a time.
            let children: u64 = spans[i + 1..]
                .iter()
                .take_while(|s| s.parent == i as u32)
                .map(Span::nanos)
                .sum();
            self_ns += root.nanos().saturating_sub(children);
            roots += 1;
        }
    }
    if roots == 0 {
        (0.0, 0)
    } else {
        (self_ns as f64 / roots as f64, roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_calls_nest_under_the_open_root_and_are_summed() {
        let tracer = Tracer::new(true);
        let spans = std::thread::scope(|s| {
            s.spawn(|| {
                Tracer::enter_generator(1);
                let t0 = tracer.now_ns();
                tracer.open_root(SpanKind::OpRead, t0);
                tracer.device_call(DeviceRole::Data, Call::Read, 4096, || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
                tracer.close_root(tracer.now_ns());
                // Outside any root: summed, but no span.
                tracer.device_call(DeviceRole::Wal, Call::Write, 10, || ());
                Tracer::leave_generator()
            })
            .join()
            .unwrap()
        });
        // A call from a thread that is not a generator is background.
        tracer.device_call(DeviceRole::Data, Call::Write, 8192, || ());

        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::OpRead);
        assert_eq!(spans[1].kind, SpanKind::DataRead);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let (self_ns, roots) = mean_self_ns(std::slice::from_ref(&spans), SpanKind::OpRead);
        assert_eq!(roots, 1);
        assert!(self_ns < spans[0].nanos() as f64 - 1_900_000.0);

        let totals = tracer.totals();
        let reads = totals.of(DeviceRole::Data, Call::Read);
        assert_eq!((reads.calls, reads.bytes), (1, 4096));
        assert!(reads.nanos >= 2_000_000);
        assert_eq!(totals.background(DeviceRole::Data, Call::Read).calls, 0);
        assert_eq!(totals.background(DeviceRole::Data, Call::Write).bytes, 8192);
        assert_eq!(totals.of(DeviceRole::Wal, Call::Write).calls, 1);
        assert_eq!(totals.since(&totals), DeviceTotals::default());
    }

    #[test]
    fn a_switched_off_tracer_counts_but_neither_times_nor_records() {
        let tracer = Tracer::new(false);
        Tracer::enter_generator(1);
        tracer.open_root(SpanKind::OpWrite, 0);
        assert_eq!(tracer.device_call(DeviceRole::Wal, Call::Sync, 0, || 7), 7);
        tracer.close_root(5);
        assert!(Tracer::leave_generator().is_empty());
        let syncs = tracer.totals().of(DeviceRole::Wal, Call::Sync);
        assert_eq!((syncs.calls, syncs.timed_calls, syncs.nanos), (1, 0, 0));
    }
}
