//! One measured phase: generator threads started together, stopped by
//! the clock, and bracketed by counter snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use crate::exec::{EngineTarget, Failure, Failures, WireTarget};
use crate::gen::{Op, OpClass, OpGen, CLASSES};
use crate::hist::{SliceHist, SLICES};
use crate::openloop::{run_open_loop, Clock, OpenLoopStats, Schedule};
use crate::sys;
use crate::trace::{Span, SpanKind, Tracer};

/// In a traced run one engine operation in this many gets a root span
/// (every one would cost more than the operation; wire batches are slow
/// enough that each gets one).
const SAMPLE_EVERY: u64 = 16;
/// One written id in this many is kept for the read-back check.
const KEEP_WRITTEN_EVERY: u64 = 256;
/// A write slower than this did merge work inline.
const INLINE_MERGE_NS: u64 = 1_000_000;
/// A write slower than this was stalled by the scheduler.
const STALL_NS: u64 = 10_000_000;

/// What one generator thread measured.
#[derive(Debug, Default)]
pub struct ThreadResult {
    /// Latency per op class, by time slice.
    pub latency: [SliceHist; CLASSES],
    pub attempted: u64,
    pub failures: Failures,
    /// User bytes handed to the store in writes that succeeded, by time
    /// slice.
    pub user_bytes: [u64; SLICES],
    /// Nanoseconds spent in writes slower than [`INLINE_MERGE_NS`] and
    /// [`STALL_NS`]; meaningful where a write is one engine call.
    pub slow_write_ns: [u64; 2],
    pub spans: Vec<Span>,
    /// When this thread's last operation returned.
    pub last_done_ns: u64,
    /// A sample of the ids written, for the read-back check.
    pub written: Vec<u64>,
    pub stream_hash: u64,
    pub open: Option<OpenLoopStats>,
}

impl ThreadResult {
    fn count(&mut self, op: &Op, outcome: Result<(), Failure>, nanos: u64, slice: usize) {
        self.attempted += 1;
        self.latency[op.class() as usize].record(slice, nanos);
        match outcome {
            Ok(()) => {
                self.user_bytes[slice.min(SLICES - 1)] += op.user_bytes();
                if let Op::Put { id } | Op::Cins { id, fresh: true } = *op {
                    if self.attempted.is_multiple_of(KEEP_WRITTEN_EVERY) {
                        self.written.push(id);
                    }
                }
            }
            Err(f) => self.failures.add(f, 1),
        }
        if op.class() == OpClass::Write {
            self.slow_write_ns[0] += if nanos > INLINE_MERGE_NS { nanos } else { 0 };
            self.slow_write_ns[1] += if nanos > STALL_NS { nanos } else { 0 };
        }
    }
}

/// Process-wide readings taken where the counters are.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsReading {
    pub cpu_s: f64,
    pub ctx_switches: u64,
}

impl OsReading {
    fn now() -> OsReading {
        OsReading {
            cpu_s: sys::cpu_seconds(),
            ctx_switches: sys::context_switches(),
        }
    }
}

/// A finished phase: per-thread results and the readings around them.
#[derive(Debug)]
pub struct Measured<S> {
    pub threads: Vec<ThreadResult>,
    pub before: S,
    /// Taken half way through the phase.
    pub mid: S,
    pub after: S,
    pub os_before: OsReading,
    pub os_after: OsReading,
    /// From the common start to the return of the last operation.
    pub wall_ns: u64,
}

impl<S> Measured<S> {
    pub fn attempted(&self) -> u64 {
        self.threads.iter().map(|t| t.attempted).sum()
    }

    pub fn failures(&self) -> Failures {
        let mut all = Failures::default();
        self.threads.iter().for_each(|t| all.merge(&t.failures));
        all
    }

    pub fn user_bytes(&self) -> u64 {
        self.threads.iter().flat_map(|t| t.user_bytes).sum()
    }

    /// User bytes written in the second half of the phase.
    pub fn user_bytes_second_half(&self) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| &t.user_bytes[SLICES / 2..])
            .sum()
    }

    pub fn latency(&self, class: OpClass) -> SliceHist {
        let mut all = SliceHist::default();
        for t in &self.threads {
            all.merge(&t.latency[class as usize]);
        }
        all
    }

    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }
}

/// What a generator thread needs to know about the phase it is in.
#[derive(Debug)]
pub struct PhaseClock<'a> {
    pub tracer: &'a Tracer,
    pub start_ns: u64,
    pub duration_ns: u64,
    /// Traced run: even slices are traced, odd ones are not, so one run
    /// shows what tracing costs and still yields untraced latencies.
    pub interleave: bool,
    pub lane: u32,
}

impl PhaseClock<'_> {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.duration_ns
    }

    pub fn slice_of(&self, t_ns: u64) -> usize {
        let slice = t_ns.saturating_sub(self.start_ns) * SLICES as u64 / self.duration_ns.max(1);
        (slice as usize).min(SLICES - 1)
    }

    /// Lane 0 switches the tracer at slice boundaries.
    fn entered_slice(&self, slice: usize) {
        if self.interleave && self.lane == 0 {
            self.tracer.set_enabled(traced_slice(slice));
        }
    }
}

/// Whether tracing is on during `slice` of a traced run.
pub fn traced_slice(slice: usize) -> bool {
    slice.is_multiple_of(2)
}

impl Clock for PhaseClock<'_> {
    fn now_ns(&self) -> u64 {
        self.tracer.now_ns()
    }

    fn sleep_until(&self, t_ns: u64) {
        let now = self.tracer.now_ns();
        if t_ns > now {
            std::thread::sleep(std::time::Duration::from_nanos(t_ns - now));
        }
    }
}

/// Runs `threads` generator threads through `body`, all released at the
/// same instant, and takes `snapshot` just before that instant and again
/// when every thread has finished but none has exited (a thread that
/// exits takes its context-switch count with it).
pub fn measure<S: Send>(
    tracer: &Tracer,
    threads: u32,
    duration_ns: u64,
    interleave: bool,
    snapshot: impl Fn() -> S + Sync,
    body: impl Fn(&PhaseClock<'_>) -> ThreadResult + Sync,
) -> Measured<S> {
    let ready = Barrier::new(threads as usize + 1);
    let go = Barrier::new(threads as usize + 1);
    let done = Barrier::new(threads as usize + 1);
    let release = Barrier::new(threads as usize + 1);
    // ordering: SeqCst — written once between two barriers.
    let start = AtomicU64::new(0);
    tracer.set_enabled(interleave);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|lane| {
                let (ready, go, done, release, start, body) =
                    (&ready, &go, &done, &release, &start, &body);
                scope.spawn(move || {
                    Tracer::enter_generator(lane + 1);
                    ready.wait();
                    go.wait();
                    let clock = PhaseClock {
                        tracer,
                        start_ns: start.load(Ordering::SeqCst),
                        duration_ns,
                        interleave,
                        lane,
                    };
                    let mut result = body(&clock);
                    result.spans = Tracer::leave_generator();
                    done.wait();
                    release.wait();
                    result
                })
            })
            .collect();
        ready.wait();
        let before = snapshot();
        let os_before = OsReading::now();
        let start_ns = tracer.now_ns();
        start.store(start_ns, Ordering::SeqCst);
        go.wait();
        std::thread::sleep(std::time::Duration::from_nanos(duration_ns / 2));
        let mid = snapshot();
        done.wait();
        let os_after = OsReading::now();
        let after = snapshot();
        release.wait();
        tracer.set_enabled(false);
        let threads: Vec<ThreadResult> = handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect();
        let last = threads.iter().map(|t| t.last_done_ns).max().unwrap_or(0);
        Measured {
            threads,
            before,
            mid,
            after,
            os_before,
            os_after,
            wall_ns: last.saturating_sub(start_ns).max(1),
        }
    })
}

fn root_kind(op: &Op) -> SpanKind {
    match op.class() {
        OpClass::Read => SpanKind::OpRead,
        OpClass::Write => SpanKind::OpWrite,
        OpClass::Scan => SpanKind::OpScan,
    }
}

/// Closed loop against the engine: the next operation starts when the
/// last one returns, until the clock runs out.
pub fn engine_closed_loop(
    clock: &PhaseClock<'_>,
    gen: &mut OpGen,
    target: &mut EngineTarget<'_>,
) -> ThreadResult {
    let mut r = ThreadResult::default();
    let tracer = clock.tracer;
    let mut slice = usize::MAX;
    let mut n = 0u64;
    loop {
        let op = gen.next_op();
        let t0 = tracer.now_ns();
        if t0 >= clock.end_ns() {
            break;
        }
        let now_slice = clock.slice_of(t0);
        if now_slice != slice {
            slice = now_slice;
            clock.entered_slice(slice);
        }
        let sampled = clock.interleave && n.is_multiple_of(SAMPLE_EVERY);
        if sampled {
            tracer.open_root(root_kind(&op), t0);
        }
        let outcome = target.exec(&op);
        let t1 = tracer.now_ns();
        if sampled {
            tracer.close_root(t1);
        }
        r.count(&op, outcome, t1 - t0, slice);
        r.last_done_ns = t1;
        n += 1;
    }
    r.stream_hash = gen.stream_hash();
    r
}

/// Sends one batch and files every request in it under the batch's
/// round time, `since_ns` being when the round is taken to have begun.
fn wire_batch(
    r: &mut ThreadResult,
    tracer: &Tracer,
    target: &mut WireTarget,
    ops: &[Op],
    since_ns: impl Fn(usize) -> u64,
    slice: usize,
    traced: bool,
) {
    let sent_ns = tracer.now_ns();
    if traced {
        tracer.open_root(SpanKind::OpBatch, sent_ns);
    }
    let mut failed_any = Vec::new();
    target.exec_batch(ops, |f| failed_any.push(f));
    let done_ns = tracer.now_ns();
    if traced {
        tracer.close_root(done_ns);
    }
    // Which request failed is not known past the count; charge failures
    // to the batch's first requests. Shares are what is reported.
    for (i, op) in ops.iter().enumerate() {
        let outcome = failed_any.get(i).map_or(Ok(()), |f| Err(*f));
        r.count(op, outcome, done_ns.saturating_sub(since_ns(i)), slice);
    }
    r.last_done_ns = done_ns;
}

/// Closed loop over one connection: a pipelined batch of `depth`
/// requests, the next batch when every answer is in.
pub fn wire_closed_loop(
    clock: &PhaseClock<'_>,
    gen: &mut OpGen,
    target: &mut WireTarget,
    depth: usize,
) -> ThreadResult {
    let mut r = ThreadResult::default();
    let mut slice = usize::MAX;
    loop {
        let ops: Vec<Op> = (0..depth).map(|_| gen.next_op()).collect();
        let t0 = clock.tracer.now_ns();
        if t0 >= clock.end_ns() {
            break;
        }
        let now_slice = clock.slice_of(t0);
        if now_slice != slice {
            slice = now_slice;
            clock.entered_slice(slice);
        }
        wire_batch(
            &mut r,
            clock.tracer,
            target,
            &ops,
            |_| t0,
            slice,
            clock.interleave,
        );
    }
    r.stream_hash = gen.stream_hash();
    r
}

/// Open loop over one connection at `rate_per_s`: whatever has fallen
/// due goes out as one batch of at most `window`; latency runs from each
/// request's due time.
pub fn wire_open_loop(
    clock: &PhaseClock<'_>,
    gen: &mut OpGen,
    target: &mut WireTarget,
    rate_per_s: u64,
    window: u32,
    late_limit_ns: u64,
) -> ThreadResult {
    let mut r = ThreadResult::default();
    let schedule = Schedule::new(clock.start_ns, rate_per_s, clock.duration_ns);
    let due_at = schedule.clone();
    let mut slice = usize::MAX;
    let stats = run_open_loop(
        clock,
        schedule,
        window,
        late_limit_ns,
        |first_seq, count| {
            let ops: Vec<Op> = (0..count).map(|_| gen.next_op()).collect();
            let now_slice = clock.slice_of(due_at.due_ns(first_seq));
            if now_slice != slice {
                slice = now_slice;
                clock.entered_slice(slice);
            }
            let since = |i: usize| due_at.due_ns(first_seq + i as u64);
            wire_batch(
                &mut r,
                clock.tracer,
                target,
                &ops,
                since,
                slice,
                clock.interleave,
            );
        },
    );
    // A request shed unsent was attempted and refused.
    r.attempted += stats.shed;
    r.failures.add(Failure::Refused, stats.shed);
    r.open = Some(stats);
    r.stream_hash = gen.stream_hash();
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_start_together_and_readings_bracket_them() {
        let tracer = Tracer::new(false);
        let reads = AtomicU64::new(0);
        let m = measure(
            &tracer,
            2,
            20_000_000,
            false,
            || reads.fetch_add(1, Ordering::SeqCst),
            |clock| {
                let mut r = ThreadResult::default();
                // The snapshots bracket the body: exactly one is taken
                // before any thread gets here.
                assert_eq!(reads.load(Ordering::SeqCst), 1);
                assert!(clock.now_ns() >= clock.start_ns);
                while clock.now_ns() < clock.end_ns() {
                    r.attempted += 1;
                    r.last_done_ns = clock.now_ns();
                }
                r
            },
        );
        assert_eq!((m.before, m.mid, m.after), (0, 1, 2));
        assert_eq!(m.threads.len(), 2);
        assert!(m.attempted() > 0);
        assert!(m.wall_ns >= 19_000_000 && m.wall_ns < 500_000_000);
        assert!(m.os_after.ctx_switches >= m.os_before.ctx_switches);
    }

    #[test]
    fn slices_cover_the_phase_and_alternate_tracing() {
        let tracer = Tracer::new(false);
        let clock = PhaseClock {
            tracer: &tracer,
            start_ns: 1_000,
            duration_ns: 10_000,
            interleave: true,
            lane: 0,
        };
        assert_eq!(clock.slice_of(0), 0);
        assert_eq!(clock.slice_of(1_000), 0);
        assert_eq!(clock.slice_of(1_999), 0);
        assert_eq!(clock.slice_of(2_000), 1);
        assert_eq!(clock.slice_of(10_999), 9);
        assert_eq!(clock.slice_of(50_000), 9);
        clock.entered_slice(0);
        assert!(tracer.enabled());
        clock.entered_slice(1);
        assert!(!tracer.enabled());
        let other_lane = PhaseClock { lane: 1, ..clock };
        other_lane.entered_slice(2);
        assert!(!tracer.enabled());
    }

    #[test]
    fn slow_writes_are_charged_by_threshold() {
        let mut r = ThreadResult::default();
        let put = Op::Put { id: 1 };
        r.count(&put, Ok(()), 500_000, 0);
        r.count(&put, Ok(()), 2_000_000, 0);
        r.count(&put, Err(Failure::Error), 30_000_000, 1);
        r.count(
            &Op::Get {
                id: 1,
                present: true,
            },
            Ok(()),
            40_000_000,
            1,
        );
        assert_eq!(r.slow_write_ns, [32_000_000, 30_000_000]);
        assert_eq!(r.attempted, 4);
        assert_eq!(r.failures.errors, 1);
        assert_eq!(r.user_bytes[0], 2 * crate::gen::RECORD_BYTES);
        assert_eq!(r.user_bytes[1], 0);
    }
}
