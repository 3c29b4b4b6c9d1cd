//! Open-loop pacing: requests fall due on a fixed schedule whether or
//! not the system keeps up.
//!
//! A closed loop sends its next request when the last one returns, so a
//! stalled server is sent less and its stall is sampled once. Here a
//! request's latency runs from the moment it was *due*: a 200 ms stall
//! at 1 000 requests a second makes 200 requests late, and every one of
//! them says so.

use crate::hist::{Histogram, SliceHist, SLICES};

/// Time as the pacer sees it; the self-tests substitute a scripted one.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns at or after `t_ns`.
    fn sleep_until(&self, t_ns: u64);
}

/// Requests `seq = 0, 1, …` fall due at `start + seq * interval` until
/// `end`.
#[derive(Debug, Clone)]
pub struct Schedule {
    start_ns: u64,
    interval_ns: u64,
    total: u64,
    next_seq: u64,
}

/// The requests [`Schedule::take_due`] hands out at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// First sequence number to send.
    pub first_seq: u64,
    /// How many to send as one batch.
    pub count: u32,
    /// Due before `first_seq` but dropped unsent: the backlog exceeded
    /// the window. They count as failed.
    pub shed: u64,
}

impl Schedule {
    pub fn new(start_ns: u64, rate_per_s: u64, duration_ns: u64) -> Schedule {
        let interval_ns = 1_000_000_000 / rate_per_s.max(1);
        Schedule {
            start_ns,
            interval_ns,
            total: duration_ns / interval_ns,
            next_seq: 0,
        }
    }

    pub fn due_ns(&self, seq: u64) -> u64 {
        self.start_ns + seq * self.interval_ns
    }

    pub fn finished(&self) -> bool {
        self.next_seq >= self.total
    }

    /// When the next unsent request falls due.
    pub fn next_due_ns(&self) -> u64 {
        self.due_ns(self.next_seq)
    }

    /// Everything due by `now_ns` and not yet handed out. At most
    /// `window` requests are sent; an older backlog is shed, oldest
    /// first, because a real client gives up on requests that late and
    /// an unbounded batch would measure the batch, not the system.
    pub fn take_due(&mut self, now_ns: u64, window: u32) -> Due {
        if now_ns < self.next_due_ns() || self.finished() {
            return Due {
                first_seq: self.next_seq,
                count: 0,
                shed: 0,
            };
        }
        let due_through = ((now_ns - self.start_ns) / self.interval_ns + 1).min(self.total);
        let backlog = due_through - self.next_seq;
        let shed = backlog.saturating_sub(u64::from(window));
        let first_seq = self.next_seq + shed;
        self.next_seq = due_through;
        Due {
            first_seq,
            count: (backlog - shed) as u32,
            shed,
        }
    }
}

/// What one open-loop connection measured.
#[derive(Debug, Default)]
pub struct OpenLoopStats {
    /// Completion time minus due time, per request, by time slice of the
    /// due time.
    pub latency: SliceHist,
    /// Send time minus due time, per request: how late the generator
    /// itself ran.
    pub lateness: Histogram,
    pub sent: u64,
    pub shed: u64,
    /// Requests not completed within the lateness limit of their due
    /// time (shed ones included).
    pub late: u64,
}

/// Drives one connection through `schedule`: sleeps until something is
/// due, sends everything due as one batch through `send` (which returns
/// when the whole batch has been answered), and files each request's
/// latency from its due time.
pub fn run_open_loop(
    clock: &impl Clock,
    mut schedule: Schedule,
    window: u32,
    late_limit_ns: u64,
    mut send: impl FnMut(u64, u32),
) -> OpenLoopStats {
    let mut stats = OpenLoopStats::default();
    let span_ns = (schedule.total * schedule.interval_ns).max(1);
    while !schedule.finished() {
        let now = clock.now_ns();
        let due = schedule.take_due(now, window);
        stats.shed += due.shed;
        stats.late += due.shed;
        if due.count == 0 {
            clock.sleep_until(schedule.next_due_ns());
            continue;
        }
        send(due.first_seq, due.count);
        let done = clock.now_ns();
        for seq in due.first_seq..due.first_seq + u64::from(due.count) {
            let due_ns = schedule.due_ns(seq);
            let slice = ((due_ns - schedule.start_ns) * SLICES as u64 / span_ns) as usize;
            let latency = done.saturating_sub(due_ns);
            stats.latency.record(slice, latency);
            stats.lateness.record(now.saturating_sub(due_ns));
            stats.late += u64::from(latency > late_limit_ns);
        }
        stats.sent += u64::from(due.count);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, t_ns: u64) {
            self.0.set(self.0.get().max(t_ns));
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn schedule_hands_out_each_request_once_in_order() {
        // 1000/s for 10 ms: requests due at 0, 1, ..., 9 ms.
        let mut s = Schedule::new(0, 1_000, 10 * MS);
        assert_eq!(
            s.take_due(0, 64),
            Due {
                first_seq: 0,
                count: 1,
                shed: 0
            }
        );
        assert_eq!(s.take_due(MS / 2, 64).count, 0);
        assert_eq!(s.next_due_ns(), MS);
        assert_eq!(
            s.take_due(3 * MS + 1, 64),
            Due {
                first_seq: 1,
                count: 3,
                shed: 0
            }
        );
        // A long pause: everything left is due, the window takes the
        // newest two, the rest are shed.
        assert_eq!(
            s.take_due(100 * MS, 2),
            Due {
                first_seq: 8,
                count: 2,
                shed: 4
            }
        );
        assert!(s.finished());
        assert_eq!(s.take_due(200 * MS, 64).count, 0);
    }

    #[test]
    fn a_fast_system_sees_service_time_as_latency() {
        let clock = FakeClock(Cell::new(0));
        let stats = run_open_loop(
            &clock,
            Schedule::new(0, 1_000, 100 * MS),
            64,
            50 * MS,
            |_, count| {
                assert_eq!(count, 1);
                clock.0.set(clock.0.get() + 200_000); // 0.2 ms of service
            },
        );
        assert_eq!((stats.sent, stats.shed, stats.late), (100, 0, 0));
        let all = stats.latency.whole(|_| true);
        assert_eq!(all.count(), 100);
        assert!((all.percentile(0.5) - 200_000.0).abs() < 4_000.0);
        assert_eq!(stats.lateness.max(), 0);
        // Ten per slice: the schedule spreads evenly over the slices.
        assert!((0..SLICES).all(|i| stats.latency.slice_count(i) == 10));
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        let clock = FakeClock(Cell::new(0));
        let mut batches = Vec::new();
        let stats = run_open_loop(
            &clock,
            Schedule::new(0, 1_000, 100 * MS),
            64,
            50 * MS,
            |first, count| {
                batches.push((first, count));
                // The tenth request stalls for 30 ms; all others take 0.1 ms.
                let service = if first == 10 { 30 * MS } else { 100_000 };
                clock.0.set(clock.0.get() + service);
            },
        );
        assert_eq!((stats.sent, stats.shed, stats.late), (100, 0, 0));
        // The stall ended at 40 ms: requests due at 11..=40 ms went out
        // as one batch of 30.
        assert!(batches.contains(&(11, 30)));
        let all = stats.latency.whole(|_| true);
        // Closed-loop accounting would show one slow request. Due-time
        // accounting shows the stalled one and the thirty behind it:
        // the first of those waited 29 ms, the last none.
        assert!(all.percentile(0.90) > 5.0 * MS as f64);
        assert!(all.max() >= 30 * MS);
        // The generator itself ran up to 29 ms late, and says so.
        assert!(stats.lateness.max() >= 29 * MS - 100_000);
    }

    #[test]
    fn a_backlog_past_the_window_is_shed_and_counted_late() {
        let clock = FakeClock(Cell::new(0));
        let stats = run_open_loop(
            &clock,
            Schedule::new(0, 1_000, 200 * MS),
            16,
            50 * MS,
            |first, _| {
                let service = if first == 0 { 120 * MS } else { 100_000 };
                clock.0.set(clock.0.get() + service);
            },
        );
        // 120 requests fell due during the stall; 16 were sent, the
        // oldest 104 were shed.
        assert_eq!(stats.shed, 104);
        assert_eq!(stats.sent + stats.shed, 200);
        // Late: the shed ones and the stalled request itself.
        assert_eq!(stats.late, 105);
    }
}
