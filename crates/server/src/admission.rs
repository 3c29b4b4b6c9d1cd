//! Scheduler-coupled admission control.
//!
//! "On Performance Stability in LSM-based Storage Systems" (PAPERS.md)
//! shows that write stalls become tail-latency cliffs exactly at the
//! process boundary, so throttling must be wired to the merge scheduler
//! rather than bolted on. The spring-and-gear watermarks (§4.3) already
//! export a [`BackpressureLevel`] through `TreeStatsSnapshot`; this
//! module translates that one signal into per-request decisions:
//!
//! - below the low water mark (`Idle`): writes flow freely;
//! - between the marks (`Paced(f)`): write *responses* are delayed
//!   proportionally to how deep into the band `C0` sits — the client
//!   slows down smoothly instead of hitting a wall;
//! - above the high mark (`Saturated`): writes get an explicit
//!   RETRY_LATER with a backoff hint, while reads keep flowing (the
//!   paper's "reads stay fast while writes pace" promise, made visible
//!   at the wire).
//!
//! Reads are never throttled: the lock-free read path does not touch
//! `C0` capacity, so pressing on readers would only add latency without
//! relieving anything.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use blsm::BackpressureLevel;

/// Admission policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Response delay at the top of the paced band (just under the high
    /// water mark); delays scale linearly from zero at the low mark.
    pub max_paced_delay: Duration,
    /// Backoff hint sent with RETRY_LATER.
    pub retry_backoff_ms: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_paced_delay: Duration::from_millis(20),
            retry_backoff_ms: 50,
        }
    }
}

/// What to do with one write request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteAdmission {
    /// Apply and acknowledge immediately.
    Admit,
    /// Apply, but hold the response for this long.
    Delay(Duration),
    /// Do not apply; tell the client to retry after the hint.
    RetryLater {
        /// Backoff hint, milliseconds.
        backoff_ms: u32,
    },
}

/// Shared admission state: the policy plus the decision counters
/// exposed via STATS.
///
/// Counters use `SeqCst` for simplicity — admission decisions are per
/// request, far off any hot path where ordering relaxation would pay.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    // ordering: SeqCst — per-request decision counters, off any hot path.
    admitted: AtomicU64,
    // ordering: SeqCst — per-request decision counters, off any hot path.
    delayed: AtomicU64,
    // ordering: SeqCst — per-request decision counters, off any hot path.
    rejected: AtomicU64,
}

impl Default for AdmissionController {
    fn default() -> Self {
        AdmissionController::new(AdmissionConfig::default())
    }
}

/// Counter snapshot for STATS replies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionCounters {
    /// Writes admitted without throttling.
    pub admitted: u64,
    /// Writes whose responses were delayed.
    pub delayed: u64,
    /// Writes rejected with RETRY_LATER.
    pub rejected: u64,
}

impl AdmissionController {
    /// A controller with the given policy and zeroed counters.
    pub fn new(config: AdmissionConfig) -> AdmissionController {
        AdmissionController {
            config,
            admitted: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Decides the fate of one write given the current backpressure
    /// level, and counts the decision.
    pub fn write_admission(&self, level: BackpressureLevel) -> WriteAdmission {
        match level {
            BackpressureLevel::Idle => {
                self.admitted.fetch_add(1, Ordering::SeqCst);
                WriteAdmission::Admit
            }
            BackpressureLevel::Paced(_) => {
                let delay = self.config.max_paced_delay.mul_f64(level.fraction());
                if delay.is_zero() {
                    self.admitted.fetch_add(1, Ordering::SeqCst);
                    WriteAdmission::Admit
                } else {
                    self.delayed.fetch_add(1, Ordering::SeqCst);
                    WriteAdmission::Delay(delay)
                }
            }
            BackpressureLevel::Saturated => {
                self.rejected.fetch_add(1, Ordering::SeqCst);
                WriteAdmission::RetryLater {
                    backoff_ms: self.config.retry_backoff_ms,
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> AdmissionCounters {
        AdmissionCounters {
            admitted: self.admitted.load(Ordering::SeqCst),
            delayed: self.delayed.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn admission_follows_the_watermarks() {
        let ctl = AdmissionController::new(AdmissionConfig {
            max_paced_delay: Duration::from_millis(100),
            retry_backoff_ms: 77,
        });
        assert_eq!(
            ctl.write_admission(BackpressureLevel::Idle),
            WriteAdmission::Admit
        );
        // Mid-band: half the max delay.
        match ctl.write_admission(BackpressureLevel::Paced(500)) {
            WriteAdmission::Delay(d) => assert_eq!(d, Duration::from_millis(50)),
            other => panic!("expected Delay, got {other:?}"),
        }
        // Deeper into the band: proportionally more.
        match ctl.write_admission(BackpressureLevel::Paced(900)) {
            WriteAdmission::Delay(d) => assert_eq!(d, Duration::from_millis(90)),
            other => panic!("expected Delay, got {other:?}"),
        }
        assert_eq!(
            ctl.write_admission(BackpressureLevel::Saturated),
            WriteAdmission::RetryLater { backoff_ms: 77 }
        );
        let c = ctl.counters();
        assert_eq!((c.admitted, c.delayed, c.rejected), (1, 2, 1));
    }

    #[test]
    fn band_floor_counts_as_admitted() {
        let ctl = AdmissionController::new(AdmissionConfig::default());
        // Paced(0) is the exact low water mark: zero delay, plain admit.
        assert_eq!(
            ctl.write_admission(BackpressureLevel::Paced(0)),
            WriteAdmission::Admit
        );
        assert_eq!(ctl.counters().admitted, 1);
        assert_eq!(ctl.counters().delayed, 0);
    }
}
