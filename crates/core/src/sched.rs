//! Level merge schedulers — the paper's primary contribution.
//!
//! "We distinguish level schedulers from existing partition schedulers and
//! present a level scheduler we call the spring and gear scheduler" (§1).
//! A level scheduler decides *which level to merge next and how fast*
//! (Figure 4), as opposed to a partition scheduler, which decides which
//! key-range partition to merge (Figure 3).
//!
//! The engine consults the scheduler before every application write; the
//! returned [`WorkPlan`] says how many input bytes each running merge must
//! consume before the write may proceed, and whether writes are currently
//! blocked outright. Because merge work is paced in small inline quanta,
//! write latency is bounded by the plan size — this is how the paper
//! "bounds write latency without impacting throughput" (abstract).

use crate::progress::{outprogress, MergeProgress};

/// Spring-and-gear low water mark, as a fraction of `mem_budget`: below
/// it writes flow freely and downstream merges idle (§4.3).
pub const LOW_WATER: f64 = 0.5;

/// Spring-and-gear high water mark, as a fraction of `mem_budget`: a
/// `C0:C1` pass starts here, and above it the serving tier sheds writes.
pub const HIGH_WATER: f64 = 0.9;

/// The spring-and-gear watermark state, exported as a shared backpressure
/// signal (§4.3's "spring").
///
/// The scheduler keeps `C0` occupancy between a low and a high water mark;
/// this enum names which regime the tree is in so layers *outside* the
/// engine — the serving layer's admission control, the STATS wire command —
/// read the same signal the scheduler paces writes with, instead of
/// inventing their own thresholds. Ordered by severity, so accumulating
/// partitions can take the `max`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum BackpressureLevel {
    /// `C0` is below the low water mark: writes flow freely, downstream
    /// merges idle.
    #[default]
    Idle,
    /// Between the marks: the spring is winding. The payload is how far
    /// into the band occupancy sits, in per-mille (0 = at the low mark,
    /// 1000 = at the high mark); merge work per write scales with it.
    Paced(u16),
    /// At or above the high water mark: backpressure ramps super-linearly
    /// and the engine is one spike away from the hard `C0` cap.
    Saturated,
}

impl BackpressureLevel {
    /// Classifies `C0` occupancy against the watermark fractions.
    pub fn from_occupancy(c0_bytes: u64, c0_cap: u64, low: f64, high: f64) -> BackpressureLevel {
        let occ = c0_bytes as f64 / c0_cap.max(1) as f64;
        if occ < low {
            BackpressureLevel::Idle
        } else if occ < high {
            let frac = (occ - low) / (high - low).max(f64::EPSILON);
            BackpressureLevel::Paced((frac.clamp(0.0, 1.0) * 1000.0).round() as u16)
        } else {
            BackpressureLevel::Saturated
        }
    }

    /// The winding fraction in `[0, 1]`: 0 when idle, 1 when saturated.
    pub fn fraction(&self) -> f64 {
        match self {
            BackpressureLevel::Idle => 0.0,
            BackpressureLevel::Paced(permille) => f64::from(*permille) / 1000.0,
            BackpressureLevel::Saturated => 1.0,
        }
    }

    /// True once occupancy has crossed the high water mark.
    pub fn is_saturated(&self) -> bool {
        matches!(self, BackpressureLevel::Saturated)
    }
}

/// Snapshot of tree state handed to the scheduler before each write.
#[derive(Debug, Clone, Copy)]
pub struct SchedInputs {
    /// Bytes currently buffered in `C0` (all tables).
    pub c0_bytes: u64,
    /// The `C0` fill unit (whole budget with snowshoveling, half without).
    pub c0_fill: u64,
    /// Hard cap on `C0` (the full memory budget).
    pub c0_cap: u64,
    /// Bytes of the incoming write.
    pub incoming: u64,
    /// Progress of the running `C0:C1` merge, if any.
    pub m01: Option<MergeProgress>,
    /// `C0` bytes consumed by the running `C0:C1` merge's input estimate
    /// (`|C0'|` at pass start).
    pub m01_c0_input: u64,
    /// Progress of the running `C1':C2` merge, if any.
    pub m12: Option<MergeProgress>,
    /// Current size of `C1` in data bytes.
    pub c1_bytes: u64,
    /// `ceil(R)` — the target level size ratio.
    pub r_ceil: u64,
}

/// How much merge work to perform before admitting the next write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkPlan {
    /// Input bytes the `C0:C1` merge must consume.
    pub merge01_bytes: u64,
    /// Input bytes the `C1':C2` merge must consume.
    pub merge12_bytes: u64,
}

/// A level scheduler (Figure 4): paces the two merges of the three-level
/// tree and applies backpressure to the application.
pub trait MergeScheduler: Send {
    /// Plans inline merge work for the next write.
    fn plan(&mut self, s: &SchedInputs) -> WorkPlan;

    /// True when a `C0:C1` merge pass should be started given current
    /// occupancy (and none is running).
    fn should_start_merge01(&self, s: &SchedInputs) -> bool;

    /// True if, upon `C0:C1` completion with `C1` over target, the engine
    /// must run the whole `C1':C2` merge synchronously (the naive
    /// scheduler's unbounded pause).
    fn blocking_merge12(&self) -> bool;

    /// Scheduler name for experiment output.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// Naive
// ---------------------------------------------------------------------------

/// Merge-when-full (§3.2's strawman): no inline pacing at all. When `C0`
/// fills, the engine blocks the write and runs the entire merge; if `C1` is
/// also full it then runs the entire `C1':C2` merge too. Reproduces the
/// multi-second pauses of Figure 7 (right).
#[derive(Debug, Default)]
pub struct NaiveScheduler;

impl MergeScheduler for NaiveScheduler {
    fn plan(&mut self, _s: &SchedInputs) -> WorkPlan {
        WorkPlan::default()
    }

    fn should_start_merge01(&self, s: &SchedInputs) -> bool {
        // Only once completely full — the engine will then block on it.
        s.c0_bytes + s.incoming > s.c0_fill
    }

    fn blocking_merge12(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

// ---------------------------------------------------------------------------
// Gear
// ---------------------------------------------------------------------------

/// The gear scheduler (§4.1): merge completions are synchronized with the
/// processes that fill each component, like clock gears meeting at 12.
///
/// * The `C0:C1` merge is driven so `inprogress_1` matches the fill
///   fraction of the *other* `C0` half — when `C0` fills, the previous
///   `C0'` has been fully consumed and the hand-off is instantaneous.
/// * The `C1':C2` merge is driven so `inprogress_2` tracks
///   `outprogress_1` — after `ceil(R)` upstream sweeps (one "hour"), the
///   downstream merge completes exactly as `C1` fills.
#[derive(Debug, Default)]
pub struct GearScheduler;

impl MergeScheduler for GearScheduler {
    fn plan(&mut self, s: &SchedInputs) -> WorkPlan {
        let mut plan = WorkPlan::default();
        let mut out1 = None;
        if let Some(m01) = &s.m01 {
            // Fill fraction of the currently-filling C0 half.
            let fill = ((s.c0_bytes + s.incoming) as f64 / s.c0_fill.max(1) as f64).min(1.0);
            let target = fill;
            let deficit = (target - m01.inprogress()).max(0.0);
            plan.merge01_bytes = (deficit * m01.input_total as f64).ceil() as u64;
            out1 = Some(outprogress(
                (m01.inprogress() + deficit).min(1.0),
                s.c1_bytes,
                s.c0_fill,
                s.r_ceil,
            ));
        }
        if let Some(m12) = &s.m12 {
            // Without a running upstream merge, outprogress_1 still advances
            // with C1's accumulated fills.
            let target = out1.unwrap_or_else(|| outprogress(0.0, s.c1_bytes, s.c0_fill, s.r_ceil));
            let deficit = (target - m12.inprogress()).max(0.0);
            plan.merge12_bytes = (deficit * m12.input_total as f64).ceil() as u64;
        }
        plan
    }

    fn should_start_merge01(&self, s: &SchedInputs) -> bool {
        // Start as soon as a fill unit is ready; the merge then has the
        // whole next fill interval to complete.
        s.c0_bytes >= s.c0_fill
    }

    fn blocking_merge12(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "gear"
    }
}

// ---------------------------------------------------------------------------
// Spring and gear
// ---------------------------------------------------------------------------

/// The spring and gear scheduler (§4.3, Figure 6).
///
/// The gear scheduler's `C0`-side coupling is replaced by "a more natural
/// progress indicator: the fraction of C0 currently in use". `C0` is kept
/// between a low and a high water mark: below the low mark downstream
/// merges pause; between the marks merge work per write scales linearly
/// (the spring winds); above the high mark backpressure ramps
/// super-linearly so occupancy cannot pass the hard cap. This both
/// "absorbs load spikes" and keeps enough data in `C0` for snowshoveling
/// to pick long runs.
#[derive(Debug)]
pub struct SpringGearScheduler {
    /// Low water mark as a fraction of the hard cap.
    pub low: f64,
    /// High water mark as a fraction of the hard cap.
    pub high: f64,
}

impl SpringGearScheduler {
    /// Creates the scheduler with the given watermark fractions.
    pub fn new(low: f64, high: f64) -> SpringGearScheduler {
        assert!(0.0 < low && low < high && high <= 1.0);
        SpringGearScheduler { low, high }
    }
}

impl MergeScheduler for SpringGearScheduler {
    fn plan(&mut self, s: &SchedInputs) -> WorkPlan {
        let mut plan = WorkPlan::default();
        let occ = (s.c0_bytes + s.incoming) as f64 / s.c0_cap.max(1) as f64;
        let mut out1 = None;
        if let Some(m01) = &s.m01 {
            // The spring: proportional backpressure. At the low mark the
            // merge idles; at the high mark it consumes input at
            // steady-state rate × 2, pulling occupancy back down.
            let throttle = ((occ - self.low) / (self.high - self.low)).max(0.0);
            let throttle = throttle * throttle.clamp(1.0, 2.0); // super-linear above high
                                                                // Steady state: per byte written, the merge must consume
                                                                // input_total / c0_input bytes (it eats C0 plus the whole of C1
                                                                // over one pass).
            let rate = m01.input_total as f64 / s.m01_c0_input.max(1) as f64;
            plan.merge01_bytes = (s.incoming as f64 * rate * throttle).ceil() as u64;
            out1 = Some(outprogress(
                m01.inprogress(),
                s.c1_bytes,
                s.c0_cap,
                s.r_ceil,
            ));
        }
        if let Some(m12) = &s.m12 {
            // Downstream keeps the gear rule, as §4.3 prescribes ("the
            // downstream merge processes behave as they did in the gear
            // scheduler"). It also pauses when C0 drains below the low
            // mark, because outprogress_1 stops advancing then.
            let target = out1.unwrap_or_else(|| outprogress(0.0, s.c1_bytes, s.c0_cap, s.r_ceil));
            let deficit = (target - m12.inprogress()).max(0.0);
            plan.merge12_bytes = (deficit * m12.input_total as f64).ceil() as u64;
        }
        plan
    }

    fn should_start_merge01(&self, s: &SchedInputs) -> bool {
        // Passes begin at the high water mark: proportional backpressure
        // then holds occupancy there, so runs are nearly a full C0 long
        // (throughput parity with merge-when-full) while the band between
        // the marks absorbs load spikes (§4.3).
        s.c0_bytes as f64 >= self.high * s.c0_cap as f64
    }

    fn blocking_merge12(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "spring-and-gear"
    }
}

/// Constructs the configured scheduler.
pub fn make_scheduler(config: &crate::BLsmConfig) -> Box<dyn MergeScheduler> {
    match config.scheduler {
        crate::SchedulerKind::Naive => Box::new(NaiveScheduler),
        crate::SchedulerKind::Gear => Box::new(GearScheduler),
        crate::SchedulerKind::SpringGear => {
            Box::new(SpringGearScheduler::new(LOW_WATER, HIGH_WATER))
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn inputs() -> SchedInputs {
        SchedInputs {
            c0_bytes: 0,
            c0_fill: 1000,
            c0_cap: 1000,
            incoming: 10,
            m01: None,
            m01_c0_input: 1000,
            m12: None,
            c1_bytes: 0,
            r_ceil: 4,
        }
    }

    #[test]
    fn naive_never_plans_inline_work() {
        let mut s = NaiveScheduler;
        let mut inp = inputs();
        inp.m01 = Some(MergeProgress {
            bytes_read: 0,
            input_total: 5000,
        });
        inp.c0_bytes = 990;
        assert_eq!(s.plan(&inp), WorkPlan::default());
        assert!(s.blocking_merge12());
    }

    #[test]
    fn naive_starts_merge_only_when_full() {
        let s = NaiveScheduler;
        let mut inp = inputs();
        inp.c0_bytes = 900;
        assert!(!s.should_start_merge01(&inp));
        inp.c0_bytes = 995;
        assert!(s.should_start_merge01(&inp));
    }

    #[test]
    fn gear_drives_inprogress_to_fill_fraction() {
        let mut s = GearScheduler;
        let mut inp = inputs();
        inp.c0_fill = 1000;
        inp.c0_bytes = 490;
        inp.m01 = Some(MergeProgress {
            bytes_read: 1000,
            input_total: 10_000,
        }); // 10% done
            // Fill is 50%, merge at 10%: deficit 40% of 10k = 4000 bytes.
        let plan = s.plan(&inp);
        assert_eq!(plan.merge01_bytes, 4000);
        // Once caught up, no further work is demanded.
        inp.m01 = Some(MergeProgress {
            bytes_read: 5_000,
            input_total: 10_000,
        });
        let plan = s.plan(&inp);
        assert_eq!(plan.merge01_bytes, 0);
    }

    #[test]
    fn gear_merge12_tracks_outprogress() {
        let mut s = GearScheduler;
        let mut inp = inputs();
        inp.c0_bytes = 500;
        inp.r_ceil = 4;
        inp.c1_bytes = 2000; // 2 fills of 1000
        inp.m01 = Some(MergeProgress {
            bytes_read: 5_100,
            input_total: 10_000,
        });
        inp.m12 = Some(MergeProgress {
            bytes_read: 0,
            input_total: 40_000,
        });
        let plan = s.plan(&inp);
        // outprogress1 ≈ (0.51 + 2)/4 ≈ 0.6275 → merge12 owes ~25,100 bytes.
        assert!(plan.merge12_bytes > 24_000 && plan.merge12_bytes < 26_000);
    }

    #[test]
    fn gear_work_per_write_is_bounded() {
        // The pacing property: per 1-byte write the plan is O(rate), not
        // O(component size). Simulate a steady loop and check the max plan.
        let mut s = GearScheduler;
        let mut m01 = MergeProgress {
            bytes_read: 0,
            input_total: 10_000,
        };
        let mut max_plan = 0u64;
        for i in 0..1000u64 {
            let inp = SchedInputs {
                c0_bytes: i, // fills 0..1000
                c0_fill: 1000,
                c0_cap: 2000,
                incoming: 1,
                m01: Some(m01),
                m01_c0_input: 1000,
                m12: None,
                c1_bytes: 0,
                r_ceil: 4,
            };
            let plan = s.plan(&inp);
            m01.bytes_read += plan.merge01_bytes; // engine does the work
            max_plan = max_plan.max(plan.merge01_bytes);
        }
        assert!(max_plan <= 30, "per-write work spiked to {max_plan} bytes");
        assert!(
            m01.inprogress() > 0.99,
            "merge kept pace: {}",
            m01.inprogress()
        );
    }

    #[test]
    fn spring_pauses_below_low_water() {
        let mut s = SpringGearScheduler::new(0.5, 0.9);
        let mut inp = inputs();
        inp.c0_bytes = 300; // 30% occupancy < low
        inp.m01 = Some(MergeProgress {
            bytes_read: 0,
            input_total: 10_000,
        });
        let plan = s.plan(&inp);
        assert_eq!(plan.merge01_bytes, 0, "merge idles below the low mark");
    }

    #[test]
    fn spring_backpressure_scales_with_occupancy() {
        let mut s = SpringGearScheduler::new(0.5, 0.9);
        let mut inp = inputs();
        inp.m01 = Some(MergeProgress {
            bytes_read: 0,
            input_total: 5_000,
        });
        inp.m01_c0_input = 1000;
        inp.c0_bytes = 600;
        let at60 = s.plan(&inp).merge01_bytes;
        inp.c0_bytes = 890;
        let at89 = s.plan(&inp).merge01_bytes;
        inp.c0_bytes = 990;
        let at99 = s.plan(&inp).merge01_bytes;
        assert!(at60 < at89 && at89 < at99, "{at60} {at89} {at99}");
        assert!(at60 > 0);
    }

    #[test]
    fn spring_starts_pass_at_high_water() {
        let s = SpringGearScheduler::new(0.5, 0.9);
        let mut inp = inputs();
        inp.c0_bytes = 899;
        assert!(!s.should_start_merge01(&inp));
        inp.c0_bytes = 900;
        assert!(s.should_start_merge01(&inp));
    }

    #[test]
    fn backpressure_level_tracks_watermarks() {
        let cap = 1000u64;
        assert_eq!(
            BackpressureLevel::from_occupancy(0, cap, 0.5, 0.9),
            BackpressureLevel::Idle
        );
        assert_eq!(
            BackpressureLevel::from_occupancy(499, cap, 0.5, 0.9),
            BackpressureLevel::Idle
        );
        assert_eq!(
            BackpressureLevel::from_occupancy(500, cap, 0.5, 0.9),
            BackpressureLevel::Paced(0)
        );
        let mid = BackpressureLevel::from_occupancy(700, cap, 0.5, 0.9);
        assert_eq!(mid, BackpressureLevel::Paced(500));
        assert!((mid.fraction() - 0.5).abs() < 1e-9);
        assert_eq!(
            BackpressureLevel::from_occupancy(900, cap, 0.5, 0.9),
            BackpressureLevel::Saturated
        );
        assert!(BackpressureLevel::from_occupancy(2000, cap, 0.5, 0.9).is_saturated());
        // Severity ordering lets partitioned stores take the max.
        assert!(BackpressureLevel::Idle < BackpressureLevel::Paced(1));
        assert!(BackpressureLevel::Paced(999) < BackpressureLevel::Saturated);
    }

    #[test]
    fn spring_never_blocks_merge12() {
        assert!(!SpringGearScheduler::new(0.5, 0.9).blocking_merge12());
        assert!(!GearScheduler.blocking_merge12());
    }
}
