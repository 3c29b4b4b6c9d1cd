//! Engine configuration.

/// Which merge scheduler paces background work (§3.2, §4.1, §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Merge only when a component fills, blocking writes until the merge
    /// (and, transitively, downstream merges) complete. This is the
    /// behaviour §3.2 calls "unplanned downtime" — reproduced as the
    /// baseline for Figure 7's pause measurements.
    Naive,
    /// The gear scheduler (§4.1): every merge's `inprogress` is driven to
    /// match the upstream component's fill fraction so merges complete
    /// exactly when their input fills. Incompatible with snowshoveling
    /// (§4.3), so it partitions `C0`/`C0'`.
    Gear,
    /// The spring and gear scheduler (§4.3): `C0` occupancy is kept
    /// between a low and a high water mark, backpressure is proportional,
    /// and downstream merges pause when `C0` drains. The default.
    SpringGear,
}

/// Durability of individual writes (§4.4.2, §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// No logical logging at all — the paper's "degraded durability mode":
    /// after a crash, updates up to the last completed merge survive.
    None,
    /// Log records are written to the log device but not synced at commit.
    /// This is the configuration of every system in §5.1 ("none of the
    /// systems sync their logs at commit").
    Buffered,
    /// Every write syncs the log — full durability.
    Sync,
}

/// Tuning knobs for [`crate::BLsmTree`].
#[derive(Debug, Clone)]
pub struct BLsmConfig {
    /// RAM budget for `C0` in bytes (the paper dedicates 8 GB of its
    /// 10 GB to `C0`, §5.1).
    pub mem_budget: usize,
    /// Size ratio between adjacent levels. `None` derives
    /// `R = sqrt(|data| / |C0|)` after each merge, the optimum for a
    /// three-level tree (§2.3.1).
    pub r: Option<f64>,
    /// Enable snowshoveling (§4.2). Forced off by the gear scheduler,
    /// which needs the `C0`/`C0'` partition (§4.3).
    pub snowshovel: bool,
    /// Merge scheduler.
    pub scheduler: SchedulerKind,
    /// Write durability mode.
    pub durability: Durability,
    /// Ring capacity of the logical log device, bytes.
    pub wal_capacity: u64,
    /// Expected value size, used only to pre-size Bloom filters for the
    /// first merge (afterwards real counts are known).
    pub expected_value_size: usize,
}

impl Default for BLsmConfig {
    fn default() -> Self {
        BLsmConfig {
            mem_budget: 8 << 20,
            r: None,
            snowshovel: true,
            scheduler: SchedulerKind::SpringGear,
            durability: Durability::Buffered,
            wal_capacity: 256 << 20,
            expected_value_size: 1000,
        }
    }
}

impl BLsmConfig {
    /// Validates and normalizes the configuration.
    pub fn validated(mut self) -> BLsmConfig {
        assert!(
            self.mem_budget >= 64 << 10,
            "mem_budget must be at least 64 KiB"
        );
        if let Some(r) = self.r {
            assert!(r >= 2.0, "R must be at least 2");
        }
        // §4.3: the gear scheduler "requires a percent complete estimate for
        // merges between C0 and C1, which forces us to partition RAM".
        if self.scheduler == SchedulerKind::Gear {
            self.snowshovel = false;
        }
        self
    }

    /// The size of one `C0` fill unit: with snowshoveling the whole budget,
    /// without it half (the other half holds `C0'`, §4.2.1).
    pub fn c0_fill_bytes(&self) -> usize {
        if self.snowshovel {
            self.mem_budget
        } else {
            self.mem_budget / 2
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let c = BLsmConfig::default().validated();
        assert!(c.snowshovel);
        assert_eq!(c.scheduler, SchedulerKind::SpringGear);
    }

    #[test]
    fn gear_disables_snowshovel() {
        let c = BLsmConfig {
            scheduler: SchedulerKind::Gear,
            snowshovel: true,
            ..Default::default()
        }
        .validated();
        assert!(!c.snowshovel);
        assert_eq!(c.c0_fill_bytes(), c.mem_budget / 2);
    }

    #[test]
    fn snowshovel_uses_whole_budget() {
        let c = BLsmConfig::default().validated();
        assert_eq!(c.c0_fill_bytes(), c.mem_budget);
    }
}
