//! bLSM: a general purpose log structured merge tree.
//!
//! Rust reproduction of Sears & Ramakrishnan, *bLSM: A General Purpose Log
//! Structured Merge Tree*, SIGMOD 2012. The tree (Figure 1 of the paper) is
//! a three-level LSM:
//!
//! ```text
//!   writes ──▶ C0 (RAM, snowshovel) ──merge──▶ C1 ──merge──▶ C2
//!   reads  ──▶ C0 → C1 (bloom) → C1' (bloom) → C2 (bloom), stop at the
//!              first base record
//! ```
//!
//! The headline pieces, each implemented here:
//!
//! * **Bloom filters on every on-disk component** and an early-terminating
//!   read path → point lookups cost ~1 seek (§3.1, Table 1).
//! * **Zero-seek blind writes** (`put`, `delete`, [`BLsmTree::apply_delta`])
//!   and zero-seek [`BLsmTree::insert_if_not_exists`] (§3.1.2).
//! * **Snowshoveling** — the `C0:C1` merge consumes `C0` in key order while
//!   the application keeps writing (§4.2).
//! * **Level merge schedulers** — the paper's primary contribution (§4.1,
//!   §4.3): a *naive* merge-when-full scheduler (the strawman with
//!   unbounded write pauses), the *gear* scheduler (smooth
//!   `inprogress`/`outprogress` pacing) and the *spring and gear*
//!   scheduler (watermark backpressure on `C0`, compatible with
//!   snowshoveling).
//! * **Logical-log durability and recovery** (§4.4.2), including the
//!   degraded-durability mode.
//!
//! Merges are incremental state machines driven cooperatively from the
//! write path — the scheduler decides how many bytes of merge work each
//! write performs, which is exactly how the paper bounds write latency
//! "without resorting to techniques that degrade read performance".

mod catalog;
mod commit;
mod config;
mod merge;
mod meta;
mod plane;
mod progress;
mod read;
pub mod route;
mod sched;
mod sharded;
mod stats;
mod tree;

pub use config::{BLsmConfig, Durability, SchedulerKind};
pub use plane::{MergePlane, ThreadedBLsm};
pub use progress::{outprogress, MergeProgress};
pub use read::{ReadView, ScanItem, TreeScrubReport};
pub use sched::{
    BackpressureLevel, GearScheduler, MergeScheduler, NaiveScheduler, SchedInputs,
    SpringGearScheduler, WorkPlan, HIGH_WATER, LOW_WATER,
};
pub use sharded::{DegradedShard, ShardedBLsm, ShardedConfig, ShardedReadView};
pub use stats::{RecoveryReport, TreeStats, TreeStatsSnapshot};
pub use tree::BLsmTree;

pub use blsm_memtable::{
    AddOperator, AppendOperator, Entry, MergeOperator, OverwriteOperator, SeqNo, Versioned,
};
