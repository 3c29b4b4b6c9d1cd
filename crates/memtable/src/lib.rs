//! `C0` — the in-memory component of the bLSM tree.
//!
//! The paper's `C0` is "a smaller update-in-place tree that fits in memory"
//! (§2.3.1) and, with *snowshoveling* (§4.2, also called tournament sort or
//! replacement-selection sort), it is consumed in key order by the `C0:C1`
//! merge while the application keeps inserting. This crate provides:
//!
//! * [`Entry`]/[`Versioned`] — the record representation, distinguishing
//!   *base records* from *deltas* and *tombstones*. The base/delta
//!   distinction is what lets bLSM reads terminate early (§3.1.1).
//! * [`MergeOperator`] — user-defined delta application (§2.3's "apply
//!   delta to record" zero-seek primitive), with append and
//!   integer-counter operators provided.
//! * [`Memtable`] — an ordered in-memory map with byte accounting.
//! * [`SnowshovelBuffer`] — the full `C0` abstraction: an idle buffer, a
//!   *frozen* mode reproducing the classic `C0`/`C0'` partitioning, and a
//!   *snowshovel* mode where a cursor sweeps the keyspace and inserts
//!   landing behind the cursor are deferred to the next pass.

mod concurrent;
mod memtable;
mod snowshovel;
mod types;

pub use concurrent::{ConcurrentC0, DrainGuard, PassMode, C0_SHARDS};
pub use memtable::{Memtable, ENTRY_OVERHEAD};
pub use snowshovel::{PassKind, SnowshovelBuffer};
pub use types::{
    merge_versions, AddOperator, AppendOperator, Entry, MergeOperator, OverwriteOperator, SeqNo,
    Versioned,
};
