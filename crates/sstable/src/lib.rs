//! Append-only on-disk tree components ("sstables") for the bLSM
//! reproduction.
//!
//! The paper's `C1`, `C1'` and `C2` are "append-only B-Trees" stored "in
//! key order on disk" (§2.3.1). Each component here occupies a contiguous
//! region (courtesy of the Stasis-style region allocator, §4.4.2) laid out
//! as:
//!
//! ```text
//! [ data pages | overflow pages ... | index pages | bloom pages | footer ]
//! ```
//!
//! * Data pages are the paper's "simple append-only data page format that
//!   efficiently stores records that span multiple pages" (Appendix A.2):
//!   a record larger than a page spills into overflow pages.
//! * The index — one `(first_key, page)` pair per leaf — is kept in RAM
//!   (§2.2 "assuming that keys fit in memory") and serialized for
//!   recovery, so a point lookup costs exactly one device read: the
//!   paper's read amplification of 1.
//! * The Bloom filter image is persisted with the component (§4.4.3).
//!
//! [`SstableBuilder`] constructs a component *incrementally* (a bounded
//! quantum of merge work at a time). A component becomes readable when
//! the finished [`Sstable`] is published; before that, only the prefix
//! of it already on the device can be, as a read-only view
//! ([`SstableBuilder::flushed_prefix`]).

mod builder;
mod format;
mod index;
mod iter;
mod table;

pub use blsm_memtable::merge_versions;
pub use builder::{SstableBuilder, FLUSH_PAGES, LEAF_CAPACITY};
pub use format::{decode_entry, encode_entry, parse_data_page, shared_payload, EntryRef, LeafPage};
pub use iter::{EntryStream, MergeIter, ReadMode, SstIterator};
pub use table::{ScrubReport, Sstable, SstableMeta};
