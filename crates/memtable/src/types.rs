//! Record representation: base records, deltas and tombstones.
//!
//! §3.1.1: "our reads are able to terminate early because they distinguish
//! between base records and deltas". A [`Versioned`] entry carries a
//! sequence number; components always hold versions in freshness order, so
//! the first *base record* a read encounters is authoritative.

use bytes::Bytes;

/// Monotonically increasing write sequence number.
pub type SeqNo = u64;

/// The three record kinds the tree stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    /// A base record: a full value. Reads stop here (§3.1.1).
    Put(Bytes),
    /// A delta: applied to an older base record via the tree's
    /// [`MergeOperator`]. Written with zero seeks (Table 1).
    Delta(Bytes),
    /// A deletion marker; dropped when it reaches the largest component.
    Tombstone,
}

impl Entry {
    /// True for [`Entry::Put`] — the "base record" of §3.1.1.
    pub fn is_base(&self) -> bool {
        matches!(self, Entry::Put(_))
    }

    /// Approximate heap bytes of the payload.
    pub fn payload_len(&self) -> usize {
        match self {
            Entry::Put(v) | Entry::Delta(v) => v.len(),
            Entry::Tombstone => 0,
        }
    }
}

/// An [`Entry`] plus its sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Versioned {
    /// Write sequence number (newer = larger).
    pub seqno: SeqNo,
    /// The record itself.
    pub entry: Entry,
}

impl Versioned {
    /// Convenience constructor for a base record.
    pub fn put(seqno: SeqNo, value: impl Into<Bytes>) -> Versioned {
        Versioned {
            seqno,
            entry: Entry::Put(value.into()),
        }
    }

    /// Convenience constructor for a delta.
    pub fn delta(seqno: SeqNo, delta: impl Into<Bytes>) -> Versioned {
        Versioned {
            seqno,
            entry: Entry::Delta(delta.into()),
        }
    }

    /// Convenience constructor for a tombstone.
    pub fn tombstone(seqno: SeqNo) -> Versioned {
        Versioned {
            seqno,
            entry: Entry::Tombstone,
        }
    }
}

/// User-defined delta semantics.
///
/// Both operations must be *associative* in the sense that
/// `apply(apply(base, older), newer) == apply(base, merge_deltas(older,
/// newer))`; the tree relies on this to collapse delta chains during
/// memtable inserts and merges.
pub trait MergeOperator: Send + Sync {
    /// Applies one delta to an optional base value (`None` when the key has
    /// no base record — e.g. a delta written blindly to a missing key).
    fn apply(&self, base: Option<&[u8]>, delta: &[u8]) -> Vec<u8>;

    /// Combines two deltas into one, `older` first.
    fn merge_deltas(&self, older: &[u8], newer: &[u8]) -> Vec<u8>;

    /// Folds a stack of deltas (newest first, as collected by a read that
    /// walked components newest→oldest) onto a base value.
    fn fold(&self, base: Option<&[u8]>, deltas_newest_first: &[&[u8]]) -> Vec<u8> {
        let mut acc: Option<Vec<u8>> = base.map(<[u8]>::to_vec);
        for delta in deltas_newest_first.iter().rev() {
            acc = Some(self.apply(acc.as_deref(), delta));
        }
        acc.unwrap_or_default()
    }
}

/// Concatenating operator: a delta is appended to the value. Models the
/// event-log / "append a reading" pattern from the paper's introduction.
#[derive(Debug, Default, Clone, Copy)]
pub struct AppendOperator;

impl MergeOperator for AppendOperator {
    fn apply(&self, base: Option<&[u8]>, delta: &[u8]) -> Vec<u8> {
        let mut out = base.map(<[u8]>::to_vec).unwrap_or_default();
        out.extend_from_slice(delta);
        out
    }

    fn merge_deltas(&self, older: &[u8], newer: &[u8]) -> Vec<u8> {
        let mut out = older.to_vec();
        out.extend_from_slice(newer);
        out
    }
}

/// Signed little-endian 64-bit counter: a delta adds to the value.
#[derive(Debug, Default, Clone, Copy)]
pub struct AddOperator;

impl AddOperator {
    fn decode(bytes: &[u8]) -> i64 {
        let mut buf = [0u8; 8];
        let n = bytes.len().min(8);
        buf[..n].copy_from_slice(&bytes[..n]);
        i64::from_le_bytes(buf)
    }
}

impl MergeOperator for AddOperator {
    fn apply(&self, base: Option<&[u8]>, delta: &[u8]) -> Vec<u8> {
        let b = base.map_or(0, Self::decode);
        let d = Self::decode(delta);
        b.wrapping_add(d).to_le_bytes().to_vec()
    }

    fn merge_deltas(&self, older: &[u8], newer: &[u8]) -> Vec<u8> {
        Self::decode(older)
            .wrapping_add(Self::decode(newer))
            .to_le_bytes()
            .to_vec()
    }
}

/// Deltas replace the value outright. Makes `Delta` behave like `Put`
/// except that reads cannot early-terminate on it; exists mainly for tests
/// and as a safe default.
#[derive(Debug, Default, Clone, Copy)]
pub struct OverwriteOperator;

impl MergeOperator for OverwriteOperator {
    fn apply(&self, _base: Option<&[u8]>, delta: &[u8]) -> Vec<u8> {
        delta.to_vec()
    }

    fn merge_deltas(&self, _older: &[u8], newer: &[u8]) -> Vec<u8> {
        newer.to_vec()
    }
}

/// Resolves all versions of one key into the entry a merge (or read)
/// should emit.
///
/// `versions` are in position order, newest first: fresher table, then
/// fresher component. Position is the only freshness rule — each key's
/// writes reach `C0` in seqno order, so position order is seqno order
/// (DESIGN §15.1); a `strict-invariants` build asserts it.
///
/// Implements §3.1.1's read semantics: walk newest→oldest collecting
/// deltas, stop at the first base record or tombstone. When `bottom` is
/// true the result lands in the largest component: tombstones are
/// discarded and orphan deltas are materialized against an absent base.
/// Returns `None` when the key should be dropped entirely.
pub fn merge_versions(
    op: &dyn MergeOperator,
    versions: &[Versioned],
    bottom: bool,
) -> Option<Versioned> {
    debug_assert!(!versions.is_empty());
    for pair in versions.windows(2) {
        check_newest_first(&pair[0], &pair[1]);
    }
    let newest_seq = versions.first()?.seqno;
    let mut deltas: Vec<&[u8]> = Vec::new();
    for v in versions {
        match &v.entry {
            Entry::Delta(d) => deltas.push(d),
            Entry::Put(base) => {
                if deltas.is_empty() {
                    return Some(Versioned {
                        seqno: newest_seq,
                        entry: v.entry.clone(),
                    });
                }
                let merged = op.fold(Some(base), &deltas);
                return Some(Versioned::put(newest_seq, bytes::Bytes::from(merged)));
            }
            Entry::Tombstone => {
                if !deltas.is_empty() {
                    let merged = op.fold(None, &deltas);
                    return Some(Versioned::put(newest_seq, bytes::Bytes::from(merged)));
                }
                if bottom {
                    return None;
                }
                return Some(Versioned::tombstone(newest_seq));
            }
        }
    }
    // Only deltas seen.
    if deltas.len() == 1 && !bottom {
        return Some(Versioned::delta(
            newest_seq,
            bytes::Bytes::copy_from_slice(deltas[0]),
        ));
    }
    let mut acc = deltas.pop()?.to_vec(); // non-empty: versions is non-empty, all deltas
    while let Some(newer) = deltas.pop() {
        acc = op.merge_deltas(&acc, newer);
    }
    if bottom {
        Some(Versioned::put(
            newest_seq,
            bytes::Bytes::from(op.apply(None, &acc)),
        ))
    } else {
        Some(Versioned::delta(newest_seq, bytes::Bytes::from(acc)))
    }
}

/// Panics, in a `strict-invariants` build, when `newer` — a version in
/// front of `older` by position — carries the older seqno.
pub(crate) fn check_newest_first(newer: &Versioned, older: &Versioned) {
    if cfg!(feature = "strict-invariants") {
        assert!(
            newer.seqno >= older.seqno,
            "freshness inverted: seqno {} sits in front of seqno {}",
            newer.seqno,
            older.seqno
        );
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn append_operator_associative() {
        let op = AppendOperator;
        let base = b"ab";
        let d1 = b"cd";
        let d2 = b"ef";
        let sequential = op.apply(Some(&op.apply(Some(base), d1)), d2);
        let merged = op.apply(Some(base.as_slice()), &op.merge_deltas(d1, d2));
        assert_eq!(sequential, merged);
        assert_eq!(sequential, b"abcdef");
    }

    #[test]
    fn add_operator_counts() {
        let op = AddOperator;
        let five = 5i64.to_le_bytes();
        let minus2 = (-2i64).to_le_bytes();
        let v = op.apply(None, &five);
        let v = op.apply(Some(&v), &minus2);
        assert_eq!(AddOperator::decode(&v), 3);
        let merged = op.merge_deltas(&five, &minus2);
        assert_eq!(AddOperator::decode(&merged), 3);
    }

    #[test]
    fn fold_applies_oldest_first() {
        let op = AppendOperator;
        // Read collected deltas newest-first: ["c", "b"] over base "a".
        let out = op.fold(Some(b"a"), &[b"c", b"b"]);
        assert_eq!(out, b"abc");
        // No base: deltas applied to empty.
        let out = op.fold(None, &[b"y", b"x"]);
        assert_eq!(out, b"xy");
    }

    #[test]
    fn entry_base_detection() {
        assert!(Entry::Put(Bytes::from_static(b"x")).is_base());
        assert!(!Entry::Delta(Bytes::from_static(b"x")).is_base());
        assert!(!Entry::Tombstone.is_base());
    }

    #[test]
    fn overwrite_operator() {
        let op = OverwriteOperator;
        assert_eq!(op.apply(Some(b"old"), b"new"), b"new");
        assert_eq!(op.merge_deltas(b"a", b"b"), b"b");
    }

    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "freshness inverted")]
    fn an_inverted_chain_panics() {
        let chain = [Versioned::put(5, "old"), Versioned::put(6, "new")];
        merge_versions(&AppendOperator, &chain, false);
    }
}
