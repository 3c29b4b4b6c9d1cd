//! Equivalence property: `ConcurrentC0` driven from a single thread is
//! observationally identical to the `SnowshovelBuffer` oracle — same
//! resolutions, same drain sequence, same byte accounting — under
//! arbitrary interleavings of inserts, passes, drains, cursor
//! advancement, and both clean and capped pass endings. The concurrent
//! structure's extra machinery (shards, atomics, epoch) must be
//! invisible at this level; its thread-safety is covered separately by
//! the hammer tests and the model checker.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use bytes::Bytes;
use proptest::prelude::*;

use blsm_memtable::{AppendOperator, ConcurrentC0, SnowshovelBuffer, Versioned};

const KEYS: u8 = 32;

/// Keys whose first byte sweeps the full top-nibble range, so the
/// concurrent side exercises all sixteen shards (the oracle is
/// oblivious; equivalence must hold regardless of routing).
fn key(k: u8) -> Bytes {
    let k = k % KEYS;
    Bytes::from(vec![k.wrapping_mul(8), k])
}

#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Delta(u8, u8),
    Tombstone(u8),
    /// Begin a pass (`true` = snowshovel, `false` = frozen).
    BeginPass(bool),
    Drain,
    AdvanceCursor(u8),
    /// End the pass: clean `end_pass` when exhausted, else the capped
    /// fold-remainder path.
    EndPass,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Delta(k, v)),
        1 => any::<u8>().prop_map(Op::Tombstone),
        1 => any::<bool>().prop_map(Op::BeginPass),
        4 => Just(Op::Drain),
        1 => any::<u8>().prop_map(Op::AdvanceCursor),
        1 => Just(Op::EndPass),
    ]
}

/// The whole-key prefix a `budget`-row copy of `rows` must be: rows are
/// taken until the budget is met *and* the key changes.
fn key_aligned_prefix(rows: &[(Bytes, Versioned)], budget: usize) -> &[(Bytes, Versioned)] {
    let cut = (budget.max(1)..rows.len())
        .find(|&i| rows[i - 1].0 != rows[i].0)
        .unwrap_or(rows.len());
    &rows[..cut]
}

/// Asserts every observer the two structures share agrees.
/// (`prop_assert*` panics in the vendored proptest shim, so this is a
/// plain function rather than one returning `TestCaseError`.)
fn assert_observers_match(oracle: &SnowshovelBuffer, conc: &ConcurrentC0, budget: usize) {
    prop_assert_eq!(oracle.len(), conc.len(), "len diverged");
    prop_assert_eq!(oracle.is_empty(), conc.is_empty());
    prop_assert_eq!(oracle.approx_bytes(), conc.approx_bytes(), "approx_bytes");
    prop_assert_eq!(oracle.current_bytes(), conc.current_bytes(), "current");
    prop_assert_eq!(oracle.behind_bytes(), conc.behind_bytes(), "behind");
    prop_assert_eq!(oracle.retained_bytes(), conc.retained_bytes(), "retained");
    prop_assert_eq!(oracle.drained_bytes(), conc.drained_bytes(), "drained");
    prop_assert_eq!(
        oracle.pass_start_bytes(),
        conc.pass_start_bytes(),
        "pass_start"
    );
    for k in 0..KEYS {
        let kb = key(k);
        prop_assert_eq!(
            oracle.get(&kb).cloned(),
            conc.get(&kb),
            "get({}) diverged",
            k
        );
        let oracle_chain: Vec<Versioned> = oracle.version_chain(&kb).cloned().collect();
        prop_assert_eq!(oracle_chain, conc.version_chain(&kb), "chain({})", k);
    }
    // Full-range scan, all versions, newest-first ties.
    let oracle_rows: Vec<(Bytes, Versioned)> = oracle
        .range_from(&[])
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    prop_assert_eq!(&oracle_rows, &conc.range_rows(&[], None), "range scan");
    // The budgeted copy a short scan pins: the oracle's rows cut at the
    // first key boundary at or past the budget, and "rows left" exactly
    // when that cut dropped something.
    let want = key_aligned_prefix(&oracle_rows, budget);
    let (got, rows_left) = conc.range_rows_bounded(&[], None, budget);
    prop_assert_eq!(want, &got[..], "bounded range scan, budget {}", budget);
    prop_assert_eq!(rows_left, want.len() < oracle_rows.len(), "rows left");
}

proptest! {
    /// Drives the identical operation sequence through both structures
    /// and checks every shared observer after each step.
    #[test]
    fn concurrent_c0_matches_snowshovel_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..120),
        budget in 0usize..24,
    ) {
        let op = AppendOperator;
        let mut oracle = SnowshovelBuffer::new();
        let conc = ConcurrentC0::new();
        let mut seq = 0u64;
        let mut in_pass = false;
        let mut snowshovel_pass = false;
        // The merge-order cursor, tracked to honor the drain contract:
        // the engine interleaves `drain_next` and `advance_cursor` in
        // globally ascending key order, so it never drains a key at or
        // below the cursor (`drain_next` would move the cursor backward
        // and break the behind-is-newer invariant both structures rely
        // on). Keys that fall at/below the cursor undrained are exactly
        // what the capped pass ending folds back in.
        let mut cursor: Option<Bytes> = None;

        for o in &ops {
            match o {
                Op::Put(k, v) => {
                    let w = Versioned::put(seq, Bytes::from(vec![*v]));
                    oracle.insert(key(*k), w.clone(), &op);
                    conc.insert(key(*k), w, &op);
                    seq += 1;
                }
                Op::Delta(k, v) => {
                    let w = Versioned::delta(seq, Bytes::from(vec![*v]));
                    oracle.insert(key(*k), w.clone(), &op);
                    conc.insert(key(*k), w, &op);
                    seq += 1;
                }
                Op::Tombstone(k) => {
                    let w = Versioned::tombstone(seq);
                    oracle.insert(key(*k), w.clone(), &op);
                    conc.insert(key(*k), w, &op);
                    seq += 1;
                }
                Op::BeginPass(snowshovel) => {
                    if !in_pass {
                        oracle.begin_pass(*snowshovel);
                        conc.begin_pass(*snowshovel);
                        in_pass = true;
                        snowshovel_pass = *snowshovel;
                        cursor = None;
                    }
                }
                Op::Drain => {
                    let peek = oracle.peek_drain().cloned();
                    let in_merge_order = !snowshovel_pass
                        || match (&peek, &cursor) {
                            (Some(k), Some(c)) => k > c,
                            _ => true,
                        };
                    if in_pass && in_merge_order {
                        prop_assert_eq!(
                            peek,
                            conc.drain_guard().peek_drain(),
                            "peek diverged"
                        );
                        let a = oracle.drain_next();
                        let b = conc.drain_guard().drain_next();
                        prop_assert_eq!(&a, &b, "drain sequence diverged");
                        prop_assert_eq!(oracle.pass_exhausted(), conc.pass_exhausted());
                        if let Some((dk, _)) = a {
                            cursor = Some(dk);
                        }
                    }
                }
                Op::AdvanceCursor(k) => {
                    if in_pass {
                        let kb = key(*k);
                        oracle.advance_cursor(&kb);
                        conc.drain_guard().advance_cursor(&kb);
                        if snowshovel_pass && cursor.as_ref().is_none_or(|c| kb > c) {
                            cursor = Some(kb);
                        }
                    }
                }
                Op::EndPass => {
                    if in_pass {
                        if oracle.pass_exhausted() {
                            oracle.end_pass();
                        } else {
                            let merged = oracle.fold_remainder(&op);
                            drop(oracle.end_pass_installing(merged));
                        }
                        // The engine's one pass end, clean or not.
                        let (conc_displaced, leftover) = conc.end_capped_pass_with(&op, || ());
                        prop_assert_eq!(leftover, !oracle.is_empty());
                        drop(conc_displaced);
                        in_pass = false;
                    }
                }
            }
            assert_observers_match(&oracle, &conc, budget);
        }

        // Close any open pass the same way the engine would: drain the
        // keys still ahead of the cursor, then end clean if that emptied
        // the pass, capped otherwise (entries at/below the cursor are
        // folded back, exactly like a run-length-capped merge).
        if in_pass {
            loop {
                let peek = oracle.peek_drain().cloned();
                let in_merge_order = !snowshovel_pass
                    || match (&peek, &cursor) {
                        (Some(k), Some(c)) => k > c,
                        _ => true,
                    };
                if peek.is_none() || !in_merge_order {
                    break;
                }
                let a = oracle.drain_next();
                let b = conc.drain_guard().drain_next();
                prop_assert_eq!(&a, &b, "final drain diverged");
                if let Some((dk, _)) = a {
                    cursor = Some(dk);
                }
            }
            if oracle.pass_exhausted() {
                oracle.end_pass();
            } else {
                let merged = oracle.fold_remainder(&op);
                drop(oracle.end_pass_installing(merged));
            }
            let (conc_displaced, leftover) = conc.end_capped_pass_with(&op, || ());
            prop_assert_eq!(leftover, !oracle.is_empty());
            drop(conc_displaced);
        }
        assert_observers_match(&oracle, &conc, budget);
    }
}

/// An operation on a buffer caught mid-pass.
#[derive(Debug, Clone)]
enum ScanOp {
    /// Key and payload; the payload also picks the record kind.
    Write(u8, u8),
    BeginPass(bool),
    Drain,
    EndPass,
}

fn scan_op_strategy() -> impl Strategy<Value = ScanOp> {
    prop_oneof![
        8 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| ScanOp::Write(k, v)),
        1 => any::<bool>().prop_map(ScanOp::BeginPass),
        4 => Just(ScanOp::Drain),
        1 => Just(ScanOp::EndPass),
    ]
}

proptest! {
    /// For buffers caught mid-pass — rows in all three tables, keys
    /// resident two or three times — and any budget
    /// and range: the bounded copy is a prefix of the unbounded one, ends
    /// on a key boundary, and reports "rows left" iff the prefix is proper.
    #[test]
    fn bounded_copy_is_a_key_aligned_prefix(
        ops in proptest::collection::vec(scan_op_strategy(), 1..160),
        budget in 0usize..40,
        from in any::<u8>(),
        to in proptest::collection::vec(any::<u8>(), 0..2),
    ) {
        let op = AppendOperator;
        let conc = ConcurrentC0::new();
        let mut seqno = 0u64;
        let mut in_pass = false;
        for o in &ops {
            match o {
                ScanOp::Write(k, v) => {
                    seqno += 1;
                    let w = match v % 5 {
                        0 => Versioned::tombstone(seqno),
                        1 | 2 => Versioned::delta(seqno, Bytes::from(vec![*v])),
                        _ => Versioned::put(seqno, Bytes::from(vec![*v])),
                    };
                    conc.insert(key(*k), w, &op);
                }
                ScanOp::BeginPass(snowshovel) => {
                    if !in_pass {
                        conc.begin_pass(*snowshovel);
                        in_pass = true;
                    }
                }
                ScanOp::Drain => {
                    if in_pass {
                        conc.drain_guard().drain_next();
                    }
                }
                ScanOp::EndPass => {
                    if in_pass {
                        drop(conc.end_capped_pass_with(&op, || ()));
                        in_pass = false;
                    }
                }
            }
        }

        let from = key(from);
        let to = to.first().map(|t| key(*t));
        let all = conc.range_rows(&from, to.as_deref());
        prop_assert!(all.windows(2).all(|w| {
            w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1.seqno >= w[1].1.seqno)
        }), "key order, seqno-descending ties");
        let (got, rows_left) = conc.range_rows_bounded(&from, to.as_deref(), budget);
        prop_assert_eq!(key_aligned_prefix(&all, budget), &got[..], "budget {}", budget);
        prop_assert_eq!(rows_left, got.len() < all.len(), "rows left iff proper prefix");
        if rows_left {
            prop_assert!(got.len() >= budget, "stopped short of the budget");
            prop_assert!(got.last().unwrap().0 != all[got.len()].0, "a key was split");
        }
    }
}
