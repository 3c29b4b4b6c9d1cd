//! Property-based tests for the Bloom filter: the no-false-negative
//! guarantee under arbitrary inputs, serialization fidelity, and sizing.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use proptest::prelude::*;

use blsm_bloom::{BloomFilter, BloomParams};

proptest! {
    /// The defining invariant: a Bloom filter never produces a false
    /// negative, for any key set (including duplicates and empty keys).
    #[test]
    fn no_false_negatives(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 1..500)
    ) {
        let mut f = BloomFilter::with_capacity(keys.len() as u64);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    /// Serialization preserves every probe answer, positive or negative.
    #[test]
    fn serialization_preserves_answers(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..200),
        probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..100),
    ) {
        let mut f = BloomFilter::with_capacity(keys.len() as u64);
        for k in &keys {
            f.insert(k);
        }
        let g = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        for p in keys.iter().chain(probes.iter()) {
            prop_assert_eq!(f.contains(p), g.contains(p));
        }
    }

    /// Sizing: for any plausible (n, p), predicted false-positive rate at
    /// capacity stays within 2x of the target and k stays sane.
    #[test]
    fn sizing_hits_target(n in 1u64..1_000_000, p_milli in 1u32..200) {
        let target = f64::from(p_milli) / 1000.0;
        let params = BloomParams::for_fp_rate(n, target);
        prop_assert!(params.k >= 1 && params.k <= 30);
        let predicted = params.predicted_fp_rate(n);
        prop_assert!(predicted <= target * 2.0 + 1e-6,
            "n={n} target={target} predicted={predicted} params={params:?}");
    }
}
