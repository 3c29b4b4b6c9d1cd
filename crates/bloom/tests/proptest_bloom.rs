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

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Folding is exact and keeps the target: a filter sized for up to
    /// 8x the keys it gets, folded at finish, answers every inserted key,
    /// lets at most 1.5 % of absent keys through, is bit for bit the
    /// filter those keys set at the folded size directly, and survives a
    /// `to_bytes`/`from_bytes` round trip.
    #[test]
    fn fold_is_exact_and_keeps_the_target(
        n in 500u64..5_000,
        oversize in 1u64..9,
        seed in any::<u64>(),
    ) {
        let key = |i: u64| format!("k{seed:016x}-{i}").into_bytes();
        let params = BloomParams::for_fp_rate(n * oversize, 0.01).foldable();
        let mut f = BloomFilter::new(params);
        for i in 0..n {
            f.insert(&key(i));
        }
        let folded = f.fold(0.01);
        prop_assert!(folded.is_some() || oversize < 2);
        let g = folded.unwrap_or(f);
        prop_assert_eq!(g.params().k, params.k);
        prop_assert!(g.params().bits <= params.bits);
        prop_assert!(g.params().bits as f64 / n as f64 <= 2.0 * 9.6 * 17.0 / 16.0 + 1.0,
            "{} bits for {n} keys", g.params().bits);
        for i in 0..n {
            prop_assert!(g.contains(&key(i)));
        }
        let absent = 20_000u64;
        let fp = (n..n + absent).filter(|&i| g.contains(&key(i))).count();
        prop_assert!(fp as f64 / absent as f64 <= 0.015, "{fp} of {absent} absent keys passed");

        let mut direct = BloomFilter::new(g.params());
        for i in 0..n {
            direct.insert(&key(i));
        }
        prop_assert_eq!(direct.to_bytes(), g.to_bytes());

        let h = BloomFilter::from_bytes(&g.to_bytes()).unwrap();
        prop_assert_eq!(h.params(), g.params());
        prop_assert_eq!(h.inserted(), n);
        for i in 0..n + 1_000 {
            prop_assert_eq!(h.contains(&key(i)), g.contains(&key(i)));
        }
    }
}
