//! Bloom filters for bLSM tree components.
//!
//! §3.1/§4.4.3 of the paper: each on-disk tree component (`C1`, `C1'`, `C2`)
//! is protected by a Bloom filter so point lookups pay ~1 seek instead of
//! one per component, and `insert-if-not-exists` pays ~0 seeks. The paper's
//! choices, all implemented here:
//!
//! * **Double hashing** (Kirsch & Mitzenmacher, ref. \[17\]): `k` probe positions
//!   are derived as `h1 + i·h2` from two base hashes, giving the accuracy
//!   of `k` independent hashes at the cost of two.
//! * **~10 bits per key for a <1% false-positive rate** (§3.1): filters are
//!   sized from the number of keys and a target rate, defaulting to 1%
//!   (the paper sizes "for a false positive rate below 1%", and Appendix A
//!   budgets 1.25 bytes = 10 bits per key).
//! * **No deletions** — components are append-only, so the filter does
//!   not support removal.
//!
//! §4.4.3's racy, concurrently-updated filter serves a reader that looks
//! inside a half-built component. Nothing does here: one merge driver
//! builds a private [`BloomFilter`] through `&mut`, and the catalog swap
//! that installs the finished component publishes it (read-only from
//! then on) — so a plain filter suffices and there is no atomic variant.

mod hash;

pub use hash::{hash128, hash64};

/// Natural log of 2; `k = (bits/keys)·ln 2` minimizes the false positive
/// rate for a given size.
const LN2: f64 = std::f64::consts::LN_2;

/// Filter sizing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BloomParams {
    /// Number of bits in the filter.
    pub bits: u64,
    /// Number of probes per key.
    pub k: u32,
}

impl BloomParams {
    /// Sizes a filter for `expected_keys` at `target_fp_rate` (e.g. `0.01`
    /// for the paper's 1%).
    pub fn for_fp_rate(expected_keys: u64, target_fp_rate: f64) -> BloomParams {
        assert!(
            target_fp_rate > 0.0 && target_fp_rate < 1.0,
            "false positive rate must be in (0, 1)"
        );
        let n = expected_keys.max(1) as f64;
        // bits = -n·ln(p) / (ln 2)^2
        let bits = (-n * target_fp_rate.ln() / (LN2 * LN2)).ceil() as u64;
        Self::for_bits(expected_keys, bits.max(64))
    }

    /// Sizes a filter with an explicit bit budget (e.g. 10 bits/key).
    pub fn for_bits_per_key(expected_keys: u64, bits_per_key: u32) -> BloomParams {
        Self::for_bits(
            expected_keys,
            expected_keys.max(1) * u64::from(bits_per_key),
        )
    }

    fn for_bits(expected_keys: u64, bits: u64) -> BloomParams {
        let bits = bits.max(64).next_multiple_of(64);
        let k = ((bits as f64 / expected_keys.max(1) as f64) * LN2).round() as u32;
        BloomParams {
            bits,
            k: k.clamp(1, 30),
        }
    }

    /// Predicted false positive rate after `inserted` keys:
    /// `(1 - e^{-kn/m})^k`.
    pub fn predicted_fp_rate(&self, inserted: u64) -> f64 {
        let m = self.bits as f64;
        let n = inserted as f64;
        let k = f64::from(self.k);
        (1.0 - (-k * n / m).exp()).powf(k)
    }

    /// Memory the filter occupies, in bytes.
    pub fn bytes(&self) -> usize {
        (self.bits / 8) as usize
    }
}

/// Computes the `k` probe bit positions for a key via double hashing.
#[inline]
fn probes(key: &[u8], bits: u64, k: u32) -> impl Iterator<Item = u64> {
    let (h1, h2) = hash128(key);
    // Force h2 odd so it is coprime with power-of-two bit counts and the
    // probe sequence never degenerates to a single position.
    let h2 = h2 | 1;
    (0..u64::from(k)).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % bits)
}

/// Single-writer Bloom filter.
#[derive(Debug, Clone)]
pub struct BloomFilter {
    params: BloomParams,
    words: Vec<u64>,
    inserted: u64,
}

impl BloomFilter {
    /// Creates an empty filter with the given parameters.
    pub fn new(params: BloomParams) -> BloomFilter {
        BloomFilter {
            params,
            words: vec![0u64; (params.bits / 64) as usize],
            inserted: 0,
        }
    }

    /// Creates a filter sized for `expected_keys` at a <1% false positive
    /// rate — the paper's default tradeoff.
    pub fn with_capacity(expected_keys: u64) -> BloomFilter {
        BloomFilter::new(BloomParams::for_fp_rate(expected_keys, 0.01))
    }

    /// Filter sizing parameters.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Number of keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        for bit in probes(key, self.params.bits, self.params.k) {
            self.words[(bit / 64) as usize] |= 1 << (bit % 64);
        }
        self.inserted += 1;
    }

    /// Membership test: false means *definitely absent* (no false
    /// negatives, ever); true means *probably present*.
    pub fn contains(&self, key: &[u8]) -> bool {
        probes(key, self.params.bits, self.params.k)
            .all(|bit| self.words[(bit / 64) as usize] & (1 << (bit % 64)) != 0)
    }

    /// Fraction of bits set; a saturation diagnostic.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.words.iter().map(|w| u64::from(w.count_ones())).sum();
        set as f64 / self.params.bits as f64
    }

    /// Serializes the filter: `bits(8) | k(4) | inserted(8) | words`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.words.len() * 8);
        out.extend_from_slice(&self.params.bits.to_le_bytes());
        out.extend_from_slice(&self.params.k.to_le_bytes());
        out.extend_from_slice(&self.inserted.to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Deserializes a filter produced by [`to_bytes`](Self::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Option<BloomFilter> {
        if bytes.len() < 20 {
            return None;
        }
        let bits = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let k = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
        let inserted = u64::from_le_bytes(bytes[12..20].try_into().ok()?);
        let n_words = (bits / 64) as usize;
        if bits % 64 != 0 || bytes.len() != 20 + n_words * 8 || k == 0 {
            return None;
        }
        let words = bytes[20..]
            .chunks_exact(8)
            .map(|c| {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(c);
                u64::from_le_bytes(buf)
            })
            .collect();
        Some(BloomFilter {
            params: BloomParams { bits, k },
            words,
            inserted,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn no_false_negatives_small() {
        let mut f = BloomFilter::with_capacity(1000);
        for i in 0..1000u32 {
            f.insert(&i.to_le_bytes());
        }
        for i in 0..1000u32 {
            assert!(f.contains(&i.to_le_bytes()), "key {i} must be present");
        }
    }

    #[test]
    fn fp_rate_close_to_one_percent() {
        let n = 50_000u32;
        let mut f = BloomFilter::with_capacity(u64::from(n));
        for i in 0..n {
            f.insert(format!("user{i:08}").as_bytes());
        }
        let mut fp = 0u32;
        let probes = 50_000u32;
        for i in 0..probes {
            if f.contains(format!("absent{i:08}").as_bytes()) {
                fp += 1;
            }
        }
        let rate = f64::from(fp) / f64::from(probes);
        assert!(rate < 0.02, "measured fp rate {rate} should be ~1%");
        // And the paper's sizing really is ~10 bits/key.
        let bits_per_key = f.params().bits as f64 / f64::from(n);
        assert!(
            (9.0..11.0).contains(&bits_per_key),
            "{bits_per_key} bits/key"
        );
    }

    #[test]
    fn ten_bits_per_key_sizing() {
        let p = BloomParams::for_bits_per_key(1_000_000, 10);
        assert_eq!(p.bits, 10_000_000);
        assert_eq!(p.k, 7); // 10·ln2 ≈ 6.93
        let predicted = p.predicted_fp_rate(1_000_000);
        assert!(predicted < 0.011, "10 bits/key predicts ~1%: {predicted}");
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::with_capacity(100);
        for i in 0..1000u32 {
            assert!(!f.contains(&i.to_le_bytes()));
        }
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = BloomFilter::with_capacity(500);
        for i in 0..500u32 {
            f.insert(&i.to_be_bytes());
        }
        let bytes = f.to_bytes();
        let g = BloomFilter::from_bytes(&bytes).expect("valid encoding");
        assert_eq!(g.params(), f.params());
        assert_eq!(g.inserted(), 500);
        for i in 0..500u32 {
            assert!(g.contains(&i.to_be_bytes()));
        }
    }

    #[test]
    fn deserialize_rejects_garbage() {
        assert!(BloomFilter::from_bytes(&[]).is_none());
        assert!(BloomFilter::from_bytes(&[0u8; 19]).is_none());
        let mut f = BloomFilter::with_capacity(10).to_bytes();
        f.truncate(f.len() - 1);
        assert!(BloomFilter::from_bytes(&f).is_none());
    }

    #[test]
    fn appendix_a_overhead_budget() {
        // Appendix A: "Our Bloom filters consume 1.25 bytes per key".
        let p = BloomParams::for_bits_per_key(1_000_000, 10);
        assert_eq!(p.bytes(), 1_250_000);
    }

    #[test]
    fn params_invalid_fp_rate_panics() {
        let r = std::panic::catch_unwind(|| BloomParams::for_fp_rate(100, 0.0));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| BloomParams::for_fp_rate(100, 1.0));
        assert!(r.is_err());
    }
}
