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
//! §4.4.3's concurrently-updated filter serves a reader that looks
//! inside a half-built component, and so does a `C0:C1` pass's flushed
//! prefix here: the pass's builder keeps inserting while readers probe
//! the keys it already published. The words are atomics with one writer,
//! a [`BloomWriter`], that sets a bit with a plain load and store, never
//! a read-modify-write; its readers share the same filter through an
//! `Arc`. A reader only ever asks about keys published to it (through a
//! catalog swap, which orders the inserts before the read); a bit set
//! since is at worst a false positive.
//!
//! A filter sized for an upper bound on its keys can shrink once the
//! count is known: probes are `(h1 + i·h2) mod bits`, so ORing the two
//! halves of a filter and halving `bits` (same `k`) gives exactly the
//! filter those keys would have set at the smaller size
//! ([`BloomFilter::fold`]). [`BloomParams::foldable`] rounds a size so
//! that it halves several times.

mod hash;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub use hash::{hash128, hash64};

/// Natural log of 2; `k = (bits/keys)·ln 2` minimizes the false positive
/// rate for a given size.
const LN2: f64 = std::f64::consts::LN_2;

/// The paper's false positive target (§3.1: "below 1%").
pub const TARGET_FP_RATE: f64 = 0.01;

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

    /// These parameters with the word count rounded up to a multiple of
    /// `2^m`, `m = ⌊log2 words⌋ − 4`, so that [`BloomFilter::fold`] can
    /// halve the filter up to `m` times. It costs at most 1/16 more bits;
    /// `k` is unchanged.
    pub fn foldable(self) -> BloomParams {
        let words = (self.bits / 64).max(1);
        let step = 1u64 << words.ilog2().saturating_sub(4);
        BloomParams {
            bits: words.next_multiple_of(step) * 64,
            k: self.k,
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

/// The word and the mask of probe bit `bit`.
#[inline]
fn word_mask(bit: u64) -> (usize, u64) {
    ((bit / 64) as usize, 1 << (bit % 64))
}

/// A Bloom filter. Owned, it is filled through `&mut`
/// ([`insert`](Self::insert)); shared while it fills, through its one
/// [`BloomWriter`]. Both insert through the same single-writer body.
#[derive(Debug)]
pub struct BloomFilter {
    params: BloomParams,
    // ordering: Release stores by the filter's one writer (plain load,
    // then store: never a read-modify-write), Acquire loads by probes. A
    // reader's happens-before edge to the keys it may ask about comes
    // from how they were published to it (a catalog swap); a bit stored
    // since only turns a "no" into a false positive.
    words: Box<[AtomicU64]>,
    // ordering: Release store by the one writer, Acquire loads — a count
    // for sizing and serialization, never a synchronization edge.
    inserted: AtomicU64,
}

impl BloomFilter {
    /// Creates an empty filter with the given parameters.
    pub fn new(params: BloomParams) -> BloomFilter {
        BloomFilter {
            params,
            words: (0..params.bits / 64).map(|_| AtomicU64::new(0)).collect(),
            inserted: AtomicU64::new(0),
        }
    }

    /// Creates a filter sized for `expected_keys` at a <1% false positive
    /// rate — the paper's default tradeoff.
    pub fn with_capacity(expected_keys: u64) -> BloomFilter {
        BloomFilter::new(BloomParams::for_fp_rate(expected_keys, TARGET_FP_RATE))
    }

    /// Filter sizing parameters.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Number of keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.inserted.load(Ordering::Acquire)
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.set_bits(key);
    }

    /// Sets `key`'s bits and counts it, with a plain load and store per
    /// word: correct only with one writer, which `&mut self` or the
    /// filter's one [`BloomWriter`] guarantees.
    fn set_bits(&self, key: &[u8]) {
        for bit in probes(key, self.params.bits, self.params.k) {
            let (word, mask) = word_mask(bit);
            let word = &self.words[word];
            word.store(word.load(Ordering::Acquire) | mask, Ordering::Release);
        }
        self.inserted
            .store(self.inserted.load(Ordering::Acquire) + 1, Ordering::Release);
    }

    /// Membership test: false means *definitely absent* (no false
    /// negatives, ever); true means *probably present*.
    pub fn contains(&self, key: &[u8]) -> bool {
        probes(key, self.params.bits, self.params.k).all(|bit| {
            let (word, mask) = word_mask(bit);
            self.words[word].load(Ordering::Acquire) & mask != 0
        })
    }

    /// Fraction of bits set; a saturation diagnostic.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.words().map(|w| u64::from(w.count_ones())).sum();
        set as f64 / self.params.bits as f64
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().map(|w| w.load(Ordering::Acquire))
    }

    /// The smallest exact fold of this filter that still predicts at most
    /// `target_fp_rate` for the keys inserted so far: the filter cut into
    /// `2^h` equal slices ORed together, for the largest `h` at which the
    /// slices are whole words. Answers exactly as a filter of that size
    /// holding the same keys would. `None` when no halving meets the
    /// target (or the word count is odd).
    pub fn fold(&self, target_fp_rate: f64) -> Option<BloomFilter> {
        let n_words = self.words.len();
        let inserted = self.inserted();
        let meets = |parts: usize| {
            n_words.is_multiple_of(parts)
                && BloomParams {
                    bits: (n_words / parts) as u64 * 64,
                    k: self.params.k,
                }
                .predicted_fp_rate(inserted)
                    <= target_fp_rate
        };
        let mut parts = 1;
        while meets(parts * 2) {
            parts *= 2;
        }
        if parts == 1 {
            return None;
        }
        let len = n_words / parts;
        let mut words = vec![0u64; len];
        for (i, w) in self.words().enumerate() {
            words[i % len] |= w;
        }
        Some(BloomFilter {
            params: BloomParams {
                bits: len as u64 * 64,
                k: self.params.k,
            },
            words: words.into_iter().map(AtomicU64::new).collect(),
            inserted: AtomicU64::new(inserted),
        })
    }

    /// Serializes the filter: `bits(8) | k(4) | inserted(8) | words`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.words.len() * 8);
        out.extend_from_slice(&self.params.bits.to_le_bytes());
        out.extend_from_slice(&self.params.k.to_le_bytes());
        out.extend_from_slice(&self.inserted().to_le_bytes());
        for w in self.words() {
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
                AtomicU64::new(u64::from_le_bytes(buf))
            })
            .collect();
        Some(BloomFilter {
            params: BloomParams { bits, k },
            words,
            inserted: AtomicU64::new(inserted),
        })
    }
}

/// The one writer of a filter that readers probe while it fills: it
/// owns the only handle that can insert, and [`shared`](Self::shared)
/// hands out read-only ones. Because no other thread ever stores to the
/// words, setting a bit is a plain load and store, not a
/// read-modify-write.
#[derive(Debug)]
pub struct BloomWriter {
    filter: Arc<BloomFilter>,
}

impl BloomWriter {
    /// An empty filter with the given parameters.
    pub fn new(params: BloomParams) -> BloomWriter {
        BloomWriter {
            filter: Arc::new(BloomFilter::new(params)),
        }
    }

    /// Inserts a key. Readers holding [`shared`](Self::shared) handles
    /// may see its bits at any time after; they see them all once the
    /// key is published to them with a release/acquire pair.
    pub fn insert(&mut self, key: &[u8]) {
        self.filter.set_bits(key);
    }

    /// The filter as it stands, shared: it keeps filling.
    pub fn shared(&self) -> &Arc<BloomFilter> {
        &self.filter
    }

    /// The filter for the keys inserted so far, folded as far as
    /// `target_fp_rate` allows ([`BloomFilter::fold`]): a new filter, or
    /// the shared one itself when it does not fold.
    pub fn folded(&self, target_fp_rate: f64) -> Arc<BloomFilter> {
        self.filter
            .fold(target_fp_rate)
            .map_or_else(|| self.filter.clone(), Arc::new)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use std::sync::Arc;

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
    fn foldable_sizes_cost_at_most_a_sixteenth_and_halve() {
        for keys in [1u64, 10, 1_000, 12_345, 1_000_003] {
            let p = BloomParams::for_fp_rate(keys, 0.01);
            let f = p.foldable();
            assert_eq!(f.k, p.k);
            assert!(
                f.bits >= p.bits && f.bits * 16 <= p.bits * 17,
                "{p:?} -> {f:?}"
            );
            let words = f.bits / 64;
            let halvings = (words.ilog2()).saturating_sub(4);
            assert!(words.is_multiple_of(1 << halvings), "{f:?}");
        }
    }

    #[test]
    fn a_writer_publishing_through_a_count_shows_no_false_negative() {
        use std::sync::atomic::{AtomicU64, Ordering};

        // One thread inserts and publishes how many keys it has inserted
        // with a Release store; the other reads the count with Acquire
        // and probes every key below it while the writer keeps going.
        const N: u64 = 200_000;
        let key = |i: u64| i.to_le_bytes();
        let mut writer = BloomWriter::new(BloomParams::for_fp_rate(N, 0.01));
        let reader = writer.shared().clone();
        let published = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            let count = published.clone();
            s.spawn(move || {
                for i in 0..N {
                    writer.insert(&key(i));
                    count.store(i + 1, Ordering::Release);
                }
            });
            let mut probed = 0u64;
            loop {
                let upto = published.load(Ordering::Acquire);
                let from = upto.saturating_sub(64);
                for i in from..upto {
                    assert!(
                        reader.contains(&key(i)),
                        "false negative for published key {i}"
                    );
                    probed += 1;
                }
                if upto == N {
                    break;
                }
            }
            assert!(probed > 0);
        });
        assert_eq!(reader.inserted(), N);
        for i in 0..N {
            assert!(reader.contains(&key(i)));
        }
    }

    #[test]
    fn a_shared_filter_folds_and_its_readers_keep_theirs() {
        let mut writer = BloomWriter::new(BloomParams::for_fp_rate(40_000, 0.01).foldable());
        for i in 0..5_000u32 {
            writer.insert(&i.to_le_bytes());
        }
        let prefix = writer.shared().clone();
        let before = prefix.params();
        let done = writer.folded(0.01);
        assert!(!Arc::ptr_eq(&done, &prefix), "an 8x oversized filter folds");
        assert!(done.params().bits * 4 <= before.bits);
        assert_eq!(prefix.params(), before);
        for i in 0..5_000u32 {
            assert!(done.contains(&i.to_le_bytes()) && prefix.contains(&i.to_le_bytes()));
        }
        // A filter at its target does not fold: the writer's own comes back.
        let mut writer = BloomWriter::new(BloomParams::for_fp_rate(1_000, 0.01).foldable());
        for i in 0..1_000u32 {
            writer.insert(&i.to_le_bytes());
        }
        let shared = writer.shared().clone();
        assert!(Arc::ptr_eq(&writer.folded(0.01), &shared));
    }

    #[test]
    fn params_invalid_fp_rate_panics() {
        let r = std::panic::catch_unwind(|| BloomParams::for_fp_rate(100, 0.0));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| BloomParams::for_fp_rate(100, 1.0));
        assert!(r.is_err());
    }
}
