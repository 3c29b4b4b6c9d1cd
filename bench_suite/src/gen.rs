//! Seeded inputs: keys, values, and the operation stream.
//!
//! Everything a workload feeds the system is a pure function of
//! `--seed`, and every value is a pure function of its record id, so a
//! read can be checked byte for byte without keeping a model of the
//! store: whatever version of id `i` is visible, it must be `value(i)`.

use bytes::Bytes;

/// Key length in bytes: a 12-byte hash prefix (spreads ids evenly over
/// the keyspace, so even shard bounds split the load evenly) followed by
/// the id, big-endian (lets a scan row be mapped back to its id).
pub const KEY_LEN: usize = 20;
/// Value length in bytes.
pub const VALUE_LEN: usize = 100;
/// User bytes one written record carries.
pub const RECORD_BYTES: u64 = (KEY_LEN + VALUE_LEN) as u64;

/// First id of the per-thread ranges that `insert_if_not_exists` and
/// fresh-key writes draw from; no loaded id reaches it.
const FRESH_BASE: u64 = 1 << 40;
/// Ids at or above this are never written by anyone.
const ABSENT_BASE: u64 = 1 << 56;

/// SplitMix64 finalizer: the one mixing function everything here uses.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix64(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Maps record ids to keys and values under one seed.
#[derive(Debug, Clone, Copy)]
pub struct Keyspace {
    salt: u64,
}

impl Keyspace {
    pub fn new(seed: u64) -> Keyspace {
        Keyspace {
            salt: mix64(seed ^ 0x6b65_7973),
        }
    }

    pub fn key(&self, id: u64) -> [u8; KEY_LEN] {
        let h1 = mix64(id ^ self.salt);
        let h2 = mix64(h1);
        let mut k = [0u8; KEY_LEN];
        k[..8].copy_from_slice(&h1.to_be_bytes());
        k[8..12].copy_from_slice(&h2.to_be_bytes()[..4]);
        k[12..].copy_from_slice(&id.to_be_bytes());
        k
    }

    /// The id a key was made from, if it is one of ours.
    pub fn id_of(&self, key: &[u8]) -> Option<u64> {
        let suffix: [u8; 8] = key.get(12..KEY_LEN)?.try_into().ok()?;
        let id = u64::from_be_bytes(suffix);
        (key.len() == KEY_LEN && self.key(id) == *key).then_some(id)
    }

    /// Key and value of `id`, as the engine's write calls take them.
    pub fn record(&self, id: u64) -> (Bytes, Bytes) {
        (
            Bytes::copy_from_slice(&self.key(id)),
            Bytes::copy_from_slice(&self.value(id)),
        )
    }

    pub fn value(&self, id: u64) -> [u8; VALUE_LEN] {
        let mut v = [0u8; VALUE_LEN];
        let mut x = id ^ self.salt.rotate_left(17);
        for chunk in v.chunks_mut(8) {
            x = mix64(x);
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        v
    }
}

/// One operation against the store, with the answer it must give.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point read; `present` says whether the id has been written.
    Get { id: u64, present: bool },
    /// Blind write of `value(id)`.
    Put { id: u64 },
    /// `insert_if_not_exists`; `fresh` is the answer it must return.
    Cins { id: u64, fresh: bool },
    /// Scan of `rows` rows starting at the key of a written id.
    Scan { from: u64, rows: u32 },
}

/// The class a latency sample is filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    Read = 0,
    Write = 1,
    Scan = 2,
}

pub const CLASSES: usize = 3;

impl Op {
    pub fn class(&self) -> OpClass {
        match self {
            Op::Get { .. } => OpClass::Read,
            Op::Put { .. } | Op::Cins { .. } => OpClass::Write,
            Op::Scan { .. } => OpClass::Scan,
        }
    }

    /// User bytes the op hands the store to keep.
    pub fn user_bytes(&self) -> u64 {
        match self {
            Op::Put { .. } | Op::Cins { fresh: true, .. } => RECORD_BYTES,
            _ => 0,
        }
    }

    fn fold_into(&self, h: u64) -> u64 {
        let (tag, a, b) = match *self {
            Op::Get { id, present } => (1u64, id, u64::from(present)),
            Op::Put { id } => (2, id, 0),
            Op::Cins { id, fresh } => (3, id, u64::from(fresh)),
            Op::Scan { from, rows } => (4, from, u64::from(rows)),
        };
        mix64(mix64(mix64(h ^ tag) ^ a) ^ b)
    }
}

/// Zipfian ranks over `n` items (Gray et al., as YCSB does it), rank 0
/// the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
        }
    }

    pub fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }
}

/// Shares of each operation kind, in parts per thousand.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix {
    /// Read of a loaded id, uniform.
    pub get_uniform: u32,
    /// Read of a loaded id, Zipfian.
    pub get_zipf: u32,
    /// Read of an id this generator wrote recently (so it is in `C0`).
    pub get_latest: u32,
    /// Read of an id nobody writes; must return nothing.
    pub get_absent: u32,
    /// Write of an id uniform over `put_space`.
    pub put_uniform: u32,
    /// Write of a loaded id, Zipfian.
    pub put_zipf: u32,
    /// Write of a never-before-written id.
    pub put_fresh: u32,
    /// `insert_if_not_exists` of a never-before-written id.
    pub cins_fresh: u32,
    /// `insert_if_not_exists` of a loaded id.
    pub cins_existing: u32,
    /// Scan of `SCAN_ROWS` rows from a loaded id.
    pub scan: u32,
}

/// Rows per scan.
pub const SCAN_ROWS: u32 = 20;

/// The mixed workloads' operation shares (ISSUE 11): half reads (half
/// Zipfian, half of recently written ids), 40 % writes, 5 % checked
/// inserts (half fresh, half existing), 5 % scans. The writes are
/// uniform over the loaded ids: Zipfian writes collapse onto a few hot
/// keys in `C0`, which then never fills, and the workload would run
/// without the merges it is there to set beside the reads.
pub const MIXED: Mix = Mix {
    get_uniform: 0,
    get_zipf: 250,
    get_latest: 250,
    get_absent: 0,
    put_uniform: 400,
    put_zipf: 0,
    put_fresh: 0,
    cins_fresh: 25,
    cins_existing: 25,
    scan: 50,
};

impl Mix {
    /// This mix with only its reads and scans (`reads`) or only its
    /// writes and checked inserts, the shares scaled back up to 1000.
    pub fn only(self, reads: bool) -> Mix {
        const IS_READ: [bool; 10] = [
            true, true, true, true, false, false, false, false, false, true,
        ];
        let mut shares = self.shares();
        for (share, is_read) in shares.iter_mut().zip(IS_READ) {
            if is_read != reads {
                *share = 0;
            }
        }
        let total: u32 = shares.iter().sum();
        assert!(total > 0, "nothing left of the mix");
        let mut scaled = shares.map(|s| s * 1000 / total);
        // What rounding down left over goes to the largest share.
        let largest = (0..10).max_by_key(|&i| scaled[i]).unwrap_or(0);
        scaled[largest] += 1000 - scaled.iter().sum::<u32>();
        let [get_uniform, get_zipf, get_latest, get_absent, put_uniform, put_zipf, put_fresh, cins_fresh, cins_existing, scan] =
            scaled;
        Mix {
            get_uniform,
            get_zipf,
            get_latest,
            get_absent,
            put_uniform,
            put_zipf,
            put_fresh,
            cins_fresh,
            cins_existing,
            scan,
        }
    }

    fn shares(&self) -> [u32; 10] {
        [
            self.get_uniform,
            self.get_zipf,
            self.get_latest,
            self.get_absent,
            self.put_uniform,
            self.put_zipf,
            self.put_fresh,
            self.cins_fresh,
            self.cins_existing,
            self.scan,
        ]
    }

    fn cumulative(&self) -> [u32; 10] {
        let mut acc = 0;
        let cum = self.shares().map(|s| {
            acc += s;
            acc
        });
        assert_eq!(acc, 1000, "mix shares must sum to 1000");
        cum
    }
}

const LATEST_RING: usize = 1024;
/// Ops folded into the stream hash. A phase ends by the clock, so runs
/// of one seed issue different numbers of ops; their first ones are the
/// same, and those are what the hash vouches for.
const HASHED_PREFIX: u64 = 4096;

/// One generator's seeded operation stream. Generators of one run get
/// distinct `lane`s, which keeps their fresh-id ranges disjoint.
#[derive(Debug, Clone)]
pub struct OpGen {
    rng: Rng,
    cum: [u32; 10],
    loaded: u64,
    put_space: u64,
    zipf: Option<Zipf>,
    latest: Vec<u64>,
    latest_at: usize,
    next_fresh: u64,
    issued: u64,
    hash: u64,
}

impl OpGen {
    /// `loaded` ids `[0, loaded)` are in the store before the first op;
    /// uniform writes range over `[0, put_space)`.
    pub fn new(seed: u64, lane: u32, mix: Mix, loaded: u64, put_space: u64) -> OpGen {
        assert!(loaded > 0 && put_space > 0);
        let needs_zipf = mix.get_zipf + mix.put_zipf > 0;
        OpGen {
            rng: Rng::new(seed ^ mix64(u64::from(lane) + 1)),
            cum: mix.cumulative(),
            loaded,
            put_space,
            zipf: needs_zipf.then(|| Zipf::new(loaded, 0.99)),
            latest: Vec::with_capacity(LATEST_RING),
            latest_at: 0,
            next_fresh: OpGen::fresh_base(lane),
            issued: 0,
            hash: mix64(seed),
        }
    }

    /// First id of `lane`'s fresh range; the lane hands them out in
    /// order from here.
    pub fn fresh_base(lane: u32) -> u64 {
        FRESH_BASE + (u64::from(lane) << 32)
    }

    fn zipf_id(&mut self) -> u64 {
        let rank = match &self.zipf {
            Some(z) => z.rank(&mut self.rng),
            None => 0,
        };
        // Scatter the popular ranks over the id space.
        mix64(rank) % self.loaded
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_fresh;
        self.next_fresh += 1;
        id
    }

    fn wrote(&mut self, id: u64) {
        if self.latest.len() < LATEST_RING {
            self.latest.push(id);
        } else {
            self.latest[self.latest_at] = id;
            self.latest_at = (self.latest_at + 1) % LATEST_RING;
        }
    }

    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.below(1000) as u32;
        let kind = self.cum.iter().position(|&c| roll < c).unwrap_or(9);
        let op = match kind {
            0 => Op::Get {
                id: self.rng.below(self.loaded),
                present: true,
            },
            1 => Op::Get {
                id: self.zipf_id(),
                present: true,
            },
            2 => {
                let id = if self.latest.is_empty() {
                    self.zipf_id()
                } else {
                    self.latest[self.rng.below(self.latest.len() as u64) as usize]
                };
                Op::Get { id, present: true }
            }
            3 => Op::Get {
                id: ABSENT_BASE + self.rng.below(1 << 40),
                present: false,
            },
            4 => Op::Put {
                id: self.rng.below(self.put_space),
            },
            5 => Op::Put { id: self.zipf_id() },
            6 => Op::Put {
                id: self.fresh_id(),
            },
            7 => Op::Cins {
                id: self.fresh_id(),
                fresh: true,
            },
            8 => Op::Cins {
                id: self.rng.below(self.loaded),
                fresh: false,
            },
            _ => Op::Scan {
                from: self.rng.below(self.loaded),
                rows: SCAN_ROWS,
            },
        };
        if let Op::Put { id } | Op::Cins { id, fresh: true } = op {
            self.wrote(id);
        }
        if self.issued < HASHED_PREFIX {
            self.hash = op.fold_into(self.hash);
        }
        self.issued += 1;
        op
    }

    /// Hash of the first [`HASHED_PREFIX`] ops handed out: equal seeds
    /// give equal streams, and this is how a result file shows it.
    pub fn stream_hash(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, n: usize) -> (Vec<Op>, u64) {
        let mut g = OpGen::new(seed, 0, MIXED, 10_000, 10_000);
        let ops = (0..n).map(|_| g.next_op()).collect();
        (ops, g.stream_hash())
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let (a, ha) = stream(7, 5_000);
        let (b, hb) = stream(7, 5_000);
        let (c, hc) = stream(8, 5_000);
        assert_eq!(a, b);
        assert_eq!(ha, hb);
        assert_ne!(a, c);
        assert_ne!(ha, hc);
        // A run that got further along has the same hash.
        assert_eq!(stream(7, 9_000).1, ha);
        assert_ne!(stream(7, 100).1, ha);
    }

    #[test]
    fn lanes_never_share_a_fresh_id() {
        let fresh = |lane| {
            let mut g = OpGen::new(1, lane, MIXED, 1_000, 1_000);
            (0..20_000)
                .filter_map(|_| match g.next_op() {
                    Op::Cins { id, fresh: true } => Some(id),
                    _ => None,
                })
                .collect::<std::collections::BTreeSet<u64>>()
        };
        assert!(fresh(0).is_disjoint(&fresh(1)));
    }

    #[test]
    fn mix_shares_come_out_as_asked() {
        let (ops, _) = stream(3, 100_000);
        let share = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 1e5;
        assert!((share(|o| matches!(o, Op::Get { .. })) - 0.50).abs() < 0.01);
        assert!((share(|o| matches!(o, Op::Put { .. })) - 0.40).abs() < 0.01);
        assert!((share(|o| matches!(o, Op::Cins { .. })) - 0.05).abs() < 0.005);
        assert!((share(|o| matches!(o, Op::Scan { .. })) - 0.05).abs() < 0.005);
    }

    #[test]
    fn a_mix_splits_into_its_reads_and_its_writes() {
        let (reads, writes) = (MIXED.only(true), MIXED.only(false));
        assert_eq!(reads.shares().iter().sum::<u32>(), 1000);
        assert_eq!(writes.shares().iter().sum::<u32>(), 1000);
        assert_eq!(
            reads.put_uniform + reads.cins_fresh + reads.cins_existing,
            0
        );
        assert_eq!(writes.get_zipf + writes.get_latest + writes.scan, 0);
        // Proportions inside each half are kept: 250 : 250 : 50 and
        // 400 : 25 : 25, to rounding.
        assert!(reads.get_zipf.abs_diff(455) <= 2 && reads.get_latest.abs_diff(455) <= 2);
        assert_eq!(reads.scan, 90);
        assert!(writes.put_uniform.abs_diff(889) <= 2);
        assert_eq!((writes.cins_fresh, writes.cins_existing), (55, 55));
    }

    #[test]
    fn keys_map_back_to_ids_and_depend_on_the_seed() {
        let ks = Keyspace::new(11);
        for id in [0u64, 1, 999_999, FRESH_BASE + 5, ABSENT_BASE + 9] {
            assert_eq!(ks.id_of(&ks.key(id)), Some(id));
        }
        assert_eq!(ks.id_of(b"short"), None);
        let mut forged = ks.key(5);
        forged[0] ^= 1;
        assert_eq!(ks.id_of(&forged), None);
        assert_ne!(ks.key(5), Keyspace::new(12).key(5));
        assert_ne!(ks.value(5), ks.value(6));
        assert_ne!(ks.value(5), Keyspace::new(12).value(5));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1_000, 0.99);
        let mut rng = Rng::new(5);
        let mut top = 0;
        for _ in 0..50_000 {
            let r = z.rank(&mut rng);
            assert!(r < 1_000);
            top += u32::from(r < 10);
        }
        // The ten most popular of a thousand draw far more than 1 %.
        assert!(top > 15_000, "top-10 share {top}/50000");
    }
}
