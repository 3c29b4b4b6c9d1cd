//! Engine-level counters backing the paper's metrics (§2.1).
//!
//! Counters are lock-free atomics so the read path ([`crate::ReadView`])
//! never needs `&mut` access to the tree: concurrent readers, the write
//! path and the merge thread all bump the same [`TreeStats`] cell inside
//! `TreeShared`. Consumers take a [`TreeStatsSnapshot`] — a plain `Copy`
//! struct — and do delta arithmetic on that.
//!
//! This module is the only one that knows which statistics exist. One
//! table, `FIELDS`, names every snapshot scalar and says where it is read
//! from and how shards fold it; the snapshot, the shard sum and the STATS
//! wire encoding all walk that table.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sched::BackpressureLevel;

/// Increment a statistics counter.
///
/// Relaxed is deliberate: these are monotonic counters with no
/// cross-thread ordering dependencies; snapshot readers tolerate small
/// skew between fields.
#[inline]
pub(crate) fn bump(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Read a statistics counter. Relaxed for the same reason as [`bump`].
#[inline]
pub(crate) fn read(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Counters maintained by [`crate::BLsmTree`]. Device-level seek and byte
/// counts live in `blsm_storage::DeviceStats`; these add the engine-side
/// breakdown (bloom effectiveness, merge volume, stall behaviour).
///
/// Each field means what its [`TreeStatsSnapshot`] twin's docs say; use
/// [`TreeStats::snapshot`] to read them coherently enough for reporting.
/// A new counter is a field here, a field there and a row in `FIELDS`.
#[derive(Debug, Default)]
pub struct TreeStats {
    pub(crate) gets: AtomicU64,               // ordering: Relaxed (statistic)
    pub(crate) writes: AtomicU64,             // ordering: Relaxed (statistic)
    pub(crate) scans: AtomicU64,              // ordering: Relaxed (statistic)
    pub(crate) check_inserts: AtomicU64,      // ordering: Relaxed (statistic)
    pub(crate) disk_probes: AtomicU64,        // ordering: Relaxed (statistic)
    pub(crate) bloom_skips: AtomicU64,        // ordering: Relaxed (statistic)
    pub(crate) early_terminations: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) user_bytes_written: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) merge_bytes_consumed: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) merges01: AtomicU64,           // ordering: Relaxed (statistic)
    pub(crate) merges12: AtomicU64,           // ordering: Relaxed (statistic)
    pub(crate) forced_stalls: AtomicU64,      // ordering: Relaxed (statistic)
    pub(crate) scrubs: AtomicU64,             // ordering: Relaxed (statistic)
    pub(crate) scrub_errors: AtomicU64,       // ordering: Relaxed (statistic)
    pub(crate) commit_groups: AtomicU64,      // ordering: Relaxed (statistic)
    pub(crate) commit_group_writes: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) fsync_micros_total: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) group_size_hist: [AtomicU64; COMMIT_HIST_BUCKETS], // ordering: Relaxed (statistic)
    pub(crate) fsync_micros_hist: [AtomicU64; COMMIT_HIST_BUCKETS], // ordering: Relaxed (statistic)
    // The scan counters sit last so the cache line the point-read counters
    // above share (`gets` … `early_terminations`) keeps its layout.
    pub(crate) scan_c0_rows: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) scan_repins: AtomicU64,  // ordering: Relaxed (statistic)
    pub(crate) merge_errors: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) prefix_publishes: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) prefix_copy_bytes: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) reserved_pages01: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) written_pages01: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) reserved_pages12: AtomicU64, // ordering: Relaxed (statistic)
    pub(crate) written_pages12: AtomicU64, // ordering: Relaxed (statistic)
}

/// Buckets in each commit-group histogram ([`TreeStatsSnapshot::group_size_hist`],
/// [`TreeStatsSnapshot::fsync_micros_hist`]).
pub(crate) const COMMIT_HIST_BUCKETS: usize = 8;

/// The [`TreeStatsSnapshot::group_size_hist`] bucket of a group of `n` writes.
pub(crate) fn group_size_bucket(n: u64) -> usize {
    (n.max(1).ilog2() as usize).min(COMMIT_HIST_BUCKETS - 1)
}

/// The [`TreeStatsSnapshot::fsync_micros_hist`] bucket of a `micros` µs sync.
pub(crate) fn fsync_micros_bucket(micros: u64) -> usize {
    ((micros / 100).max(1).ilog2() as usize).min(COMMIT_HIST_BUCKETS - 1)
}

/// How [`TreeStatsSnapshot::accumulate`] folds one field across shards.
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// A counter: the shards' values add up.
    Sum,
    /// A level, a flag or a ticket: the store is as far along as its
    /// furthest shard.
    Max,
}

/// One named scalar of [`TreeStatsSnapshot`].
#[derive(Debug)]
struct Field {
    name: &'static str,
    fold: Fold,
    /// The [`TreeStats`] atomic the field is read from; `None` for the
    /// fields the tree fills in itself (`crate::ReadView::stats`).
    cell: Option<fn(&TreeStats) -> &AtomicU64>, // ordering: Relaxed (statistic), via `read`
    get: fn(&TreeStatsSnapshot) -> u64,
    set: fn(&mut TreeStatsSnapshot, u64),
}

/// A [`TreeStats`] counter, named `core.<part>.<field>`.
macro_rules! counter {
    ($part:ident . $f:ident) => {
        Field {
            name: concat!("core.", stringify!($part), ".", stringify!($f)),
            fold: Fold::Sum,
            cell: Some(|t| &t.$f),
            get: |s| s.$f,
            set: |s, v| s.$f = v,
        }
    };
}

/// A [`RecoveryReport`] count, named `core.recovery.<field>`.
macro_rules! recovered {
    ($f:ident) => {
        Field {
            name: concat!("core.recovery.", stringify!($f)),
            fold: Fold::Sum,
            cell: None,
            get: |s| s.recovery.$f,
            set: |s, v| s.recovery.$f = v,
        }
    };
}

/// Every scalar of [`TreeStatsSnapshot`] by name: the one list that
/// [`TreeStats::snapshot`], [`TreeStatsSnapshot::accumulate`] and STATS
/// walk. Names are `layer.part.field`, the scheme the benchmark's
/// per-layer metrics use, with the snapshot field's own name last.
const FIELDS: &[Field] = &[
    counter!(read.gets),
    counter!(write.writes),
    counter!(read.scans),
    counter!(read.scan_c0_rows),
    counter!(read.scan_repins),
    counter!(write.check_inserts),
    counter!(read.disk_probes),
    counter!(read.bloom_skips),
    counter!(read.early_terminations),
    counter!(write.user_bytes_written),
    counter!(merge.merge_bytes_consumed),
    counter!(merge.merges01),
    counter!(merge.prefix_publishes),
    counter!(merge.prefix_copy_bytes),
    counter!(merge.reserved_pages01),
    counter!(merge.written_pages01),
    counter!(merge.merges12),
    counter!(merge.reserved_pages12),
    counter!(merge.written_pages12),
    counter!(sched.forced_stalls),
    counter!(merge.merge_errors),
    counter!(scrub.scrubs),
    counter!(scrub.scrub_errors),
    counter!(commit.commit_groups),
    counter!(commit.commit_group_writes),
    counter!(commit.fsync_micros_total),
    // The level as a number that orders like it (see `named`).
    Field {
        name: "core.sched.backpressure",
        fold: Fold::Max,
        cell: None,
        get: |s| match s.backpressure {
            BackpressureLevel::Idle => 0,
            BackpressureLevel::Paced(p) => 1 + u64::from(p),
            BackpressureLevel::Saturated => 2 + u64::from(u16::MAX),
        },
        set: |s, v| {
            s.backpressure = match v {
                0 => BackpressureLevel::Idle,
                v => u16::try_from(v - 1)
                    .map_or(BackpressureLevel::Saturated, BackpressureLevel::Paced),
            }
        },
    },
    recovered!(components_salvaged),
    Field {
        name: "core.recovery.manifest_rolled_back",
        fold: Fold::Max,
        cell: None,
        get: |s| u64::from(s.recovery.manifest_rolled_back),
        set: |s, v| s.recovery.manifest_rolled_back = v != 0,
    },
    recovered!(wal_records_replayed),
    recovered!(wal_records_skipped),
    recovered!(wal_recovered_bytes),
    recovered!(wal_torn_tail_bytes),
    // RAM, so the store's is its shards' together.
    Field {
        name: "core.c0.resident_peak_bytes",
        fold: Fold::Sum,
        cell: None,
        get: |s| s.resident_peak_bytes,
        set: |s, v| s.resident_peak_bytes = v,
    },
    Field {
        name: "core.write.next_seqno",
        fold: Fold::Max,
        cell: None,
        get: |s| s.next_seqno,
        set: |s, v| s.next_seqno = v,
    },
];

impl TreeStats {
    /// Lock-free point-in-time copy of every counter.
    pub fn snapshot(&self) -> TreeStatsSnapshot {
        let mut snap = TreeStatsSnapshot {
            group_size_hist: self.group_size_hist.each_ref().map(read),
            fsync_micros_hist: self.fsync_micros_hist.each_ref().map(read),
            ..TreeStatsSnapshot::default()
        };
        for field in FIELDS {
            if let Some(cell) = field.cell {
                (field.set)(&mut snap, read(cell(self)));
            }
        }
        snap
    }
}

/// What recovery found and did when the tree was opened. `Default` means
/// a clean open: nothing rolled back, nothing truncated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// On-disk components reopened from the manifest.
    pub components_salvaged: u64,
    /// True when the newest manifest slot was damaged (torn write) and
    /// the previous epoch was used instead.
    pub manifest_rolled_back: bool,
    /// WAL records replayed into `C0`.
    pub wal_records_replayed: u64,
    /// Replayed records skipped because their effects were already
    /// durable in an on-disk component.
    pub wal_records_skipped: u64,
    /// WAL bytes scanned between the recovered head and tail.
    pub wal_recovered_bytes: u64,
    /// Estimated bytes of a partially-written frame discarded at the WAL
    /// tail (nonzero means a crash cut the final log write).
    pub wal_torn_tail_bytes: u64,
}

/// Plain-value snapshot of [`TreeStats`], safe to copy around, compare and
/// subtract. Every field also has a name ([`named`](Self::named),
/// [`histograms`](Self::histograms)), which is how STATS carries it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStatsSnapshot {
    /// Application point lookups.
    pub gets: u64,
    /// Application writes (put/delete/delta).
    pub writes: u64,
    /// Application scans.
    pub scans: u64,
    /// `C0` rows cloned into scans' pinned copies (every attempt counts);
    /// `/ scans` is what the in-memory side of a scan costs.
    pub scan_c0_rows: u64,
    /// Scans' `C0` budget escalations: attempts that reached their horizon
    /// short of `limit` and started over with a larger copy.
    pub scan_repins: u64,
    /// `insert_if_not_exists` calls.
    pub check_inserts: u64,
    /// On-disk component probes actually performed (post-bloom).
    pub disk_probes: u64,
    /// Component probes skipped because a Bloom filter said "absent".
    pub bloom_skips: u64,
    /// Reads that terminated at a base record before exhausting components.
    pub early_terminations: u64,
    /// Bytes of user data written by the application.
    pub user_bytes_written: u64,
    /// Input bytes consumed by merges (both levels).
    pub merge_bytes_consumed: u64,
    /// `C0:C1` merge passes completed.
    pub merges01: u64,
    /// Mid-pass publishes of a `C0:C1` pass's flushed output (one per
    /// chunk that reached disk); not completed merges.
    pub prefix_publishes: u64,
    /// Bytes those publishes copied (the output's filter and leaf index
    /// are shared with its prefixes, not copied: a publish copies the
    /// frontier key and a logarithmic list of index blocks, and sealing
    /// merges blocks): `/ written_pages01` is what publishing costs per
    /// page a pass writes.
    pub prefix_copy_bytes: u64,
    /// Pages completed `C0:C1` passes reserved for their output before
    /// the first row (the unused tail comes back at pass end).
    pub reserved_pages01: u64,
    /// Pages completed `C0:C1` passes wrote: data, index, filter, footer.
    pub written_pages01: u64,
    /// `C1':C2` merges completed.
    pub merges12: u64,
    /// Pages completed `C1':C2` merges reserved for their output.
    pub reserved_pages12: u64,
    /// Pages completed `C1':C2` merges wrote.
    pub written_pages12: u64,
    /// Writes that hit the hard `C0` cap and had to run forced merge work.
    pub forced_stalls: u64,
    /// Background merge quanta that returned an error. A merge lane
    /// retries one wait timeout later, so on a failing device this rises
    /// at that rate; the typed error reaches the next writer's pacing.
    pub merge_errors: u64,
    /// Scrub passes completed over the on-disk components.
    pub scrubs: u64,
    /// Total problems reported by scrub passes.
    pub scrub_errors: u64,
    /// Commit groups retired (one device sync each).
    pub commit_groups: u64,
    /// Writes retired across all commit groups; `/ commit_groups` is the
    /// mean group size — how many writers each fsync amortized over.
    pub commit_group_writes: u64,
    /// Total microseconds spent in group-commit device syncs.
    pub fsync_micros_total: u64,
    /// Commit-group size histogram: bucket `i` counts groups of `2^i ..=
    /// 2^(i+1)-1` writes (1, 2–3, 4–7, …), the last one everything from 128.
    pub group_size_hist: [u64; COMMIT_HIST_BUCKETS],
    /// Group fsync latency histogram: bucket 0 counts syncs under 200 µs,
    /// bucket `i` those of `100·2^i .. 100·2^(i+1)` µs, the last one
    /// everything from 12.8 ms.
    pub fsync_micros_hist: [u64; COMMIT_HIST_BUCKETS],
    /// The spring-and-gear watermark regime at snapshot time — the shared
    /// backpressure signal admission control and STATS read (§4.3). Raw
    /// [`TreeStats::snapshot`] reports `Idle` (counters alone cannot see
    /// `C0`); snapshots taken through the tree or a
    /// [`crate::ReadView`] carry the live level.
    pub backpressure: BackpressureLevel,
    /// What recovery found when this tree was opened. Raw
    /// [`TreeStats::snapshot`] reports the default; snapshots taken
    /// through the tree or a [`crate::ReadView`] carry the real report.
    pub recovery: RecoveryReport,
    /// The most bytes `C0` ever held in RAM at once, as `C0` counts them:
    /// the write buffer (`current` + `behind`) plus the drained rows a
    /// `C0:C1` pass still keeps readable (`retained`). Raw
    /// [`TreeStats::snapshot`] reports 0; snapshots taken through the
    /// tree or a [`crate::ReadView`] carry the live gauge.
    pub resident_peak_bytes: u64,
    /// The next sequence number the tree would allocate at snapshot
    /// time. A *reservation* counter: it may run ahead of failed or
    /// in-flight applies, so the replication tier's progress meter is
    /// the applied floor ([`crate::ReadView::applied_seqno`]), not
    /// `next_seqno - 1`. Raw [`TreeStats::snapshot`] reports 0;
    /// snapshots taken through the tree or a [`crate::ReadView`] carry
    /// the live counter.
    pub next_seqno: u64,
}

impl TreeStatsSnapshot {
    /// Mean disk probes per get — the measured read amplification
    /// numerator (§2.1 measures it in seeks).
    pub fn probes_per_get(&self) -> f64 {
        if self.gets == 0 {
            0.0
        } else {
            self.disk_probes as f64 / self.gets as f64
        }
    }

    /// Field-wise accumulate, used by `ShardedReadView::stats` to sum
    /// per-shard counters. Levels, flags and seqno tickets take the max:
    /// the store is as pressed as its most-pressed partition.
    pub fn accumulate(&mut self, other: &TreeStatsSnapshot) {
        for field in FIELDS {
            let (mine, theirs) = ((field.get)(self), (field.get)(other));
            let folded = match field.fold {
                Fold::Sum => mine + theirs,
                Fold::Max => mine.max(theirs),
            };
            (field.set)(self, folded);
        }
        for ((_, mine), (_, theirs)) in self.histograms_mut().into_iter().zip(other.histograms()) {
            for (bucket, n) in mine.iter_mut().zip(theirs) {
                *bucket += n;
            }
        }
    }

    /// Every scalar field as a `(name, value)` pair, in one fixed order.
    /// The backpressure level reads 0 idle, 1 + per-mille while paced and
    /// 65 537 saturated; the rolled-back flag reads 0 or 1.
    pub fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        FIELDS.iter().map(|field| (field.name, (field.get)(self)))
    }

    /// Sets the scalar field called `name` (see [`named`](Self::named)).
    /// Returns false, changing nothing, when no field has that name.
    pub fn set_named(&mut self, name: &str, value: u64) -> bool {
        let field = FIELDS.iter().find(|field| field.name == name);
        if let Some(field) = field {
            (field.set)(self, value);
        }
        field.is_some()
    }

    /// The commit histograms by name.
    pub fn histograms(&self) -> [(&'static str, [u64; COMMIT_HIST_BUCKETS]); 2] {
        // Through a copy, so the names are written down once, below.
        let mut copy = *self;
        copy.histograms_mut()
            .map(|(name, buckets)| (name, *buckets))
    }

    /// The commit histograms by name, writable.
    pub fn histograms_mut(&mut self) -> [(&'static str, &mut [u64; COMMIT_HIST_BUCKETS]); 2] {
        [
            ("core.commit.group_size_hist", &mut self.group_size_hist),
            ("core.commit.fsync_micros_hist", &mut self.fsync_micros_hist),
        ]
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    #[test]
    fn snapshot_reads_bumped_counters() {
        let stats = TreeStats::default();
        bump(&stats.gets, 3);
        bump(&stats.disk_probes, 6);
        let snap = stats.snapshot();
        assert_eq!(snap.gets, 3);
        assert_eq!(snap.disk_probes, 6);
        assert!((snap.probes_per_get() - 2.0).abs() < f64::EPSILON);
    }

    #[test]
    fn accumulate_sums_fieldwise() {
        let mut a = TreeStatsSnapshot {
            gets: 1,
            writes: 2,
            ..TreeStatsSnapshot::default()
        };
        let b = TreeStatsSnapshot {
            gets: 10,
            merges01: 4,
            ..TreeStatsSnapshot::default()
        };
        a.accumulate(&b);
        assert_eq!(a.gets, 11);
        assert_eq!(a.writes, 2);
        assert_eq!(a.merges01, 4);
    }

    #[test]
    fn histogram_buckets_cover_their_documented_ranges() {
        assert_eq!(group_size_bucket(0), 0);
        assert_eq!(group_size_bucket(1), 0);
        assert_eq!(group_size_bucket(2), 1);
        assert_eq!(group_size_bucket(3), 1);
        assert_eq!(group_size_bucket(4), 2);
        assert_eq!(group_size_bucket(127), 6);
        assert_eq!(group_size_bucket(128), 7);
        assert_eq!(group_size_bucket(u64::MAX), 7);
        assert_eq!(fsync_micros_bucket(0), 0);
        assert_eq!(fsync_micros_bucket(199), 0);
        assert_eq!(fsync_micros_bucket(200), 1);
        assert_eq!(fsync_micros_bucket(399), 1);
        assert_eq!(fsync_micros_bucket(12_800), 7);
        assert_eq!(fsync_micros_bucket(u64::MAX), 7);
    }

    #[test]
    fn accumulate_sums_commit_histograms() {
        let mut a = TreeStatsSnapshot::default();
        a.group_size_hist[2] = 5;
        a.commit_groups = 5;
        let mut b = TreeStatsSnapshot::default();
        b.group_size_hist[2] = 3;
        b.fsync_micros_hist[0] = 4;
        b.commit_groups = 4;
        b.commit_group_writes = 40;
        a.accumulate(&b);
        assert_eq!(a.group_size_hist[2], 8);
        assert_eq!(a.fsync_micros_hist[0], 4);
        assert_eq!(a.commit_groups, 9);
        assert_eq!(a.commit_group_writes, 40);
    }

    #[test]
    fn every_field_has_its_own_name_and_is_set_by_it() {
        let names: Vec<&str> = TreeStatsSnapshot::default()
            .named()
            .map(|(n, _)| n)
            .collect();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} named twice");
            let mut snap = TreeStatsSnapshot::default();
            assert!(snap.set_named(name, 1));
            let set: Vec<&str> = snap
                .named()
                .filter(|&(_, v)| v != 0)
                .map(|(n, _)| n)
                .collect();
            assert_eq!(set, [*name], "setting {name} changed another field");
        }
        let mut snap = TreeStatsSnapshot::default();
        assert!(!snap.set_named("core.read.no_such_counter", 7));
        assert_eq!(snap, TreeStatsSnapshot::default());
    }

    #[test]
    fn snapshot_reads_every_counter_by_name() {
        let stats = TreeStats::default();
        for (i, field) in FIELDS.iter().enumerate() {
            if let Some(cell) = field.cell {
                bump(cell(&stats), 100 + i as u64);
            }
        }
        let snap = stats.snapshot();
        for (i, (field, (name, value))) in FIELDS.iter().zip(snap.named()).enumerate() {
            let want = if field.cell.is_some() {
                100 + i as u64
            } else {
                0
            };
            assert_eq!(value, want, "{name}");
        }
    }

    #[test]
    fn backpressure_round_trips_by_name_in_severity_order() {
        let levels = [
            BackpressureLevel::Idle,
            BackpressureLevel::Paced(0),
            BackpressureLevel::Paced(1000),
            BackpressureLevel::Paced(u16::MAX),
            BackpressureLevel::Saturated,
        ];
        let mut last = None;
        for level in levels {
            let snap = TreeStatsSnapshot {
                backpressure: level,
                ..TreeStatsSnapshot::default()
            };
            let rank = snap
                .named()
                .find(|(n, _)| *n == "core.sched.backpressure")
                .unwrap()
                .1;
            let mut back = TreeStatsSnapshot::default();
            back.set_named("core.sched.backpressure", rank);
            assert_eq!(back.backpressure, level);
            assert!(last < Some(rank));
            last = Some(rank);
        }
    }

    #[test]
    fn accumulate_keeps_worst_backpressure() {
        let mut a = TreeStatsSnapshot {
            backpressure: BackpressureLevel::Paced(300),
            ..TreeStatsSnapshot::default()
        };
        a.accumulate(&TreeStatsSnapshot::default());
        assert_eq!(a.backpressure, BackpressureLevel::Paced(300));
        a.accumulate(&TreeStatsSnapshot {
            backpressure: BackpressureLevel::Saturated,
            ..TreeStatsSnapshot::default()
        });
        assert_eq!(a.backpressure, BackpressureLevel::Saturated);
    }
}
