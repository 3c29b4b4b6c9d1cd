//! Engine-level counters backing the paper's metrics (§2.1).
//!
//! Counters are lock-free atomics so the read path ([`crate::ReadView`])
//! never needs `&mut` access to the tree: concurrent readers, the write
//! path and the merge thread all bump the same [`TreeStats`] cell inside
//! `TreeShared`. Consumers take a [`TreeStatsSnapshot`] — a plain `Copy`
//! struct — and do delta arithmetic on that.

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
/// Fields mirror [`TreeStatsSnapshot`]; use [`TreeStats::snapshot`] to
/// read them coherently enough for reporting.
#[derive(Debug, Default)]
pub struct TreeStats {
    /// Application point lookups.
    pub(crate) gets: AtomicU64, // ordering: Relaxed (statistic)
    /// Application writes (put/delete/delta).
    pub(crate) writes: AtomicU64, // ordering: Relaxed (statistic)
    /// Application scans.
    pub(crate) scans: AtomicU64, // ordering: Relaxed (statistic)
    /// `insert_if_not_exists` calls.
    pub(crate) check_inserts: AtomicU64, // ordering: Relaxed (statistic)
    /// On-disk component probes actually performed (post-bloom).
    pub(crate) disk_probes: AtomicU64, // ordering: Relaxed (statistic)
    /// Component probes skipped because a Bloom filter said "absent".
    pub(crate) bloom_skips: AtomicU64, // ordering: Relaxed (statistic)
    /// Reads that terminated at a base record before exhausting components.
    pub(crate) early_terminations: AtomicU64, // ordering: Relaxed (statistic)
    /// Bytes of user data written by the application.
    pub(crate) user_bytes_written: AtomicU64, // ordering: Relaxed (statistic)
    /// Input bytes consumed by merges (both levels).
    pub(crate) merge_bytes_consumed: AtomicU64, // ordering: Relaxed (statistic)
    /// `C0:C1` merge passes completed.
    pub(crate) merges01: AtomicU64, // ordering: Relaxed (statistic)
    /// `C1':C2` merges completed.
    pub(crate) merges12: AtomicU64, // ordering: Relaxed (statistic)
    /// Writes that hit the hard `C0` cap and had to run forced merge work.
    pub(crate) forced_stalls: AtomicU64, // ordering: Relaxed (statistic)
    /// Scrub passes completed over the on-disk components.
    pub(crate) scrubs: AtomicU64, // ordering: Relaxed (statistic)
    /// Total problems reported by scrub passes.
    pub(crate) scrub_errors: AtomicU64, // ordering: Relaxed (statistic)
    /// Commit groups retired (one device sync each; see `commit.rs`).
    pub(crate) commit_groups: AtomicU64, // ordering: Relaxed (statistic)
    /// Writes retired across all commit groups — `/ commit_groups` is
    /// the mean group size, the amortization factor one fsync buys.
    pub(crate) commit_group_writes: AtomicU64, // ordering: Relaxed (statistic)
    /// Total microseconds spent in group-commit device syncs.
    pub(crate) fsync_micros_total: AtomicU64, // ordering: Relaxed (statistic)
    /// Histogram of commit-group sizes; bucket `i` counts groups of
    /// `2^i` to `2^(i+1)-1` writes (last bucket open-ended). See
    /// [`group_size_bucket`].
    pub(crate) group_size_hist: [AtomicU64; COMMIT_HIST_BUCKETS], // ordering: Relaxed (statistic)
    /// Histogram of group fsync latencies; see [`fsync_micros_bucket`]
    /// for the bucket boundaries.
    pub(crate) fsync_micros_hist: [AtomicU64; COMMIT_HIST_BUCKETS], // ordering: Relaxed (statistic)
    // The scan counters sit last so the cache line the point-read counters
    // above share (`gets` … `early_terminations`) keeps its layout.
    /// `C0` rows cloned into scans' pinned copies (every attempt counts).
    pub(crate) scan_c0_rows: AtomicU64, // ordering: Relaxed (statistic)
    /// Scans' `C0` budget escalations: attempts that reached their horizon
    /// short of `limit` and started over with a larger copy.
    pub(crate) scan_repins: AtomicU64, // ordering: Relaxed (statistic)
    /// Background merge quanta that returned an error (`threaded.rs`).
    pub(crate) merge_errors: AtomicU64, // ordering: Relaxed (statistic)
}

/// Buckets in each commit-group histogram ([`TreeStatsSnapshot::group_size_hist`],
/// [`TreeStatsSnapshot::fsync_micros_hist`]).
pub const COMMIT_HIST_BUCKETS: usize = 8;

/// Histogram bucket for a commit group of `n` writes: bucket `i` covers
/// sizes `2^i ..= 2^(i+1)-1` (1, 2–3, 4–7, …), with the last bucket
/// collecting everything from 128 up.
pub fn group_size_bucket(n: u64) -> usize {
    (n.max(1).ilog2() as usize).min(COMMIT_HIST_BUCKETS - 1)
}

/// Histogram bucket for a group fsync that took `micros` µs: bucket 0 is
/// `< 200µs`, bucket `i` covers `100·2^i .. 100·2^(i+1)` µs (200–400µs,
/// 400–800µs, …), with the last bucket collecting everything from
/// 12.8ms up.
pub fn fsync_micros_bucket(micros: u64) -> usize {
    ((micros / 100).max(1).ilog2() as usize).min(COMMIT_HIST_BUCKETS - 1)
}

impl TreeStats {
    /// Lock-free point-in-time copy of every counter.
    pub fn snapshot(&self) -> TreeStatsSnapshot {
        let read_hist = |hist: &[AtomicU64; COMMIT_HIST_BUCKETS]| {
            let mut out = [0u64; COMMIT_HIST_BUCKETS];
            for (slot, counter) in out.iter_mut().zip(hist.iter()) {
                *slot = read(counter);
            }
            out
        };
        TreeStatsSnapshot {
            gets: read(&self.gets),
            writes: read(&self.writes),
            scans: read(&self.scans),
            scan_c0_rows: read(&self.scan_c0_rows),
            scan_repins: read(&self.scan_repins),
            check_inserts: read(&self.check_inserts),
            disk_probes: read(&self.disk_probes),
            bloom_skips: read(&self.bloom_skips),
            early_terminations: read(&self.early_terminations),
            user_bytes_written: read(&self.user_bytes_written),
            merge_bytes_consumed: read(&self.merge_bytes_consumed),
            merges01: read(&self.merges01),
            merges12: read(&self.merges12),
            forced_stalls: read(&self.forced_stalls),
            merge_errors: read(&self.merge_errors),
            scrubs: read(&self.scrubs),
            scrub_errors: read(&self.scrub_errors),
            commit_groups: read(&self.commit_groups),
            commit_group_writes: read(&self.commit_group_writes),
            fsync_micros_total: read(&self.fsync_micros_total),
            group_size_hist: read_hist(&self.group_size_hist),
            fsync_micros_hist: read_hist(&self.fsync_micros_hist),
            backpressure: BackpressureLevel::Idle,
            recovery: RecoveryReport::default(),
            next_seqno: 0,
        }
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
/// subtract. Field meanings match the atomic struct one-for-one.
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
    /// `C1':C2` merges completed.
    pub merges12: u64,
    /// Writes that hit the hard `C0` cap and had to run forced merge work.
    pub forced_stalls: u64,
    /// Background merge quanta that returned an error. A merge thread
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
    /// Commit-group size histogram; see [`group_size_bucket`].
    pub group_size_hist: [u64; COMMIT_HIST_BUCKETS],
    /// Group fsync latency histogram; see [`fsync_micros_bucket`].
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
    /// per-shard counters.
    pub fn accumulate(&mut self, other: &TreeStatsSnapshot) {
        self.gets += other.gets;
        self.writes += other.writes;
        self.scans += other.scans;
        self.scan_c0_rows += other.scan_c0_rows;
        self.scan_repins += other.scan_repins;
        self.check_inserts += other.check_inserts;
        self.disk_probes += other.disk_probes;
        self.bloom_skips += other.bloom_skips;
        self.early_terminations += other.early_terminations;
        self.user_bytes_written += other.user_bytes_written;
        self.merge_bytes_consumed += other.merge_bytes_consumed;
        self.merges01 += other.merges01;
        self.merges12 += other.merges12;
        self.forced_stalls += other.forced_stalls;
        self.merge_errors += other.merge_errors;
        self.scrubs += other.scrubs;
        self.scrub_errors += other.scrub_errors;
        self.commit_groups += other.commit_groups;
        self.commit_group_writes += other.commit_group_writes;
        self.fsync_micros_total += other.fsync_micros_total;
        for (mine, theirs) in self.group_size_hist.iter_mut().zip(other.group_size_hist) {
            *mine += theirs;
        }
        for (mine, theirs) in self
            .fsync_micros_hist
            .iter_mut()
            .zip(other.fsync_micros_hist)
        {
            *mine += theirs;
        }
        self.recovery.components_salvaged += other.recovery.components_salvaged;
        self.recovery.manifest_rolled_back |= other.recovery.manifest_rolled_back;
        self.recovery.wal_records_replayed += other.recovery.wal_records_replayed;
        self.recovery.wal_records_skipped += other.recovery.wal_records_skipped;
        self.recovery.wal_recovered_bytes += other.recovery.wal_recovered_bytes;
        self.recovery.wal_torn_tail_bytes += other.recovery.wal_torn_tail_bytes;
        // Backpressure is a level, not a counter: the store is as pressed
        // as its most-pressed partition.
        self.backpressure = self.backpressure.max(other.backpressure);
        // Seqnos are per-tree tickets, not counters: an aggregate view
        // reports the furthest-along tree.
        self.next_seqno = self.next_seqno.max(other.next_seqno);
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
