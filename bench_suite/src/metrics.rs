//! The metric tables: every name the benchmark reports, with its unit,
//! its direction, and (end to end) the share by which it may worsen.
//! `BENCHMARK.json` repeats these tables for the driver; it is printed
//! from them (`bench_suite manifest`) and a self-test keeps the two in
//! step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression. Diagnostics that
    /// `compare` also judges carry one; it is advisory there.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.25,
    }
}

use Better::{Higher, Lower};

/// What a user of the store sees, on every workload, from untraced
/// runs only. The bounds are the contract's ceiling, not the issue's
/// 10 %: on the sandbox this was calibrated on, a fixed piece of pure
/// CPU work takes anything from 1.0 to 1.5 s from one second to the
/// next, and ten runs of one workload spread up to 15-19 % between
/// their quartiles (README, "How steady the numbers are").
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("op_p50_us", "us", Lower, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("rss_peak_mb", "MB", Lower, 0.25),
    e2e("device_bytes_per_op", "B", Lower, 0.25),
];

/// Single layers and diagnostics, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // Counters: deltas of the program's own public statistics over the
    // measured phase.
    layer("core.read.disk_probes_per_get", "1/op", Lower),
    layer("core.read.early_term_share", "ratio", Higher),
    layer("bloom.skips_per_get", "1/op", Higher),
    layer("bloom.wasted_probes_per_get", "1/op", Lower),
    layer("storage.buffer.hit_rate", "ratio", Higher),
    layer("storage.buffer.evictions_per_get", "1/op", Lower),
    layer("core.merge.merges01", "count", Higher),
    layer("core.merge.merges12", "count", Higher),
    layer("core.merge.bytes_per_user_byte", "ratio", Lower),
    layer("core.sched.forced_stalls", "count", Lower),
    layer("core.commit.writes_per_group", "ratio", Higher),
    layer("core.commit.fsync_us_mean", "us", Lower),
    layer("core.commit.groups_per_s", "1/s", Higher),
    layer("server.admission.delayed_share", "ratio", Lower),
    layer("server.admission.rejected_share", "ratio", Lower),
    layer("storage.space_amp", "ratio", Lower),
    layer("process.ctx_switches_per_op", "1/op", Lower),
    // Spans and device-call totals recorded by the benchmark's wrappers.
    layer("storage.device.data.read_calls_per_get", "1/op", Lower),
    layer("storage.device.data.read_us_per_get", "us", Lower),
    layer(
        "storage.device.data.write_bytes_per_user_byte",
        "ratio",
        Lower,
    ),
    layer(
        "storage.device.wal.write_bytes_per_user_byte",
        "ratio",
        Lower,
    ),
    layer("storage.device.data.bg_busy_share", "ratio", Lower),
    layer("storage.device.wal.syncs_per_write", "1/op", Lower),
    layer("storage.device.wal.sync_us_mean", "us", Lower),
    layer("core.read.get_self_ns", "ns", Lower),
    layer("core.tree.put_self_ns", "ns", Lower),
    layer("core.tree.inline_merge_share", "ratio", Lower),
    layer("core.sched.stall_time_share", "ratio", Lower),
    layer("server.reactor.tier_overhead_us", "us", Lower),
    layer("trace.overhead_share", "ratio", Lower),
    // Layer probes: each layer alone, one thread, fixed counts.
    layer("memtable.insert_ns", "ns", Lower),
    layer("memtable.get_ns", "ns", Lower),
    layer("memtable.range_row_ns", "ns", Lower),
    layer("bloom.insert_ns", "ns", Lower),
    layer("bloom.contains_hit_ns", "ns", Lower),
    layer("bloom.contains_miss_ns", "ns", Lower),
    layer("sstable.get_cached_ns", "ns", Lower),
    layer("sstable.scan_row_ns", "ns", Lower),
    layer("sstable.build_entry_ns", "ns", Lower),
    layer("storage.buffer.read_hit_ns", "ns", Lower),
    layer("storage.buffer.read_miss_ns", "ns", Lower),
    layer("storage.wal.append_ns", "ns", Lower),
    layer("storage.wal.sync_us", "us", Lower),
    layer("storage.device.file.pread_4k_ns", "ns", Lower),
    layer("storage.device.file.fsync_us", "us", Lower),
    layer("core.threaded.put_ns", "ns", Lower),
    layer("core.sharded.put_ns", "ns", Lower),
    layer("core.sharded.route_overhead_ns", "ns", Lower),
    layer("server.protocol.encode_put_ns", "ns", Lower),
    layer("server.protocol.decode_put_ns", "ns", Lower),
    layer("server.admission.decide_ns", "ns", Lower),
    layer("server.router.shard_for_ns", "ns", Lower),
    layer("server.reactor.ping_rtt_us", "us", Lower),
    layer("server.reactor.ping_pipelined_us", "us", Lower),
    // Diagnostics: user-visible numbers that do not apply to every
    // workload or do not repeat within a bound (README, "Metrics moved
    // to diagnostics"). Latencies here come from the untraced slices.
    layer("read_p50_us", "us", Lower),
    layer("read_p99_us", "us", Lower),
    layer("write_p50_us", "us", Lower),
    layer("write_p99_us", "us", Lower),
    layer("scan_p50_us", "us", Lower),
    layer("write_amp", "ratio", Lower),
    layer("write_amp_second_half", "ratio", Lower),
    layer("failed_share", "ratio", Lower),
    layer("op_p99_us", "us", Lower),
    layer("op_p999_whole_us", "us", Lower),
    layer("op_max_us", "us", Lower),
    layer("late_share", "ratio", Lower),
    layer("generator_lateness_p99_us", "us", Lower),
];

/// Per-layer names `compare` judges besides the end-to-end ones, when
/// the result files carry them (untraced result files do: there they
/// are measured over the whole phase with tracing off).
pub const COMPARED_DIAGNOSTICS: &[&str] = &[
    "read_p50_us",
    "read_p99_us",
    "write_p50_us",
    "write_p99_us",
    "scan_p50_us",
    "write_amp",
    "op_p99_us",
];

pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// A named value on its way into a result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// Collects metrics by name and hands them back in table order, every
/// name of the table present (0 where the workload does not exercise
/// the layer).
#[derive(Debug, Default)]
pub struct MetricSet {
    values: Vec<Metric>,
}

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "metric {name} is in no table");
        let value = if value.is_finite() { value } else { 0.0 };
        match self.values.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.values.push(Metric { name, value }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn in_order(&self, table: &[MetricDef]) -> Vec<Metric> {
        table
            .iter()
            .map(|def| Metric {
                name: def.name,
                value: self.get(def.name).unwrap_or(0.0),
            })
            .collect()
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_obey_the_contract() {
        let mut names = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(def.bound > 0.0 && def.bound <= 0.25);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMPARED_DIAGNOSTICS.iter().all(|n| find(n).is_some()));
    }

    #[test]
    fn a_set_reports_every_name_of_its_table_in_order() {
        let mut set = MetricSet::default();
        set.set("ops_per_s", 5.0);
        set.set("setup_s", 1.5);
        set.set("ops_per_s", 7.0);
        set.set("op_p50_us", f64::NAN);
        let out = set.in_order(END_TO_END);
        assert_eq!(out.len(), END_TO_END.len());
        assert_eq!(
            out[0],
            Metric {
                name: "setup_s",
                value: 1.5
            }
        );
        assert_eq!(
            out[1],
            Metric {
                name: "ops_per_s",
                value: 7.0
            }
        );
        assert_eq!(out[2].value, 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
