//! The five workloads: set-up, measured phase, correctness gates, and
//! the arithmetic that turns readings into named metrics.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use blsm::{
    BLsmConfig, BLsmTree, Durability, MergeOperator, OverwriteOperator, ReadView, ShardedBLsm,
    ShardedConfig, ThreadedBLsm, TreeStatsSnapshot,
};
use blsm_server::{Client, Server, ServerConfig};
use blsm_storage::{BufferPool, DeviceStats, FileDevice, PoolStats, SharedDevice};

use crate::devices::{zero_ranges, CutDevice, TracedDevice};
use crate::exec::{check_get, EngineTarget, Failure, Failures, WireTarget};
use crate::gen::{Keyspace, Mix, OpClass, OpGen, MIXED, RECORD_BYTES, VALUE_LEN};
use crate::hist::{median, Histogram, SliceHist, SLICES};
use crate::json::Json;
use crate::layers;
use crate::metrics::{ratio, Metric, MetricSet, END_TO_END, PER_LAYER};
use crate::phase::{
    engine_closed_loop, measure, traced_slice, wire_closed_loop, wire_open_loop, Measured,
};
use crate::sys::{self, TempDir};
use crate::trace::{mean_self_ns, Call, DeviceRole, DeviceTotals, Span, SpanKind, Tracer};

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 8.0;

/// Records every read workload loads before its measured phase: about
/// 45 MB on disk, five times the 8 MiB buffer pool.
const LOADED_RECORDS: u64 = 300_000;
/// `C0` budget of `engine_ingest` and `engine_read`. A quarter of the
/// 16 MiB the issue names: the time cap leaves an 8 s phase, and the
/// phase must hold many merge cycles or the last `C1':C2` merge falling
/// inside or outside it decides the numbers (at 8 MiB a run saw 4 or 5
/// of them, and bytes per op read 1 100 or 1 400). At 4 MiB it holds
/// about 37 `C0:C1` and 7 `C1':C2` merges.
const ENGINE_C0: usize = 4 << 20;
/// `C0` budget of `engine_mixed`, the same as `wire_mixed`'s two shards
/// together. The mix writes under 2 MB/s, so it needs a smaller `C0`
/// than ingest for the same reason: with 8 MiB a run saw one merge or
/// two.
const ENGINE_MIXED_C0: usize = 2 << 20;
/// Buffer pool of the in-process engine workloads, 4 KiB pages.
const ENGINE_POOL_PAGES: usize = 2048;
/// Merge-thread quantum, bytes.
const QUANTUM: u64 = 1 << 20;

/// `engine_ingest`: ids the writer draws from, and records already in
/// the tree when it starts (so merges have a `C2` to merge into).
const INGEST_ID_SPACE: u64 = 3_000_000;
const INGEST_PRELOADED: u64 = 100_000;

/// `wire_durable`: `C0` so large that no merge starts, records written
/// before the server starts, connections and pipeline depth.
const DURABLE_C0: usize = 256 << 20;
const DURABLE_PRELOADED: u64 = 200_000;
const DURABLE_DEPTH: usize = 16;

/// `wire_mixed`: shards, `C0` per shard (small, so the phase crosses
/// the low water mark and admission control paces writers), pool per
/// shard, closed-loop depth, open-loop rate per connection and window.
const MIXED_SHARDS: usize = 2;
const MIXED_SHARD_C0: usize = 1 << 20;
const MIXED_SHARD_POOL_PAGES: usize = 1024;
const MIXED_DEPTH: usize = 8;
const MIXED_OPEN_RATE: u64 = 1_000;
/// Half a second of backlog. The issue's 64 sheds after a 64 ms stall,
/// which one RETRY_LATER backoff (50 ms) already causes; a request that
/// waited is reported as late, from its due time, not dropped.
const MIXED_OPEN_WINDOW: u32 = 512;
/// Share of the run's seconds the closed-loop phase takes; the open
/// loop gets the rest.
const MIXED_CLOSED_SHARE: f64 = 0.4;
/// A request not answered within this of its due time is late.
const LATE_LIMIT_NS: u64 = 50_000_000;

/// Generator threads or connections; the box has two cores.
const GENERATORS: u32 = 2;
/// Reactor threads of the in-process server.
const REACTORS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    EngineIngest,
    EngineRead,
    EngineMixed,
    WireDurable,
    WireMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::EngineIngest,
        Workload::EngineRead,
        Workload::EngineMixed,
        Workload::WireDurable,
        Workload::WireMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineIngest => "engine_ingest",
            Workload::EngineRead => "engine_read",
            Workload::EngineMixed => "engine_mixed",
            Workload::WireDurable => "wire_durable",
            Workload::WireMixed => "wire_mixed",
        }
    }

    /// Why the workload exists, in one line (`BENCHMARK.json` carries it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::EngineIngest => {
                "one writer overflows C0 many times with blind puts: memtable, WAL, merges, \
                 scheduler and sstable builder work; bloom, read path and server are idle"
            }
            Workload::EngineRead => {
                "two readers over settled data five times the buffer pool, a tenth of the keys \
                 absent: bloom, read path, sstable and pool misses dominate; the write side is idle"
            }
            Workload::EngineMixed => {
                "reads, writes, checked inserts and scans side by side on one engine, so a \
                 read-path gain that costs merges, pool evictions or C0 lock traffic shows"
            }
            Workload::WireDurable => {
                "pipelined fresh-key PUTs to a Durability::Sync server, then a power cut: client, \
                 protocol, reactor, group commit and fsync dominate; merges and bloom are bypassed"
            }
            Workload::WireMixed => {
                "the mixed operations through a 2-shard server, closed loop then open loop at a \
                 fixed rate: admission control, router, scatter-gather scans and merges together"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The op class whose latency is the workload's `op_p50_us`.
    fn primary(self) -> OpClass {
        match self {
            Workload::EngineIngest | Workload::WireDurable => OpClass::Write,
            Workload::EngineRead | Workload::EngineMixed | Workload::WireMixed => OpClass::Read,
        }
    }
}

/// One run, as asked for on the command line.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directories are made under this one.
    pub dir: PathBuf,
    /// A tenth of every size, for smoke runs.
    pub quick: bool,
}

impl Spec {
    fn scaled(&self, n: u64) -> u64 {
        if self.quick {
            (n / 10).max(1)
        } else {
            n
        }
    }

    /// Set-up is repeated and its median reported, so that one slow
    /// flush does not decide `setup_s`. A traced run reports no
    /// `setup_s` and sets up once.
    fn setup_reps(&self) -> usize {
        if self.trace || self.quick {
            1
        } else {
            3
        }
    }
}

/// A named yes/no condition the run must meet.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct Output {
    pub attempted: u64,
    pub failures: Failures,
    pub checks: Vec<Check>,
    pub end_to_end: Vec<Metric>,
    /// The per-layer table; in an untraced run only the diagnostics in
    /// it are filled.
    pub per_layer: Vec<Metric>,
    pub info: Json,
    /// The spans of a traced run, one list per generator thread.
    pub spans: Vec<Vec<Span>>,
}

impl Output {
    pub fn correct(&self) -> bool {
        self.failures.total() == 0 && self.checks.iter().all(|c| c.ok)
    }
}

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

pub fn operator() -> Arc<dyn MergeOperator> {
    Arc::new(OverwriteOperator)
}

pub fn engine_config(c0: usize, durability: Durability) -> BLsmConfig {
    BLsmConfig {
        mem_budget: c0,
        durability,
        expected_value_size: VALUE_LEN,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// Devices and counters
// ---------------------------------------------------------------------

/// The data and log devices of one tree, as the engine sees them, and
/// the handles the benchmark keeps.
struct DevicePair {
    data: SharedDevice,
    wal: SharedDevice,
    /// Present when the pair can be powered off (`wire_durable`).
    cut: Option<[Arc<CutDevice>; 2]>,
    dir: PathBuf,
}

/// Opens `dir/data` and `dir/wal`: file devices, inside a power-cut
/// wrapper if asked, inside the tracing wrapper in a traced run.
fn open_devices(dir: &Path, tracer: Option<&Arc<Tracer>>, cuttable: bool) -> Res<DevicePair> {
    std::fs::create_dir_all(dir).map_err(err("create dir"))?;
    let open = |name: &str| -> Res<SharedDevice> {
        Ok(Arc::new(
            FileDevice::open(&dir.join(name)).map_err(err("open device"))?,
        ))
    };
    let (mut data, mut wal) = (open("data")?, open("wal")?);
    let cut = cuttable.then(|| [CutDevice::new(data.clone()), CutDevice::new(wal.clone())]);
    if let Some([d, w]) = &cut {
        (data, wal) = (d.clone(), w.clone());
    }
    if let Some(tracer) = tracer {
        data = TracedDevice::wrap(data, DeviceRole::Data, tracer);
        wal = TracedDevice::wrap(wal, DeviceRole::Wal, tracer);
    }
    Ok(DevicePair {
        data,
        wal,
        cut,
        dir: dir.to_path_buf(),
    })
}

/// One reading of every counter the metrics are made from.
#[derive(Debug, Clone, Default)]
struct Counters {
    tree: TreeStatsSnapshot,
    pool: PoolStats,
    data: DeviceStats,
    wal: DeviceStats,
    data_len: u64,
    admitted: u64,
    delayed: u64,
    rejected: u64,
    calls: DeviceTotals,
}

/// Where the counters are read from: the program's public statistics
/// (tree counters through lock-free read views, buffer pools, devices,
/// the STATS frame) and the benchmark's own device wrappers.
struct Probe {
    views: Vec<ReadView>,
    pools: Vec<Arc<BufferPool>>,
    devices: Vec<(SharedDevice, SharedDevice)>,
    tracer: Arc<Tracer>,
    /// A connection for STATS, when a server is running.
    stats_client: Option<Mutex<Client>>,
}

fn add_device_stats(a: &mut DeviceStats, b: DeviceStats) {
    a.random_reads += b.random_reads;
    a.random_writes += b.random_writes;
    a.sequential_reads += b.sequential_reads;
    a.sequential_writes += b.sequential_writes;
    a.bytes_read += b.bytes_read;
    a.bytes_written += b.bytes_written;
    a.syncs += b.syncs;
}

impl Probe {
    fn of_engine(db: &ThreadedBLsm, devs: &DevicePair, tracer: &Arc<Tracer>) -> Probe {
        Probe {
            views: vec![db.read_view()],
            pools: vec![db.with_tree(|t| t.pool().clone())],
            devices: vec![(devs.data.clone(), devs.wal.clone())],
            tracer: tracer.clone(),
            stats_client: None,
        }
    }

    fn read(&self) -> Counters {
        let mut c = Counters {
            calls: self.tracer.totals(),
            ..Counters::default()
        };
        for view in &self.views {
            c.tree.accumulate(&view.stats());
        }
        for pool in &self.pools {
            let s = pool.stats();
            c.pool.hits += s.hits;
            c.pool.misses += s.misses;
            c.pool.evictions += s.evictions;
            c.pool.writebacks += s.writebacks;
        }
        for (data, wal) in &self.devices {
            add_device_stats(&mut c.data, data.stats());
            add_device_stats(&mut c.wal, wal.stats());
            c.data_len += data.len();
        }
        if let Some(client) = &self.stats_client {
            if let Ok(s) = client.lock().expect("stats client poisoned").stats() {
                (c.admitted, c.delayed, c.rejected) = (s.admitted, s.delayed, s.rejected);
            }
        }
        c
    }

    /// Scrubs every on-disk component; the problems found.
    fn scrub(&self) -> Vec<String> {
        self.views.iter().flat_map(|v| v.scrub().errors).collect()
    }
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

fn open_engine(
    devs: &DevicePair,
    c0: usize,
    durability: Durability,
    pool: usize,
) -> Res<ThreadedBLsm> {
    let tree = BLsmTree::open(
        devs.data.clone(),
        devs.wal.clone(),
        pool,
        engine_config(c0, durability),
        operator(),
    )
    .map_err(err("open tree"))?;
    ThreadedBLsm::start(tree, QUANTUM).map_err(err("start merge thread"))
}

/// Loads ids `[0, n)` and settles them into on-disk components.
fn load_and_settle(db: &ThreadedBLsm, ks: &Keyspace, n: u64) -> Res<()> {
    for id in 0..n {
        let (k, v) = ks.record(id);
        db.put(k, v).map_err(err("load"))?;
    }
    db.with_tree(BLsmTree::checkpoint).map_err(err("settle"))
}

/// Runs `setup` the number of times the spec asks for, each time in a
/// fresh directory, tearing the previous store down first. Returns the
/// last store and how long each set-up took.
fn repeat_setup<T>(
    spec: &Spec,
    tmp: &TempDir,
    mut setup: impl FnMut(&Path) -> Res<T>,
    mut teardown: impl FnMut(T),
) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::new();
    let mut last: Option<(T, PathBuf)> = None;
    for rep in 0..spec.setup_reps() {
        if let Some((store, dir)) = last.take() {
            teardown(store);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = tmp.path().join(format!("store-{rep}"));
        let started = Instant::now();
        let store = setup(&dir)?;
        times.push(started.elapsed().as_secs_f64());
        last = Some((store, dir));
    }
    let (store, _) = last.ok_or("no set-up ran")?;
    Ok((store, times))
}

// ---------------------------------------------------------------------
// From readings to metrics
// ---------------------------------------------------------------------

/// The pieces every workload's report is assembled from.
struct Report {
    spec: Spec,
    e2e: MetricSet,
    layer: MetricSet,
    checks: Vec<Check>,
    attempted: u64,
    failures: Failures,
    info: Vec<(String, Json)>,
    spans: Vec<Vec<Span>>,
}

impl Report {
    fn new(spec: &Spec) -> Report {
        Report {
            spec: spec.clone(),
            e2e: MetricSet::default(),
            layer: MetricSet::default(),
            checks: Vec::new(),
            attempted: 0,
            failures: Failures::default(),
            info: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    fn note(&mut self, key: &str, value: Json) {
        self.info.push((key.to_string(), value));
    }

    /// Which time slices latencies are taken from: all of them, or in a
    /// traced run the untraced ones.
    fn untraced(&self) -> impl Fn(usize) -> bool {
        let trace = self.spec.trace;
        move |slice| !trace || !traced_slice(slice)
    }

    fn scrub(&mut self, name: &'static str, probe: &Probe) {
        let errors = probe.scrub();
        self.check(name, errors.is_empty(), errors.join("; "));
    }

    /// Folds one measured phase into the totals.
    fn account(&mut self, m: &Measured<Counters>) {
        self.attempted += m.attempted();
        self.failures.merge(&m.failures());
    }

    /// `ops_per_s`, `cpu_us_per_op`, `device_bytes_per_op` and the
    /// per-op counters of a closed-loop phase.
    fn throughput(&mut self, m: &Measured<Counters>) {
        let ok_ops = (m.attempted() - m.failures().total()) as f64;
        let (b, a) = (&m.before, &m.after);
        self.e2e.set("ops_per_s", ratio(ok_ops, m.wall_s()));
        self.e2e.set(
            "cpu_us_per_op",
            ratio((m.os_after.cpu_s - m.os_before.cpu_s) * 1e6, ok_ops),
        );
        let (data, wal) = (a.data.delta_since(&b.data), a.wal.delta_since(&b.wal));
        let device_bytes =
            data.bytes_read + data.bytes_written + wal.bytes_read + wal.bytes_written;
        self.e2e
            .set("device_bytes_per_op", ratio(device_bytes as f64, ok_ops));
        self.layer.set(
            "process.ctx_switches_per_op",
            ratio(
                (m.os_after.ctx_switches - m.os_before.ctx_switches) as f64,
                ok_ops,
            ),
        );
        // Ops started per slice.
        let per_slice = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
            (0..SLICES)
                .filter(|&s| keep(s))
                .map(|s| {
                    m.threads
                        .iter()
                        .flat_map(|t| t.latency.iter())
                        .map(|h| h.slice_count(s))
                        .sum::<u64>() as f64
                })
                .collect()
        };
        self.note(
            "ops_per_slice",
            Json::Arr(per_slice(&|_| true).into_iter().map(Json::Num).collect()),
        );
        if self.spec.trace {
            // Traced slices against untraced.
            let traced = median(&per_slice(&traced_slice));
            let untraced = median(&per_slice(&|s| !traced_slice(s)));
            self.layer
                .set("trace.overhead_share", 1.0 - ratio(traced, untraced));
        }
    }

    /// Latency metrics: `op_p50_us` from `primary`, the per-class
    /// diagnostics from `classes`.
    fn latencies(&mut self, primary: &SliceHist, classes: [&SliceHist; 3]) {
        let keep = self.untraced();
        let us = |h: &SliceHist, q: f64| h.slice_median(q, &keep).value / 1e3;
        self.e2e.set("op_p50_us", us(primary, 0.5));
        self.layer.set("op_p99_us", us(primary, 0.99));
        let whole: Histogram = primary.whole(&keep);
        self.layer
            .set("op_p999_whole_us", whole.percentile(0.999) / 1e3);
        self.layer.set("op_max_us", whole.max() as f64 / 1e3);
        let [read, write, scan] = classes;
        self.layer.set("read_p50_us", us(read, 0.5));
        self.layer.set("read_p99_us", us(read, 0.99));
        self.layer.set("write_p50_us", us(write, 0.5));
        self.layer.set("write_p99_us", us(write, 0.99));
        self.layer.set("scan_p50_us", us(scan, 0.5));
        self.note(
            "op_p50_us_per_slice",
            Json::Arr(
                primary
                    .per_slice(0.5)
                    .iter()
                    .map(|ns| Json::Num((ns / 1e3 * 100.0).round() / 100.0))
                    .collect(),
            ),
        );
        let samples = |h: &SliceHist| h.slice_median(0.5, &keep);
        self.note(
            "samples_per_slice",
            Json::obj([
                ("primary", Json::Num(samples(primary).min_samples as f64)),
                ("read", Json::Num(samples(read).min_samples as f64)),
                ("write", Json::Num(samples(write).min_samples as f64)),
                ("scan", Json::Num(samples(scan).min_samples as f64)),
                ("slices", Json::Num(samples(primary).slices_used as f64)),
            ]),
        );
    }

    /// The metrics made from counter deltas over `[before, after]`.
    fn counters(&mut self, b: &Counters, a: &Counters, user_bytes: u64, wall_s: f64) {
        let t = |f: fn(&TreeStatsSnapshot) -> u64| (f(&a.tree) - f(&b.tree)) as f64;
        let gets = t(|s| s.gets);
        let user = user_bytes as f64;
        let l = &mut self.layer;
        l.set(
            "core.read.disk_probes_per_get",
            ratio(t(|s| s.disk_probes), gets),
        );
        l.set(
            "core.read.early_term_share",
            ratio(t(|s| s.early_terminations), gets),
        );
        l.set("bloom.skips_per_get", ratio(t(|s| s.bloom_skips), gets));
        l.set(
            "bloom.wasted_probes_per_get",
            ratio(t(|s| s.disk_probes) - t(|s| s.early_terminations), gets).max(0.0),
        );
        let hits = (a.pool.hits - b.pool.hits) as f64;
        let misses = (a.pool.misses - b.pool.misses) as f64;
        l.set("storage.buffer.hit_rate", ratio(hits, hits + misses));
        l.set(
            "storage.buffer.evictions_per_get",
            ratio((a.pool.evictions - b.pool.evictions) as f64, gets),
        );
        l.set("core.merge.merges01", t(|s| s.merges01));
        l.set("core.merge.merges12", t(|s| s.merges12));
        l.set(
            "core.merge.bytes_per_user_byte",
            ratio(t(|s| s.merge_bytes_consumed), user),
        );
        l.set("core.sched.forced_stalls", t(|s| s.forced_stalls));
        let groups = t(|s| s.commit_groups);
        l.set(
            "core.commit.writes_per_group",
            ratio(t(|s| s.commit_group_writes), groups),
        );
        l.set(
            "core.commit.fsync_us_mean",
            ratio(t(|s| s.fsync_micros_total), groups),
        );
        l.set("core.commit.groups_per_s", ratio(groups, wall_s));
        let (adm, del, rej) = (
            (a.admitted - b.admitted) as f64,
            (a.delayed - b.delayed) as f64,
            (a.rejected - b.rejected) as f64,
        );
        l.set(
            "server.admission.delayed_share",
            ratio(del, adm + del + rej),
        );
        l.set(
            "server.admission.rejected_share",
            ratio(rej, adm + del + rej),
        );
        l.set("write_amp", ratio(bytes_written(b, a) as f64, user));

        // From the device wrappers (zero in an untraced run, where the
        // engine sits directly on the file devices).
        let calls = a.calls.since(&b.calls);
        let data_reads = calls.of(DeviceRole::Data, Call::Read);
        let reads_per_get = ratio(data_reads.calls as f64, gets);
        l.set("storage.device.data.read_calls_per_get", reads_per_get);
        l.set(
            "storage.device.data.read_us_per_get",
            data_reads.mean_us() * reads_per_get,
        );
        l.set(
            "storage.device.data.write_bytes_per_user_byte",
            ratio(calls.of(DeviceRole::Data, Call::Write).bytes as f64, user),
        );
        l.set(
            "storage.device.wal.write_bytes_per_user_byte",
            ratio(calls.of(DeviceRole::Wal, Call::Write).bytes as f64, user),
        );
        // Timed only during the traced half of the phase.
        let bg_ns: u64 = [Call::Read, Call::Write, Call::Sync]
            .iter()
            .map(|&c| calls.background(DeviceRole::Data, c).nanos)
            .sum();
        l.set(
            "storage.device.data.bg_busy_share",
            ratio(bg_ns as f64 / 1e9, wall_s / 2.0),
        );
        let wal_syncs = calls.of(DeviceRole::Wal, Call::Sync);
        l.set(
            "storage.device.wal.syncs_per_write",
            ratio(wal_syncs.calls as f64, t(|s| s.writes + s.check_inserts)),
        );
        l.set("storage.device.wal.sync_us_mean", wal_syncs.mean_us());
    }

    /// The metrics made from the generator threads' own observations.
    fn observations(&mut self, m: &mut Measured<Counters>) {
        let spans: Vec<_> = m
            .threads
            .iter_mut()
            .map(|t| std::mem::take(&mut t.spans))
            .collect();
        let (get_self, get_roots) = mean_self_ns(&spans, SpanKind::OpRead);
        let (put_self, put_roots) = mean_self_ns(&spans, SpanKind::OpWrite);
        self.layer.set("core.read.get_self_ns", get_self);
        self.layer.set("core.tree.put_self_ns", put_self);
        if self.spec.trace {
            self.note(
                "spans",
                Json::obj([
                    (
                        "recorded",
                        Json::Num(spans.iter().map(Vec::len).sum::<usize>() as f64),
                    ),
                    ("op.read roots", Json::Num(get_roots as f64)),
                    ("op.write roots", Json::Num(put_roots as f64)),
                ]),
            );
        }
        self.spans = spans;
        let hashes: Vec<Json> = m
            .threads
            .iter()
            .map(|t| Json::str(format!("{:016x}", t.stream_hash)))
            .collect();
        self.note("op_stream_hash", Json::Arr(hashes));
    }

    /// Share of the writers' time spent in slow writes. For the engine
    /// workloads only: over the wire every round takes a millisecond or
    /// more whatever the engine does.
    fn slow_writes(&mut self, m: &Measured<Counters>) {
        let thread_time = m.wall_ns as f64 * m.threads.len() as f64;
        let slow = |i: usize| m.threads.iter().map(|t| t.slow_write_ns[i]).sum::<u64>() as f64;
        self.layer
            .set("core.tree.inline_merge_share", ratio(slow(0), thread_time));
        self.layer
            .set("core.sched.stall_time_share", ratio(slow(1), thread_time));
    }

    fn finish(mut self, setup_times: &[f64], tmp: &TempDir, probes: bool) -> Output {
        self.e2e.set("setup_s", median(setup_times));
        self.e2e.set("rss_peak_mb", sys::rss_peak_mb());
        self.layer.set(
            "failed_share",
            ratio(self.failures.total() as f64, self.attempted as f64),
        );
        if probes {
            for (name, value) in layers::run_probes(tmp.path(), self.spec.seed, self.spec.quick) {
                self.layer.set(name, value);
            }
        }
        self.note(
            "setup_times_s",
            Json::Arr(setup_times.iter().map(|&t| Json::Num(t)).collect()),
        );
        self.note(
            "disk_footprint_mb",
            Json::Num(sys::dir_bytes(tmp.path()) as f64 / 1e6),
        );
        self.note(
            "failures",
            Json::obj([
                ("errors", Json::Num(self.failures.errors as f64)),
                ("refused", Json::Num(self.failures.refused as f64)),
                ("wrong", Json::Num(self.failures.wrong as f64)),
                ("lost", Json::Num(self.failures.lost as f64)),
            ]),
        );
        Output {
            attempted: self.attempted,
            failures: self.failures,
            checks: self.checks,
            end_to_end: self.e2e.in_order(END_TO_END),
            per_layer: self.layer.in_order(PER_LAYER),
            info: Json::Obj(self.info),
            spans: self.spans,
        }
    }
}

/// Reads back a sample of the ids the phase wrote; what is missing or
/// wrong was acknowledged and lost.
fn read_back(
    report: &mut Report,
    ks: &Keyspace,
    ids: impl Iterator<Item = u64>,
    mut get: impl FnMut(&[u8]) -> Option<Option<Vec<u8>>>,
) {
    for id in ids {
        report.attempted += 1;
        match get(&ks.key(id)) {
            Some(got) if check_get(ks, id, true, got.as_deref()) => {}
            Some(_) => report.failures.add(Failure::Lost, 1),
            None => report.failures.add(Failure::Error, 1),
        }
    }
}

// ---------------------------------------------------------------------
// The in-process engine workloads
// ---------------------------------------------------------------------

struct EnginePlan {
    c0: usize,
    preloaded: u64,
    put_space: u64,
    threads: u32,
    mix: Mix,
}

fn engine_plan(spec: &Spec) -> EnginePlan {
    let loaded = spec.scaled(LOADED_RECORDS);
    match spec.workload {
        Workload::EngineIngest => EnginePlan {
            c0: ENGINE_C0,
            preloaded: spec.scaled(INGEST_PRELOADED),
            put_space: spec.scaled(INGEST_ID_SPACE),
            threads: 1,
            mix: Mix {
                put_uniform: 1000,
                ..Mix::default()
            },
        },
        Workload::EngineRead => EnginePlan {
            c0: ENGINE_C0,
            preloaded: loaded,
            put_space: loaded,
            threads: GENERATORS,
            mix: Mix {
                get_uniform: 900,
                get_absent: 100,
                ..Mix::default()
            },
        },
        _ => EnginePlan {
            c0: ENGINE_MIXED_C0,
            preloaded: loaded,
            put_space: loaded,
            threads: GENERATORS,
            mix: MIXED,
        },
    }
}

fn run_engine(spec: &Spec, tmp: &TempDir) -> Res<Output> {
    let plan = engine_plan(spec);
    let ks = Keyspace::new(spec.seed);
    let tracer = Arc::new(Tracer::new(false));
    let mut report = Report::new(spec);

    let ((db, devs), setup_times) = repeat_setup(
        spec,
        tmp,
        |dir| {
            let devs = open_devices(dir, spec.trace.then_some(&tracer), false)?;
            let db = open_engine(&devs, plan.c0, Durability::Buffered, ENGINE_POOL_PAGES)?;
            load_and_settle(&db, &ks, plan.preloaded)?;
            Ok((db, devs))
        },
        drop,
    )?;
    let probe = Probe::of_engine(&db, &devs, &tracer);
    report.scrub("scrub_before", &probe);
    sys::sync_filesystems();

    let mut m = measure(
        &tracer,
        plan.threads,
        (spec.seconds * 1e9) as u64,
        spec.trace,
        || probe.read(),
        |clock| {
            let mut gen = OpGen::new(
                spec.seed,
                clock.lane,
                plan.mix,
                plan.preloaded,
                plan.put_space,
            );
            engine_closed_loop(clock, &mut gen, &mut EngineTarget::new(ks, &db))
        },
    );

    report.account(&m);
    report.throughput(&m);
    let primary = m.latency(spec.workload.primary());
    report.latencies(
        &primary,
        [
            &m.latency(OpClass::Read),
            &m.latency(OpClass::Write),
            &m.latency(OpClass::Scan),
        ],
    );
    report.counters(&m.before, &m.after, m.user_bytes(), m.wall_s());
    report.observations(&mut m);
    report.slow_writes(&m);
    let puts = (m.user_bytes() / RECORD_BYTES) as f64;
    report.layer.set(
        "storage.space_amp",
        ratio(
            m.after.data_len as f64,
            live_records(&plan, puts) * RECORD_BYTES as f64,
        ),
    );
    report.layer.set(
        "write_amp_second_half",
        ratio(
            bytes_written(&m.mid, &m.after) as f64,
            m.user_bytes_second_half() as f64,
        ),
    );

    let view = db.read_view();
    let written: Vec<u64> = m.threads.iter().flat_map(|t| t.written.clone()).collect();
    read_back(&mut report, &ks, written.into_iter(), |key| {
        view.get(key).ok().map(|v| v.map(|b| b.to_vec()))
    });
    report.scrub("scrub_after", &probe);
    engine_checks(spec, &mut report);

    drop((probe, view));
    drop(db);
    Ok(report.finish(&setup_times, tmp, spec.trace))
}

/// Distinct records expected in the store after `puts` uniform writes
/// over the plan's id space on top of what was loaded. (The mixed
/// workloads overwrite loaded ids; their few fresh inserts are ignored.)
fn live_records(plan: &EnginePlan, puts: f64) -> f64 {
    let (loaded, space) = (plan.preloaded as f64, plan.put_space as f64);
    loaded + (space - loaded) * (1.0 - (-puts / space).exp())
}

/// Bytes written to the data and log devices between two readings.
fn bytes_written(b: &Counters, a: &Counters) -> u64 {
    a.data.delta_since(&b.data).bytes_written + a.wal.delta_since(&b.wal).bytes_written
}

/// The conditions the issue sets on what each engine workload exercises.
fn engine_checks(spec: &Spec, report: &mut Report) {
    if spec.quick {
        return;
    }
    let layer = |name: &str| report.layer.get(name).unwrap_or(0.0);
    let (m01, m12) = (layer("core.merge.merges01"), layer("core.merge.merges12"));
    let hit = layer("storage.buffer.hit_rate");
    let (whole, late) = (layer("write_amp"), layer("write_amp_second_half"));
    match spec.workload {
        Workload::EngineIngest => {
            report.check(
                "ingest_completes_merge_cycles",
                m01 >= 10.0 && m12 >= 2.0,
                format!("{m01} C0:C1 and {m12} C1':C2 merges (need 10 and 2)"),
            );
            report.note(
                "write_amp_second_half_vs_whole",
                Json::Num(ratio(late, whole)),
            );
        }
        Workload::EngineRead => {
            report.check(
                "read_bypasses_merges_and_misses_the_pool",
                m01 == 0.0 && hit < 0.3,
                format!("{m01} merges, pool hit rate {hit:.3} (need 0 and < 0.3)"),
            );
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// The over-the-wire workloads
// ---------------------------------------------------------------------

fn connect_all(ks: Keyspace, addr: &str, n: u32) -> Res<Vec<Mutex<WireTarget>>> {
    (0..n)
        .map(|_| WireTarget::connect(ks, addr).map(Mutex::new))
        .collect()
}

fn run_wire_durable(spec: &Spec, tmp: &TempDir) -> Res<Output> {
    let ks = Keyspace::new(spec.seed);
    let tracer = Arc::new(Tracer::new(false));
    let mut report = Report::new(spec);
    let preloaded = spec.scaled(DURABLE_PRELOADED);
    let config = ServerConfig {
        reactors: REACTORS,
        ..ServerConfig::default()
    };

    let ((server, devs, mut probe), setup_times) = repeat_setup(
        spec,
        tmp,
        |dir| {
            let devs = open_devices(dir, spec.trace.then_some(&tracer), true)?;
            let db = open_engine(&devs, DURABLE_C0, Durability::Sync, ENGINE_POOL_PAGES)?;
            for id in 0..preloaded {
                let (k, v) = ks.record(id);
                db.put_nowait(k, v).map_err(err("preload"))?;
            }
            db.commit_group().map_err(err("preload commit"))?;
            let probe = Probe::of_engine(&db, &devs, &tracer);
            let server = Server::start(db, "127.0.0.1:0", config).map_err(err("start server"))?;
            Ok((server, devs, probe))
        },
        |(server, _, probe)| {
            drop(probe);
            let _ = server.shutdown();
        },
    )?;
    let addr = server.local_addr().to_string();
    probe.stats_client = Some(Mutex::new(
        Client::connect(addr.as_str()).map_err(err("stats connection"))?,
    ));
    let conns = connect_all(ks, &addr, GENERATORS)?;
    report.scrub("scrub_before", &probe);
    sys::sync_filesystems();

    let fresh_only = Mix {
        put_fresh: 1000,
        ..Mix::default()
    };
    let mut m = measure(
        &tracer,
        GENERATORS,
        (spec.seconds * 1e9) as u64,
        spec.trace,
        || probe.read(),
        |clock| {
            let mut gen = OpGen::new(spec.seed, clock.lane, fresh_only, preloaded, preloaded);
            let mut conn = conns[clock.lane as usize]
                .lock()
                .expect("connection poisoned");
            wire_closed_loop(clock, &mut gen, &mut conn, DURABLE_DEPTH)
        },
    );

    report.account(&m);
    report.throughput(&m);
    let writes = m.latency(OpClass::Write);
    report.latencies(
        &writes,
        [
            &m.latency(OpClass::Read),
            &writes,
            &m.latency(OpClass::Scan),
        ],
    );
    report.counters(&m.before, &m.after, m.user_bytes(), m.wall_s());
    report.observations(&mut m);
    let written = preloaded + m.attempted();
    report.layer.set(
        "storage.space_amp",
        ratio(
            (m.after.data_len + m.after.wal.bytes_written) as f64,
            (written * RECORD_BYTES) as f64,
        ),
    );
    if !spec.quick {
        let (m01, per_group) = (
            report.layer.get("core.merge.merges01").unwrap_or(0.0),
            report
                .layer
                .get("core.commit.writes_per_group")
                .unwrap_or(0.0),
        );
        report.check(
            "durable_bypasses_merges_and_batches_commits",
            m01 == 0.0 && per_group > 4.0,
            format!("{m01} merges, {per_group:.1} writes per commit group (need 0 and > 4)"),
        );
    }

    // Power cut: the devices die under the running server, the bytes no
    // flush covered are zeroed, and the store is reopened from what is
    // left. Every write the server acknowledged must be there.
    let acked: Vec<(u32, u64)> = m
        .threads
        .iter()
        .enumerate()
        .map(|(lane, t)| (lane as u32, t.attempted - t.failures.total()))
        .collect();
    drop(conns);
    drop(probe);
    let [data_cut, wal_cut] = devs.cut.clone().ok_or("durable devices are not cuttable")?;
    data_cut.cut();
    wal_cut.cut();
    let _ = server.shutdown();
    zero_ranges(&devs.dir.join("data"), &data_cut.unsynced_ranges()).map_err(err("zero data"))?;
    zero_ranges(&devs.dir.join("wal"), &wal_cut.unsynced_ranges()).map_err(err("zero wal"))?;
    let lost_ranges = data_cut.unsynced_ranges().len() + wal_cut.unsynced_ranges().len();
    let store_dir = devs.dir.clone();
    drop(devs);

    let reopened = open_devices(&store_dir, None, false)?;
    let db = open_engine(&reopened, DURABLE_C0, Durability::Sync, ENGINE_POOL_PAGES)?;
    let view = db.read_view();
    let before_check = report.failures;
    // With no failed write, a lane's acknowledged ids are the first
    // `acked` of its fresh range.
    let acked_ids = acked
        .iter()
        .flat_map(|&(lane, n)| (0..n).map(move |i| OpGen::fresh_base(lane) + i));
    read_back(&mut report, &ks, (0..preloaded).chain(acked_ids), |key| {
        view.get(key).ok().map(|v| v.map(|b| b.to_vec()))
    });
    let lost = report.failures.lost - before_check.lost;
    report.check(
        "power_cut_loses_no_acked_write",
        lost == 0,
        format!(
            "{lost} of {} acknowledged writes missing after the cut ({lost_ranges} unsynced ranges zeroed)",
            preloaded + acked.iter().map(|a| a.1).sum::<u64>()
        ),
    );
    let errors = view.scrub().errors;
    report.check("scrub_after", errors.is_empty(), errors.join("; "));
    drop(view);
    drop(db);
    Ok(report.finish(&setup_times, tmp, spec.trace))
}

fn run_wire_mixed(spec: &Spec, tmp: &TempDir) -> Res<Output> {
    let ks = Keyspace::new(spec.seed);
    let tracer = Arc::new(Tracer::new(false));
    let mut report = Report::new(spec);
    let loaded = spec.scaled(LOADED_RECORDS);
    let sharded = ShardedConfig {
        tree: engine_config(MIXED_SHARD_C0, Durability::Buffered),
        pool_pages: MIXED_SHARD_POOL_PAGES,
        quantum: QUANTUM,
    };
    let config = ServerConfig {
        reactors: REACTORS,
        ..ServerConfig::default()
    };

    let ((server, mut probe, engine_read_us), setup_times) = repeat_setup(
        spec,
        tmp,
        |dir| {
            std::fs::create_dir_all(dir).map_err(err("create dir"))?;
            let manifest: SharedDevice = Arc::new(
                FileDevice::open(&dir.join("shards.manifest")).map_err(err("open manifest"))?,
            );
            let mut pairs = Vec::new();
            let mut store = ShardedBLsm::open_with_devices(
                manifest,
                ShardedBLsm::even_bounds(MIXED_SHARDS),
                |i| {
                    let pair = open_devices(
                        &dir.join(format!("shard-{i}")),
                        spec.trace.then_some(&tracer),
                        false,
                    )
                    .map_err(|e| blsm_storage::StorageError::Io(std::io::Error::other(e)))?;
                    pairs.push((pair.data.clone(), pair.wal.clone()));
                    Ok((pair.data, pair.wal))
                },
                &sharded,
                &operator(),
            )
            .map_err(err("open shards"))?;
            for id in 0..loaded {
                let (k, v) = ks.record(id);
                store.put(k, v).map_err(err("load"))?;
            }
            store.checkpoint().map_err(err("settle"))?;
            // The same reads without the serving tier, for its price.
            let engine_read_us = in_process_read_p50_us(&store, &ks, spec.seed, loaded);
            let engines: Vec<&ThreadedBLsm> = (0..store.shard_count())
                .map(|i| store.shard_engine(i).map_err(err("shard")))
                .collect::<Res<_>>()?;
            let probe = Probe {
                views: engines.iter().map(|db| db.read_view()).collect(),
                pools: engines
                    .iter()
                    .map(|db| db.with_tree(|t| t.pool().clone()))
                    .collect(),
                devices: pairs,
                tracer: tracer.clone(),
                stats_client: None,
            };
            let server =
                Server::start_sharded(store, "127.0.0.1:0", config).map_err(err("start server"))?;
            Ok((server, probe, engine_read_us))
        },
        |(server, probe, _)| {
            drop(probe);
            let _ = server.shutdown();
        },
    )?;
    let addr = server.local_addr().to_string();
    probe.stats_client = Some(Mutex::new(
        Client::connect(addr.as_str()).map_err(err("stats connection"))?,
    ));
    let conns = connect_all(ks, &addr, GENERATORS)?;
    report.scrub("scrub_before", &probe);
    sys::sync_filesystems();

    // Phase A, closed loop: what the tier can do.
    let closed_ns = (spec.seconds * MIXED_CLOSED_SHARE * 1e9) as u64;
    let mut a = measure(
        &tracer,
        GENERATORS,
        closed_ns,
        spec.trace,
        || probe.read(),
        |clock| {
            let mut gen = OpGen::new(spec.seed, clock.lane, MIXED, loaded, loaded);
            let mut conn = conns[clock.lane as usize]
                .lock()
                .expect("connection poisoned");
            wire_closed_loop(clock, &mut gen, &mut conn, MIXED_DEPTH)
        },
    );
    // Phase B, open loop at a fixed rate: what a request waits when the
    // load does not slow down for the server. One connection carries the
    // mix's reads and scans, the other its writes and checked inserts: a
    // pipelined batch is answered when its slowest request is, and
    // admission control holds back write acknowledgements by design, so
    // in one batch every read would be charged the writes' delay.
    let open_ns = (spec.seconds * 1e9) as u64 - closed_ns;
    let b = measure(
        &tracer,
        GENERATORS,
        open_ns,
        spec.trace,
        || probe.read(),
        |clock| {
            let lane = GENERATORS + clock.lane;
            let mix = MIXED.only(clock.lane == 0);
            let mut gen = OpGen::new(spec.seed, lane, mix, loaded, loaded);
            let mut conn = conns[clock.lane as usize]
                .lock()
                .expect("connection poisoned");
            wire_open_loop(
                clock,
                &mut gen,
                &mut conn,
                MIXED_OPEN_RATE,
                MIXED_OPEN_WINDOW,
                LATE_LIMIT_NS,
            )
        },
    );

    report.account(&a);
    report.account(&b);
    report.throughput(&a);
    let mut lateness = Histogram::default();
    let (mut late, mut due) = (0u64, 0u64);
    for stats in b.threads.iter().filter_map(|t| t.open.as_ref()) {
        lateness.merge(&stats.lateness);
        late += stats.late;
        due += stats.sent + stats.shed;
    }
    // `op_p50_us` is the closed loop's: a read's round there is set by
    // the admission controller's timers and repeats within 1 %. The open
    // loop's latencies swing with where the scheduler puts the threads
    // (a read's p50 sits at 130 or at 230 us for seconds at a time), so
    // they are diagnostics.
    report.latencies(
        &a.latency(OpClass::Read),
        [
            &b.latency(OpClass::Read),
            &b.latency(OpClass::Write),
            &b.latency(OpClass::Scan),
        ],
    );
    report
        .layer
        .set("late_share", ratio(late as f64, due as f64));
    report
        .layer
        .set("generator_lateness_p99_us", lateness.percentile(0.99) / 1e3);
    report.counters(
        &a.before,
        &b.after,
        a.user_bytes() + b.user_bytes(),
        a.wall_s() + b.wall_s(),
    );
    report.observations(&mut a);
    let closed_read_us = report.e2e.get("op_p50_us").unwrap_or(0.0);
    report.layer.set(
        "server.reactor.tier_overhead_us",
        closed_read_us - engine_read_us,
    );
    report.note("in_process_read_p50_us", Json::Num(engine_read_us));
    report.layer.set(
        "storage.space_amp",
        ratio(b.after.data_len as f64, (loaded * RECORD_BYTES) as f64),
    );
    if !spec.quick {
        let delayed = report
            .layer
            .get("server.admission.delayed_share")
            .unwrap_or(0.0);
        report.check(
            "mixed_reaches_the_paced_regime",
            delayed > 0.0,
            format!("admission delayed share {delayed:.4} (need > 0)"),
        );
    }

    // Read back through the wire what the phases wrote.
    let written: Vec<u64> = a
        .threads
        .iter()
        .chain(&b.threads)
        .flat_map(|t| t.written.clone())
        .collect();
    {
        let mut conn = conns[0].lock().expect("connection poisoned");
        read_back(&mut report, &ks, written.into_iter(), |key| {
            conn.client().get(key).ok()
        });
    }
    report.scrub("scrub_after", &probe);

    drop(conns);
    drop(probe);
    server.shutdown().map_err(err("server shutdown"))?;
    Ok(report.finish(&setup_times, tmp, spec.trace))
}

/// Median latency of Zipfian reads issued straight at the sharded store,
/// before the server takes it over: the same reads the closed-loop phase
/// sends through the wire.
fn in_process_read_p50_us(store: &ShardedBLsm, ks: &Keyspace, seed: u64, loaded: u64) -> f64 {
    let reads_only = Mix {
        get_zipf: 1000,
        ..Mix::default()
    };
    let mut gen = OpGen::new(seed, 0, reads_only, loaded, loaded);
    let mut h = Histogram::default();
    for _ in 0..20_000 {
        if let crate::gen::Op::Get { id, .. } = gen.next_op() {
            let key = ks.key(id);
            let t0 = Instant::now();
            let got = store.get(&key);
            h.record(t0.elapsed().as_nanos() as u64);
            std::hint::black_box(got.ok());
        }
    }
    h.percentile(0.5) / 1e3
}

/// Runs one workload in this process.
pub fn run(spec: &Spec) -> Res<Output> {
    let tmp = TempDir::new(&spec.dir, spec.workload.name()).map_err(err("scratch dir"))?;
    let out = match spec.workload {
        Workload::EngineIngest | Workload::EngineRead | Workload::EngineMixed => {
            run_engine(spec, &tmp)
        }
        Workload::WireDurable => run_wire_durable(spec, &tmp),
        Workload::WireMixed => run_wire_mixed(spec, &tmp),
    };
    drop(tmp);
    let _ = std::fs::remove_dir(&spec.dir);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: Workload, trace: bool) -> Spec {
        Spec {
            workload,
            seed: 5,
            seconds: 1.0,
            trace,
            dir: PathBuf::from(format!(
                ".bench_tmp/selftest-{}-{}",
                workload.name(),
                u8::from(trace)
            )),
            quick: true,
        }
    }

    #[test]
    fn every_workload_runs_correct_in_quick_mode_and_cleans_up() {
        for workload in Workload::ALL {
            let spec = quick(workload, false);
            let out = run(&spec).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(out.correct(), "{}: {:?}", workload.name(), out.checks);
            assert!(out.attempted > 100, "{}", workload.name());
            assert_eq!(out.end_to_end.len(), END_TO_END.len());
            for m in &out.end_to_end {
                // At a tenth of the size the data fits the buffer pool,
                // and a read-only phase may touch no device at all.
                let may_idle = m.name == "device_bytes_per_op";
                assert!(
                    m.value > 0.0 || may_idle,
                    "{} {} is {}",
                    workload.name(),
                    m.name,
                    m.value
                );
            }
            assert!(
                !spec.dir.exists(),
                "{} left its scratch dir",
                workload.name()
            );
        }
    }

    #[test]
    fn a_traced_run_fills_the_per_layer_table() {
        let spec = quick(Workload::EngineMixed, true);
        let out = run(&spec).expect("traced quick run");
        assert!(out.correct(), "{:?}", out.checks);
        let value = |name: &str| {
            out.per_layer
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(out.per_layer.len(), PER_LAYER.len());
        // One from each source: counters, wrappers, spans, probes,
        // diagnostics.
        for name in [
            "bloom.skips_per_get",
            "storage.device.wal.write_bytes_per_user_byte",
            "core.read.get_self_ns",
            "core.tree.put_self_ns",
            "memtable.insert_ns",
            "server.reactor.ping_rtt_us",
            "read_p50_us",
            "write_amp",
        ] {
            assert!(value(name) > 0.0, "{name} = {}", value(name));
        }
        assert!(value("trace.overhead_share").abs() < 1.0);
        assert!(!spec.dir.exists());
    }

    #[test]
    fn a_lost_acknowledged_write_makes_the_run_incorrect() {
        let spec = quick(Workload::WireDurable, false);
        let tmp = TempDir::new(&spec.dir, "lost").unwrap();
        let ks = Keyspace::new(spec.seed);
        let mut report = Report::new(&spec);
        // A store that kept every acknowledged id but number 3, and
        // returns id 5 with a flipped bit.
        read_back(&mut report, &ks, 0..10, |key| {
            let id = ks.id_of(key).unwrap();
            let mut value = ks.value(id).to_vec();
            value[0] ^= u8::from(id == 5);
            Some((id != 3).then_some(value))
        });
        assert_eq!(report.failures.lost, 2);
        assert_eq!(report.attempted, 10);
        let out = report.finish(&[0.5], &tmp, false);
        assert!(!out.correct());
        let failed_share = out.per_layer.iter().find(|m| m.name == "failed_share");
        assert_eq!(failed_share.map(|m| m.value), Some(0.2));
        drop(tmp);
        let _ = std::fs::remove_dir(&spec.dir);
    }

    #[test]
    fn workload_names_and_reasons_fit_the_contract() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
        assert_eq!(Workload::parse("engine"), None);
    }
}
