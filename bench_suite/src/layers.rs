//! Layer probes: each layer driven alone through its public functions,
//! one thread, fixed counts, on fixtures made by the same generator the
//! workloads use.
//!
//! A probe's number is the price of the layer with nothing else in the
//! way — no queueing, no contention, a warm cache unless the probe is
//! about misses. It says where a microsecond can be saved, not how much
//! of a request it is; the spans say that.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use blsm::{
    BLsmConfig, BLsmTree, BackpressureLevel, Durability, OverwriteOperator, ShardedBLsm,
    ShardedConfig, ThreadedBLsm, Versioned,
};
use blsm_bloom::BloomFilter;
use blsm_memtable::ConcurrentC0;
use blsm_server::protocol::{decode_request, encode_request, FRAME_HEADER};
use blsm_server::{
    AdmissionConfig, AdmissionController, Client, Request, Response, Server, ServerConfig,
    ShardRouter,
};
use blsm_sstable::{ReadMode, Sstable, SstableBuilder};
use blsm_storage::{BufferPool, FileDevice, MemDevice, PageId, Region, SharedDevice, Wal};
use bytes::Bytes;

use crate::gen::{Keyspace, Rng, RECORD_BYTES};
use crate::workloads::{engine_config, operator};

/// Records in the fixtures.
const RECORDS: u64 = 100_000;
/// Ids the miss probes look up; nobody inserts them.
const ABSENT: u64 = 1 << 50;

/// Nanoseconds per iteration of `f` run `n` times.
fn per_iter_ns(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

struct Probes<'a> {
    ks: Keyspace,
    seed: u64,
    n: u64,
    dir: &'a Path,
    out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    fn memtable(&mut self) {
        let (ks, n) = (self.ks, self.n);
        let c0 = ConcurrentC0::new();
        let op = OverwriteOperator;
        let records: Vec<(Bytes, Bytes)> = (0..n).map(|id| ks.record(id)).collect();
        let insert = per_iter_ns(n, |i| {
            let (k, v) = records[i as usize].clone();
            c0.insert(k, Versioned::put(i + 1, v), &op);
        });
        self.put("memtable.insert_ns", insert);
        let mut rng = Rng::new(self.seed);
        let get = per_iter_ns(n, |_| {
            let id = rng.below(n);
            std::hint::black_box(c0.get(&ks.key(id)));
        });
        self.put("memtable.get_ns", get);
        // Ranges one 256th of the keyspace wide: a few hundred rows each.
        let mut rows = 0u64;
        let start = Instant::now();
        for b in 0..64u8 {
            rows += c0.range_rows(&[b * 4], Some(&[b * 4 + 1])).len() as u64;
        }
        self.put(
            "memtable.range_row_ns",
            start.elapsed().as_nanos() as f64 / rows.max(1) as f64,
        );
    }

    fn bloom(&mut self) {
        let (ks, n) = (self.ks, self.n);
        let mut filter = BloomFilter::with_capacity(n);
        let insert = per_iter_ns(n, |id| filter.insert(&ks.key(id)));
        self.put("bloom.insert_ns", insert);
        let mut rng = Rng::new(self.seed);
        let hit = per_iter_ns(n, |_| {
            std::hint::black_box(filter.contains(&ks.key(rng.below(n))));
        });
        self.put("bloom.contains_hit_ns", hit);
        let miss = per_iter_ns(n, |i| {
            std::hint::black_box(filter.contains(&ks.key(ABSENT + i)));
        });
        self.put("bloom.contains_miss_ns", miss);
    }

    /// Builds the table the sstable and buffer probes share, on a memory
    /// device so no file system is in the numbers.
    fn sstable_and_buffer(&mut self) {
        let (ks, n) = (self.ks, self.n);
        let mut sorted: Vec<(Bytes, Bytes)> = (0..n).map(|id| ks.record(id)).collect();
        sorted.sort();
        let device: SharedDevice = Arc::new(MemDevice::new());
        let region = Region {
            start: PageId(0),
            pages: n * RECORD_BYTES / 2048 + 256,
        };
        let pool = Arc::new(BufferPool::new(device.clone(), region.pages as usize));
        let built = Instant::now();
        let mut builder = SstableBuilder::new(pool.clone(), region, n);
        for (i, (k, v)) in sorted.iter().enumerate() {
            builder
                .add(k, &Versioned::put(i as u64 + 1, v.clone()))
                .expect("sstable add");
        }
        let table: Arc<Sstable> = Arc::new(builder.finish().expect("sstable finish"));
        self.put(
            "sstable.build_entry_ns",
            built.elapsed().as_nanos() as f64 / n as f64,
        );
        pool.flush().expect("pool flush");

        // Warm every leaf, then look up.
        for (k, _) in &sorted {
            table.get(k).expect("warm get");
        }
        let mut rng = Rng::new(self.seed);
        let get = per_iter_ns(n, |_| {
            let id = rng.below(n);
            std::hint::black_box(table.get(&ks.key(id)).expect("sstable get"));
        });
        self.put("sstable.get_cached_ns", get);
        let start = Instant::now();
        let rows = table.iter(ReadMode::Pooled).count() as u64;
        self.put(
            "sstable.scan_row_ns",
            start.elapsed().as_nanos() as f64 / rows.max(1) as f64,
        );

        let pages = table.meta().n_data_pages;
        let first = table.region().start.0;
        let hit = per_iter_ns(n, |_| {
            let pid = PageId(first + rng.below(pages));
            std::hint::black_box(pool.read(pid).expect("pool read"));
        });
        self.put("storage.buffer.read_hit_ns", hit);
        // A pool of 64 pages over thousands: nearly every read misses,
        // verifies the page checksum and evicts.
        let small = BufferPool::new(device, 64);
        let miss = per_iter_ns(n / 4, |_| {
            let pid = PageId(first + rng.below(pages));
            std::hint::black_box(small.read(pid).expect("pool read"));
        });
        self.put("storage.buffer.read_miss_ns", miss);
    }

    fn file(&self, name: &str) -> SharedDevice {
        Arc::new(FileDevice::open(&self.dir.join(name)).expect("open probe file"))
    }

    fn wal_and_device(&mut self) {
        let n = self.n;
        let payload = [0x5au8; RECORD_BYTES as usize + 9];
        let mut wal = Wal::new(self.file("probe-wal"), 256 << 20, 0, 0);
        // Appends buffer; every 64th flushes them to the file, as a
        // burst of buffered-durability writes would.
        let append = per_iter_ns(n, |i| {
            wal.append(&payload).expect("wal append");
            if i % 64 == 63 {
                wal.flush().expect("wal flush");
            }
        });
        self.put("storage.wal.append_ns", append);
        let sync = per_iter_ns(32, |_| {
            wal.append(&payload).expect("wal append");
            wal.sync().expect("wal sync");
        });
        self.put("storage.wal.sync_us", sync / 1e3);

        let dev = self.file("probe-dev");
        let page = [0xa5u8; 4096];
        let pages = 4096u64;
        for p in 0..pages {
            dev.write_at(p * 4096, &page).expect("probe write");
        }
        dev.sync().expect("probe sync");
        let mut rng = Rng::new(self.seed);
        let mut buf = [0u8; 4096];
        let pread = per_iter_ns(n / 4, |_| {
            dev.read_at(rng.below(pages) * 4096, &mut buf)
                .expect("probe read");
        });
        self.put("storage.device.file.pread_4k_ns", pread);
        let fsync = per_iter_ns(32, |i| {
            dev.write_at(i * 8, &i.to_le_bytes()).expect("probe write");
            dev.sync().expect("probe sync");
        });
        self.put("storage.device.file.fsync_us", fsync / 1e3);
    }

    /// A `C0` big enough that the probe's writes start no merge.
    fn roomy_config() -> BLsmConfig {
        engine_config(64 << 20, Durability::Buffered)
    }

    fn threaded(&self, tag: &str) -> ThreadedBLsm {
        let tree = BLsmTree::open(
            self.file(&format!("{tag}-data")),
            self.file(&format!("{tag}-wal")),
            256,
            Self::roomy_config(),
            operator(),
        )
        .expect("open probe tree");
        ThreadedBLsm::start(tree, 1 << 20).expect("start probe tree")
    }

    fn engines_and_router(&mut self) {
        let (ks, n) = (self.ks, self.n);
        let records: Vec<(Bytes, Bytes)> = (0..n).map(|id| ks.record(id)).collect();
        let db = self.threaded("threaded");
        let threaded = per_iter_ns(n, |i| {
            let (k, v) = records[i as usize].clone();
            db.put(k, v).expect("probe put");
        });
        drop(db);
        self.put("core.threaded.put_ns", threaded);

        let store = ShardedBLsm::open_with_devices(
            self.file("sharded-manifest"),
            ShardedBLsm::even_bounds(2),
            |i| {
                Ok((
                    self.file(&format!("sharded-{i}-data")),
                    self.file(&format!("sharded-{i}-wal")),
                ))
            },
            &ShardedConfig {
                tree: Self::roomy_config(),
                pool_pages: 256,
                quantum: 1 << 20,
            },
            &operator(),
        )
        .expect("open probe shards");
        let sharded = per_iter_ns(n, |i| {
            let (k, v) = records[i as usize].clone();
            store.put(k, v).expect("probe put");
        });
        self.put("core.sharded.put_ns", sharded);
        self.put("core.sharded.route_overhead_ns", sharded - threaded);

        let router = ShardRouter::new(store, AdmissionConfig::default());
        let keys: Vec<_> = (0..1024).map(|id| ks.key(id)).collect();
        let route = per_iter_ns(n * 10, |i| {
            std::hint::black_box(router.shard_for(&keys[(i % 1024) as usize]));
        });
        self.put("server.router.shard_for_ns", route);
        drop(router);
    }

    fn protocol_and_admission(&mut self) {
        let (ks, n) = (self.ks, self.n);
        let req = Request::Put {
            key: ks.key(1).to_vec(),
            value: ks.value(1).to_vec(),
        };
        let mut wire = Vec::with_capacity(256);
        let encode = per_iter_ns(n, |i| {
            wire.clear();
            encode_request(&mut wire, i, &req).expect("encode");
            std::hint::black_box(&wire);
        });
        self.put("server.protocol.encode_put_ns", encode);
        let payload = wire[FRAME_HEADER..].to_vec();
        let decode = per_iter_ns(n, |_| {
            std::hint::black_box(decode_request(&payload).expect("decode"));
        });
        self.put("server.protocol.decode_put_ns", decode);

        let admission = AdmissionController::new(AdmissionConfig::default());
        let levels = [
            BackpressureLevel::Idle,
            BackpressureLevel::Paced(500),
            BackpressureLevel::Saturated,
        ];
        let decide = per_iter_ns(n * 10, |i| {
            std::hint::black_box(admission.write_admission(levels[(i % 3) as usize]));
        });
        self.put("server.admission.decide_ns", decide);
    }

    fn reactor(&mut self) {
        let config = ServerConfig {
            reactors: 2,
            ..ServerConfig::default()
        };
        let server =
            Server::start(self.threaded("reactor"), "127.0.0.1:0", config).expect("probe server");
        let mut client =
            Client::connect(server.local_addr().to_string()).expect("probe connection");
        let rounds = (self.n / 50).max(100);
        let rtt = per_iter_ns(rounds, |_| client.ping().expect("ping"));
        self.put("server.reactor.ping_rtt_us", rtt / 1e3);
        let batch = vec![Request::Ping; 16];
        let pipelined = per_iter_ns(rounds / 4, |_| {
            let resps = client.pipeline(&batch).expect("pipelined ping");
            assert!(resps.iter().all(|r| matches!(r, Response::Ok)));
        });
        self.put("server.reactor.ping_pipelined_us", pipelined / 16.0 / 1e3);
        drop(client);
        let _ = server.shutdown();
    }
}

/// Runs every probe; files go under `dir`.
pub fn run_probes(dir: &Path, seed: u64, quick: bool) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        ks: Keyspace::new(seed),
        seed,
        n: if quick { RECORDS / 10 } else { RECORDS },
        dir,
        out: Vec::new(),
    };
    p.memtable();
    p.bloom();
    p.sstable_and_buffer();
    p.wal_and_device();
    p.engines_and_router();
    p.protocol_and_admission();
    p.reactor();
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    #[test]
    fn every_probe_reports_a_listed_metric_once_and_nonzero() {
        let tmp = crate::sys::TempDir::new(Path::new(".bench_tmp"), "probes").unwrap();
        let out = run_probes(tmp.path(), 3, true);
        let mut names = std::collections::BTreeSet::new();
        for (name, value) in &out {
            assert!(names.insert(*name), "{name} reported twice");
            assert!(PER_LAYER.iter().any(|m| m.name == *name), "{name} unlisted");
            if *name != "core.sharded.route_overhead_ns" {
                assert!(*value > 0.0, "{name} = {value}");
            }
        }
        assert_eq!(out.len(), 24);
    }
}
