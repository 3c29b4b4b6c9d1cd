//! The server-side shard router: key-range dispatch plus *per-shard*
//! admission control.
//!
//! The router is the front door the tentpole asks for: every request is
//! routed to its owning shard before any engine work happens, and each
//! shard gets its **own** [`AdmissionController`] fed by its **own**
//! spring-and-gear backpressure level. That is the whole point of the
//! sharded tier ("On Performance Stability", PAPERS.md): when one key
//! range's `C0` crosses the high water mark, only writers addressed to
//! *that* shard see RETRY_LATER — writes to cold shards, and all reads
//! everywhere, flow freely.
//!
//! The router itself is deliberately **lock-free**: its state is an
//! immutable boundary list inside [`ShardedBLsm`] plus a fixed `Vec` of
//! admission controllers (atomic counters, one set per shard, shared by
//! every reactor). Routing adds arithmetic, never a lock — the server
//! crate's locks all live in `server.rs` (reactor inboxes and the
//! committer signal; see the lock hierarchy there), which the `xtask`
//! lock-order lint enforces.

use blsm::{BLsmTree, BackpressureLevel, ShardedBLsm};
use blsm_storage::Result;

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionCounters, WriteAdmission};

/// Routes requests to shards and meters each shard's writes against its
/// own backpressure signal.
#[derive(Debug)]
pub struct ShardRouter {
    store: ShardedBLsm,
    /// One controller per shard, index-aligned with the store's shards.
    admissions: Vec<AdmissionController>,
}

impl ShardRouter {
    /// Wraps a sharded store, giving every shard its own admission
    /// controller with the same policy.
    pub fn new(store: ShardedBLsm, admission: AdmissionConfig) -> ShardRouter {
        let admissions = (0..store.shard_count())
            .map(|_| AdmissionController::new(admission))
            .collect();
        ShardRouter { store, admissions }
    }

    /// Index of the shard owning `key`.
    pub fn shard_for(&self, key: &[u8]) -> usize {
        self.store.shard_for(key)
    }

    /// The routed store itself: its read view, stats and per-shard
    /// engines (writes apply to `store().shard_engine(shard)`).
    pub fn store(&self) -> &ShardedBLsm {
        &self.store
    }

    /// Admission verdict for one write addressed to `key`, judged
    /// against the **owning shard's** live backpressure only and counted
    /// on that shard's controller. Returns the shard index with the
    /// verdict so the caller applies the write to the same shard it was
    /// metered against — the key is routed once.
    ///
    /// A degraded shard admits (the write will fail with the typed
    /// per-shard error, which tells the client more than RETRY_LATER
    /// would).
    pub fn write_admission(&self, key: &[u8]) -> (usize, WriteAdmission) {
        let shard = self.shard_for(key);
        let level = self
            .store
            .backpressure(shard)
            .unwrap_or(BackpressureLevel::Idle);
        (shard, self.admissions[shard].write_admission(level))
    }

    /// Aggregated admission counters across all shards.
    pub fn admission_counters(&self) -> AdmissionCounters {
        let mut total = AdmissionCounters::default();
        for a in &self.admissions {
            let c = a.counters();
            total.admitted += c.admitted;
            total.delayed += c.delayed;
            total.rejected += c.rejected;
        }
        total
    }

    /// Shard `i`'s admission counters (zeroes for an out-of-range `i`).
    pub fn shard_admission_counters(&self, i: usize) -> AdmissionCounters {
        self.admissions
            .get(i)
            .map_or_else(AdmissionCounters::default, AdmissionController::counters)
    }

    /// Shuts every shard down (merges completed, checkpoints written,
    /// manifest epoch bumped) and returns the settled trees in shard
    /// order (degraded shards omitted).
    ///
    /// # Errors
    ///
    /// Propagates the first shard shutdown or manifest error.
    pub fn shutdown(self) -> Result<Vec<BLsmTree>> {
        self.store.shutdown()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;
    use blsm::{AppendOperator, MergeOperator, ShardedConfig, ThreadedBLsm};
    use blsm_storage::{MemDevice, SharedDevice};
    use bytes::Bytes;
    use std::sync::Arc;

    fn mem_router(shards: usize) -> ShardRouter {
        let manifest: SharedDevice = Arc::new(MemDevice::new());
        let store = ShardedBLsm::open_with_devices(
            manifest,
            ShardedBLsm::even_bounds(shards),
            |_| {
                Ok((
                    Arc::new(MemDevice::new()) as SharedDevice,
                    Arc::new(MemDevice::new()) as SharedDevice,
                ))
            },
            &ShardedConfig::default(),
            &(Arc::new(AppendOperator) as Arc<dyn MergeOperator>),
        )
        .unwrap();
        ShardRouter::new(store, AdmissionConfig::default())
    }

    #[test]
    fn admission_is_metered_per_shard() {
        let router = mem_router(4);
        // Keys with distinct two-byte prefixes land on distinct shards.
        let (s0, v0) = router.write_admission(&[0x00, 0x00, b'a']);
        let (s3, v3) = router.write_admission(&[0xF0, 0x00, b'z']);
        assert_ne!(s0, s3);
        assert_eq!(v0, WriteAdmission::Admit);
        assert_eq!(v3, WriteAdmission::Admit);
        // Each verdict was recorded on its own shard's controller.
        assert_eq!(router.shard_admission_counters(s0).admitted, 1);
        assert_eq!(router.shard_admission_counters(s3).admitted, 1);
        assert_eq!(router.admission_counters().admitted, 2);
        // Untouched shards — and an index past the last shard — read zero.
        for i in 0..=router.store().shard_count() {
            if i != s0 && i != s3 {
                assert_eq!(router.shard_admission_counters(i).admitted, 0);
            }
        }
    }

    #[test]
    fn single_tree_wrapping_routes_everything_to_shard_zero() {
        let data: SharedDevice = Arc::new(MemDevice::new());
        let wal: SharedDevice = Arc::new(MemDevice::new());
        let tree = blsm::BLsmTree::open(
            data,
            wal,
            256,
            blsm::BLsmConfig::default(),
            Arc::new(AppendOperator),
        )
        .unwrap();
        let db = ThreadedBLsm::start(tree, 1 << 20).unwrap();
        let router = ShardRouter::new(ShardedBLsm::from_single(db), AdmissionConfig::default());
        assert_eq!(router.store().shard_count(), 1);
        assert_eq!(router.shard_for(b""), 0);
        assert_eq!(router.shard_for(&[0xFF; 8]), 0);
        router
            .store()
            .put(Bytes::from_static(b"k"), Bytes::from_static(b"v"))
            .unwrap();
        assert_eq!(router.store().get(b"k").unwrap().unwrap().as_ref(), b"v");
        let trees = router.shutdown().unwrap();
        assert_eq!(trees.len(), 1);
    }
}
