//! Property-based tests for the storage substrate.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use std::sync::Arc;

use proptest::prelude::*;

use blsm_storage::device::Device;
use blsm_storage::page::PageType;
use blsm_storage::{
    BufferPool, MemDevice, Page, PageId, Region, RegionAllocator, SharedDevice, Wal,
};

proptest! {
    /// A device behaves like a flat byte array: arbitrary interleavings of
    /// writes and reads agree with a Vec<u8> model.
    #[test]
    fn device_matches_byte_array_model(
        ops in proptest::collection::vec(
            (0u64..4096, proptest::collection::vec(any::<u8>(), 1..128)),
            1..64,
        )
    ) {
        let dev = MemDevice::new();
        let mut model: Vec<u8> = Vec::new();
        for (offset, data) in &ops {
            let end = *offset as usize + data.len();
            if end > model.len() {
                model.resize(end, 0);
            }
            model[*offset as usize..end].copy_from_slice(data);
            dev.write_at(*offset, data).unwrap();
        }
        prop_assert_eq!(dev.len(), model.len() as u64);
        let mut buf = vec![0u8; model.len()];
        if !buf.is_empty() {
            dev.read_at(0, &mut buf).unwrap();
            prop_assert_eq!(buf, model);
        }
    }

    /// Alloc/free sequences never hand out overlapping regions, and the
    /// allocator's accounting stays exact.
    #[test]
    fn region_allocator_never_overlaps(
        ops in proptest::collection::vec((any::<bool>(), 1u64..64), 1..200)
    ) {
        let mut alloc = RegionAllocator::new(0);
        let mut live: Vec<Region> = Vec::new();
        for (do_alloc, size) in ops {
            if do_alloc || live.is_empty() {
                let r = alloc.alloc(size);
                for other in &live {
                    let disjoint = r.start.0 + r.pages <= other.start.0
                        || other.start.0 + other.pages <= r.start.0;
                    prop_assert!(disjoint, "overlap: {r:?} vs {other:?}");
                }
                live.push(r);
            } else {
                let idx = (size as usize) % live.len();
                let r = live.swap_remove(idx);
                alloc.free(r);
            }
        }
        // Free everything: high water must collapse to zero.
        for r in live.drain(..) {
            alloc.free(r);
        }
        prop_assert_eq!(alloc.high_water(), 0);
        prop_assert_eq!(alloc.free_pages(), 0);
    }

    /// The allocator recovery derives from the live regions alone is the
    /// allocator that allocated them and freed the rest.
    #[test]
    fn region_allocator_around_live_equals_alloc_and_free(
        sizes in proptest::collection::vec(1u64..40, 1..40),
        free_mask in any::<u64>(),
    ) {
        let mut alloc = RegionAllocator::new(7);
        let regions: Vec<Region> = sizes.iter().map(|&s| alloc.alloc(s)).collect();
        let mut live = Vec::new();
        for (i, r) in regions.iter().enumerate() {
            if free_mask & (1 << (i % 64)) != 0 {
                alloc.free(*r);
            } else {
                live.push(*r);
            }
        }
        live.reverse();
        prop_assert_eq!(RegionAllocator::around(7, live).unwrap(), alloc);
    }

    /// WAL replay returns exactly the flushed suffix, in order, for any
    /// append/truncate interleaving that respects capacity.
    #[test]
    fn wal_replay_is_exact(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..60,
        ),
        keep_last in 1usize..8,
    ) {
        let capacity = 8192u64;
        let dev: SharedDevice = Arc::new(MemDevice::new());
        dev.write_at(capacity - 1, &[0]).unwrap();
        let mut wal = Wal::new(dev.clone(), capacity, 0, 0);
        let mut frames: Vec<(u64, Vec<u8>)> = Vec::new();
        for p in &payloads {
            let lsn = wal.append(p).unwrap();
            wal.flush().unwrap();
            frames.push((lsn, p.clone()));
            // Truncate so at most keep_last frames stay live.
            if frames.len() > keep_last {
                frames.drain(..frames.len() - keep_last);
                wal.truncate(frames[0].0);
            }
        }
        let (records, tail) = blsm_storage::wal::replay(&dev, capacity, wal.head_lsn());
        prop_assert_eq!(tail, wal.tail_lsn());
        prop_assert_eq!(records.len(), frames.len());
        for (rec, (lsn, payload)) in records.iter().zip(&frames) {
            prop_assert_eq!(rec.lsn, *lsn);
            prop_assert_eq!(&rec.payload, payload);
        }
    }

    /// The buffer pool is a write-back cache: any access pattern leaves
    /// the device + cache union equal to the model after a flush.
    #[test]
    fn buffer_pool_writeback_consistency(
        writes in proptest::collection::vec((0u64..64, any::<u8>()), 1..120),
        capacity in 1usize..16,
    ) {
        let dev: SharedDevice = Arc::new(MemDevice::new());
        let pool = BufferPool::new(dev.clone(), capacity);
        let mut model = std::collections::HashMap::new();
        for (pid, tag) in &writes {
            let mut page = Page::new(PageType::Data);
            page.payload_mut()[0] = *tag;
            pool.write(PageId(*pid), page).unwrap();
            model.insert(*pid, *tag);
        }
        pool.flush().unwrap();
        pool.drop_clean();
        for (pid, tag) in &model {
            let page = pool.read(PageId(*pid)).unwrap();
            prop_assert_eq!(page.payload()[0], *tag);
        }
    }

    /// Varint and byte-string codecs round-trip arbitrary inputs.
    #[test]
    fn codec_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..64),
                       blobs in proptest::collection::vec(
                           proptest::collection::vec(any::<u8>(), 0..300), 0..16)) {
        use blsm_storage::codec::{put_bytes, put_varint, Reader};
        let mut out = Vec::new();
        for v in &vals {
            put_varint(&mut out, *v);
        }
        for b in &blobs {
            put_bytes(&mut out, b);
        }
        let mut r = Reader::new(&out);
        for v in &vals {
            prop_assert_eq!(r.varint().unwrap(), *v);
        }
        for b in &blobs {
            prop_assert_eq!(r.bytes().unwrap(), b.as_slice());
        }
        prop_assert_eq!(r.remaining(), 0);
    }
}
