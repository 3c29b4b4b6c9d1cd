//! Engine metadata persisted through the manifest (shadow-paged root).
//!
//! Saved atomically at every merge installation; recovery reads it back,
//! reopens the listed components, and replays the logical log (§4.4.2).
//! It names only what recovery cannot work out: the live components (the
//! free space is every other page, `RegionAllocator::around`), the log
//! head and the next sequence number.

use blsm_storage::codec::{self, Reader};
use blsm_storage::{Lsn, PageId, Region, Result, StorageError};

/// Which slot of the three-level tree a persisted component occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComponentSlot {
    /// `C1` — the middle component.
    C1,
    /// `C1'` — the `C1` snapshot being merged into `C2`.
    C1Prime,
    /// `C2` — the largest component.
    C2,
}

impl ComponentSlot {
    fn to_u8(self) -> u8 {
        match self {
            ComponentSlot::C1 => 1,
            ComponentSlot::C1Prime => 2,
            ComponentSlot::C2 => 3,
        }
    }

    fn from_u8(v: u8) -> Result<ComponentSlot> {
        Ok(match v {
            1 => ComponentSlot::C1,
            2 => ComponentSlot::C1Prime,
            3 => ComponentSlot::C2,
            other => {
                return Err(StorageError::InvalidFormat(format!(
                    "bad component slot {other}"
                )))
            }
        })
    }
}

/// The persisted root of the tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeMeta {
    /// Live components and their (exact-sized) regions.
    pub components: Vec<(ComponentSlot, Region)>,
    /// Logical-log truncation point: replay starts here.
    pub wal_head: Lsn,
    /// Next sequence number to assign (replayed records may push it up).
    pub next_seqno: u64,
}

const META_MAGIC: u32 = 0x4d53_4c42; // "BLSM"

impl TreeMeta {
    /// Serializes for the manifest slot.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.components.len() * 24);
        codec::put_u32(&mut out, META_MAGIC);
        codec::put_u64(&mut out, self.wal_head);
        codec::put_u64(&mut out, self.next_seqno);
        codec::put_varint(&mut out, self.components.len() as u64);
        for (slot, region) in &self.components {
            codec::put_u8(&mut out, slot.to_u8());
            codec::put_u64(&mut out, region.start.0);
            codec::put_u64(&mut out, region.pages);
        }
        out
    }

    /// Deserializes a manifest payload. Reading stops after the
    /// components: older manifests went on with the allocator's state and
    /// the retired regions, which recovery now derives.
    pub fn decode(bytes: &[u8]) -> Result<TreeMeta> {
        let mut r = Reader::new(bytes);
        let magic = r.u32()?;
        if magic != META_MAGIC {
            return Err(StorageError::InvalidFormat(format!(
                "bad tree meta magic {magic:#x}"
            )));
        }
        let wal_head = r.u64()?;
        let next_seqno = r.u64()?;
        let n = r.varint()?;
        let mut components = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let slot = ComponentSlot::from_u8(r.u8()?)?;
            let start = r.u64()?;
            let pages = r.u64()?;
            components.push((
                slot,
                Region {
                    start: PageId(start),
                    pages,
                },
            ));
        }
        Ok(TreeMeta {
            components,
            wal_head,
            next_seqno,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    fn region(start: u64, pages: u64) -> Region {
        Region {
            start: PageId(start),
            pages,
        }
    }

    #[test]
    fn roundtrip() {
        let meta = TreeMeta {
            components: vec![
                (ComponentSlot::C1, region(228, 500)),
                (ComponentSlot::C2, region(700, 42)),
            ],
            wal_head: 123_456,
            next_seqno: 999,
        };
        let enc = meta.encode();
        assert_eq!(TreeMeta::decode(&enc).unwrap(), meta);
    }

    #[test]
    fn decodes_the_layout_that_also_persisted_the_allocator() {
        // Older manifests went on past the components: the allocator
        // (high water, then free extents as varint pairs) and a trailer
        // of retired regions. All of it is now derived, so it is skipped.
        let meta = TreeMeta {
            components: vec![
                (ComponentSlot::C1Prime, region(128, 40)),
                (ComponentSlot::C2, region(300, 90)),
            ],
            wal_head: 7,
            next_seqno: 3,
        };
        let mut old = meta.encode();
        codec::put_u64(&mut old, 1_000);
        codec::put_varint(&mut old, 2);
        for (start, pages) in [(168, 132), (390, 10)] {
            codec::put_varint(&mut old, start);
            codec::put_varint(&mut old, pages);
        }
        codec::put_varint(&mut old, 1);
        codec::put_u64(&mut old, 400);
        codec::put_u64(&mut old, 600);
        assert_eq!(TreeMeta::decode(&old).unwrap(), meta);
    }

    #[test]
    fn rejects_garbage() {
        assert!(TreeMeta::decode(&[0u8; 3]).is_err());
        assert!(TreeMeta::decode(&[0xff; 64]).is_err());
    }

    #[test]
    fn empty_components_ok() {
        let meta = TreeMeta {
            components: vec![],
            wal_head: 0,
            next_seqno: 1,
        };
        assert_eq!(TreeMeta::decode(&meta.encode()).unwrap(), meta);
    }
}
