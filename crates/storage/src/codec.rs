//! Minimal binary codec used by every on-disk structure in this workspace.
//!
//! The formats are deliberately explicit (no serde) so the byte layout of
//! pages, WAL records and manifests is fully specified by this crate. All
//! integers are little-endian; variable-length integers use LEB128.

use crate::error::{Result, StorageError};

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_varint(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Reads a little-endian `u16` from the first 2 bytes of `b`.
///
/// # Panics
/// Panics if `b` is shorter than 2 bytes.
pub fn le_u16(b: &[u8]) -> u16 {
    let mut a = [0u8; 2];
    a.copy_from_slice(&b[..2]);
    u16::from_le_bytes(a)
}

/// Reads a little-endian `u32` from the first 4 bytes of `b`.
///
/// # Panics
/// Panics if `b` is shorter than 4 bytes.
pub fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_le_bytes(a)
}

/// Reads a little-endian `u64` from the first 8 bytes of `b`.
///
/// # Panics
/// Panics if `b` is shorter than 8 bytes.
pub fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

/// Cursor for decoding buffers produced with the `put_*` helpers.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`, starting at offset 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current offset into the buffer.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to decode.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::InvalidFormat(format!(
                "decode overrun: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decodes a `u8`.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if the input is exhausted.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Decodes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16> {
        Ok(le_u16(self.take(2)?))
    }

    /// Decodes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(le_u32(self.take(4)?))
    }

    /// Decodes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(le_u64(self.take(8)?))
    }

    /// Decodes a LEB128 varint.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if the input is exhausted
    /// or the encoding exceeds 64 bits.
    pub fn varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return Err(StorageError::InvalidFormat("varint too long".into()));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Decodes a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if the length prefix is
    /// malformed or promises more bytes than remain.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.varint()? as usize;
        self.take(len)
    }

    /// Advances past `n` bytes without borrowing them. Lets lazy decoders
    /// skip over fields (e.g. a non-matching key) without touching them.
    ///
    /// # Errors
    ///
    /// Fails with [`StorageError::InvalidFormat`] if fewer than `n` bytes
    /// remain.
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }
}

/// CRC-32C (Castagnoli). Used to checksum pages, WAL records and
/// manifest slots.
///
/// Every cache miss verifies a full 4 KiB page image and every sealed
/// merge page computes one, so this sits on the critical path of both:
/// on x86-64 with SSE 4.2 it uses the hardware `crc32` instruction
/// (which implements exactly this reflected polynomial), running three
/// independent streams over page-sized inputs (4 080 bytes or more);
/// elsewhere it falls back to slice-by-8 table lookups. All paths
/// produce identical digests.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_update(!0, data) ^ !0
}
/// Streaming CRC-32C over discontiguous parts. Produces exactly the same
/// digest as [`crc32c`] over the concatenation, without requiring the
/// caller to materialize it:
///
/// ```
/// use blsm_storage::codec::{crc32c, Crc32c};
/// let mut h = Crc32c::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finish(), crc32c(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32c {
    state: u32,
}

impl Crc32c {
    /// A fresh hasher (digest of the empty string is 0).
    #[must_use]
    pub fn new() -> Crc32c {
        Crc32c { state: !0 }
    }

    /// Feeds `data` as the next chunk of the logical input.
    pub fn update(&mut self, data: &[u8]) {
        self.state = crc32c_update(self.state, data);
    }

    /// Finalizes and returns the digest. The hasher may keep being fed
    /// afterwards; `finish` does not consume it.
    #[must_use]
    pub fn finish(&self) -> u32 {
        self.state ^ !0
    }
}

impl Default for Crc32c {
    fn default() -> Crc32c {
        Crc32c::new()
    }
}

fn crc32c_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: guarded by the runtime feature check above.
            return unsafe { crc32c_update_hw(crc, data) };
        }
    }
    crc32c_update_sw(crc, data)
}

/// Bytes each of the three interleaved hardware streams covers per round.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
/// Three stripes (4 080 bytes) span a page's checksummed body (4 092
/// bytes) in one round.
const STRIPE: usize = 1360;

/// Inputs at least this long take the three-stream hardware path; below
/// it a single stream runs, since a round needs three full stripes.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const INTERLEAVE_MIN: usize = 3 * STRIPE;

/// Hardware CRC-32C: the SSE 4.2 `crc32` instruction folds 8 input bytes
/// per instruction over the same reflected Castagnoli polynomial the
/// table path uses. One stream is latency-bound (3 cycles per
/// instruction, 1 issued per cycle), so each [`INTERLEAVE_MIN`]-byte
/// round runs three independent streams over consecutive stripes and
/// joins them: the second and third start from state 0, and a state is
/// carried past the stripe after it by [`shift_stripe`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_update_hw(mut crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::_mm_crc32_u64;
    let mut rounds = data.chunks_exact(INTERLEAVE_MIN);
    for round in &mut rounds {
        let (a, rest) = round.split_at(STRIPE);
        let (b, c) = rest.split_at(STRIPE);
        let (mut sa, mut sb, mut sc) = (u64::from(crc), 0u64, 0u64);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            sa = _mm_crc32_u64(sa, le_word(wa));
            sb = _mm_crc32_u64(sb, le_word(wb));
            sc = _mm_crc32_u64(sc, le_word(wc));
        }
        crc = shift_stripe(shift_stripe(sa as u32) ^ sb as u32) ^ sc as u32;
    }
    crc32c_stream_hw(crc, rounds.remainder())
}

/// One hardware stream: 8 bytes per instruction, then the byte tail.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_stream_hw(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut state = u64::from(crc);
    for chunk in &mut chunks {
        state = _mm_crc32_u64(state, le_word(chunk));
    }
    let mut crc = state as u32;
    for &b in chunks.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

#[cfg(target_arch = "x86_64")]
fn le_word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(chunk.try_into().unwrap_or([0; 8]))
}

/// The raw CRC state `crc` carried past [`STRIPE`] zero bytes: the update
/// is linear over GF(2), so `update(s, data) = shift(s) ^ update(0, data)`
/// for any `STRIPE`-byte `data`, and the shift is a multiplication by
/// x^(8·STRIPE) mod P, read off four byte-indexed tables.
#[cfg(target_arch = "x86_64")]
fn shift_stripe(crc: u32) -> u32 {
    STRIPE_SHIFT[0][(crc & 0xff) as usize]
        ^ STRIPE_SHIFT[1][((crc >> 8) & 0xff) as usize]
        ^ STRIPE_SHIFT[2][((crc >> 16) & 0xff) as usize]
        ^ STRIPE_SHIFT[3][(crc >> 24) as usize]
}

/// Software CRC-32C, slice-by-8: eight parallel table lookups per 8-byte
/// word break the per-byte dependency chain of the classic loop.
fn crc32c_update_sw(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().unwrap_or([0; 4])) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap_or([0; 4]));
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    crc
}

const fn make_tables() -> [[u32; 256]; 8] {
    // TABLES[0] is the classic byte-at-a-time table over POLY;
    // TABLES[k][b] extends it by k zero bytes, so eight lookups fold a
    // whole little-endian u64 at once.
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Castagnoli polynomial, reflected (bit 31 is x^0).
const POLY: u32 = 0x82f6_3b78;

/// `a · b mod P` over GF(2), both reflected.
#[cfg(target_arch = "x86_64")]
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (1 << (31 - bit)) != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit += 1;
    }
    product
}

/// `STRIPE_SHIFT[k][v]` is `(v << 8k) · x^(8·STRIPE) mod P`, so the four
/// lookups in [`shift_stripe`] multiply a whole state by that power.
#[cfg(target_arch = "x86_64")]
const fn make_stripe_shift() -> [[u32; 256]; 4] {
    // x^(8·STRIPE): x^0 (bit 31) pushed through 8·STRIPE zero bits.
    let mut power = 1u32 << 31;
    let mut i = 0;
    while i < 8 * STRIPE {
        power = if power & 1 != 0 {
            (power >> 1) ^ POLY
        } else {
            power >> 1
        };
        i += 1;
    }
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut v = 0;
        while v < 256 {
            tables[k][v] = mul_mod_p(power, (v as u32) << (8 * k));
            v += 1;
        }
        k += 1;
    }
    tables
}

#[cfg(target_arch = "x86_64")]
static STRIPE_SHIFT: [[u32; 256]; 4] = make_stripe_shift();

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]
    use super::*;

    #[test]
    fn roundtrip_fixed_width() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xab);
        put_u16(&mut out, 0xbeef);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, 0x0123_4567_89ab_cdef);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_varint_boundaries() {
        let cases = [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut out = Vec::new();
        for &v in &cases {
            put_varint(&mut out, v);
        }
        let mut r = Reader::new(&out);
        for &v in &cases {
            assert_eq!(r.varint().unwrap(), v);
        }
    }

    #[test]
    fn roundtrip_bytes() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"");
        put_bytes(&mut out, b"hello");
        put_bytes(&mut out, &[0u8; 300]);
        let mut r = Reader::new(&out);
        assert_eq!(r.bytes().unwrap(), b"");
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.bytes().unwrap(), &[0u8; 300][..]);
    }

    #[test]
    fn decode_overrun_is_error() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u64().is_err());
    }

    #[test]
    fn truncated_varint_is_error() {
        let mut r = Reader::new(&[0x80, 0x80]);
        assert!(r.varint().is_err());
    }

    #[test]
    fn crc32c_known_vectors() {
        // Standard test vector: "123456789" -> 0xE3069283 for CRC-32C.
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
        assert_eq!(crc32c(b""), 0);
    }

    #[test]
    fn streaming_crc_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in [0, 1, 7, 20, data.len()] {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32c(data), "split at {split}");
        }
        // Three-way split with an empty middle chunk.
        let mut h = Crc32c::new();
        h.update(b"123");
        h.update(b"");
        h.update(b"456789");
        assert_eq!(h.finish(), 0xe306_9283);
        assert_eq!(Crc32c::new().finish(), 0);
    }

    fn random_bytes(len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                (x >> 24) as u8
            })
            .collect()
    }

    /// Byte-at-a-time raw update: the definition every path must match.
    fn reference_step(crc: u32, b: u8) -> u32 {
        (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xff) as usize]
    }

    #[test]
    fn crc_hw_and_sw_paths_agree() {
        // Every length through three interleaved rounds plus a tail, at
        // all eight alignments, each from its own random initial state:
        // the single-stream tail, the round seams and the joins of the
        // three streams are all checked against the byte-at-a-time
        // reference, which is extended one byte per length. The software
        // path (unchanged, and slow unoptimized) is sampled.
        const MAX: usize = 12_352;
        const { assert!(MAX > 3 * INTERLEAVE_MIN) };
        let data = random_bytes(MAX + 8, 0x1234_5678);
        let mut seed = 0x9e37_79b9_u32;
        for start in 0..8 {
            seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
            let init = seed;
            let input = &data[start..start + MAX];
            let mut want = init;
            for len in 0..=MAX {
                if len > 0 {
                    want = reference_step(want, input[len - 1]);
                }
                let slice = &input[..len];
                assert_eq!(crc32c_update(init, slice), want, "start={start} len={len}");
                if len < 64 || len % 509 == 0 {
                    assert_eq!(
                        crc32c_update_sw(init, slice),
                        want,
                        "sw start={start} len={len}"
                    );
                }
            }
        }
        // Known-answer vector (RFC 3720 §B.4 / iSCSI test pattern).
        assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    }

    #[test]
    fn streaming_crc_splits_across_the_interleave_threshold() {
        // A stream fed in two or three parts matches the one-shot digest
        // whichever parts reach a full round and whichever do not.
        let len = 2 * INTERLEAVE_MIN + 13;
        let data = random_bytes(len, 0xfeed);
        let whole = crc32c(&data);
        let around = |at: usize| at.saturating_sub(9)..(at + 10).min(len + 1);
        let splits = around(0)
            .chain(around(INTERLEAVE_MIN))
            .chain(around(len - INTERLEAVE_MIN))
            .chain(around(len));
        for split in splits {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
        for (a, b) in [
            (1, INTERLEAVE_MIN + 1),
            (INTERLEAVE_MIN - 1, 2 * INTERLEAVE_MIN),
        ] {
            let mut h = Crc32c::new();
            h.update(&data[..a]);
            h.update(&data[a..b]);
            h.update(&data[b..]);
            assert_eq!(h.finish(), whole, "splits at {a}, {b}");
        }
    }

    #[test]
    fn a_page_sealed_on_either_path_verifies_on_the_other() {
        use crate::page::{verify_page_image, Page, PageId, PageType, PAGE_SIZE};
        let mut page = Page::new(PageType::DataV2);
        page.payload_mut()
            .copy_from_slice(&random_bytes(PAGE_SIZE - 8, 0xabcd));
        // Sealed on the dispatching (on x86-64: interleaved) path, checked
        // on the software one.
        page.seal();
        let image = *page.raw();
        assert_eq!(crc32c_update_sw(!0, &image[4..]) ^ !0, le_u32(&image[..4]));
        // Sealed on the software path, verified on the dispatching one.
        let mut sw_sealed = image;
        sw_sealed[..4].copy_from_slice(&[0; 4]);
        let crc = crc32c_update_sw(!0, &sw_sealed[4..]) ^ !0;
        sw_sealed[..4].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(sw_sealed, image);
        assert_eq!(
            verify_page_image(&sw_sealed, PageId(3)).unwrap(),
            PageType::DataV2
        );
        sw_sealed[77] ^= 0x10;
        assert!(verify_page_image(&sw_sealed, PageId(3)).is_err());
    }

    #[test]
    fn reader_skip_advances() {
        let mut r = Reader::new(&[1, 2, 3, 4, 5]);
        r.skip(2).unwrap();
        assert_eq!(r.u8().unwrap(), 3);
        assert!(r.skip(5).is_err());
        assert_eq!(r.position(), 3);
    }

    #[test]
    fn crc32c_detects_bit_flips() {
        let mut data = b"the quick brown fox".to_vec();
        let c0 = crc32c(&data);
        data[3] ^= 1;
        assert_ne!(crc32c(&data), c0);
    }
}
