//! Property-based robustness tests for the wire codec: round-trips over
//! arbitrary requests/responses, arbitrary chunking of the byte stream,
//! and hostile inputs (garbage prefixes, truncations, random noise) that
//! must produce errors or "wait for more" — never a panic.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    missing_debug_implementations
)]

use proptest::prelude::*;

use blsm::TreeStatsSnapshot;
use blsm_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, ErrKind, FrameDecoder,
    Request, Response, WireScrubReport, WireStats, FRAME_HEADER,
};

fn small_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..64)
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        1 => Just(Request::Ping),
        1 => Just(Request::Stats),
        1 => Just(Request::Shutdown),
        1 => Just(Request::Scrub),
        4 => small_bytes().prop_map(|key| Request::Get { key }),
        4 => (small_bytes(), small_bytes()).prop_map(|(key, value)| Request::Put { key, value }),
        2 => small_bytes().prop_map(|key| Request::Delete { key }),
        2 => (small_bytes(), small_bytes())
            .prop_map(|(key, value)| Request::InsertIfNotExists { key, value }),
        2 => (small_bytes(), small_bytes())
            .prop_map(|(key, delta)| Request::ApplyDelta { key, delta }),
        2 => (small_bytes(), any::<bool>(), small_bytes(), any::<u32>()).prop_map(
            |(from, bounded, to, limit)| Request::Scan {
                from,
                to: bounded.then_some(to),
                limit,
            }
        ),
    ]
}

/// An engine snapshot in which every named field and every histogram
/// bucket holds a value that no other field of any `scope` (the store,
/// each shard) holds: `i ↦ seed + i·odd` is injective mod 2^64. A field
/// the codec dropped, swapped or truncated cannot round-trip unnoticed.
fn distinct_snapshot(seed: u64, scope: u64) -> TreeStatsSnapshot {
    let mut next =
        (scope << 8..).map(|i| seed.wrapping_add((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let mut snap = TreeStatsSnapshot::default();
    let names: Vec<&str> = snap.named().map(|(name, _)| name).collect();
    for name in names {
        assert!(snap.set_named(name, next.next().unwrap()));
    }
    for (_, buckets) in snap.histograms_mut() {
        buckets.fill_with(|| next.next().unwrap());
    }
    snap
}

fn response_strategy() -> impl Strategy<Value = Response> {
    prop_oneof![
        1 => Just(Response::Ok),
        2 => (any::<bool>(), small_bytes())
            .prop_map(|(some, v)| Response::Value(some.then_some(v))),
        2 => proptest::collection::vec((small_bytes(), small_bytes()), 0..8)
            .prop_map(Response::Rows),
        1 => any::<bool>().prop_map(Response::Inserted),
        1 => any::<u32>().prop_map(|backoff_ms| Response::RetryLater { backoff_ms }),
        1 => (any::<u8>(), small_bytes()).prop_map(|(k, b)| Response::Err {
            kind: match k % 4 {
                0 => ErrKind::Corruption,
                1 => ErrKind::Io,
                2 => ErrKind::Invalid,
                _ => ErrKind::Other,
            },
            message: String::from_utf8_lossy(&b).into_owned(),
        }),
        1 => (any::<u64>(), proptest::collection::vec(small_bytes(), 0..4)).prop_map(
            |(n, errs)| Response::ScrubReport(WireScrubReport {
                components: n % 4,
                pages: n,
                entries: n.wrapping_mul(17),
                errors: errs
                    .into_iter()
                    .map(|b| String::from_utf8_lossy(&b).into_owned())
                    .collect(),
            })
        ),
        1 => (any::<u64>(), any::<u64>(), any::<u16>()).prop_map(|(a, b, p)| {
            Response::Stats(WireStats {
                admitted: a,
                delayed: b,
                rejected: a & b,
                engine: distinct_snapshot(a, 0),
                shards: (0..(p % 5) as u32)
                    .map(|i| blsm_server::WireShardStats {
                        shard: i,
                        admitted: a >> i,
                        delayed: b >> i,
                        rejected: (a & b) >> i,
                        engine: ((a >> i) & 1 == 0).then(|| distinct_snapshot(a, u64::from(i) + 1)),
                    })
                    .collect(),
                repl: (p & 2 == 0).then(|| blsm_server::WireReplStats {
                    node_id: a % 7,
                    role: match p % 3 {
                        0 => blsm_server::ReplRole::Standalone,
                        1 => blsm_server::ReplRole::Leader,
                        _ => blsm_server::ReplRole::Follower,
                    },
                    epoch: b % 101,
                    applied_seqno: a.wrapping_mul(3),
                    acked_lsn: b.wrapping_mul(5),
                    lag_bytes: a ^ u64::from(p),
                }),
            })
        }),
    ]
}

proptest! {
    #[test]
    fn request_roundtrip(id in any::<u64>(), req in request_strategy()) {
        let mut wire = Vec::new();
        encode_request(&mut wire, id, &req).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let payload = dec.next_frame().unwrap().unwrap();
        let (got_id, got) = decode_request(&payload).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, req);
    }

    #[test]
    fn response_roundtrip(id in any::<u64>(), resp in response_strategy()) {
        let mut wire = Vec::new();
        encode_response(&mut wire, id, &resp).unwrap();
        let (got_id, got) = decode_response(&wire[FRAME_HEADER..]).unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, resp);
    }

    /// A stream of valid frames fed in arbitrary chunk sizes comes out
    /// identical, regardless of where the chunk boundaries tear frames.
    #[test]
    fn arbitrary_chunking_preserves_frames(
        reqs in proptest::collection::vec(request_strategy(), 1..8),
        chunk in 1usize..32,
    ) {
        let mut wire = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            encode_request(&mut wire, i as u64, req).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for piece in wire.chunks(chunk) {
            dec.feed(piece);
            while let Some(payload) = dec.next_frame().unwrap() {
                decoded.push(decode_request(&payload).unwrap());
            }
        }
        prop_assert_eq!(decoded.len(), reqs.len());
        for (i, (id, req)) in decoded.into_iter().enumerate() {
            prop_assert_eq!(id, i as u64);
            prop_assert_eq!(&req, &reqs[i]);
        }
    }

    /// Random bytes thrown at the decoder either yield frames whose
    /// decode fails cleanly, signal a framing error, or wait for more
    /// input. Whatever happens, nothing panics.
    #[test]
    fn random_noise_never_panics(noise in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut dec = FrameDecoder::with_max(4096);
        dec.feed(&noise);
        loop {
            match dec.next_frame() {
                Ok(Some(payload)) => {
                    // Both decoders must fail or succeed without panicking.
                    let _ = decode_request(&payload);
                    let _ = decode_response(&payload);
                }
                Ok(None) => break,
                Err(_) => break, // unframable: connection would be dropped
            }
        }
    }

    /// Truncating a valid frame anywhere cannot crash the payload
    /// decoders: a cut inside the payload either waits (frame decoder)
    /// or errors (payload decoder) — never panics, never fabricates.
    #[test]
    fn truncation_is_error_or_wait(req in request_strategy(), keep in 0usize..128) {
        let mut wire = Vec::new();
        encode_request(&mut wire, 5, &req).unwrap();
        let cut = keep.min(wire.len());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..cut]);
        match dec.next_frame().unwrap() {
            Some(payload) => {
                // A complete frame only comes out if the cut kept it whole.
                prop_assert_eq!(cut, wire.len());
                decode_request(&payload).unwrap();
            }
            None => prop_assert!(cut < wire.len()),
        }
        // Truncated *payloads* handed straight to the decoder must error.
        if cut > FRAME_HEADER && cut < wire.len() {
            prop_assert!(decode_request(&wire[FRAME_HEADER..cut]).is_err());
        }
    }

    /// A garbage prefix before a valid frame is detected as a framing
    /// error (when the fake length is oversized) or as a payload decode
    /// error — the decoder never silently resynchronizes onto garbage.
    #[test]
    fn garbage_prefix_is_detected(
        prefix in proptest::collection::vec(any::<u8>(), 1..16),
        req in request_strategy(),
    ) {
        let mut wire = prefix.clone();
        encode_request(&mut wire, 1, &req).unwrap();
        let mut dec = FrameDecoder::with_max(1 << 16);
        dec.feed(&wire);
        // Drain: every outcome is defined; none may panic.
        loop {
            match dec.next_frame() {
                Ok(Some(payload)) => {
                    let _ = decode_request(&payload);
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }
}
