//! Frame-codec fuzzing: every decoder in the wire vocabulary must turn
//! arbitrary bytes into `Ok` or a typed `DecodeError`/`FrameError` —
//! never a panic. The generator is a xoshiro256** PRNG with a fixed
//! (env-overridable) seed, so a failing case is reproducible from the
//! printed case number alone.
//!
//! Knobs: `PQP_FUZZ_CASES` (default 12 000, the CI floor is 10 000) and
//! `PQP_FUZZ_SEED`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pqp_storage::Value;
use pqp_wire::repl::{LogEntry, MutationRecord, NodeStatus, ReplRequest, ReplResponse, Role};
use pqp_wire::{
    read_frame, ProfileOp, Request, Response, ShowRequest, WireError, MAX_FRAME_LEN,
    PROTOCOL_VERSION,
};

/// xoshiro256** — the workspace-standard generator (no external deps).
struct Xoshiro([u64; 4]);

impl Xoshiro {
    fn seeded(seed: u64) -> Xoshiro {
        // SplitMix64 expansion so a one-word seed fills the state well.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro([next(), next(), next(), next()])
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() & 0xFF) as u8).collect()
    }
}

fn cases() -> usize {
    std::env::var("PQP_FUZZ_CASES").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(12_000)
}

fn seed() -> u64 {
    std::env::var("PQP_FUZZ_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0x05EE_D0FC_0DEC)
}

/// A pool of valid encoded messages whose bytes the fuzzer mutates, so
/// the deep decode paths (length-prefixed strings, nested lists) get
/// exercised, not just the tag dispatch.
fn valid_pool() -> Vec<(u8, Vec<u8>)> {
    let requests = [
        Request::Hello { version: PROTOCOL_VERSION, user: "ana".into() },
        Request::Query {
            sql: "select MV.title from MOVIE MV".into(),
            options: None,
            rewrite: None,
        },
        Request::Prepare { sql: "select G.genre from GENRE G".into() },
        Request::Mutate(ProfileOp::AddSelection {
            table: "GENRE".into(),
            column: "genre".into(),
            value: Value::Str("comedy".into()),
            doi: 0.8,
        }),
        Request::Mutate(ProfileOp::AddJoin {
            from_table: "MOVIE".into(),
            from_column: "mid".into(),
            to_table: "GENRE".into(),
            to_column: "mid".into(),
            doi: 0.9,
        }),
        Request::Mutate(ProfileOp::Remove),
        Request::Show(ShowRequest::Queries { limit: Some(5) }),
        Request::Close,
    ];
    let responses = [
        Response::HelloOk { version: PROTOCOL_VERSION, server: "pqp-server/0.1.0".into() },
        Response::PrepareOk { canonical: "SELECT MV.title FROM MOVIE MV".into() },
        Response::MutateOk { epoch: 42, removed: true },
        Response::Error(WireError::protocol("fuzz")),
        Response::Bye,
        Response::Redirect { addr: "127.0.0.1:5433".into() },
    ];
    let record = MutationRecord { user: "ana".into(), op: ProfileOp::Remove }.encode();
    let repl_requests = [
        ReplRequest::Hello {
            version: PROTOCOL_VERSION,
            node_id: "node-1".into(),
            term: 3,
            token: "fuzz-token".into(),
            last_seq: 9,
            last_term: 3,
        },
        ReplRequest::Append {
            term: 3,
            prev_seq: 0,
            prev_term: 0,
            entries: vec![LogEntry { term: 3, seq: 1, payload: record.clone() }],
        },
        ReplRequest::Snapshot { term: 3, last_seq: 9, last_term: 3, data: record },
        ReplRequest::Status,
        ReplRequest::Promote { term: 4, token: "fuzz-token".into() },
    ];
    let repl_responses = [
        ReplResponse::Ok { term: 3, ack_seq: 9, ack_term: 3 },
        ReplResponse::Reject { term: 5, last_seq: 2, reason: "stale term".into() },
        ReplResponse::Status(NodeStatus {
            node_id: "node-2".into(),
            role: Role::Follower,
            term: 3,
            last_seq: 9,
            durable_seq: 9,
            last_term: 3,
        }),
    ];
    requests
        .iter()
        .map(Request::encode)
        .chain(responses.iter().map(Response::encode))
        .chain(repl_requests.iter().map(ReplRequest::encode))
        .chain(repl_responses.iter().map(ReplResponse::encode))
        .collect()
}

/// Feed one (tag, payload) to every decoder; a panic in any of them
/// fails the test with enough context to replay the exact case.
fn decode_all(case: usize, tag: u8, payload: &[u8]) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ = Request::decode(tag, payload);
        let _ = Response::decode(tag, payload);
        let _ = ReplRequest::decode(tag, payload);
        let _ = ReplResponse::decode(tag, payload);
        let _ = MutationRecord::decode(payload);
    }));
    assert!(
        outcome.is_ok(),
        "decoder panicked: case {case}, tag {tag:#04x}, payload ({} bytes) {payload:02x?}",
        payload.len(),
    );
}

#[test]
fn decoders_never_panic_on_arbitrary_bytes() {
    let mut rng = Xoshiro::seeded(seed());
    let pool = valid_pool();
    let total = cases();
    for case in 0..total {
        let (tag, payload) = match case % 3 {
            // Pure noise: random tag, random payload.
            0 => {
                let tag = (rng.next() & 0xFF) as u8;
                let len = rng.below(256);
                (tag, rng.bytes(len))
            }
            // Valid message, bit-flipped: exercises the deep field
            // decoders past the tag dispatch.
            1 => {
                let (tag, bytes) = &pool[rng.below(pool.len())];
                let mut mutated = bytes.clone();
                if !mutated.is_empty() {
                    for _ in 0..1 + rng.below(8) {
                        let at = rng.below(mutated.len());
                        mutated[at] ^= 1 << rng.below(8);
                    }
                }
                (*tag, mutated)
            }
            // Valid message, truncated or extended: length-prefix lies.
            _ => {
                let (tag, bytes) = &pool[rng.below(pool.len())];
                let mut mutated = bytes.clone();
                if rng.below(2) == 0 {
                    mutated.truncate(rng.below(mutated.len() + 1));
                } else {
                    let extra = 1 + rng.below(16);
                    mutated.extend(rng.bytes(extra));
                }
                (*tag, mutated)
            }
        };
        decode_all(case, tag, &payload);
    }
}

#[test]
fn frame_reader_never_panics_on_arbitrary_streams() {
    let mut rng = Xoshiro::seeded(seed() ^ 0xF4A3E);
    let total = cases();
    for case in 0..total {
        let buf = match case % 2 {
            // Raw noise, including buffers shorter than a header.
            0 => {
                let len = rng.below(64);
                rng.bytes(len)
            }
            // Plausible header (declared length near the real payload
            // size, sometimes lying in either direction) + noise body.
            _ => {
                let body = rng.below(48);
                let lie = rng.below(9) as i64 - 4;
                let declared = ((body + 1) as i64 + lie).max(0) as u32;
                let mut buf = declared.to_be_bytes().to_vec();
                buf.push((rng.next() & 0xFF) as u8); // tag
                buf.extend(rng.bytes(body));
                buf
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut cursor = std::io::Cursor::new(&buf);
            // Either a frame or a typed FrameError; never a panic. A
            // tiny max_len on odd cases exercises the oversize guard.
            let max = if case % 5 == 0 { 16 } else { MAX_FRAME_LEN };
            let _ = read_frame(&mut cursor, max);
        }));
        assert!(
            outcome.is_ok(),
            "read_frame panicked: case {case}, buf ({} bytes) {buf:02x?}",
            buf.len(),
        );
    }
}

#[test]
fn round_trip_survives_the_pool() {
    // Sanity on the generator pool itself: everything in it decodes
    // back to success (the fuzz tests would quietly lose coverage if a
    // pool entry were malformed to begin with).
    for (tag, payload) in valid_pool() {
        let ok = Request::decode(tag, &payload).is_ok()
            || Response::decode(tag, &payload).is_ok()
            || ReplRequest::decode(tag, &payload).is_ok()
            || ReplResponse::decode(tag, &payload).is_ok();
        assert!(ok, "pool entry with tag {tag:#04x} decodes with no decoder");
    }
}
