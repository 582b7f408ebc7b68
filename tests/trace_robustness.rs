//! Trace-container robustness: truncation at *every* byte offset and
//! arbitrary byte corruption must surface as `SourceError::Corrupt`,
//! never a panic and never a silently-adopted trace.
//!
//! The exhaustive fixture sweep is feasible because `Trace::from_bytes`
//! validates the O(1) structural footer invariants before the O(n)
//! checksum: a truncated container lands its footer window on arbitrary
//! event-stream bytes, which trips a structural check, so the whole
//! 338K-offset sweep costs O(n) instead of O(n²) hashing.

use std::panic::{catch_unwind, AssertUnwindSafe};

use arl::sim::{Metrics, SourceError, TraceSource};
use arl::trace::{
    capture, container_checksum, Replayer, SnapshotRecord, Trace, TraceEvent, VERSION,
};
use arl::workloads::{workload, Scale};
use proptest::prelude::*;

const FIXTURE: &[u8] = include_bytes!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/perl_tiny.arltrace"
));

fn expect_corrupt(bytes: Vec<u8>, what: &str) {
    let result = catch_unwind(AssertUnwindSafe(|| Trace::from_bytes(bytes)));
    match result {
        Ok(Err(SourceError::Corrupt(_))) => {}
        Ok(Err(other)) => panic!("{what}: wrong error variant: {other}"),
        Ok(Ok(_)) => panic!("{what}: corrupt container was adopted"),
        Err(_) => panic!("{what}: Trace::from_bytes panicked"),
    }
}

/// A small synthetic trace with a non-trivial event mix, for the
/// exhaustive truncation-and-flip loops that would be too slow against
/// the full fixture.
fn small_trace_bytes() -> Vec<u8> {
    let events: Vec<TraceEvent> = (0..24)
        .map(|i| TraceEvent {
            pc: 0x10_000 + i * 8,
            next_pc: 0x10_000 + (i + 1) * 8,
            taken: i % 3 == 0,
            mem_addr: (i % 2 == 0).then_some(0x7000_0000 + i * 16),
            value: (i % 4 == 0).then_some(i as i64 - 7),
        })
        .collect();
    let metrics = Metrics {
        instructions: events.len() as u64,
        resident_pages: 3,
        peak_rss_bytes: 3 * 4096,
        output_values: 2,
        exited: true,
    };
    Trace::from_events(0x10_000, &events, &metrics)
        .as_bytes()
        .to_vec()
}

/// The golden fixture, truncated at every byte offset from 0 to len-1,
/// must always be rejected as corrupt without panicking.
#[test]
fn fixture_truncation_at_every_offset_is_rejected() {
    assert!(
        Trace::from_bytes(FIXTURE.to_vec()).is_ok(),
        "the untruncated fixture must validate"
    );
    for len in 0..FIXTURE.len() {
        expect_corrupt(
            FIXTURE[..len].to_vec(),
            &format!("fixture truncated to {len} bytes"),
        );
    }
}

/// Exhaustive truncation of a small synthetic trace: same invariant,
/// independent of the fixture's particular byte patterns.
#[test]
fn small_trace_truncation_at_every_offset_is_rejected() {
    let bytes = small_trace_bytes();
    assert!(Trace::from_bytes(bytes.clone()).is_ok());
    for len in 0..bytes.len() {
        expect_corrupt(
            bytes[..len].to_vec(),
            &format!("small trace truncated to {len} bytes"),
        );
    }
}

/// Exhaustive single-byte corruption of the small trace: every (offset,
/// XOR-mask) pair with a low-weight mask is rejected; a full 255-mask
/// sweep at every offset would be slow, so sweep all offsets with a few
/// masks and all masks at the structurally-interesting tail.
#[test]
fn small_trace_single_byte_flips_are_rejected() {
    let bytes = small_trace_bytes();
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= mask;
            expect_corrupt(corrupt, &format!("byte {at} xor {mask:#04x}"));
        }
    }
    // Footer + checksum window: every possible flip.
    for at in bytes.len() - 33..bytes.len() {
        for mask in 1u8..=255 {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= mask;
            expect_corrupt(corrupt, &format!("tail byte {at} xor {mask:#04x}"));
        }
    }
}

/// Container layout constants mirrored from the format docs, for the
/// forgery tests that splice and re-seal specific windows.
const CHECKSUM_LEN: usize = 8;
const FOOTER_LEN: usize = 25;
const HEADER_LEN: usize = 13;

/// Recomputes the trailing container checksum after tampering — the
/// strongest forgery a bit-flipping adversary with the format spec can
/// produce. Everything these tests reject is rejected *structurally*.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let at = bytes.len() - CHECKSUM_LEN;
    let sum = container_checksum(&bytes[..at]);
    bytes[at..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// A resume point is handed over through the checkpoint ledger, so it is
/// outside input. Forging its fields and re-sealing its own checksum — the
/// strongest forgery of a ledger's `"snapshot"` — still cannot smuggle a
/// bad cursor or span past `Replayer::open_span`, which refuses them in
/// O(1), before anything decodes.
#[test]
fn resealed_record_forgeries_are_rejected_in_o1() {
    let program = workload("go").expect("go workload").build(Scale::tiny());
    let trace = capture(&program, 5_000).expect("capture");
    let count = trace.event_count();
    let mut head = Replayer::open_span(&trace, &program, None, count / 2).expect("head span");
    while head.next_entry().expect("head replay").is_some() {}
    let genuine = head.snapshot();
    let body_len = (trace.as_bytes().len() - HEADER_LEN - FOOTER_LEN - CHECKSUM_LEN) as u64;
    let resealed = |record: &SnapshotRecord| {
        SnapshotRecord::from_bytes(&record.to_bytes()).expect("a resealed record decodes")
    };
    let refused = |record: &SnapshotRecord, end: u64| {
        matches!(
            Replayer::open_span(&trace, &program, Some(&resealed(record)), end),
            Err(SourceError::Corrupt(_))
        )
    };
    // Cursor pointing past the event stream.
    let mut bad_cursor = genuine;
    bad_cursor.body_pos = body_len + 1;
    assert!(refused(&bad_cursor, count), "oversized cursor must fail");
    // A start past the span's end, or past the event count.
    let mut bad_boundary = genuine;
    bad_boundary.inst_index = count + 1;
    assert!(refused(&bad_boundary, count), "start past the events");
    assert!(refused(&genuine, count / 2 - 1), "start past the end");
    assert!(refused(&genuine, count + 1), "end past the events");
    // The genuine point, resealed, replays exactly the tail.
    let mut tail =
        Replayer::open_span(&trace, &program, Some(&resealed(&genuine)), count).expect("tail");
    let mut n = 0u64;
    while tail.next_entry().expect("tail replay").is_some() {
        n += 1;
    }
    assert_eq!(n, count - count / 2);
}

/// Only version 5 decodes. The v5 fixture with its version byte
/// rewritten to 1 (the pre-snapshot format), 2 (the bytewise-checksum
/// format), 3 (the retired compiled-model format) or 4 (the format with
/// snapshot records inside the container), and its checksum re-sealed so
/// only the version check can fire, is refused with an error naming that
/// version.
#[test]
fn v1_v2_and_v3_containers_are_refused_naming_their_version() {
    assert!(Trace::from_bytes(FIXTURE.to_vec()).is_ok());
    for version in [1u8, 2, 3, 4] {
        let mut forged = FIXTURE.to_vec();
        forged[4] = version;
        match Trace::from_bytes(reseal(forged)) {
            Err(SourceError::Corrupt(msg)) => assert_eq!(
                msg,
                format!("unsupported trace version {version} (expected {VERSION})")
            ),
            Err(other) => panic!("version {version}: wrong error variant: {other}"),
            Ok(_) => panic!("version {version} container was adopted"),
        }
    }
}

proptest! {
    /// The 64-byte snapshot record codec round-trips every field value.
    #[test]
    fn snapshot_record_round_trips(
        inst_index in any::<u64>(),
        body_pos in any::<u64>(),
        prev_next_pc in any::<u64>(),
        prev_addr in any::<u64>(),
        prev_value in any::<i64>(),
        ghr in any::<u64>(),
        ra in any::<u64>(),
    ) {
        let record = SnapshotRecord {
            inst_index,
            body_pos,
            prev_next_pc,
            prev_addr,
            prev_value,
            ghr,
            ra,
        };
        let wire = record.to_bytes();
        prop_assert!(wire.len() == SnapshotRecord::LEN);
        let decoded = SnapshotRecord::from_bytes(&wire).expect("sealed record decodes");
        prop_assert!(decoded == record, "round trip changed the record");
    }

    /// Any single-byte flip in a serialized snapshot record — payload or
    /// embedded checksum — is rejected by the record's own O(1) check.
    #[test]
    fn snapshot_record_byte_flips_are_rejected(
        inst_index in any::<u64>(),
        body_pos in any::<u64>(),
        ghr in any::<u64>(),
        at in 0usize..SnapshotRecord::LEN,
        mask in 1u8..=255,
    ) {
        let record = SnapshotRecord {
            inst_index,
            body_pos,
            prev_next_pc: 0x10_000,
            prev_addr: 0x7000_0000,
            prev_value: -1,
            ghr,
            ra: 0x10_008,
        };
        let mut wire = record.to_bytes();
        wire[at] ^= mask;
        prop_assert!(
            SnapshotRecord::from_bytes(&wire).is_err(),
            "flipping record byte {} with mask {:#04x} went undetected", at, mask
        );
    }
}

proptest! {
    /// Sampled single-byte corruption across the full golden fixture.
    #[test]
    fn fixture_byte_flips_are_rejected(pick in any::<u64>(), mask in 1u8..=255) {
        let at = (pick % FIXTURE.len() as u64) as usize;
        let mut corrupt = FIXTURE.to_vec();
        corrupt[at] ^= mask;
        prop_assert!(
            matches!(Trace::from_bytes(corrupt), Err(SourceError::Corrupt(_))),
            "flipping fixture byte {} with mask {:#04x} went undetected", at, mask
        );
    }

    /// Sampled multi-point damage: truncate the fixture *and* corrupt a
    /// surviving byte — still never a panic, always `Corrupt`.
    #[test]
    fn fixture_truncate_then_flip_is_rejected(
        keep in 1usize..338_000,
        pick in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let keep = keep.min(FIXTURE.len() - 1);
        let mut corrupt = FIXTURE[..keep].to_vec();
        let at = (pick % corrupt.len() as u64) as usize;
        corrupt[at] ^= mask;
        expect_corrupt(corrupt, &format!("truncate to {keep} then flip byte {at}"));
    }
}
