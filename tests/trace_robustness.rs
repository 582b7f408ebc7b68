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

use arl::sim::{Metrics, SourceError};
use arl::trace::{
    capture_snapshotted_with, container_checksum, Replayer, SnapshotRecord, Trace, TraceEvent,
    VERSION,
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
const SNAP_TRAILER_LEN: usize = 16;
const HEADER_LEN: usize = 13;

/// A small *snapshotted* capture (the first few thousand instructions of
/// a real workload) for the exhaustive sweeps and the snapshot-forgery
/// tests: 5,000 events at interval 250 embeds 19 snapshot records.
const SNAP_EVENTS: u64 = 5_000;
const SNAP_INTERVAL: u64 = 250;

fn small_snapshotted() -> (arl::asm::Program, Trace) {
    let program = workload("go").expect("go workload").build(Scale::tiny());
    let trace =
        capture_snapshotted_with(&program, SNAP_EVENTS, SNAP_INTERVAL, |_| {}).expect("capture");
    assert_eq!(trace.event_count(), SNAP_EVENTS);
    assert_eq!(trace.snapshot_count(), (SNAP_EVENTS - 1) / SNAP_INTERVAL);
    (program, trace)
}

/// Recomputes the trailing container checksum after tampering — the
/// strongest forgery a bit-flipping adversary with the format spec can
/// produce. Everything these tests reject is rejected *structurally*.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let at = bytes.len() - CHECKSUM_LEN;
    let sum = container_checksum(&bytes[..at]);
    bytes[at..].copy_from_slice(&sum.to_le_bytes());
    bytes
}

/// Byte offset of the snapshot trailer (interval, count) in a v4 trace.
fn trailer_at(bytes: &[u8]) -> usize {
    bytes.len() - CHECKSUM_LEN - FOOTER_LEN - SNAP_TRAILER_LEN
}

/// Byte offset of snapshot record `i` in a v4 trace.
fn record_at(bytes: &[u8], i: usize) -> usize {
    let count = u64::from_le_bytes(
        bytes[trailer_at(bytes) + 8..trailer_at(bytes) + 16]
            .try_into()
            .unwrap(),
    ) as usize;
    trailer_at(bytes) - (count - i) * SnapshotRecord::LEN
}

/// The snapshotted capture, truncated at every byte offset, must always
/// be rejected — the snapshot section adds no resurrectable prefix.
#[test]
fn snapshotted_trace_truncation_at_every_offset_is_rejected() {
    let (_, trace) = small_snapshotted();
    let bytes = trace.as_bytes().to_vec();
    assert!(Trace::from_bytes(bytes.clone()).is_ok());
    for len in 0..bytes.len() {
        expect_corrupt(
            bytes[..len].to_vec(),
            &format!("snapshotted trace truncated to {len} bytes"),
        );
    }
}

/// Single-byte flips anywhere in the snapshotted capture — event stream,
/// snapshot records, trailer, footer, checksum — are all rejected. The
/// tail window (last snapshot record onward) gets every mask.
#[test]
fn snapshotted_trace_single_byte_flips_are_rejected() {
    let (_, trace) = small_snapshotted();
    let count = trace.snapshot_count() as usize;
    let bytes = trace.as_bytes().to_vec();
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= mask;
            expect_corrupt(corrupt, &format!("snapshotted byte {at} xor {mask:#04x}"));
        }
    }
    let last_record = record_at(&bytes, count - 1);
    for at in last_record..bytes.len() {
        for mask in 1u8..=255 {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= mask;
            expect_corrupt(corrupt, &format!("snapshot tail byte {at} xor {mask:#04x}"));
        }
    }
}

/// Forged snapshot-trailer fields *with the container checksum re-sealed*
/// must be refused by the O(1) structural invariants at adoption — before
/// any decode loop can trust them.
#[test]
fn resealed_trailer_forgeries_are_rejected_structurally() {
    let (_, trace) = small_snapshotted();
    let count = trace.snapshot_count();
    let bytes = trace.as_bytes().to_vec();
    let trailer = trailer_at(&bytes);
    let forge = |interval: u64, count: u64| {
        let mut forged = bytes.clone();
        forged[trailer..trailer + 8].copy_from_slice(&interval.to_le_bytes());
        forged[trailer + 8..trailer + 16].copy_from_slice(&count.to_le_bytes());
        reseal(forged)
    };
    // Count inflated past the container: the multiplication guard fires.
    expect_corrupt(forge(SNAP_INTERVAL, u64::MAX / 64), "absurd snapshot count");
    expect_corrupt(forge(SNAP_INTERVAL, u64::MAX), "overflowing snapshot count");
    // One extra record would place the last boundary at/after the event
    // count — structurally impossible for a genuine capture.
    expect_corrupt(forge(SNAP_INTERVAL, count + 1), "snapshot count + 1");
    // A zero interval with records present is meaningless.
    expect_corrupt(forge(0, count), "zero interval with records");
    // An interval pushing the last boundary past the stream end.
    expect_corrupt(forge(SNAP_EVENTS, count), "oversized interval");
    // interval × count overflow must not wrap around the boundary check.
    expect_corrupt(forge(u64::MAX / 2, 3), "interval × count overflow");
}

/// Undercounting the trailer by one (re-sealed) shifts which bytes are
/// read as records; adoption cannot catch that in O(1), but every
/// snapshot access then fails its own `(i+1) × interval` boundary check,
/// so no span replay can start from a misaligned record.
#[test]
fn resealed_undercount_fails_every_snapshot_access() {
    let (program, trace) = small_snapshotted();
    let count = trace.snapshot_count();
    let bytes = trace.as_bytes().to_vec();
    let trailer = trailer_at(&bytes);
    let mut forged = bytes;
    forged[trailer + 8..trailer + 16].copy_from_slice(&(count - 1).to_le_bytes());
    let adopted = Trace::from_bytes(reseal(forged)).expect("undercount passes O(1) adoption");
    for i in 0..count - 1 {
        assert!(
            adopted.snapshot(i).is_err(),
            "misaligned snapshot {i} must fail its boundary check"
        );
        assert!(
            Replayer::open_span(&adopted, &program, i + 1, count).is_err(),
            "no span may open from misaligned snapshot {i}"
        );
    }
    // Boundary 0 needs no snapshot record: the full replay still works.
    let mut full = Replayer::new(&adopted, &program).expect("full replay needs no snapshots");
    let mut n = 0u64;
    while arl::sim::TraceSource::next_entry(&mut full)
        .expect("replay")
        .is_some()
    {
        n += 1;
    }
    assert_eq!(n, SNAP_EVENTS);
}

/// Forging *record* fields with both checksums re-sealed (the record's
/// own and the container's) still cannot smuggle a bad resume cursor or
/// boundary past `Trace::snapshot` / `Replayer::open_span`.
#[test]
fn resealed_record_forgeries_are_rejected_in_o1() {
    let (program, trace) = small_snapshotted();
    let genuine = trace.snapshot(3).expect("genuine record");
    let body_len = {
        let bytes = trace.as_bytes();
        (record_at(bytes, 0) - HEADER_LEN) as u64
    };
    let splice = |record: &SnapshotRecord| {
        let bytes = trace.as_bytes().to_vec();
        let at = record_at(&bytes, 3);
        let mut forged = bytes;
        forged[at..at + SnapshotRecord::LEN].copy_from_slice(&record.to_bytes());
        Trace::from_bytes(reseal(forged)).expect("record forgeries pass container checks")
    };
    // Cursor pointing past the event stream.
    let mut bad_cursor = genuine;
    bad_cursor.body_pos = body_len + 1;
    let adopted = splice(&bad_cursor);
    assert!(adopted.snapshot(3).is_err(), "oversized cursor must fail");
    assert!(Replayer::open_span(&adopted, &program, 4, 6).is_err());
    // Boundary not equal to (i+1) × interval.
    let mut bad_boundary = genuine;
    bad_boundary.inst_index += 1;
    let adopted = splice(&bad_boundary);
    assert!(adopted.snapshot(3).is_err(), "shifted boundary must fail");
    assert!(Replayer::open_span(&adopted, &program, 4, 6).is_err());
    // Splicing a *valid* record into the wrong slot fails the same check.
    let neighbor = trace.snapshot(4).expect("neighbor record");
    let adopted = splice(&neighbor);
    assert!(
        adopted.snapshot(3).is_err(),
        "transplanted record must fail"
    );
    // Untampered slots stay readable — rejection is per-record, O(1).
    assert_eq!(adopted.snapshot(4).expect("slot 4 intact"), neighbor);
}

/// Only version 4 decodes. The v4 fixture with its version byte
/// rewritten to 1 (the pre-snapshot format), 2 (the bytewise-checksum
/// format) or 3 (the retired compiled-model format), and its checksum
/// re-sealed so only the version check can fire, is refused with an error
/// naming that version.
#[test]
fn v1_v2_and_v3_containers_are_refused_naming_their_version() {
    assert!(Trace::from_bytes(FIXTURE.to_vec()).is_ok());
    for version in [1u8, 2, 3] {
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
