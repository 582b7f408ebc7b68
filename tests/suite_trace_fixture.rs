//! Golden `.arltrace` fixture: the capture pipeline must reproduce a
//! checked-in trace byte-for-byte.
//!
//! `perl_tiny.arltrace` is the smallest suite workload (perl at
//! `Scale::tiny()`, 71,251 dynamic instructions). Any drift in the
//! functional simulator, the delta/varint codec, or the container layout
//! shows up here as a byte diff — and the pinned
//! container checksum additionally locks the on-disk artifact itself against
//! silent edits.
//!
//! Regenerate the fixture after an *intentional* format or simulator
//! change with:
//!
//! ```text
//! cargo test --test suite_trace_fixture -- --ignored regenerate
//! ```

use arl::sim::TraceSource;
use arl::trace::{capture, Replayer, Trace, VERSION};
use arl::workloads::{workload, Scale};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/perl_tiny.arltrace"
);

/// Container checksum (word-wise FNV-1a 64, `arl_trace::container_checksum`)
/// of the full fixture minus its own trailing checksum — the value
/// `Trace::checksum` reports. Pinned so simulator or codec drift cannot
/// hide behind a regenerated file.
const PINNED_CHECKSUM: u64 = 0xde9a_60ff_8396_a6de;

const PINNED_EVENTS: u64 = 71_251;

fn capture_fixture_workload() -> Trace {
    let spec = workload("perl").expect("perl workload");
    let program = spec.build(Scale::tiny());
    capture(&program, 200_000_000).expect("capture")
}

#[test]
fn golden_trace_fixture_reproduces_byte_for_byte() {
    let golden = std::fs::read(FIXTURE).expect("read fixture (regenerate with --ignored)");
    let captured = capture_fixture_workload();
    assert_eq!(
        captured.as_bytes().len(),
        golden.len(),
        "captured trace length diverged from the golden fixture"
    );
    assert_eq!(
        captured.as_bytes(),
        &golden[..],
        "captured trace bytes diverged from the golden fixture"
    );
    assert_eq!(captured.checksum(), PINNED_CHECKSUM, "checksum drifted");
    assert_eq!(captured.event_count(), PINNED_EVENTS);
}

#[test]
fn golden_trace_fixture_validates_and_replays() {
    let golden = std::fs::read(FIXTURE).expect("read fixture (regenerate with --ignored)");
    let trace = Trace::from_bytes(golden).expect("fixture must validate");
    assert_eq!(trace.version(), VERSION);
    assert_eq!(trace.checksum(), PINNED_CHECKSUM);
    assert_eq!(trace.event_count(), PINNED_EVENTS);
    assert!(trace.metrics().exited);

    let spec = workload("perl").expect("perl workload");
    let program = spec.build(Scale::tiny());
    let mut replayer = Replayer::new(&trace, &program).expect("replayer");
    let mut entries = 0u64;
    while let Some(entry) = replayer.next_entry().expect("replay") {
        assert_ne!(entry.pc, 0, "replayed entries carry real pcs");
        entries += 1;
    }
    assert_eq!(entries, PINNED_EVENTS);
    assert_eq!(replayer.metrics(), trace.metrics());
}

/// Not a test: rewrites the golden fixture from the current simulator.
/// Run explicitly after an intentional format change, then update the
/// pinned checksum above from the panic message of the byte-for-byte
/// test.
#[test]
#[ignore = "fixture regeneration helper"]
fn regenerate_golden_trace_fixture() {
    let captured = capture_fixture_workload();
    captured
        .write_to(std::path::Path::new(FIXTURE))
        .expect("write fixture");
    eprintln!(
        "wrote {FIXTURE}: {} bytes, {} events, checksum {:#018x}",
        captured.as_bytes().len(),
        captured.event_count(),
        captured.checksum()
    );
}
