//! Property tests for the delta+varint trace codec: encode→decode
//! round-trips on arbitrary event sequences, checksum rejection of
//! single-byte corruption anywhere in the container, and early rejection
//! of forged (checksum-re-sealed) footer fields.

#![cfg(feature = "proptest-tests")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use arl_mem::PAGE_SIZE;
use arl_sim::Metrics;
use arl_trace::{container_checksum, Trace, TraceEvent};
use proptest::collection::vec;
use proptest::prelude::*;

/// Arbitrary events, mixing full-width random fields (worst case for the
/// delta encoder) with clustered pcs/addresses (the common small-delta
/// case the format is optimized for).
fn events() -> impl Strategy<Value = Vec<TraceEvent>> {
    let pc = prop_oneof![any::<u64>(), (0x10_000u64..0x11_000).prop_map(|p| p & !7)];
    let next_pc = prop_oneof![any::<u64>(), (0x10_000u64..0x11_000).prop_map(|p| p & !7)];
    let mem_addr = prop_oneof![
        Just(None),
        any::<u64>().prop_map(Some),
        (0x7000_0000u64..0x7000_2000).prop_map(Some),
    ];
    let value = prop_oneof![
        Just(None),
        any::<i64>().prop_map(Some),
        (-128i64..128).prop_map(Some),
    ];
    let event = (pc, next_pc, any::<bool>(), mem_addr, value).prop_map(
        |(pc, next_pc, taken, mem_addr, value)| TraceEvent {
            pc,
            next_pc,
            taken,
            mem_addr,
            value,
        },
    );
    vec(event, 0..64)
}

fn metrics() -> impl Strategy<Value = Metrics> {
    (0usize..1 << 20, 0usize..1 << 20, any::<bool>()).prop_map(
        |(resident_pages, output_values, exited)| Metrics {
            // The encoder ignores this field: `instructions` is rebuilt
            // from the footer's event count at decode time.
            instructions: 0,
            resident_pages,
            peak_rss_bytes: resident_pages as u64 * PAGE_SIZE,
            output_values,
            exited,
        },
    )
}

proptest! {
    #[test]
    fn round_trip_preserves_events(
        entry_pc in any::<u64>(),
        evs in events(),
        m in metrics(),
    ) {
        let trace = Trace::from_events(entry_pc, &evs, &m);
        prop_assert_eq!(trace.entry_pc(), entry_pc);
        prop_assert_eq!(trace.event_count(), evs.len() as u64);
        prop_assert_eq!(trace.events().expect("decode"), evs);

        let expect_metrics = Metrics { instructions: evs.len() as u64, ..m };
        prop_assert_eq!(trace.metrics(), expect_metrics);

        // Serialization is stable: re-adopting the bytes validates and
        // yields the identical trace.
        let reparsed = Trace::from_bytes(trace.as_bytes().to_vec()).expect("validate");
        prop_assert_eq!(reparsed, trace);
    }

    #[test]
    fn single_byte_corruption_is_always_rejected(
        entry_pc in any::<u64>(),
        evs in events(),
        pick in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let trace = Trace::from_events(entry_pc, &evs, &Metrics::default());
        let mut bytes = trace.as_bytes().to_vec();
        let at = (pick % bytes.len() as u64) as usize;
        bytes[at] ^= flip;
        prop_assert!(
            Trace::from_bytes(bytes).is_err(),
            "corrupting byte {} went undetected", at
        );
    }

    #[test]
    fn truncation_is_rejected(
        entry_pc in any::<u64>(),
        evs in events(),
        cut in 1usize..64,
    ) {
        let trace = Trace::from_events(entry_pc, &evs, &Metrics::default());
        let bytes = trace.as_bytes().to_vec();
        let keep = bytes.len().saturating_sub(cut);
        prop_assert!(Trace::from_bytes(bytes[..keep].to_vec()).is_err());
    }

    /// An attacker (or bit rot plus coincidence) can rewrite a footer
    /// field *and* re-seal the container checksum. The checksum then
    /// validates, so only the structural footer invariants stand between
    /// a forged event count and a huge decode loop: every event costs at
    /// least one body byte, so adoption itself must refuse the forgery.
    #[test]
    fn forged_event_count_is_rejected_at_adoption(
        entry_pc in any::<u64>(),
        evs in events(),
        excess in 1u64..1 << 40,
    ) {
        let trace = Trace::from_events(entry_pc, &evs, &Metrics::default());
        let mut bytes = trace.as_bytes().to_vec();
        // Container layout: 13-byte header, body, 25-byte footer (leading
        // with the u64 LE event count), 8-byte checksum.
        let body_len = bytes.len() - 13 - 33;
        let footer = bytes.len() - 33;
        let forged = body_len as u64 + excess;
        bytes[footer..footer + 8].copy_from_slice(&forged.to_le_bytes());
        let seal_at = bytes.len() - 8;
        let checksum = container_checksum(&bytes[..seal_at]);
        bytes[seal_at..].copy_from_slice(&checksum.to_le_bytes());

        // The container checksum is consistent, yet adoption must still
        // refuse the container outright.
        prop_assert!(Trace::from_bytes(bytes).is_err());
    }

    /// Same re-sealing attack against the exited flag: a non-boolean
    /// value survives the checksum but not the structural check.
    #[test]
    fn forged_exited_flag_is_rejected_at_adoption(
        entry_pc in any::<u64>(),
        evs in events(),
        forged in 2u8..=255,
    ) {
        let trace = Trace::from_events(entry_pc, &evs, &Metrics::default());
        let mut bytes = trace.as_bytes().to_vec();
        let exited_at = bytes.len() - 9;
        bytes[exited_at] = forged;
        let seal_at = bytes.len() - 8;
        let checksum = container_checksum(&bytes[..seal_at]);
        bytes[seal_at..].copy_from_slice(&checksum.to_le_bytes());

        prop_assert!(Trace::from_bytes(bytes).is_err());
    }
}
