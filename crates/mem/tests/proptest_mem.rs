//! Property tests for the memory substrate.

#![cfg(feature = "proptest-tests")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use arl_mem::{Layout, MemImage, Region};
use proptest::prelude::*;

proptest! {
    /// Region classification is a total partition of the address space:
    /// exactly one region per address, consistent with `is_stack`.
    #[test]
    fn classification_is_total_and_consistent(addr in any::<u64>()) {
        let layout = Layout::default();
        let region = layout.classify(addr);
        prop_assert_eq!(layout.is_stack(addr), region == Region::Stack);
    }

    /// Memory image: the last write wins and distinct addresses don't alias.
    #[test]
    fn image_writes_are_isolated(
        a in 0u64..1 << 40,
        b in 0u64..1 << 40,
        va in any::<u8>(),
        vb in any::<u8>(),
    ) {
        prop_assume!(a != b);
        let mut m = MemImage::new();
        m.write_u8(a, va);
        m.write_u8(b, vb);
        prop_assert_eq!(m.read_u8(a), va);
        prop_assert_eq!(m.read_u8(b), vb);
    }

    /// u64 round-trips at any (possibly unaligned, page-crossing) address.
    #[test]
    fn image_u64_round_trip(addr in 0u64..1 << 40, v in any::<u64>()) {
        let mut m = MemImage::new();
        m.write_u64(addr, v);
        prop_assert_eq!(m.read_u64(addr), v);
    }
}
