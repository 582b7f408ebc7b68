//! Property tests for the profilers over synthetic trace streams.

#![cfg(feature = "proptest-tests")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use arl_isa::{Gpr, Inst, Width};
use arl_mem::Region;
use arl_sim::{MemAccess, RegionProfiler, SlidingWindowProfiler, TraceEntry, WorkloadCharacter};
use proptest::prelude::*;

fn entry(pc: u64, region: Option<Region>, is_load: bool) -> TraceEntry {
    TraceEntry {
        pc,
        inst: if region.is_some() {
            Inst::Load {
                width: Width::Double,
                signed: true,
                rd: Gpr::T0,
                base: Gpr::T1,
                offset: 0,
            }
        } else {
            Inst::Nop
        },
        mem: region.map(|r| MemAccess {
            addr: 0x1000_0000,
            width: Width::Double,
            is_load,
            region: r,
        }),
        taken: false,
        next_pc: pc + 8,
        gpr_write: None,
        ghr: 0,
        ra: 0,
    }
}

fn region_opt() -> impl Strategy<Value = Option<Region>> {
    prop_oneof![
        2 => Just(None),
        1 => Just(Some(Region::Data)),
        1 => Just(Some(Region::Heap)),
        1 => Just(Some(Region::Stack)),
    ]
}

fn trace() -> impl Strategy<Value = Vec<TraceEntry>> {
    proptest::collection::vec(
        (
            (0u64..64).prop_map(|i| 0x40_0000 + i * 8),
            region_opt(),
            any::<bool>(),
        ),
        1..500,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(pc, region, is_load)| entry(pc, region, is_load))
            .collect()
    })
}

proptest! {
    /// The breakdown's dynamic totals equal the reference count, and the
    /// static counts equal the number of distinct memory pcs.
    #[test]
    fn breakdown_is_an_exact_partition(t in trace()) {
        let mut p = RegionProfiler::new();
        let mut c = WorkloadCharacter::default();
        for e in &t {
            p.observe(e);
            c.observe(e);
        }
        let b = p.breakdown();
        prop_assert_eq!(b.dynamic_total(), c.references());
        let distinct_pcs: std::collections::HashSet<u64> =
            t.iter().filter(|e| e.mem.is_some()).map(|e| e.pc).collect();
        prop_assert_eq!(b.static_total() as usize, distinct_pcs.len());
        prop_assert_eq!(c.per_region.iter().sum::<u64>(), c.references());
        prop_assert_eq!(p.static_instructions(), distinct_pcs.len());
    }

    /// The sliding-window mean equals the whole-stream density × window
    /// size (up to edge effects, which vanish when the stream is an exact
    /// multiple of a repeating pattern).
    #[test]
    fn window_mean_matches_density(
        pattern in proptest::collection::vec(region_opt(), 1..32),
        reps in 8usize..32,
    ) {
        let window = pattern.len();
        let mut p = SlidingWindowProfiler::with_windows(&[window]);
        for _ in 0..reps {
            for (i, r) in pattern.iter().enumerate() {
                p.observe(&entry(0x40_0000 + i as u64 * 8, *r, true));
            }
        }
        let stats = &p.stats()[0];
        // Every full window over a periodic stream with period == window
        // holds exactly the per-period counts.
        for region in Region::DATA_REGIONS {
            let per_period = pattern.iter().flatten().filter(|&&r| r == region).count();
            prop_assert!((stats.mean(region) - per_period as f64).abs() < 1e-9);
            prop_assert!(stats.stddev(region) < 1e-9, "periodic stream has no variance");
        }
    }

    /// Observation order of non-overlapping pcs doesn't change the final
    /// breakdown (the profiler is a commutative accumulator per pc).
    #[test]
    fn breakdown_is_order_insensitive(t in trace()) {
        let mut forward = RegionProfiler::new();
        for e in &t {
            forward.observe(e);
        }
        let mut backward = RegionProfiler::new();
        for e in t.iter().rev() {
            backward.observe(e);
        }
        let (fb, bb) = (forward.breakdown(), backward.breakdown());
        prop_assert_eq!(fb.static_counts, bb.static_counts);
        prop_assert_eq!(fb.dynamic_counts, bb.dynamic_counts);
    }
}
