//! Property tests for the probe's span replay, one of the two mechanisms
//! the event-driven core's bit-identity rests on (the event wheel's
//! properties live with it in `src/wheel.rs`): a fast-forwarded span
//! replayed into the probe via `record_span` must be indistinguishable
//! from having recorded each skipped cycle individually — including the
//! stall-attribution conservation identity `useful + Σ stalls == cycles`.

#![cfg(feature = "proptest-tests")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use arl_timing::{CycleObs, Probe, Recorder, StallCause};
use proptest::prelude::*;

fn stall_for(index: usize) -> Option<StallCause> {
    if index == 0 {
        None
    } else {
        Some(StallCause::ALL[(index - 1) % StallCause::ALL.len()])
    }
}

fn obs_from(seed: (usize, usize, usize, usize, usize, usize)) -> CycleObs {
    let (rob, issued, lsq, lvaq, claims, stall) = seed;
    CycleObs {
        rob_occupancy: rob,
        issued,
        committed: usize::from(stall == 0),
        lsq_depth: lsq,
        lvaq_depth: lvaq,
        dcache_claims: claims,
        lvc_claims: claims / 2,
        stall: stall_for(stall),
    }
}

fn obs_seed() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize)> {
    (
        0usize..128,
        0usize..16,
        0usize..32,
        0usize..32,
        0usize..6,
        0usize..9,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `record_span(obs, n)` is indistinguishable from `n` individual
    /// `record(obs)` calls — counters, histograms, and the rendered JSON —
    /// and the conservation identity survives the replay.
    #[test]
    fn span_replay_conserves_attribution(
        spans in proptest::collection::vec((obs_seed(), 1u64..200), 1..30),
    ) {
        let mut bulk = Recorder::new();
        let mut naive = Recorder::new();
        for (seed, span) in spans {
            let obs = obs_from(seed);
            bulk.record_span(&obs, span);
            for _ in 0..span {
                naive.record(&obs);
            }
        }
        prop_assert_eq!(bulk.cycles(), naive.cycles());
        prop_assert_eq!(bulk.useful_cycles(), naive.useful_cycles());
        for &cause in StallCause::ALL.iter() {
            prop_assert_eq!(bulk.stall_cycles(cause), naive.stall_cycles(cause));
        }
        let attributed: u64 = StallCause::ALL.iter().map(|&c| bulk.stall_cycles(c)).sum();
        prop_assert_eq!(bulk.useful_cycles() + attributed, bulk.cycles());
        prop_assert_eq!(bulk.to_json().render(), naive.to_json().render());
    }
}
