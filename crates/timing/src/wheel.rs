//! The event wheel behind the event-driven timing core.
//!
//! The wheel is a min-ordered schedule of *wake-up cycles*: every time the
//! pipeline arms a threshold that can change machine state in the future —
//! an FU completion, a memory return, an address-generation finish, a
//! redirect re-issue — it schedules that cycle here. When a simulated
//! cycle turns out to be a provable no-op, the core asks the wheel (and
//! the memory system) for the next pending wake-up and jumps straight to
//! the cycle before it, replaying the skipped span's per-cycle effects in
//! bulk.
//!
//! Correctness rests on two invariants, both enforced here and checked by
//! the property tests below:
//!
//! 1. **Never skip past a pending event.** [`EventWheel::upcoming`] returns
//!    the exact minimum of every scheduled cycle still in the future, so a
//!    fast-forward bounded by it can never jump over a wake-up.
//! 2. **Never schedule into the past.** Events at or before the wheel's
//!    horizon (the last cycle handed to [`EventWheel::advance_to`]) are
//!    already due — the currently executing cycle handles them — so they
//!    are discarded instead of stored, and can never surface later as a
//!    stale "next event" behind the current cycle.
//!
//! Spurious *future* events are harmless by design: waking up on a cycle
//! where nothing happens merely executes one regular (no-op) cycle and
//! fast-forwards again. Missing events are the only hazard, which is why
//! the pipeline schedules on every threshold write.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel meaning "no cycle": matches the pipeline's unknown-threshold
/// encoding, so unknown completion times can be scheduled unconditionally.
const NO_CYCLE: u64 = u64::MAX;

/// Ring capacity: one slot per cycle in the near-future window. Must be a
/// power of two, and larger than any common pipeline latency so the
/// overflow heap stays cold.
const WINDOW: usize = 256;

/// A min-schedule of future wake-up cycles for the event-driven core.
///
/// Near-future events (within `WINDOW` = 256 cycles of the horizon) live in a
/// timing ring: slot `at % WINDOW` stores the scheduled cycle itself.
/// Within any `(horizon, horizon + WINDOW]` span a slot can name exactly
/// one cycle, so an overwrite either repeats the same value or replaces a
/// stale (already elapsed) one — scheduling is one store, duplicates
/// dedupe for free, and nothing needs clearing as the horizon moves.
/// Events farther out go to a (rarely used) min-heap.
#[derive(Clone, Debug)]
pub(crate) struct EventWheel {
    /// `ring[c % WINDOW] == c` ⇔ a wake-up is scheduled at cycle `c`, for
    /// `c` in `(horizon, horizon + WINDOW]`. Other values are stale.
    ring: Box<[u64]>,
    /// Events more than [`WINDOW`] cycles out.
    overflow: BinaryHeap<Reverse<u64>>,
    /// The current cycle: everything at or before it has elapsed.
    horizon: u64,
}

impl Default for EventWheel {
    fn default() -> EventWheel {
        EventWheel {
            ring: vec![NO_CYCLE; WINDOW].into_boxed_slice(),
            overflow: BinaryHeap::new(),
            horizon: 0,
        }
    }
}

impl EventWheel {
    /// Creates an empty wheel at horizon 0.
    pub(crate) fn new() -> EventWheel {
        EventWheel::default()
    }

    /// Schedules a wake-up at cycle `at`. Events at or before the horizon
    /// (already due) and the `u64::MAX` "no cycle" sentinel are discarded.
    #[inline]
    pub(crate) fn schedule(&mut self, at: u64) {
        if at > self.horizon && at != NO_CYCLE {
            if at - self.horizon <= WINDOW as u64 {
                self.ring[at as usize & (WINDOW - 1)] = at;
            } else {
                self.overflow.push(Reverse(at));
            }
        }
    }

    /// Advances the horizon to `now`, retiring every event at or before
    /// it. The horizon never moves backwards.
    #[inline]
    pub(crate) fn advance_to(&mut self, now: u64) {
        if now > self.horizon {
            self.horizon = now;
        }
        // Ring slots behind the horizon go stale by definition (their
        // stored cycle no longer matches any future slot owner); only the
        // overflow needs explicit retiring.
        while let Some(&Reverse(at)) = self.overflow.peek() {
            if at > self.horizon {
                break;
            }
            self.overflow.pop();
        }
    }

    /// The earliest scheduled cycle strictly after the horizon, or `None`
    /// when nothing is pending. Scans the ring window (only ever called on
    /// provably idle cycles, once per fast-forwarded span).
    pub(crate) fn upcoming(&self) -> Option<u64> {
        let ring_min = (self.horizon + 1..=self.horizon + WINDOW as u64)
            .find(|&c| self.ring[c as usize & (WINDOW - 1)] == c);
        let over_min = self.overflow.peek().map(|&Reverse(at)| at);
        match (ring_min, over_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Every pending wake-up cycle — ring matches plus overflow contents
    /// (overflow duplicates included) — sorted ascending. Serialization
    /// support for sharded replay: re-[`EventWheel::schedule`]-ing the list
    /// on a fresh wheel advanced to the same horizon reconstructs an
    /// equivalent wheel.
    pub(crate) fn pending(&self) -> Vec<u64> {
        let mut v: Vec<u64> = (self.horizon + 1..=self.horizon + WINDOW as u64)
            .filter(|&c| self.ring[c as usize & (WINDOW - 1)] == c)
            .collect();
        v.extend(self.overflow.iter().map(|&Reverse(at)| at));
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventWheel {
        /// Number of distinct pending wake-up cycles (the ring dedupes
        /// same-cycle schedules; overflow entries may still hold duplicates).
        fn len(&self) -> usize {
            let ring = (self.horizon + 1..=self.horizon + WINDOW as u64)
                .filter(|&c| self.ring[c as usize & (WINDOW - 1)] == c)
                .count();
            ring + self.overflow.len()
        }

        fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[test]
    fn returns_exact_minimum_of_future_events() {
        let mut w = EventWheel::new();
        for at in [50, 7, 19, 7, 1000] {
            w.schedule(at);
        }
        assert_eq!(w.upcoming(), Some(7));
        w.advance_to(7);
        assert_eq!(w.upcoming(), Some(19));
        w.advance_to(18);
        assert_eq!(w.upcoming(), Some(19));
        w.advance_to(999);
        assert_eq!(w.upcoming(), Some(1000));
        w.advance_to(1000);
        assert_eq!(w.upcoming(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn past_events_are_discarded_not_stored() {
        let mut w = EventWheel::new();
        w.advance_to(100);
        w.schedule(100); // at the horizon: already due
        w.schedule(42); // strictly past
        assert!(w.is_empty());
        assert_eq!(w.upcoming(), None);
        w.schedule(101);
        assert_eq!(w.upcoming(), Some(101));
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn sentinel_is_never_scheduled() {
        let mut w = EventWheel::new();
        w.schedule(u64::MAX);
        assert!(w.is_empty());
    }

    #[test]
    fn horizon_is_monotone() {
        let mut w = EventWheel::new();
        w.advance_to(10);
        w.advance_to(3);
        assert_eq!(w.horizon, 10);
        w.schedule(5);
        assert!(w.is_empty(), "events behind the horizon are dropped");
    }

    #[test]
    fn duplicates_dedupe_and_retire() {
        let mut w = EventWheel::new();
        w.schedule(4);
        w.schedule(4);
        w.schedule(9);
        assert_eq!(w.len(), 2, "same-cycle schedules dedupe in the ring");
        w.advance_to(4);
        assert_eq!(w.len(), 1);
        assert_eq!(w.upcoming(), Some(9));
    }

    #[test]
    fn far_future_events_cross_the_ring_window() {
        let mut w = EventWheel::new();
        w.schedule(5000); // beyond the ring window: overflow
        w.schedule(3);
        assert_eq!(w.upcoming(), Some(3));
        w.advance_to(3);
        assert_eq!(w.upcoming(), Some(5000));
        // A ring event that aliases the overflow slot must coexist.
        w.advance_to(4800);
        w.schedule(4900);
        assert_eq!(w.upcoming(), Some(4900));
        w.advance_to(4900);
        assert_eq!(w.upcoming(), Some(5000));
        w.advance_to(5000);
        assert!(w.is_empty());
    }

    #[cfg(feature = "proptest-tests")]
    mod props {
        use super::*;
        use proptest::strategy::Strategy;

        /// One random wheel interaction.
        #[derive(Clone, Copy, Debug)]
        enum Op {
            /// Schedule an event at an absolute cycle.
            Schedule(u64),
            /// Advance the horizon forward by this many cycles.
            Advance(u64),
        }

        fn op() -> impl Strategy<Value = Op> {
            proptest::prop_oneof![
                (0u64..500).prop_map(Op::Schedule),
                (0u64..40).prop_map(Op::Advance),
            ]
        }

        /// Reference model: a plain sorted multiset of scheduled cycles plus the
        /// same horizon rule, kept deliberately naive.
        #[derive(Default)]
        struct ModelWheel {
            pending: Vec<u64>,
            horizon: u64,
        }

        impl ModelWheel {
            fn schedule(&mut self, at: u64) {
                if at > self.horizon && at != u64::MAX {
                    self.pending.push(at);
                }
            }

            fn advance_to(&mut self, now: u64) {
                if now > self.horizon {
                    self.horizon = now;
                }
                self.pending.retain(|&at| at > self.horizon);
            }

            fn upcoming(&self) -> Option<u64> {
                self.pending.iter().copied().min()
            }
        }

        proptest::proptest! {
            #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The wheel tracks the reference model exactly: after any operation
        /// sequence, `upcoming()` is the true minimum pending future event —
        /// so fast-forwarding to `upcoming()` can never skip past an event.
        #[test]
        fn wheel_never_loses_or_reorders_events(ops in proptest::collection::vec(op(), 1..80)) {
            let mut wheel = EventWheel::new();
            let mut model = ModelWheel::default();
            for o in ops {
                match o {
                    Op::Schedule(at) => {
                        wheel.schedule(at);
                        model.schedule(at);
                    }
                    Op::Advance(delta) => {
                        let now = model.horizon.saturating_add(delta);
                        wheel.advance_to(now);
                        model.advance_to(now);
                    }
                }
                proptest::prop_assert_eq!(wheel.upcoming(), model.upcoming());
                proptest::prop_assert_eq!(wheel.horizon, model.horizon);
                if let Some(next) = wheel.upcoming() {
                    proptest::prop_assert!(next > wheel.horizon, "event at or before the horizon");
                }
            }
        }

        /// Events scheduled at or before the horizon are dropped and can never
        /// surface later, even after further advances.
        #[test]
        fn wheel_never_schedules_into_the_past(
            horizon in 1u64..1000,
            offsets in proptest::collection::vec(0u64..50, 1..20),
        ) {
            let mut wheel = EventWheel::new();
            wheel.advance_to(horizon);
            for off in offsets {
                wheel.schedule(horizon - off.min(horizon));
            }
            proptest::prop_assert_eq!(wheel.upcoming(), None);
            wheel.advance_to(horizon + 1_000);
            proptest::prop_assert_eq!(wheel.upcoming(), None);
            proptest::prop_assert!(wheel.is_empty());
        }
        }
    }
}
