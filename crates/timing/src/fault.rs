//! Deterministic fault descriptors for the timing model.
//!
//! A [`TimingFault`] is a fully materialized, seedless description of one
//! hardware upset: *what* breaks, *where*, and *when* (in deterministic
//! simulation coordinates — ARPT lookup counts or pipeline cycles — never
//! wall clock). The seeded planning layer lives in `arl-faults`; this
//! module only defines the injection points the pipeline and memory
//! system honour, so a config with an empty fault list simulates exactly
//! as before.
//!
//! Every fault carries an `id` chosen by the planner. The pipeline records
//! the ids of faults that actually fired in
//! [`crate::SimStats::faults_applied`], so downstream effects (recovery
//! counts, cycle deltas) are attributable to a specific injection.

use crate::cache::Route;

/// One materialized hardware fault to inject during a timing run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimingFault {
    /// Planner-assigned identifier, echoed in
    /// [`crate::SimStats::faults_applied`] when the fault fires.
    pub id: u32,
    /// What breaks.
    pub kind: FaultKind,
}

/// The injection point and payload of a [`TimingFault`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// A soft error in the ARPT array: XOR `mask` into the entry selected
    /// by `slot` immediately before the `at_lookup`-th counted lookup.
    /// The table is tagless, so index-path and state-bit strikes are both
    /// modeled as corrupting an arbitrary entry's state.
    ArptSoftError {
        /// Entry selector (wrapped modulo the table size).
        slot: u64,
        /// State bits to flip (clamped to the two counter bits).
        mask: u8,
        /// Fires just before this lookup count is reached.
        at_lookup: u64,
    },
    /// A first-level port blackout: `route` accepts no new accesses during
    /// cycles `[start_cycle, start_cycle + cycles)`.
    PortBlackout {
        /// The structure that goes dark ([`Route::Lvc`] degrades to the
        /// data cache on machines without an LVC).
        route: Route,
        /// First blacked-out cycle.
        start_cycle: u64,
        /// Blackout duration in cycles.
        cycles: u64,
    },
    /// A latency spike: accesses started on `route` during cycles
    /// `[start_cycle, start_cycle + cycles)` take `extra` additional
    /// cycles (e.g. a transient retry path in the array).
    LatencySpike {
        /// The affected structure (same degradation rule as blackouts).
        route: Route,
        /// First affected cycle.
        start_cycle: u64,
        /// Window duration in cycles.
        cycles: u64,
        /// Additional latency charged per access in the window.
        extra: u64,
    },
}

impl TimingFault {
    /// Whether this fault targets the memory-port layer (and is therefore
    /// owned by the [`crate::MemSystem`] rather than the pipeline).
    pub(crate) fn is_port_fault(&self) -> bool {
        matches!(
            self.kind,
            FaultKind::PortBlackout { .. } | FaultKind::LatencySpike { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_classification() {
        let arpt = TimingFault {
            id: 1,
            kind: FaultKind::ArptSoftError {
                slot: 0,
                mask: 1,
                at_lookup: 10,
            },
        };
        let port = TimingFault {
            id: 2,
            kind: FaultKind::PortBlackout {
                route: Route::DataCache,
                start_cycle: 5,
                cycles: 3,
            },
        };
        let spike = TimingFault {
            id: 3,
            kind: FaultKind::LatencySpike {
                route: Route::Lvc,
                start_cycle: 5,
                cycles: 3,
                extra: 20,
            },
        };
        assert!(!arpt.is_port_fault());
        assert!(port.is_port_fault());
        assert!(spike.is_port_fault());
    }
}
