//! Simulation results.

use crate::cache::CacheStats;

/// Aggregate statistics for one timing-simulation run.
#[derive(Clone, PartialEq, Default, Debug)]
pub struct SimStats {
    /// Machine configuration name (`"(3+3)"`, ...).
    pub config_name: String,
    /// Instructions committed.
    pub instructions: u64,
    /// Cycles simulated.
    pub cycles: u64,
    /// Dynamic memory references committed.
    pub mem_refs: u64,
    /// References steered to the LVAQ (stack pipeline).
    pub lvaq_refs: u64,
    /// Region predictions verified in the memory stage.
    pub region_checks: u64,
    /// Region mispredictions (wrong queue, replayed).
    pub region_mispredicts: u64,
    /// Mispredicted references that completed the full recovery path:
    /// detected at the TLB check, re-dispatched to the correct queue, and
    /// committed. Always `<= region_mispredicts`; a shortfall would mean a
    /// wrongly-steered reference left the pipeline without recovery.
    pub recoveries: u64,
    /// Store-to-load forwardings performed in the LSQ.
    pub lsq_forwards: u64,
    /// Fast forwardings performed in the LVAQ.
    pub lvaq_forwards: u64,
    /// Cycles dispatch stalled because the ROB was full.
    pub rob_stall_cycles: u64,
    /// Cycles dispatch stalled because a memory queue was full.
    pub queue_stall_cycles: u64,
    /// LVC-routed accesses served by the data cache because the machine
    /// has no LVC (dispatch steering on a conventional config).
    pub(crate) steer_fallbacks: u64,
    /// Confident value predictions.
    pub value_predictions: u64,
    /// Correct confident value predictions.
    pub(crate) value_pred_correct: u64,
    /// Peak-RSS proxy for the simulated program: bytes resident in the
    /// functional machine's sparse memory image at the end of the run.
    /// Captured traces carry the value in their footer, so replayed runs
    /// report the same number as live execution (zero only for bare entry
    /// slices, which have no functional metrics).
    pub peak_rss_bytes: u64,
    /// L1 data-cache hit/miss counts.
    pub dcache: CacheStats,
    /// LVC hit/miss counts (decoupled machines only).
    pub lvc: Option<CacheStats>,
    /// L2 hit/miss counts.
    pub l2: CacheStats,
    /// Backend-device hit/miss counts (die-stacked cache fills, or burst
    /// row hits vs row opens); `None` when the configured backend keeps no
    /// device state (baseline chain, stacked flat memory).
    pub stacked: Option<CacheStats>,
    /// Ids of injected faults ([`crate::TimingFault`]) that actually fired
    /// during the run, in ascending order. Empty in normal simulation.
    pub faults_applied: Vec<u32>,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// In-pipeline region-prediction accuracy.
    pub fn region_accuracy(&self) -> f64 {
        if self.region_checks == 0 {
            1.0
        } else {
            1.0 - self.region_mispredicts as f64 / self.region_checks as f64
        }
    }

    /// Value-prediction accuracy among confident predictions.
    pub fn value_pred_accuracy(&self) -> f64 {
        if self.value_predictions == 0 {
            1.0
        } else {
            self.value_pred_correct as f64 / self.value_predictions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let stats = SimStats {
            instructions: 1000,
            cycles: 250,
            region_checks: 200,
            region_mispredicts: 2,
            value_predictions: 100,
            value_pred_correct: 90,
            ..SimStats::default()
        };
        assert!((stats.ipc() - 4.0).abs() < 1e-12);
        assert!((stats.region_accuracy() - 0.99).abs() < 1e-12);
        assert!((stats.value_pred_accuracy() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let stats = SimStats::default();
        assert_eq!(stats.ipc(), 0.0);
        assert_eq!(stats.region_accuracy(), 1.0);
        assert_eq!(stats.value_pred_accuracy(), 1.0);
    }
}
