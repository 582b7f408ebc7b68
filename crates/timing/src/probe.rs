//! Opt-in cycle-level observability for the timing pipeline.
//!
//! The pipeline is generic over a [`Probe`] and monomorphized per
//! implementation: with the default [`NullProbe`] the per-cycle hook is an
//! empty inlined call guarded by `Probe::ENABLED == false`, so the
//! un-instrumented simulator compiles to exactly the code it had before
//! the probe existed and its outputs stay byte-identical. A [`Recorder`]
//! turns the same hook into per-cycle histograms (ROB occupancy,
//! issue-width utilization, per-port claim counts, LVAQ/LSQ depths) plus a
//! stall-attribution breakdown that explains *where* every commit-blocked
//! cycle went — the cycle-granularity evidence behind the Figure 8
//! bandwidth-configuration gaps.
//!
//! The attribution is conservative by construction: each simulated cycle
//! is classified exactly once (useful, or one [`StallCause`]), so
//!
//! ```text
//! useful_cycles + sum(stall_cycles per cause) == cycles
//! ```
//!
//! holds for every run — asserted by the integration tests.
//!
//! ```
//! use arl_sim::EntrySliceSource;
//! use arl_timing::{MachineConfig, Recorder, StallCause, TimingSim};
//!
//! let mut source = EntrySliceSource::new(&[]);
//! let config = MachineConfig::baseline_2_0();
//! let (stats, rec) = TimingSim::run_source_probed(&mut source, &config, Recorder::new())?;
//! let attributed: u64 = StallCause::ALL.iter().map(|&c| rec.stall_cycles(c)).sum();
//! assert_eq!(rec.useful_cycles() + attributed, stats.cycles);
//! # Ok::<(), arl_sim::SourceError>(())
//! ```

use arl_stats::{Histogram, Json};

/// Why the commit stage retired nothing this cycle. Exactly one cause is
/// charged per commit-blocked cycle, determined by the state of the ROB
/// head (the unique instruction every later commit waits on).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallCause {
    /// The ROB is empty: the front end had nothing in flight.
    FetchDry,
    /// The head has not issued and the ROB has room — it is waiting for a
    /// functional unit or an operand produced by an FU-bound instruction.
    FuFull,
    /// The head has not issued and the ROB is at capacity.
    RobFull,
    /// The head issued and its (non-memory) result is still in the FU
    /// pipeline.
    ExecLatency,
    /// The head's memory access is in flight (or about to start) — pure
    /// cache/memory latency, no structural denial.
    MemLatency,
    /// The head is denied a first-level port, bank, or line buffer: a
    /// ready load cannot start its access, or a done store cannot make its
    /// commit-time write.
    MemPort,
    /// The head is a store waiting for its data operand (or a load waiting
    /// behind a matching older store).
    StoreOrdering,
    /// The head is replaying after an ARPT region misprediction redirect.
    ArptRedirect,
}

impl StallCause {
    /// Every cause, in report order.
    pub const ALL: [StallCause; 8] = [
        StallCause::FetchDry,
        StallCause::FuFull,
        StallCause::RobFull,
        StallCause::ExecLatency,
        StallCause::MemLatency,
        StallCause::MemPort,
        StallCause::StoreOrdering,
        StallCause::ArptRedirect,
    ];

    /// Stable snake_case label (JSON keys, table headers).
    pub fn label(self) -> &'static str {
        match self {
            StallCause::FetchDry => "fetch_dry",
            StallCause::FuFull => "fu_full",
            StallCause::RobFull => "rob_full",
            StallCause::ExecLatency => "exec_latency",
            StallCause::MemLatency => "mem_latency",
            StallCause::MemPort => "mem_port",
            StallCause::StoreOrdering => "store_ordering",
            StallCause::ArptRedirect => "arpt_redirect",
        }
    }

    // `ALL` lists the causes in declaration order, so the discriminant
    // *is* the report index.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Everything the pipeline exposes about one simulated cycle.
#[derive(Clone, Copy, Debug)]
pub struct CycleObs {
    /// ROB entries occupied at the end of the cycle.
    pub rob_occupancy: usize,
    /// Instructions issued to functional units this cycle.
    pub issued: usize,
    /// Instructions committed this cycle.
    pub committed: usize,
    /// LSQ (conventional "MAQ") entries occupied at the end of the cycle.
    pub lsq_depth: usize,
    /// LVAQ entries occupied at the end of the cycle (0 when conventional).
    pub lvaq_depth: usize,
    /// Data-cache bandwidth claims made this cycle.
    pub dcache_claims: usize,
    /// LVC bandwidth claims made this cycle (0 when no LVC).
    pub lvc_claims: usize,
    /// The attributed cause when nothing committed; `None` on useful
    /// cycles.
    pub stall: Option<StallCause>,
}

/// A per-cycle observer the pipeline is monomorphized over.
///
/// `ENABLED` gates every observation-gathering expression in the pipeline,
/// so an implementation with `ENABLED == false` (the [`NullProbe`])
/// compiles the whole layer away.
pub trait Probe {
    /// Whether the pipeline should gather observations at all.
    const ENABLED: bool;

    /// Called once per simulated cycle (only when `ENABLED`).
    fn record(&mut self, obs: &CycleObs);

    /// Called when the event-driven core fast-forwards over `span` cycles
    /// that are provably identical to the one described by `obs`. The
    /// default replays them one by one, so every probe stays correct; a
    /// probe with order-independent accumulators (the [`Recorder`]) can
    /// override this with an O(1) bulk update that is bit-identical to
    /// the sequential replay.
    fn record_span(&mut self, obs: &CycleObs, span: u64) {
        for _ in 0..span {
            self.record(obs);
        }
    }
}

/// The zero-cost default probe: nothing is gathered, nothing is recorded.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _obs: &CycleObs) {}
}

/// The collecting probe: histograms over every [`CycleObs`] field plus the
/// stall-attribution counters.
#[derive(Clone, Default, Debug)]
pub struct Recorder {
    cycles: u64,
    useful_cycles: u64,
    stalls: [u64; 8],
    rob_occupancy: Histogram,
    issue_util: Histogram,
    commit_util: Histogram,
    lsq_depth: Histogram,
    lvaq_depth: Histogram,
    dcache_claims: Histogram,
    lvc_claims: Histogram,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Cycles observed (equals `SimStats::cycles` for the same run).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles on which at least one instruction committed.
    pub fn useful_cycles(&self) -> u64 {
        self.useful_cycles
    }

    /// Commit-blocked cycles attributed to `cause`.
    pub fn stall_cycles(&self, cause: StallCause) -> u64 {
        self.stalls[cause.index()]
    }

    /// Total commit-blocked cycles across all causes.
    pub fn total_stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Folds another recorder into this one (aggregation across workloads).
    pub fn merge(&mut self, other: &Recorder) {
        self.cycles += other.cycles;
        self.useful_cycles += other.useful_cycles;
        for (a, b) in self.stalls.iter_mut().zip(&other.stalls) {
            *a += b;
        }
        self.rob_occupancy.merge(&other.rob_occupancy);
        self.issue_util.merge(&other.issue_util);
        self.commit_util.merge(&other.commit_util);
        self.lsq_depth.merge(&other.lsq_depth);
        self.lvaq_depth.merge(&other.lvaq_depth);
        self.dcache_claims.merge(&other.dcache_claims);
        self.lvc_claims.merge(&other.lvc_claims);
    }

    /// Renders the recorder as one JSON object (the per-cell payload of a
    /// `BENCH_<experiment>_probe.json` document).
    pub fn to_json(&self) -> Json {
        let stalls = Json::obj(
            StallCause::ALL
                .iter()
                .map(|&c| (c.label(), Json::from(self.stall_cycles(c)))),
        );
        Json::obj([
            ("cycles", Json::from(self.cycles)),
            ("useful_cycles", Json::from(self.useful_cycles)),
            ("stall_cycles", stalls),
            ("rob_occupancy", self.rob_occupancy.to_json()),
            ("issue_util", self.issue_util.to_json()),
            ("commit_util", self.commit_util.to_json()),
            ("lsq_depth", self.lsq_depth.to_json()),
            ("lvaq_depth", self.lvaq_depth.to_json()),
            ("dcache_claims", self.dcache_claims.to_json()),
            ("lvc_claims", self.lvc_claims.to_json()),
        ])
    }
}

impl Probe for Recorder {
    const ENABLED: bool = true;

    fn record(&mut self, obs: &CycleObs) {
        self.record_span(obs, 1);
    }

    /// Every accumulator is an exact integer (the histograms compute their
    /// moments on demand from exact sums), so one bulk add of `span`
    /// identical cycles is bit-identical to `span` sequential records —
    /// the property the event-driven core's differential suite pins down.
    fn record_span(&mut self, obs: &CycleObs, span: u64) {
        self.cycles += span;
        match obs.stall {
            None => self.useful_cycles += span,
            Some(cause) => self.stalls[cause.index()] += span,
        }
        self.rob_occupancy.record_n(obs.rob_occupancy, span);
        self.issue_util.record_n(obs.issued, span);
        self.commit_util.record_n(obs.committed, span);
        self.lsq_depth.record_n(obs.lsq_depth, span);
        self.lvaq_depth.record_n(obs.lvaq_depth, span);
        self.dcache_claims.record_n(obs.dcache_claims, span);
        self.lvc_claims.record_n(obs.lvc_claims, span);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_indexed() {
        let mut seen = std::collections::HashSet::new();
        for (i, &c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(seen.insert(c.label()));
        }
    }

    #[test]
    fn recorder_classifies_each_cycle_once() {
        let mut rec = Recorder::new();
        let obs = CycleObs {
            rob_occupancy: 3,
            issued: 2,
            committed: 1,
            lsq_depth: 1,
            lvaq_depth: 0,
            dcache_claims: 1,
            lvc_claims: 0,
            stall: None,
        };
        rec.record(&obs);
        rec.record(&CycleObs {
            committed: 0,
            stall: Some(StallCause::MemLatency),
            ..obs
        });
        assert_eq!(rec.cycles(), 2);
        assert_eq!(rec.useful_cycles(), 1);
        assert_eq!(rec.total_stall_cycles(), 1);
        assert_eq!(rec.stall_cycles(StallCause::MemLatency), 1);
        assert_eq!(rec.useful_cycles() + rec.total_stall_cycles(), rec.cycles());
        assert_eq!(rec.rob_occupancy.total(), 2);
    }

    #[test]
    fn merge_sums_everything() {
        let obs = CycleObs {
            rob_occupancy: 1,
            issued: 1,
            committed: 0,
            lsq_depth: 0,
            lvaq_depth: 0,
            dcache_claims: 0,
            lvc_claims: 0,
            stall: Some(StallCause::FuFull),
        };
        let mut a = Recorder::new();
        a.record(&obs);
        let mut b = Recorder::new();
        b.record(&obs);
        b.record(&obs);
        a.merge(&b);
        assert_eq!(a.cycles(), 3);
        assert_eq!(a.stall_cycles(StallCause::FuFull), 3);
        assert_eq!(a.issue_util.total(), 3);
    }

    #[test]
    fn json_has_every_cause() {
        let rec = Recorder::new();
        let j = rec.to_json();
        let stalls = j.get("stall_cycles").expect("stall_cycles key");
        for c in StallCause::ALL {
            assert_eq!(stalls.get(c.label()).and_then(Json::as_u64), Some(0));
        }
    }
}
