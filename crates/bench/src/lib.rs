//! # arl-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), backed by the
//! shared runners in this library:
//!
//! * [`profile_suite_with`] / [`ProfileReport`] — one functional-simulation
//!   pass per workload with every Section 3 profiler attached. Table 1, Table 2
//!   and Figure 2 each run one pass per workload with only the profiler
//!   they render.
//! * [`evaluate`] — prediction-accuracy runs for arbitrary
//!   [`EvalConfig`]s (drives Figure 4, Table 3, Figure 5 and the 2-bit
//!   ablation).
//! * [`capture_trace`] / [`evaluate_trace`] / [`timing_trace`] — the
//!   execute-once/replay-many pipeline: each workload runs functionally
//!   once per experiment and the config sweep replays its `.arltrace`
//!   capture; a prediction sweep decodes it once and feeds every scheme
//!   (`ARL_TRACE=live` restores per-cell re-execution; outputs are
//!   byte-identical either way).
//! * [`Pool`] and the experiment entry points ([`figure8`], [`table1`],
//!   ...) — every binary fans its (workload × config) cells across a
//!   scoped thread pool (`ARL_THREADS`; default all cores) and folds
//!   results in cell order, so output is byte-identical to a serial run.
//! * [`SuiteReport`] — structured [`RunRecord`]s per cell (tagged with a
//!   capture/replay/execute `phase`), written by [`emit`] as
//!   `BENCH_<experiment>.json` when `ARL_JSON` is set.
//! * [`Knobs`] — every `ARL_*` knob (`ARL_SCALE`, an integer iteration
//!   multiplier or `tiny` for smoke runs; `ARL_THREADS`; ...), read once
//!   per binary with one warn-and-fallback contract.
//! * [`timing_trace_probed`] / [`figure8_stalls`] — the opt-in
//!   cycle-level observability layer: `ARL_PROBE=1` attaches an
//!   `arl-timing` `Recorder` to every timing cell and additionally writes
//!   `BENCH_<experiment>_probe.json` (schema [`PROBE_SCHEMA`]) without
//!   perturbing any table or record.
//!
//! Run, e.g.:
//!
//! ```text
//! cargo run --release -p arl-bench --bin figure4
//! ARL_SCALE=4 cargo run --release -p arl-bench --bin table2
//! ARL_THREADS=8 ARL_JSON=out/ cargo run --release -p arl-bench --bin figure8
//! ```

mod backends;
mod chaos;
mod experiments;
mod faults;
mod knob;
mod runner;
mod shard;
mod speed;

pub use backends::{backends_bench, run_backends_main, BackendsBenchRun, BACKENDS_SCHEMA};

pub use chaos::{chaos_campaign, run_chaos_main, ChaosOptions, ChaosRun, CHAOS_SCHEMA};

pub use knob::Knobs;

pub use shard::{
    replay_sharded, replay_sharded_supervised, run_shard_main, shard_bench_with, shard_identity,
    shard_plan, stats_fingerprint, ShardBenchRun, ShardedReplay, DEFAULT_SNAPSHOT_INTERVAL,
    SHARD_SCHEMA,
};

pub use speed::{
    regressions_vs_baseline, run_speed_main, run_speed_suite, SpeedReport, SpeedRow,
    MIN_SPEEDUP_RATIO, SPEED_SCHEMA,
};

pub use faults::{
    campaign_identity, fault_campaign_pooled, fault_campaign_with, run_faults_main,
    FaultCampaignRun, FAULTS_SCHEMA,
};

pub use experiments::{
    ablation_l1size, ablation_lvc, ablation_ports, ablation_recovery, ablation_twobit, figure2,
    figure4, figure5, figure8, figure8_stalls, probe, run_main, table1, table2, table3, table4,
    ExperimentOptions, ExperimentRun, TraceMode,
};
pub use runner::{
    dedupe_failures, emit, timed_record, Checkpoint, FailureKind, JobFailure, LedgerView, Pool,
    RunIdentity, RunRecord, SuiteFailures, SuiteReport, CHECKPOINT_SCHEMA, JSON_SCHEMA,
    PROBE_SCHEMA,
};

use arl_asm::Program;
use arl_core::{EvalConfig, Evaluator, PredictionStats};
use arl_sim::{
    Machine, Metrics, RegionBreakdown, RegionProfiler, SlidingWindowProfiler, TraceEntry,
    TraceSource, WindowStats, WorkloadCharacter,
};
use arl_trace::{Replayer, Trace};
use arl_workloads::{suite, Scale, WorkloadSpec};

/// Hard cap on instructions per workload run — generous headroom over the
/// suite's defaults; a workload hitting it indicates a bug.
pub const INST_CAP: u64 = 2_000_000_000;

/// Everything the Section 3 profilers collect for one workload.
pub struct ProfileReport {
    /// The workload that produced this report.
    pub spec: WorkloadSpec,
    /// The linked program (kept for hint construction).
    pub program: Program,
    /// Table 1 columns.
    pub character: WorkloadCharacter,
    /// Figure 2 data.
    pub breakdown: RegionBreakdown,
    /// The raw per-pc profiler (kept for profile-hint construction).
    pub profiler: RegionProfiler,
    /// Table 2 data, one entry per window size (32, 64).
    pub windows: Vec<WindowStats>,
    /// End-of-run machine counters (instructions, peak-RSS proxy).
    pub metrics: Metrics,
}

/// Runs an already-built program through the functional simulator,
/// feeding every retired instruction to `observe`, and returns its
/// end-of-run counters.
///
/// # Panics
///
/// Panics if the program fails to execute or exceeds [`INST_CAP`] —
/// workloads are deterministic programs, so any failure is a harness bug.
pub(crate) fn execute_with(
    program: &Program,
    name: &str,
    observe: impl FnMut(&TraceEntry),
) -> Metrics {
    let mut machine = Machine::new(program);
    let outcome = machine
        .run_with(INST_CAP, observe)
        .unwrap_or_else(|e| panic!("workload {name} failed: {e}"));
    assert!(
        outcome.exited,
        "workload {name} exceeded the instruction cap"
    );
    machine.metrics()
}

/// Runs one workload through the functional simulator with all profilers
/// attached.
///
/// # Panics
///
/// Panics if the workload fails to execute.
pub fn profile_workload(spec: WorkloadSpec, scale: Scale) -> ProfileReport {
    let program = spec.build(scale);
    let mut character = WorkloadCharacter::default();
    let mut profiler = RegionProfiler::new();
    let mut windows = SlidingWindowProfiler::new();
    let metrics = execute_with(&program, spec.name, |e| {
        character.observe(e);
        profiler.observe(e);
        windows.observe(e);
    });
    let breakdown = profiler.breakdown();
    ProfileReport {
        spec,
        program,
        character,
        breakdown,
        profiler,
        windows: windows.stats(),
        metrics,
    }
}

/// Profiles the whole 12-workload suite, one pool cell per workload.
/// Results come back in suite order regardless of the worker count.
pub fn profile_suite_with(pool: &Pool, scale: Scale) -> Vec<ProfileReport> {
    pool.map(suite(), |_i, spec| profile_workload(spec, scale))
}

/// Result of one prediction-accuracy run.
pub struct EvalReport {
    /// Accuracy and per-source tallies.
    pub stats: PredictionStats,
    /// ARPT entries occupied, when an ARPT was configured.
    pub arpt_occupied: Option<usize>,
    /// End-of-run machine counters (instructions, peak-RSS proxy).
    pub metrics: Metrics,
}

/// Replays one workload through a predictor configuration.
///
/// # Panics
///
/// Panics if the workload fails to execute.
pub fn evaluate(spec: WorkloadSpec, scale: Scale, config: EvalConfig) -> EvalReport {
    let program = spec.build(scale);
    evaluate_program(&program, spec.name, config)
}

/// Replays an already-built program through a predictor configuration.
///
/// # Panics
///
/// Panics if the program fails to execute.
pub fn evaluate_program(program: &Program, name: &str, config: EvalConfig) -> EvalReport {
    let mut evaluator = Evaluator::new(config);
    let metrics = execute_with(program, name, |e| evaluator.observe(e));
    EvalReport {
        stats: *evaluator.stats(),
        arpt_occupied: evaluator.arpt_occupied(),
        metrics,
    }
}

/// Captures a workload's full dynamic trace (one functional execution),
/// optionally feeding every retired instruction to `visitor` so profilers
/// ride along on the same pass.
///
/// # Panics
///
/// Panics if the workload fails to execute or exceeds [`INST_CAP`].
pub fn capture_trace_with<F: FnMut(&TraceEntry)>(
    program: &Program,
    name: &str,
    visitor: F,
) -> Trace {
    let trace = arl_trace::capture_with(program, INST_CAP, visitor)
        .unwrap_or_else(|e| panic!("workload {name} failed: {e}"));
    assert!(
        trace.metrics().exited,
        "workload {name} exceeded the instruction cap"
    );
    trace
}

/// Captures a workload's full dynamic trace (one functional execution).
///
/// # Panics
///
/// Panics if the workload fails to execute or exceeds [`INST_CAP`].
pub fn capture_trace(program: &Program, name: &str) -> Trace {
    capture_trace_with(program, name, |_| {})
}

/// [`capture_trace`] with a snapshot record every `interval` retired
/// instructions (0 disables snapshots), so the capture can be replayed in
/// shard segments (`ARL_SHARD`; see [`replay_sharded`]).
///
/// # Panics
///
/// Panics if the workload fails to execute or exceeds [`INST_CAP`].
pub fn capture_trace_snapshotted(program: &Program, name: &str, interval: u64) -> Trace {
    let trace = arl_trace::capture_snapshotted(program, INST_CAP, interval)
        .unwrap_or_else(|e| panic!("workload {name} failed: {e}"));
    assert!(
        trace.metrics().exited,
        "workload {name} exceeded the instruction cap"
    );
    trace
}

/// Replays a captured trace through a predictor configuration — the
/// trace-driven twin of [`evaluate_program`], with zero functional
/// re-execution. The replayed entry stream is bit-identical to live
/// execution, so the resulting [`EvalReport`] is too.
///
/// # Panics
///
/// Panics if the trace does not replay cleanly against `program`.
pub fn evaluate_trace(
    program: &Program,
    trace: &Trace,
    name: &str,
    config: EvalConfig,
) -> EvalReport {
    let mut reports = evaluate_trace_all(program, trace, name, [config]);
    reports.pop().expect("one report per configuration")
}

/// Replays a captured trace once through every predictor configuration in
/// `configs`: a single decode feeds all the evaluators, so a sweep of N
/// schemes decodes the trace once instead of N times. Reports come back in
/// `configs` order, each bit-identical to [`evaluate_trace`] with that
/// configuration alone.
///
/// # Panics
///
/// Panics if the trace does not replay cleanly against `program`.
pub(crate) fn evaluate_trace_all(
    program: &Program,
    trace: &Trace,
    name: &str,
    configs: impl IntoIterator<Item = EvalConfig>,
) -> Vec<EvalReport> {
    let mut replayer = Replayer::new(trace, program)
        .unwrap_or_else(|e| panic!("workload {name} trace rejected: {e}"));
    let mut evaluators: Vec<Evaluator> = configs.into_iter().map(Evaluator::new).collect();
    while let Some(entry) = replayer
        .next_entry()
        .unwrap_or_else(|e| panic!("workload {name} replay failed: {e}"))
    {
        for evaluator in &mut evaluators {
            evaluator.observe(&entry);
        }
    }
    let metrics = replayer.metrics();
    evaluators
        .iter()
        .map(|evaluator| EvalReport {
            stats: *evaluator.stats(),
            arpt_occupied: evaluator.arpt_occupied(),
            metrics,
        })
        .collect()
}

/// Replays a captured trace through the cycle-level timing model — the
/// trace-driven twin of `TimingSim::run_program`, with zero functional
/// re-execution and bit-identical `SimStats`.
///
/// # Panics
///
/// Panics if the trace does not replay cleanly against `program`.
pub fn timing_trace(
    program: &Program,
    trace: &Trace,
    name: &str,
    config: &arl_timing::MachineConfig,
) -> arl_timing::SimStats {
    let mut replayer = Replayer::new(trace, program)
        .unwrap_or_else(|e| panic!("workload {name} trace rejected: {e}"));
    arl_timing::TimingSim::run_source(&mut replayer, config)
        .unwrap_or_else(|e| panic!("workload {name} replay failed: {e}"))
}

/// [`timing_trace`] with an attached [`arl_timing::Recorder`] collecting
/// the cycle-level observability histograms (`ARL_PROBE=1` cells). The
/// returned `SimStats` are identical to the unprobed run.
///
/// # Panics
///
/// Panics if the trace does not replay cleanly against `program`.
pub fn timing_trace_probed(
    program: &Program,
    trace: &Trace,
    name: &str,
    config: &arl_timing::MachineConfig,
) -> (arl_timing::SimStats, arl_timing::Recorder) {
    let mut replayer = Replayer::new(trace, program)
        .unwrap_or_else(|e| panic!("workload {name} trace rejected: {e}"));
    arl_timing::TimingSim::run_source_probed(&mut replayer, config, arl_timing::Recorder::new())
        .unwrap_or_else(|e| panic!("workload {name} replay failed: {e}"))
}

/// Formats a count in millions with one decimal (Table 1 style).
pub fn fmt_millions(n: u64) -> String {
    format!("{:.1}M", n as f64 / 1e6)
}

/// Formats a fraction as a percentage with `digits` decimals.
pub fn fmt_pct(x: f64, digits: usize) -> String {
    format!("{:.digits$}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arl_core::{Capacity, Context, PredictorKind};
    use arl_workloads::workload;

    #[test]
    fn profile_and_evaluate_one_workload() {
        let spec = workload("compress").unwrap();
        let report = profile_workload(spec, Scale::tiny());
        assert!(report.character.instructions > 10_000);
        assert!(report.breakdown.static_total() > 0);
        assert_eq!(report.windows.len(), 2);
        let eval = evaluate(
            spec,
            Scale::tiny(),
            EvalConfig {
                kind: PredictorKind::OneBit,
                context: Context::None,
                capacity: Capacity::Unlimited,
                hints: None,
            },
        );
        assert!(eval.stats.accuracy() > 0.95);
        assert!(eval.arpt_occupied.unwrap() > 0);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_millions(1_234_567), "1.2M");
        assert_eq!(fmt_pct(0.99891, 2), "99.89%");
    }
}
