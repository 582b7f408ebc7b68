//! # arl-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), backed by the
//! shared runners in this library:
//!
//! * The experiment entry points ([`table1`], [`figure8`], ...) — each is a
//!   renderer over two shared functions: one functional pass per workload
//!   (build the program, execute it once with an optional profiler riding
//!   along, capturing its `.arltrace` only when the experiment replays),
//!   and one cell runner per kind of sweep. Timing cells run a live
//!   `Machine` or a trace `Replayer` through the same monomorphized loop;
//!   prediction cells decode each trace once for every scheme
//!   (`ARL_TRACE=live` re-executes every cell instead; outputs are
//!   byte-identical either way).
//! * [`capture_trace`] / [`timing_trace`] — the execute-once/replay-many
//!   building blocks for one workload.
//! * [`Pool`] — every binary fans its (workload × config) cells across a
//!   scoped thread pool (`ARL_THREADS`; default all cores) and folds
//!   results in cell order, so output is byte-identical to a serial run.
//!   A panicking cell never stops the others: once every cell has run,
//!   a table/figure binary ([`run_main`]) prints one stderr line per
//!   failed cell, writes no output and exits 1; the fault campaign
//!   instead folds each failed job into its document's `errors` array.
//! * [`SuiteReport`] — structured [`RunRecord`]s per cell (tagged with a
//!   capture/replay/execute `phase`), written by [`emit`] as
//!   `BENCH_<experiment>.json` when `ARL_JSON` is set.
//! * `Knobs` — every `ARL_*` knob (`ARL_SCALE`, an integer iteration
//!   multiplier or `tiny` for smoke runs; `ARL_THREADS`; ...), read once
//!   per binary with one warn-and-fallback contract.
//! * [`timing_trace_probed`] / [`figure8_stalls`] — the opt-in
//!   cycle-level observability layer: `ARL_PROBE=1` attaches an
//!   `arl-timing` `Recorder` to every timing cell and additionally writes
//!   `BENCH_<experiment>_probe.json` (schema `PROBE_SCHEMA`) without
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

pub use backends::run_backends_main;
pub use chaos::run_chaos_main;
pub use experiments::{
    ablation_l1size, ablation_lvc, ablation_ports, ablation_recovery, ablation_twobit, figure2,
    figure4, figure5, figure8, figure8_stalls, probe, run_main, table1, table2, table3, table4,
    ExperimentOptions, ExperimentRun, TraceMode,
};
pub use faults::{
    campaign_identity, fault_campaign_with, run_faults_main, FaultCampaignRun, FAULTS_SCHEMA,
};
pub use runner::{
    emit, Checkpoint, JobFailure, LedgerView, Pool, RunIdentity, RunRecord, SuiteReport,
    JSON_SCHEMA,
};
pub use shard::{
    replay_sharded, replay_sharded_supervised, run_shard_main, shard_plan, stats_fingerprint,
    ShardedReplay,
};
pub use speed::run_speed_main;

use arl_asm::Program;
use arl_core::{EvalConfig, Evaluator, PredictionStats};
use arl_sim::{Machine, Metrics, TraceEntry, TraceSource};
use arl_trace::{Replayer, Trace};

/// Hard cap on instructions per workload run — generous headroom over the
/// suite's defaults; a workload hitting it indicates a bug.
pub const INST_CAP: u64 = 2_000_000_000;

/// Executes `program` functionally once, feeding every retired instruction
/// to `observe`, and returns its end-of-run counters. With `capture` the
/// pass also records the trace.
///
/// # Panics
///
/// Panics if the program fails to execute or exceeds [`INST_CAP`] —
/// workloads are deterministic programs, so any failure is a harness bug.
pub(crate) fn functional_pass(
    program: &Program,
    name: &str,
    capture: bool,
    observe: impl FnMut(&TraceEntry),
) -> (Metrics, Option<Trace>) {
    let (metrics, trace) = if capture {
        let trace = arl_trace::capture_with(program, INST_CAP, observe)
            .unwrap_or_else(|e| panic!("workload {name} failed: {e}"));
        (trace.metrics(), Some(trace))
    } else {
        let mut machine = Machine::new(program);
        machine
            .run_with(INST_CAP, observe)
            .unwrap_or_else(|e| panic!("workload {name} failed: {e}"));
        (machine.metrics(), None)
    };
    assert!(
        metrics.exited,
        "workload {name} exceeded the instruction cap"
    );
    (metrics, trace)
}

/// Captures a workload's full dynamic trace (one functional execution).
///
/// # Panics
///
/// Panics if the workload fails to execute or exceeds [`INST_CAP`].
pub fn capture_trace(program: &Program, name: &str) -> Trace {
    let (_, trace) = functional_pass(program, name, true, |_| {});
    trace.expect("a capturing pass returns its trace")
}

/// Opens a replayer over `trace` for the program it was captured from.
///
/// # Panics
///
/// Panics if the trace does not belong to `program`.
pub(crate) fn replayer<'a>(trace: &'a Trace, program: &'a Program, name: &str) -> Replayer<'a> {
    Replayer::new(trace, program).unwrap_or_else(|e| panic!("workload {name} trace rejected: {e}"))
}

/// Result of one prediction-accuracy run.
pub(crate) struct EvalReport {
    /// Accuracy and per-source tallies.
    pub stats: PredictionStats,
    /// ARPT entries occupied, when an ARPT was configured.
    pub arpt_occupied: Option<usize>,
    /// End-of-run machine counters (instructions, peak-RSS proxy).
    pub metrics: Metrics,
}

/// Executes an already-built program through a predictor configuration.
///
/// # Panics
///
/// Panics if the program fails to execute.
pub(crate) fn evaluate_program(program: &Program, name: &str, config: EvalConfig) -> EvalReport {
    let mut evaluator = Evaluator::new(config);
    let (metrics, _) = functional_pass(program, name, false, |e| evaluator.observe(e));
    EvalReport {
        stats: *evaluator.stats(),
        arpt_occupied: evaluator.arpt_occupied(),
        metrics,
    }
}

/// Replays a captured trace once through every predictor configuration in
/// `configs`: a single decode feeds all the evaluators, so a sweep of N
/// schemes decodes the trace once instead of N times. Reports come back in
/// `configs` order, each bit-identical to [`evaluate_program`] with that
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
    let mut replayer = replayer(trace, program, name);
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
    arl_timing::TimingSim::run_source(&mut replayer(trace, program, name), config)
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
    let recorder = arl_timing::Recorder::new();
    arl_timing::TimingSim::run_source_probed(&mut replayer(trace, program, name), config, recorder)
        .unwrap_or_else(|e| panic!("workload {name} replay failed: {e}"))
}

/// Formats a count in millions with one decimal (Table 1 style).
pub(crate) fn fmt_millions(n: u64) -> String {
    format!("{:.1}M", n as f64 / 1e6)
}

/// Formats a fraction as a percentage with `digits` decimals.
pub(crate) fn fmt_pct(x: f64, digits: usize) -> String {
    format!("{:.digits$}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arl_core::{Capacity, Context, PredictorKind};
    use arl_sim::{RegionProfiler, SlidingWindowProfiler, WorkloadCharacter};
    use arl_workloads::{workload, Scale};

    #[test]
    fn profile_and_evaluate_one_workload() {
        let program = workload("compress").unwrap().build(Scale::tiny());
        let mut character = WorkloadCharacter::default();
        let mut profiler = RegionProfiler::new();
        let mut windows = SlidingWindowProfiler::new();
        let mut evaluator = Evaluator::new(EvalConfig {
            kind: PredictorKind::OneBit,
            context: Context::None,
            capacity: Capacity::Unlimited,
            hints: None,
        });
        Machine::new(&program)
            .run_with(INST_CAP, |e| {
                character.observe(e);
                profiler.observe(e);
                windows.observe(e);
                evaluator.observe(e);
            })
            .expect("compress runs");
        assert!(character.instructions > 10_000);
        assert!(profiler.breakdown().static_total() > 0);
        assert_eq!(windows.stats().len(), 2);
        assert!(evaluator.stats().accuracy() > 0.95);
        assert!(evaluator.arpt_occupied().unwrap() > 0);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt_millions(1_234_567), "1.2M");
        assert_eq!(fmt_pct(0.99891, 2), "99.89%");
    }
}
