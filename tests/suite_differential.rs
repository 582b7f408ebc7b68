//! Differential replay tests: the execute-once/replay-many pipeline must
//! be observationally identical to live functional execution.
//!
//! For every suite workload, a captured trace replayed through the
//! predictor evaluator and the cycle-level timing model must reproduce
//! the live run's `Metrics`, `PredictionStats`, and `SimStats`
//! **bit-identically** — not approximately. On top of that, the
//! process-wide functional-instruction counter audits that replay-mode
//! experiments execute each workload exactly once, no matter how many
//! configs they sweep.
//!
//! Every test here serializes on one mutex: the instruction counter is
//! process-global, so counter-sensitive tests must not interleave with
//! other functional executions in this binary.

use std::sync::Mutex;

use arl::core::{Capacity, Context, EvalConfig, Evaluator, PredictorKind};
use arl::sim::{functional_instructions_executed, Machine, TraceEntry, TraceSource};
use arl::timing::{MachineConfig, TimingSim};
use arl::trace::{capture, Replayer};
use arl::workloads::{suite, Scale};
use arl_bench::{ExperimentOptions, ExperimentRun, TraceMode};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const CAP: u64 = 200_000_000;

#[test]
fn replayed_entry_stream_is_bit_identical_for_every_workload() {
    let _guard = lock();
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let trace = capture(&program, CAP).expect("capture");

        let mut live_entries: Vec<TraceEntry> = Vec::new();
        let mut machine = Machine::new(&program);
        machine
            .run_with(CAP, |e| live_entries.push(*e))
            .expect("live run");

        let mut replayer = Replayer::new(&trace, &program).expect("replayer");
        let mut replayed_entries: Vec<TraceEntry> = Vec::new();
        while let Some(entry) = replayer.next_entry().expect("replay") {
            replayed_entries.push(entry);
        }

        assert_eq!(
            live_entries.len(),
            replayed_entries.len(),
            "{}: entry count",
            spec.name
        );
        for (i, (live, replayed)) in live_entries.iter().zip(&replayed_entries).enumerate() {
            assert_eq!(live, replayed, "{}: entry {i} diverged", spec.name);
        }
        assert_eq!(
            machine.metrics(),
            replayer.metrics(),
            "{}: end-of-run metrics",
            spec.name
        );
    }
}

#[test]
fn replayed_predictor_stats_are_bit_identical_for_every_workload() {
    let _guard = lock();
    let config = EvalConfig {
        kind: PredictorKind::OneBit,
        context: Context::HYBRID_8_24,
        capacity: Capacity::Entries(1 << 14),
        hints: None,
    };
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let trace = capture(&program, CAP).expect("capture");

        let mut live = Evaluator::new(config.clone());
        let mut machine = Machine::new(&program);
        machine
            .run_with(CAP, |e| live.observe(e))
            .expect("live run");

        let mut replayed = Evaluator::new(config.clone());
        let mut replayer = Replayer::new(&trace, &program).expect("replayer");
        replayed.consume(&mut replayer).expect("replay");

        assert_eq!(
            live.stats(),
            replayed.stats(),
            "{}: ARPT prediction stats diverged",
            spec.name
        );
        assert_eq!(
            live.arpt_occupied(),
            replayed.arpt_occupied(),
            "{}: ARPT occupancy diverged",
            spec.name
        );
    }
}

#[test]
fn replayed_timing_stats_are_bit_identical_for_every_workload() {
    let _guard = lock();
    let config = MachineConfig::decoupled(2, 2);
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let trace = capture(&program, CAP).expect("capture");

        let live = TimingSim::run_program(&program, &config);

        let mut replayer = Replayer::new(&trace, &program).expect("replayer");
        let replayed = TimingSim::run_source(&mut replayer, &config).expect("replay");

        assert_eq!(live, replayed, "{}: SimStats diverged", spec.name);
    }
}

type Experiment = fn(&ExperimentOptions) -> ExperimentRun;

/// Replay-mode experiments must execute each workload functionally
/// exactly once, regardless of how many configs the sweep fans out to;
/// the Section 3 experiments run one profiling pass per workload.
#[test]
fn replay_mode_experiments_execute_each_workload_exactly_once() {
    let _guard = lock();
    let opts = ExperimentOptions::new(Scale::tiny(), 2);
    assert_eq!(opts.trace, TraceMode::Replay);

    let mut captured_insts = 0;
    let mut figure4_text = String::new();
    for (name, f) in [
        ("figure4", arl_bench::figure4 as Experiment),
        ("table3", arl_bench::table3 as Experiment),
        ("figure5", arl_bench::figure5 as Experiment),
    ] {
        let before = functional_instructions_executed();
        let run = f(&opts);
        let executed = functional_instructions_executed() - before;

        let captures: Vec<_> = run
            .report
            .records
            .iter()
            .filter(|r| r.phase == "capture")
            .collect();
        assert_eq!(
            captures.len(),
            suite().len(),
            "{name}: one capture per workload"
        );
        captured_insts = captures.iter().map(|r| r.instructions).sum();
        assert!(captured_insts > 0);
        assert_eq!(
            executed, captured_insts,
            "{name} must execute exactly the 12 capture passes and nothing more"
        );
        if name == "figure4" {
            figure4_text = run.text;
        }
    }

    for (name, f) in [
        ("table1", arl_bench::table1 as Experiment),
        ("table2", arl_bench::table2 as Experiment),
        ("figure2", arl_bench::figure2 as Experiment),
    ] {
        let before = functional_instructions_executed();
        let run = f(&opts);
        let executed = functional_instructions_executed() - before;
        let records = &run.report.records;
        assert_eq!(
            records.len(),
            suite().len(),
            "{name}: one pass per workload"
        );
        assert!(
            records.iter().all(|r| r.phase == "execute"),
            "{name}: phase"
        );
        let profiled: u64 = records.iter().map(|r| r.instructions).sum();
        assert_eq!(
            profiled, captured_insts,
            "{name}: a pass covers the workload"
        );
        assert_eq!(
            executed, profiled,
            "{name} must execute exactly one pass per workload and nothing more"
        );
    }

    // The live-mode control: the same sweep re-executes per cell, so it
    // burns one functional pass per scheme.
    let before = functional_instructions_executed();
    let live = arl_bench::figure4(&opts.with_trace(TraceMode::Live));
    let executed_live = functional_instructions_executed() - before;
    let schemes = live.report.records.len() / suite().len();
    assert_eq!(
        executed_live,
        captured_insts * schemes as u64,
        "live figure4 re-executes every workload once per scheme"
    );

    // And the deliverable: both modes emit byte-identical tables.
    assert_eq!(
        figure4_text, live.text,
        "figure4 replay text must match live text"
    );
}

/// Figure 8 (the paper's headline timing sweep) and every prediction
/// sweep must render byte-identical tables in live and replay modes: the
/// replay side decodes each trace once for all schemes, the live side is
/// the per-cell oracle.
#[test]
fn live_and_replay_modes_emit_identical_tables() {
    let _guard = lock();
    let opts = ExperimentOptions::new(Scale::tiny(), 2);
    for (name, f) in [
        ("figure8", arl_bench::figure8 as Experiment),
        ("figure4", arl_bench::figure4 as Experiment),
        ("table3", arl_bench::table3 as Experiment),
        ("figure5", arl_bench::figure5 as Experiment),
        ("ablation_twobit", arl_bench::ablation_twobit as Experiment),
    ] {
        let replay = f(&opts);
        let live = f(&opts.with_trace(TraceMode::Live));
        assert_eq!(
            replay.text, live.text,
            "{name}: replay output must be byte-identical to live"
        );
        // Replay adds one leading capture record per workload; the sweep
        // cells themselves must line up one-to-one.
        let replay_cells: Vec<_> = replay
            .report
            .records
            .iter()
            .filter(|r| r.phase != "capture")
            .collect();
        assert_eq!(replay_cells.len(), live.report.records.len());
        for (r, l) in replay_cells.iter().zip(&live.report.records) {
            assert_eq!(r.workload, l.workload, "{name}: cell order");
            assert_eq!(r.config, l.config, "{name}: cell order");
            assert_eq!(r.instructions, l.instructions, "{name}: instructions");
            assert_eq!(r.cycles, l.cycles, "{name}: cycles");
            assert_eq!(r.accuracy, l.accuracy, "{name}: accuracy");
            assert_eq!(r.peak_rss_bytes, l.peak_rss_bytes, "{name}: peak RSS");
        }
    }
}
