//! One entry point per table/figure binary, shared between the thin
//! `src/bin/*` wrappers and the integration tests.
//!
//! Each experiment builds its (workload × config) cell list, fans the
//! cells out over a [`Pool`], and folds the results back in cell order, so
//! its rendered [`ExperimentRun::text`] is byte-identical for any thread
//! count. Alongside the text, every cell contributes a [`RunRecord`] to
//! the experiment's [`SuiteReport`] for `BENCH_*.json` emission.

use std::fmt::Write as _;
use std::time::Instant;

use arl_asm::Program;
use arl_core::{Capacity, Context, EvalConfig, HintTable, PredictorKind, Source};
use arl_mem::{Region, RegionSet};
use arl_sim::{RegionProfiler, SlidingWindowProfiler, TraceEntry, WorkloadCharacter};
use arl_stats::{BarChart, Json, TableBuilder};
use arl_timing::{
    BackendConfig, CacheConfig, MachineConfig, Recorder, RecoveryMode, SimStats, StallCause,
    TimingSim,
};
use arl_trace::Trace;
use arl_workloads::{suite, workload, Scale, WorkloadSpec};

use crate::knob::Knobs;
use crate::runner::{
    dedupe_failures, end_main, timed_record, JobFailure, Pool, RunRecord, SuiteFailures,
    SuiteReport, PROBE_SCHEMA,
};
use crate::{
    capture_trace, capture_trace_snapshotted, capture_trace_with, evaluate_program,
    evaluate_trace_all, execute_with, fmt_millions, fmt_pct, timing_trace, timing_trace_probed,
    EvalReport,
};

/// How experiments obtain each workload's dynamic instruction stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceMode {
    /// Execute each workload functionally exactly once, capturing its
    /// trace, and fan the config sweep out over replays (the default).
    /// Timing sweeps run one pool job per replayed cell; prediction sweeps
    /// run one job per workload that decodes the trace once and feeds
    /// every scheme.
    Replay,
    /// Re-execute the functional simulation for every (workload × config)
    /// cell — the pre-trace harness, kept for cross-checking.
    Live,
}

/// Scale, parallelism, trace mode, and probing for one experiment run.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentOptions {
    /// Workload iteration scale.
    pub scale: Scale,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Execute-once/replay-many (default) or live re-execution.
    pub trace: TraceMode,
    /// Attach a cycle-level [`Recorder`] to every timing cell and emit the
    /// `BENCH_<experiment>_probe.json` document (`ARL_PROBE=1`). Rendered
    /// tables and `SimStats` are byte-identical either way.
    pub probe: bool,
    /// Shard jobs per timing replay cell (`ARL_SHARD`; default 1 =
    /// unsharded). With more than one, captures embed snapshot records and
    /// every timing replay runs as a chain of shard segments — rendered
    /// tables and `SimStats` are byte-identical either way.
    pub shards: usize,
    /// Capture-time snapshot cadence in instructions
    /// (`ARL_SNAPSHOT_INTERVAL`), used only when `shards > 1`.
    pub snapshot_interval: u64,
    /// Memory backend applied to every timing config (`ARL_BACKEND`;
    /// default [`BackendConfig::Baseline`], which leaves configs — and
    /// therefore all tables and goldens — untouched). Non-baseline
    /// backends tag config names with `@<label>`.
    pub backend: BackendConfig,
}

impl ExperimentOptions {
    /// Explicit options (tests drive serial-vs-parallel comparisons with
    /// this). Uses the default [`TraceMode::Replay`], probing off.
    pub fn new(scale: Scale, threads: usize) -> ExperimentOptions {
        ExperimentOptions {
            scale,
            threads: threads.max(1),
            trace: TraceMode::Replay,
            probe: false,
            shards: 1,
            snapshot_interval: crate::shard::DEFAULT_SNAPSHOT_INTERVAL,
            backend: BackendConfig::Baseline,
        }
    }

    /// Overrides the trace mode (tests drive live-vs-replay differential
    /// comparisons with this).
    pub fn with_trace(mut self, trace: TraceMode) -> ExperimentOptions {
        self.trace = trace;
        self
    }

    /// Overrides probing (tests drive probed-vs-unprobed differential
    /// comparisons with this).
    pub fn with_probe(mut self, probe: bool) -> ExperimentOptions {
        self.probe = probe;
        self
    }

    /// Overrides sharding (tests drive sharded-vs-serial differential
    /// comparisons with this). `interval` is the capture-time snapshot
    /// cadence in instructions.
    pub fn with_shards(mut self, shards: usize, interval: u64) -> ExperimentOptions {
        self.shards = shards.max(1);
        self.snapshot_interval = interval;
        self
    }

    /// Overrides the memory backend (tests drive per-backend differential
    /// comparisons with this).
    pub fn with_backend(mut self, backend: BackendConfig) -> ExperimentOptions {
        self.backend = backend;
        self
    }

    fn pool(&self) -> Pool {
        Pool::new(self.threads)
    }
}

/// A finished experiment: rendered text plus structured records.
#[derive(Clone, Debug)]
pub struct ExperimentRun {
    /// The exact bytes the binary prints to stdout.
    pub text: String,
    /// Structured per-cell records (the `BENCH_*.json` payload).
    pub report: SuiteReport,
    /// The `BENCH_*_probe.json` document, when the run was probed.
    pub probe: Option<Json>,
}

/// One stderr line per failed job id — even when an experiment collected
/// a record per attempt — closed by a count line naming `outcome`.
fn failure_lines(mut failures: Vec<JobFailure>, outcome: &str) -> Vec<String> {
    dedupe_failures(&mut failures);
    let mut lines: Vec<String> = failures.iter().map(JobFailure::summary).collect();
    if !failures.is_empty() {
        lines.push(format!("{} job(s) failed; {outcome}", failures.len()));
    }
    lines
}

/// Runs an experiment with the environment's [`Knobs`], prints its text,
/// and emits `BENCH_<experiment>.json` (plus the `ARL_PROBE` document)
/// under `ARL_JSON`. The shared `main` of every table/figure binary.
///
/// Failed jobs never abort the suite silently: a [`SuiteFailures`] panic
/// from the pool (every surviving cell already ran) and any error records
/// the experiment collected itself both end in a one-line-per-job stderr
/// summary and a non-zero exit.
pub fn run_main(experiment: impl FnOnce(&ExperimentOptions) -> ExperimentRun) {
    let knobs = Knobs::from_env();
    let opts = knobs.options();
    let run = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| experiment(&opts))) {
        Ok(run) => run,
        Err(payload) => match payload.downcast::<SuiteFailures>() {
            Ok(failures) => {
                let lines = failure_lines(failures.0, "no output written");
                return end_main(&knobs, "", &[], &lines);
            }
            Err(payload) => std::panic::resume_unwind(payload),
        },
    };
    let name = &run.report.experiment;
    let mut docs = vec![(format!("BENCH_{name}.json"), run.report.to_json())];
    if let Some(doc) = run.probe {
        docs.push((format!("BENCH_{name}_probe.json"), doc));
    }
    let failures = failure_lines(
        run.report.errors.clone(),
        "see the errors array in the JSON output",
    );
    end_main(&knobs, &run.text, &docs, &failures);
}

/// One probed timing cell, in cell order: which (workload × config) pair
/// the attached [`Recorder`] watched.
struct ProbeCell {
    workload: String,
    config: String,
    recorder: Recorder,
}

impl ProbeCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("probe", self.recorder.to_json()),
        ])
    }
}

fn finish(
    name: &str,
    opts: &ExperimentOptions,
    records: Vec<RunRecord>,
    text: String,
    start: Instant,
    probe_cells: Vec<ProbeCell>,
) -> ExperimentRun {
    let mut report = SuiteReport::new(name, opts.scale, opts.threads);
    report.records = records;
    report.wall_seconds = start.elapsed().as_secs_f64();
    // Experiments without timing cells still emit a (cell-less) document
    // under `ARL_PROBE=1`, so every binary honours the flag uniformly.
    let probe = opts.probe.then(|| {
        Json::obj([
            ("schema", Json::from(PROBE_SCHEMA)),
            ("experiment", Json::from(name)),
            ("scale", Json::from(report.scale.as_str())),
            ("threads", Json::from(opts.threads)),
            (
                "cells",
                Json::Arr(probe_cells.iter().map(ProbeCell::to_json).collect()),
            ),
        ])
    });
    ExperimentRun {
        text,
        report,
        probe,
    }
}

/// Runs one functional pass per workload in parallel with a single
/// observer attached; the backbone of the Section 3 experiments (Table 1,
/// Table 2, Figure 2), each of which attaches only the profiler it prints.
fn observe_cells<O: Send>(
    opts: &ExperimentOptions,
    new: impl Fn() -> O + Sync,
    observe: impl Fn(&mut O, &TraceEntry) + Sync,
) -> (Vec<O>, Vec<RunRecord>) {
    let results = opts.pool().map(suite(), |_i, spec| {
        timed_record(spec.name, "profile", |record| {
            let program = spec.build(opts.scale);
            let mut observer = new();
            let metrics = execute_with(&program, spec.name, |e| observe(&mut observer, e));
            record.instructions = metrics.instructions;
            record.peak_rss_bytes = metrics.peak_rss_bytes;
            observer
        })
    });
    results.into_iter().unzip()
}

fn eval_record(record: &mut RunRecord, report: &EvalReport) {
    record.instructions = report.metrics.instructions;
    record.peak_rss_bytes = report.metrics.peak_rss_bytes;
    record.accuracy = Some(report.stats.accuracy());
}

fn timing_record(record: &mut RunRecord, stats: &SimStats) {
    record.instructions = stats.instructions;
    record.cycles = Some(stats.cycles);
    record.ipc = Some(stats.ipc());
    record.accuracy = (stats.region_checks > 0).then(|| stats.region_accuracy());
    record.peak_rss_bytes = stats.peak_rss_bytes;
}

/// One workload captured for replay: the built program plus its recorded
/// dynamic trace.
struct Captured {
    spec: WorkloadSpec,
    program: Program,
    trace: Trace,
}

/// Builds one workload and executes it functionally, capturing its trace;
/// the returned `"capture"` record covers both steps.
fn capture_workload(opts: &ExperimentOptions, spec: WorkloadSpec) -> (Captured, RunRecord) {
    timed_record(spec.name, "capture", |record| {
        record.phase = "capture".into();
        let program = spec.build(opts.scale);
        // Sharded replays resume at snapshot boundaries, so the capture
        // must embed them; unsharded runs keep the byte-identical
        // snapshot-free container.
        let trace = if opts.shards > 1 {
            capture_trace_snapshotted(&program, spec.name, opts.snapshot_interval)
        } else {
            capture_trace(&program, spec.name)
        };
        record.instructions = trace.metrics().instructions;
        record.peak_rss_bytes = trace.metrics().peak_rss_bytes;
        Captured {
            spec,
            program,
            trace,
        }
    })
}

/// Executes every suite workload functionally exactly once (in parallel),
/// capturing its trace. The per-workload `"capture"` records lead the
/// experiment's record list; subsequent sweep cells are pure replays.
fn capture_suite(opts: &ExperimentOptions) -> (Vec<Captured>, Vec<RunRecord>) {
    let results = opts
        .pool()
        .map(suite(), |_i, spec| capture_workload(opts, spec));
    results.into_iter().unzip()
}

/// Replays `trace` once, one decode feeding every scheme's evaluator (see
/// [`evaluate_trace_all`]). Each scheme still gets its own `"replay"`
/// record, charged an equal share of the shared pass's wall time.
fn fan_out_eval<L: AsRef<str>>(
    program: &Program,
    trace: &Trace,
    name: &str,
    schemes: &[(L, EvalConfig)],
) -> Vec<(EvalReport, RunRecord)> {
    let start = Instant::now();
    let configs = schemes.iter().map(|(_, config)| config.clone());
    let reports = evaluate_trace_all(program, trace, name, configs);
    let share = start.elapsed().as_secs_f64() / schemes.len().max(1) as f64;
    reports
        .into_iter()
        .zip(schemes)
        .map(|(report, (label, _))| {
            let mut record = RunRecord::new(name, label.as_ref());
            record.phase = "replay".into();
            record.wall_seconds = share;
            eval_record(&mut record, &report);
            (report, record)
        })
        .collect()
}

/// Regroups a flat `(value, record)` cell list (workload-major, `per`
/// cells each) into per-workload rows, appending the records in cell
/// order.
fn group_cells<T>(
    results: Vec<(T, RunRecord)>,
    per: usize,
    records: &mut Vec<RunRecord>,
) -> Vec<Vec<T>> {
    let mut grouped: Vec<Vec<T>> = Vec::with_capacity(results.len() / per.max(1) + 1);
    for (i, (value, record)) in results.into_iter().enumerate() {
        if i % per == 0 {
            grouped.push(Vec::with_capacity(per));
        }
        grouped.last_mut().expect("chunk started").push(value);
        records.push(record);
    }
    grouped
}

/// Runs one timing cell, attaching a [`Recorder`] when `probe` is set.
/// `trace` selects replay (Some) vs live execution (None); with
/// `shards > 1` a replay cell runs as a chain of snapshot-bounded shard
/// segments. The stats are bit-identical across all combinations.
fn run_timing(
    probe: bool,
    shards: usize,
    program: &Program,
    trace: Option<&Trace>,
    name: &str,
    config: &MachineConfig,
) -> (SimStats, Option<Recorder>) {
    if shards > 1 {
        if let Some(trace) = trace {
            let run = crate::shard::replay_sharded(program, trace, name, config, shards, probe);
            return (run.stats, run.recorder);
        }
    }
    match (probe, trace) {
        (false, Some(trace)) => (timing_trace(program, trace, name, config), None),
        (true, Some(trace)) => {
            let (stats, rec) = timing_trace_probed(program, trace, name, config);
            (stats, Some(rec))
        }
        (false, None) => (TimingSim::run_program(program, config), None),
        (true, None) => {
            let (stats, rec) = TimingSim::run_program_probed(program, config, Recorder::new());
            (stats, Some(rec))
        }
    }
}

/// Runs every (workload × config) timing cell in parallel; the backbone
/// of Figure 8 and the timing ablations. Results come back grouped by
/// workload, configs in the given order, with one [`ProbeCell`] per cell
/// (in cell order) when `opts.probe` is set.
///
/// In [`TraceMode::Replay`] each workload executes functionally once (a
/// `"capture"` cell) and every config cell replays the trace; in
/// [`TraceMode::Live`] every cell re-executes functionally. Both modes
/// produce bit-identical [`SimStats`].
fn timing_cells(
    opts: &ExperimentOptions,
    configs: &[MachineConfig],
) -> (Vec<Vec<SimStats>>, Vec<RunRecord>, Vec<ProbeCell>) {
    // `ARL_BACKEND` swaps the memory backend under every swept config; the
    // default baseline application is a no-op (names and stats untouched).
    let configs: Vec<MachineConfig> = configs
        .iter()
        .map(|c| c.clone().with_backend(opts.backend))
        .collect();
    let configs = configs.as_slice();
    let mut records = Vec::new();
    let results = match opts.trace {
        TraceMode::Replay => {
            let (captured, capture_records) = capture_suite(opts);
            records = capture_records;
            let cells: Vec<(usize, MachineConfig)> = (0..captured.len())
                .flat_map(|wi| configs.iter().map(move |c| (wi, c.clone())))
                .collect();
            opts.pool().map(cells, |_i, (wi, config)| {
                let cap = &captured[wi];
                timed_record(cap.spec.name, &config.name, |record| {
                    record.phase = "replay".into();
                    let (stats, rec) = run_timing(
                        opts.probe,
                        opts.shards,
                        &cap.program,
                        Some(&cap.trace),
                        cap.spec.name,
                        &config,
                    );
                    timing_record(record, &stats);
                    (
                        stats,
                        rec.map(|recorder| ProbeCell {
                            workload: cap.spec.name.to_string(),
                            config: config.name.clone(),
                            recorder,
                        }),
                    )
                })
            })
        }
        TraceMode::Live => {
            let cells: Vec<(WorkloadSpec, MachineConfig)> = suite()
                .iter()
                .flat_map(|spec| configs.iter().map(move |c| (*spec, c.clone())))
                .collect();
            opts.pool().map(cells, |_i, (spec, config)| {
                timed_record(spec.name, &config.name, |record| {
                    let program = spec.build(opts.scale);
                    let (stats, rec) =
                        run_timing(opts.probe, 1, &program, None, spec.name, &config);
                    timing_record(record, &stats);
                    (
                        stats,
                        rec.map(|recorder| ProbeCell {
                            workload: spec.name.to_string(),
                            config: config.name.clone(),
                            recorder,
                        }),
                    )
                })
            })
        }
    };
    let mut probe_cells = Vec::new();
    let results: Vec<(SimStats, RunRecord)> = results
        .into_iter()
        .map(|((stats, cell), record)| {
            probe_cells.extend(cell);
            (stats, record)
        })
        .collect();
    let grouped = group_cells(results, configs.len(), &mut records);
    (grouped, records, probe_cells)
}

/// Runs every (workload × scheme) prediction-evaluation cell in parallel;
/// the backbone of Figure 4, Table 3 and the 2-bit ablation. Results come
/// back grouped by workload, schemes in the given order.
///
/// In [`TraceMode::Replay`] each workload is one pool job: it captures the
/// trace (a `"capture"` record; these lead the record list, as in
/// [`timing_cells`]), then decodes it once for every scheme
/// ([`fan_out_eval`]), and drops it before returning, so at most one trace
/// per worker is ever live. [`TraceMode::Live`] re-executes every cell.
/// Both modes produce bit-identical [`EvalReport`]s.
fn eval_cells(
    opts: &ExperimentOptions,
    schemes: &[(&str, EvalConfig)],
) -> (Vec<Vec<EvalReport>>, Vec<RunRecord>) {
    let mut records = Vec::new();
    let results = match opts.trace {
        TraceMode::Replay => {
            let jobs = opts.pool().map(suite(), |_i, spec| {
                let (cap, capture) = capture_workload(opts, spec);
                let cells = fan_out_eval(&cap.program, &cap.trace, spec.name, schemes);
                (capture, cells)
            });
            let mut results = Vec::with_capacity(jobs.len() * schemes.len());
            for (capture, cells) in jobs {
                records.push(capture);
                results.extend(cells);
            }
            results
        }
        TraceMode::Live => {
            let cells: Vec<(WorkloadSpec, usize)> = suite()
                .iter()
                .flat_map(|spec| (0..schemes.len()).map(move |si| (*spec, si)))
                .collect();
            opts.pool().map(cells, |_i, (spec, si)| {
                let (label, config) = &schemes[si];
                timed_record(spec.name, label, |record| {
                    let program = spec.build(opts.scale);
                    let report = evaluate_program(&program, spec.name, config.clone());
                    eval_record(record, &report);
                    report
                })
            })
        }
    };
    let grouped = group_cells(results, schemes.len(), &mut records);
    (grouped, records)
}

/// **Table 1**: per-benchmark dynamic instruction count and load/store
/// percentages.
pub fn table1(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let (characters, records) =
        observe_cells(opts, WorkloadCharacter::default, WorkloadCharacter::observe);
    let mut table = TableBuilder::new(&["Benchmark", "Inst. count", "Loads %", "Stores %", "Refs"]);
    for (spec, c) in suite().iter().zip(&characters) {
        table.row(&[
            spec.spec_name.to_string(),
            fmt_millions(c.instructions),
            format!("{:.0}", c.load_pct()),
            format!("{:.0}", c.store_pct()),
            fmt_millions(c.references()),
        ]);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 1: workload characterization (synthetic SPEC95 analogs)"
    );
    let _ = writeln!(text, "{}", table.render());
    finish("table1", opts, records, text, start, Vec::new())
}

/// **Table 2**: per-region access counts in 32/64-instruction windows.
pub fn table2(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let (profilers, records) = observe_cells(
        opts,
        SlidingWindowProfiler::new,
        SlidingWindowProfiler::observe,
    );
    let windows: Vec<_> = profilers.iter().map(SlidingWindowProfiler::stats).collect();
    let specs = suite();
    let mut table = TableBuilder::new(&[
        "Benchmark",
        "W32 Data",
        "W32 Heap",
        "W32 Stack",
        "W64 Data",
        "W64 Heap",
        "W64 Stack",
    ]);
    let mut avg = [[0.0f64; 3]; 2];
    for (spec, stats) in specs.iter().zip(&windows) {
        let mut row = vec![spec.spec_name.to_string()];
        for (wi, w) in stats.iter().enumerate() {
            for (ri, region) in Region::DATA_REGIONS.iter().enumerate() {
                row.push(format!("{:.2} ({:.2})", w.mean(*region), w.stddev(*region)));
                avg[wi][ri] += w.mean(*region);
            }
        }
        table.row(&row);
    }
    let n = windows.len() as f64;
    let mut avg_row = vec!["Average".to_string()];
    for w in &avg {
        for v in w {
            avg_row.push(format!("{:.2}", v / n));
        }
    }
    table.row(&avg_row);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 2: mean (stddev) of per-region accesses in 32/64-instruction windows"
    );
    let _ = writeln!(text, "{}", table.render());
    let _ = writeln!(
        text,
        "Strictly bursty regions (mean < stddev) and idle-window fractions, window 32:"
    );
    for (spec, stats) in specs.iter().zip(&windows) {
        let w = &stats[0];
        let bursty: Vec<&str> = Region::DATA_REGIONS
            .iter()
            .filter(|&&r| w.mean(r) > 0.01 && w.is_strictly_bursty(r))
            .map(|r| r.letter())
            .collect();
        let idle: Vec<String> = Region::DATA_REGIONS
            .iter()
            .map(|&r| format!("{}:{:.0}%", r.letter(), 100.0 * w.idle_fraction(r)))
            .collect();
        let _ = writeln!(
            text,
            "  {:<12} bursty[{}]  idle windows {}",
            spec.spec_name,
            bursty.join(","),
            idle.join(" ")
        );
    }
    finish("table2", opts, records, text, start, Vec::new())
}

/// **Figure 2**: static memory instructions by accessed-region class.
pub fn figure2(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let (profilers, records) = observe_cells(opts, RegionProfiler::new, RegionProfiler::observe);
    let breakdowns: Vec<_> = profilers.iter().map(RegionProfiler::breakdown).collect();
    let mut header: Vec<String> = vec!["Benchmark".into(), "Static".into()];
    header.extend(RegionSet::CLASS_LABELS.iter().map(|l| format!("{l} %")));
    header.push("Multi(dyn) %".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableBuilder::new(&header_refs);
    let mut sum_multi_static = [0.0f64; 2];
    let mut counts = [0u32; 2];
    for (spec, b) in suite().iter().zip(&breakdowns) {
        let total = b.static_total();
        let mut row = vec![spec.spec_name.to_string(), total.to_string()];
        for (i, _) in RegionSet::CLASS_LABELS.iter().enumerate() {
            row.push(format!(
                "{:.1}",
                100.0 * b.static_counts[i] as f64 / total.max(1) as f64
            ));
        }
        row.push(fmt_pct(b.dynamic_multi_region_fraction(), 2));
        table.row(&row);
        let idx = spec.is_fp as usize;
        sum_multi_static[idx] += b.static_multi_region_fraction();
        counts[idx] += 1;
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 2: static memory instructions by accessed-region class"
    );
    let _ = writeln!(text, "{}", table.render());
    let _ = writeln!(
        text,
        "Average static multi-region fraction: integer {} | floating-point {}",
        fmt_pct(sum_multi_static[0] / counts[0].max(1) as f64, 2),
        fmt_pct(sum_multi_static[1] / counts[1].max(1) as f64, 2),
    );
    let avg_stack: f64 = breakdowns
        .iter()
        .map(|b| b.static_fraction("S"))
        .sum::<f64>()
        / breakdowns.len() as f64;
    let _ = writeln!(
        text,
        "Average stack-only share of static instructions: {}",
        fmt_pct(avg_stack, 1)
    );
    finish("figure2", opts, records, text, start, Vec::new())
}

/// **Figure 4**: classification accuracy of the five schemes over an
/// unlimited ARPT.
pub fn figure4(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let schemes = EvalConfig::figure4_schemes();
    let specs = suite();
    let (grouped, records) = eval_cells(opts, &schemes);
    let mut header: Vec<&str> = vec!["Benchmark", "Static-cover %"];
    header.extend(schemes.iter().map(|(n, _)| *n));
    let mut table = TableBuilder::new(&header);
    let mut sums = vec![[0.0f64; 2]; schemes.len()];
    let mut counts = [0u32; 2];
    for (spec, reports) in specs.iter().zip(&grouped) {
        let mut row = vec![spec.spec_name.to_string()];
        let mut static_cover = String::new();
        for (si, report) in reports.iter().enumerate() {
            if si == 0 {
                static_cover = fmt_pct(report.stats.coverage(Source::Static), 1);
            }
            row.push(fmt_pct(report.stats.accuracy(), 2));
            sums[si][spec.is_fp as usize] += report.stats.accuracy();
        }
        row.insert(1, static_cover);
        table.row(&row);
        counts[spec.is_fp as usize] += 1;
    }
    let mut int_row = vec!["Int avg".to_string(), String::new()];
    let mut fp_row = vec!["FP avg".to_string(), String::new()];
    for s in &sums {
        int_row.push(fmt_pct(s[0] / counts[0] as f64, 2));
        fp_row.push(fmt_pct(s[1] / counts[1] as f64, 2));
    }
    table.row(&int_row);
    table.row(&fp_row);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 4: dynamic classification accuracy (unlimited ARPT)"
    );
    let _ = writeln!(text, "{}", table.render());
    finish("figure4", opts, records, text, start, Vec::new())
}

/// **Table 3**: ARPT entries occupied under each context scheme.
pub fn table3(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let contexts: [(&str, Context); 4] = [
        ("pc-only", Context::None),
        ("w/ GBH", Context::Gbh { bits: 8 }),
        ("w/ CID", Context::Cid { bits: 24 }),
        ("w/ Hybrid", Context::HYBRID_8_24),
    ];
    let specs = suite();
    let schemes: Vec<(&str, EvalConfig)> = contexts
        .iter()
        .map(|(name, context)| {
            (
                *name,
                EvalConfig {
                    kind: PredictorKind::OneBit,
                    context: *context,
                    capacity: Capacity::Unlimited,
                    hints: None,
                },
            )
        })
        .collect();
    let (grouped, records) = eval_cells(opts, &schemes);
    let mut table = TableBuilder::new(&["Bench.", "pc-only", "w/ GBH", "w/ CID", "w/ Hybrid"]);
    for (spec, reports) in specs.iter().zip(&grouped) {
        let mut row = vec![spec.spec_name.to_string()];
        let mut base = 0usize;
        for (ci, report) in reports.iter().enumerate() {
            let occupied = report.arpt_occupied.unwrap_or(0);
            if ci == 0 {
                base = occupied;
                row.push(occupied.to_string());
            } else {
                let pct = if base > 0 {
                    100.0 * (occupied as f64 - base as f64) / base as f64
                } else {
                    0.0
                };
                row.push(format!("{occupied} ({pct:+.0}%)"));
            }
        }
        table.row(&row);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Table 3: entries occupied in an unlimited ARPT (dynamic instructions only)"
    );
    let _ = writeln!(text, "{}", table.render());
    finish("table3", opts, records, text, start, Vec::new())
}

/// **Table 4**: the base machine model parameter dump.
pub fn table4(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let c = MachineConfig::baseline_2_0();
    let mut t = TableBuilder::new(&["Parameter", "Value"]);
    t.row(&["Issue width", &c.issue_width.to_string()]);
    t.row(&["No. of regs", "32 GPRs / 32 FPRs"]);
    t.row(&["ROB/LSQ size", &format!("{}/{}", c.rob_size, c.lsq_size)]);
    t.row(&[
        "Func. units",
        &format!(
            "{} int + {} FP ALUs, {} int + {} FP MULT/DIV",
            c.int_alus, c.fp_alus, c.int_mul_div, c.fp_mul_div
        ),
    ]);
    t.row(&["Value pred.", "Stride-based, 16K-entry table"]);
    t.row(&[
        "L1 D-cache",
        &format!(
            "{}-way set-assoc. {} KB, {}-cycle hit",
            c.dcache.assoc,
            c.dcache.size_bytes / 1024,
            c.dcache.hit_latency
        ),
    ]);
    t.row(&[
        "L2 D-cache",
        &format!(
            "{}-way, {} KB, {}-cycle access",
            c.l2.assoc,
            c.l2.size_bytes / 1024,
            c.l2.hit_latency
        ),
    ]);
    t.row(&[
        "Memory",
        &format!("{}-cycle access, fully interleaved", c.memory_latency),
    ]);
    let lvc = CacheConfig::lvc(2);
    t.row(&[
        "LV Cache",
        &format!(
            "direct-mapped, {} KB, {}-cycle access",
            lvc.size_bytes / 1024,
            lvc.hit_latency
        ),
    ]);
    t.row(&[
        "ARPT",
        &format!("{}K 1-bit entries", (1u64 << c.arpt_log2_entries) / 1024),
    ]);
    t.row(&["I-cache", "perfect, 1-cycle"]);
    t.row(&["Branch pred.", "perfect"]);
    t.row(&["Inst. latencies", "MIPS R10000-flavoured"]);
    let mut text = String::new();
    let _ = writeln!(text, "Table 4: base machine model");
    let _ = writeln!(text, "{}", t.render());
    finish("table4", opts, Vec::new(), text, start, Vec::new())
}

/// **Figure 5**: 1BIT-HYBRID accuracy vs ARPT size, without/with hints.
pub fn figure5(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let capacities: [(&str, Capacity); 5] = [
        ("inf", Capacity::Unlimited),
        ("64K", Capacity::Entries(1 << 16)),
        ("32K", Capacity::Entries(1 << 15)),
        ("16K", Capacity::Entries(1 << 14)),
        ("8K", Capacity::Entries(1 << 13)),
    ];
    // Job = workload: the hint table needs one profiled functional pass
    // either way. In replay mode that pass also captures the trace (one
    // recorded "capture" cell) and one decode of it feeds all 10 variants;
    // in live mode the pass is unrecorded and every variant re-executes, as
    // the pre-trace harness did.
    let results = opts.pool().map(suite(), |_i, spec| {
        let mut records = Vec::new();
        let program = spec.build(opts.scale);
        let mut profiler = RegionProfiler::new();
        let trace = match opts.trace {
            TraceMode::Replay => {
                let (trace, record) = timed_record(spec.name, "capture", |record| {
                    record.phase = "capture".into();
                    let trace = capture_trace_with(&program, spec.name, |e| profiler.observe(e));
                    record.instructions = trace.metrics().instructions;
                    record.peak_rss_bytes = trace.metrics().peak_rss_bytes;
                    trace
                });
                records.push(record);
                Some(trace)
            }
            TraceMode::Live => {
                execute_with(&program, spec.name, |e| profiler.observe(e));
                None
            }
        };
        let hints = HintTable::from_profile(&profiler);
        let mut variants = Vec::with_capacity(2 * capacities.len());
        for (cap_name, capacity) in &capacities {
            for with_hints in [false, true] {
                let label = format!("{cap_name}{}", if with_hints { "+hints" } else { "" });
                let config = EvalConfig {
                    kind: PredictorKind::OneBit,
                    context: Context::HYBRID_8_24,
                    capacity: *capacity,
                    hints: with_hints.then(|| hints.clone()),
                };
                variants.push((label, config));
            }
        }
        let cells = match &trace {
            Some(trace) => fan_out_eval(&program, trace, spec.name, &variants),
            None => variants
                .into_iter()
                .map(|(label, config)| {
                    timed_record(spec.name, &label, |record| {
                        let eval = evaluate_program(&program, spec.name, config);
                        eval_record(record, &eval);
                        eval
                    })
                })
                .collect(),
        };
        let mut row = vec![spec.spec_name.to_string()];
        for (eval, record) in cells {
            row.push(fmt_pct(eval.stats.accuracy(), 2));
            records.push(record);
        }
        (row, records)
    });
    let mut header: Vec<String> = vec!["Benchmark".into()];
    for (name, _) in &capacities {
        header.push(name.to_string());
        header.push(format!("{name}+hints"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableBuilder::new(&header_refs);
    let mut records = Vec::new();
    for (row, cell_records) in results {
        table.row(&row);
        records.extend(cell_records);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 5: 1BIT-HYBRID accuracy vs ARPT size, without/with compiler hints"
    );
    let _ = writeln!(text, "{}", table.render());
    finish("figure5", opts, records, text, start, Vec::new())
}

/// **Figure 8**: speedup of the paper's memory-system configurations over
/// the (2+0) baseline.
pub fn figure8(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let configs = MachineConfig::figure8_suite();
    let (grouped, records, probe_cells) = timing_cells(opts, &configs);
    let specs = suite();
    let mut header: Vec<String> = vec!["Benchmark".into()];
    header.extend(configs.iter().map(|c| c.name.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableBuilder::new(&header_refs);
    let mut speedup_sums = vec![[0.0f64; 2]; configs.len()];
    let mut counts = [0u32; 2];
    let mut chart = BarChart::new("Figure 8: average speedup over (2+0)", 48);
    for (spec, stats_row) in specs.iter().zip(&grouped) {
        let mut row = vec![spec.spec_name.to_string()];
        let base_cycles = stats_row[0].cycles;
        for (i, stats) in stats_row.iter().enumerate() {
            let speedup = base_cycles as f64 / stats.cycles as f64;
            row.push(format!("{speedup:.3}"));
            speedup_sums[i][spec.is_fp as usize] += speedup;
        }
        counts[spec.is_fp as usize] += 1;
        table.row(&row);
    }
    let mut int_row = vec!["Int avg".to_string()];
    let mut fp_row = vec!["FP avg".to_string()];
    for (i, s) in speedup_sums.iter().enumerate() {
        let int_avg = s[0] / counts[0] as f64;
        let fp_avg = s[1] / counts[1] as f64;
        int_row.push(format!("{int_avg:.3}"));
        fp_row.push(format!("{fp_avg:.3}"));
        chart.bar(&format!("{} int", configs[i].name), int_avg);
        chart.bar(&format!("{} fp", configs[i].name), fp_avg);
        chart.gap();
    }
    table.row(&int_row);
    table.row(&fp_row);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 8: speedup over the (2+0) baseline (higher is better)"
    );
    let _ = writeln!(text, "{}", table.render());
    let _ = writeln!(text, "{}", chart.render());
    finish("figure8", opts, records, text, start, probe_cells)
}

/// Ablation: doubling the baseline L1 capacity.
pub fn ablation_l1size(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let mut big = MachineConfig::baseline_2_0();
    big.dcache.size_bytes = 128 * 1024;
    big.name = "(2+0)/128KB".into();
    let configs = [MachineConfig::baseline_2_0(), big];
    let (grouped, records, probe_cells) = timing_cells(opts, &configs);
    let specs = suite();
    let mut table = TableBuilder::new(&["Benchmark", "64KB cycles", "128KB cycles", "gain %"]);
    let mut total_gain = 0.0;
    for (spec, stats_row) in specs.iter().zip(&grouped) {
        let (base, wide) = (&stats_row[0], &stats_row[1]);
        let gain = 100.0 * (base.cycles as f64 / wide.cycles as f64 - 1.0);
        total_gain += gain;
        table.row(&[
            spec.spec_name.to_string(),
            base.cycles.to_string(),
            wide.cycles.to_string(),
            format!("{gain:+.2}"),
        ]);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Ablation: doubling the baseline L1 capacity (ports stay at 2)"
    );
    let _ = writeln!(text, "{}", table.render());
    let _ = writeln!(
        text,
        "Average gain: {:+.2}% — capacity is not the baseline's bottleneck",
        total_gain / specs.len() as f64
    );
    finish("ablation_l1size", opts, records, text, start, probe_cells)
}

/// Ablation: LVC hit rate vs size.
pub fn ablation_lvc(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let sizes = [1u64, 2, 4, 8];
    let configs: Vec<MachineConfig> = sizes
        .iter()
        .map(|kb| {
            let mut config = MachineConfig::decoupled(2, 2);
            config.lvc = Some(CacheConfig {
                size_bytes: kb * 1024,
                ..CacheConfig::lvc(2)
            });
            config.name = format!("(2+2)/{kb}KB");
            config
        })
        .collect();
    let (grouped, records, probe_cells) = timing_cells(opts, &configs);
    let specs = suite();
    let mut header = vec!["Benchmark".to_string()];
    header.extend(sizes.iter().map(|k| format!("{k}KB hit%")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableBuilder::new(&header_refs);
    let mut avg = vec![0.0f64; sizes.len()];
    for (spec, stats_row) in specs.iter().zip(&grouped) {
        let mut row = vec![spec.spec_name.to_string()];
        for (i, stats) in stats_row.iter().enumerate() {
            let rate = stats.lvc.as_ref().expect("decoupled machine").hit_rate();
            avg[i] += rate;
            row.push(format!("{:.2}", 100.0 * rate));
        }
        table.row(&row);
    }
    let mut avg_row = vec!["Average".to_string()];
    for a in &avg {
        avg_row.push(format!("{:.2}", 100.0 * a / specs.len() as f64));
    }
    table.row(&avg_row);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Ablation: Local Variable Cache hit rate vs size (direct-mapped, 1-cycle)"
    );
    let _ = writeln!(text, "{}", table.render());
    finish("ablation_lvc", opts, records, text, start, probe_cells)
}

/// Ablation: cache-bandwidth implementations.
pub fn ablation_ports(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let mut configs: Vec<MachineConfig> = Vec::new();
    configs.push(MachineConfig::conventional(1, 2));
    let mut lb = MachineConfig::conventional(1, 2);
    lb.dcache = lb.dcache.with_line_buffer();
    lb.name = "(1+lbuf)".into();
    configs.push(lb);
    let mut banked = MachineConfig::conventional(4, 2);
    banked.dcache = banked.dcache.with_banks(4);
    banked.name = "(4-bank)".into();
    configs.push(banked);
    configs.push(MachineConfig::conventional(4, 2));
    let mut split_banked = MachineConfig::decoupled(3, 3);
    split_banked.dcache = split_banked.dcache.with_banks(4);
    split_banked.name = "(3b+3)".into();
    configs.push(split_banked);
    configs.push(MachineConfig::decoupled(3, 3));

    let (grouped, records, probe_cells) = timing_cells(opts, &configs);
    let specs = suite();
    let mut header = vec!["Benchmark".to_string()];
    header.extend(configs.iter().map(|c| c.name.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableBuilder::new(&header_refs);
    let mut sums = vec![0.0; configs.len()];
    for (spec, stats_row) in specs.iter().zip(&grouped) {
        let mut row = vec![spec.spec_name.to_string()];
        let base = stats_row[0].cycles;
        for (i, stats) in stats_row.iter().enumerate() {
            let speedup = base as f64 / stats.cycles as f64;
            sums[i] += speedup;
            row.push(format!("{speedup:.3}"));
        }
        table.row(&row);
    }
    let mut avg = vec!["Average".to_string()];
    for s in &sums {
        avg.push(format!("{:.3}", s / specs.len() as f64));
    }
    table.row(&avg);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Ablation: bandwidth implementations, speedup over a 1-ported cache"
    );
    let _ = writeln!(text, "{}", table.render());
    let _ = writeln!(
        text,
        "Reading: a 4-banked array recovers most of ideal 4-porting; a line\n\
         buffer gives a single-ported array a second effective port; banked\n\
         data caches compose with data decoupling."
    );
    finish("ablation_ports", opts, records, text, start, probe_cells)
}

/// Ablation: region-misprediction recovery policy × penalty.
pub fn ablation_recovery(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let variants: Vec<(String, RecoveryMode, u64)> = vec![
        ("selective,p1".into(), RecoveryMode::SelectiveReissue, 1),
        ("selective,p5".into(), RecoveryMode::SelectiveReissue, 5),
        ("squash,p1".into(), RecoveryMode::Squash, 1),
        ("squash,p5".into(), RecoveryMode::Squash, 5),
    ];
    let configs: Vec<MachineConfig> = variants
        .iter()
        .map(|(name, recovery, penalty)| {
            let mut config = MachineConfig::decoupled(3, 3);
            config.recovery = *recovery;
            config.region_mispredict_penalty = *penalty;
            config.name = name.clone();
            config
        })
        .collect();
    let (grouped, records, probe_cells) = timing_cells(opts, &configs);
    let specs = suite();
    let mut header = vec!["Benchmark".to_string(), "mispred/1K refs".into()];
    header.extend(variants.iter().map(|(n, _, _)| n.clone()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableBuilder::new(&header_refs);
    for (spec, stats_row) in specs.iter().zip(&grouped) {
        let mut row = vec![spec.spec_name.to_string()];
        let base = stats_row[0].cycles;
        for (i, stats) in stats_row.iter().enumerate() {
            if i == 0 {
                let mispredict_rate =
                    1000.0 * stats.region_mispredicts as f64 / stats.mem_refs.max(1) as f64;
                row.push(format!("{mispredict_rate:.2}"));
            }
            row.push(format!("{:.4}", base as f64 / stats.cycles as f64));
        }
        table.row(&row);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Ablation: recovery policy × penalty, slowdown relative to selective/p1"
    );
    let _ = writeln!(text, "{}", table.render());
    finish("ablation_recovery", opts, records, text, start, probe_cells)
}

/// Ablation: 1-bit vs 2-bit ARPT entries.
pub fn ablation_twobit(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let variants: [(&str, PredictorKind, Context); 4] = [
        ("1BIT", PredictorKind::OneBit, Context::None),
        ("2BIT", PredictorKind::TwoBit, Context::None),
        ("1BIT-HYB", PredictorKind::OneBit, Context::HYBRID_8_24),
        ("2BIT-HYB", PredictorKind::TwoBit, Context::HYBRID_8_24),
    ];
    let specs = suite();
    let schemes: Vec<(&str, EvalConfig)> = variants
        .iter()
        .map(|(label, kind, context)| {
            (
                *label,
                EvalConfig {
                    kind: *kind,
                    context: *context,
                    capacity: Capacity::Unlimited,
                    hints: None,
                },
            )
        })
        .collect();
    let (grouped, records) = eval_cells(opts, &schemes);
    let mut table = TableBuilder::new(&["Benchmark", "1BIT", "2BIT", "1BIT-HYB", "2BIT-HYB"]);
    let mut wins = [0u32; 2];
    for (spec, reports) in specs.iter().zip(&grouped) {
        let mut row = vec![spec.spec_name.to_string()];
        let accs: Vec<f64> = reports.iter().map(|r| r.stats.accuracy()).collect();
        for acc in &accs {
            row.push(fmt_pct(*acc, 3));
        }
        if accs[0] >= accs[1] {
            wins[0] += 1;
        }
        if accs[2] >= accs[3] {
            wins[1] += 1;
        }
        table.row(&row);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Ablation: 1-bit vs 2-bit ARPT entries (unlimited table)"
    );
    let _ = writeln!(text, "{}", table.render());
    let _ = writeln!(
        text,
        "1-bit ≥ 2-bit on {}/12 workloads (plain) and {}/12 (hybrid context)",
        wins[0], wins[1]
    );
    finish("ablation_twobit", opts, records, text, start, Vec::new())
}

/// Diagnostic: full [`SimStats`] dump for one workload × a few configs.
pub fn probe(opts: &ExperimentOptions, name: &str) -> ExperimentRun {
    let start = Instant::now();
    let spec = workload(name).expect("workload");
    let configs = [
        MachineConfig::baseline_2_0(),
        MachineConfig::conventional(16, 2),
        MachineConfig::decoupled(3, 3),
    ];
    let mut records = Vec::new();
    let results = match opts.trace {
        TraceMode::Replay => {
            let (cap, record) = capture_workload(opts, spec);
            records.push(record);
            opts.pool().map(configs.to_vec(), |_i, config| {
                timed_record(spec.name, &config.name, |record| {
                    record.phase = "replay".into();
                    let (stats, rec) = run_timing(
                        opts.probe,
                        opts.shards,
                        &cap.program,
                        Some(&cap.trace),
                        spec.name,
                        &config,
                    );
                    timing_record(record, &stats);
                    (
                        stats,
                        rec.map(|recorder| ProbeCell {
                            workload: spec.name.to_string(),
                            config: config.name.clone(),
                            recorder,
                        }),
                    )
                })
            })
        }
        TraceMode::Live => opts.pool().map(configs.to_vec(), |_i, config| {
            timed_record(spec.name, &config.name, |record| {
                let program = spec.build(opts.scale);
                let (stats, rec) = run_timing(opts.probe, 1, &program, None, spec.name, &config);
                timing_record(record, &stats);
                (
                    stats,
                    rec.map(|recorder| ProbeCell {
                        workload: spec.name.to_string(),
                        config: config.name.clone(),
                        recorder,
                    }),
                )
            })
        }),
    };
    let mut probe_cells = Vec::new();
    let mut text = String::new();
    for ((s, cell), record) in results {
        probe_cells.extend(cell);
        let _ = writeln!(
            text,
            "{:8} cycles={} ipc={:.2} mem={} lvaq={} fwd(lsq/lvaq)={}/{} rob_stall={} q_stall={} vp={}@{:.2} l1={:.3} l2m={}",
            s.config_name,
            s.cycles,
            s.ipc(),
            s.mem_refs,
            s.lvaq_refs,
            s.lsq_forwards,
            s.lvaq_forwards,
            s.rob_stall_cycles,
            s.queue_stall_cycles,
            s.value_predictions,
            s.value_pred_accuracy(),
            s.dcache.hit_rate(),
            s.l2.misses,
        );
        records.push(record);
    }
    finish("probe", opts, records, text, start, probe_cells)
}

/// **Figure 8 companion**: stall attribution for every Figure 8 machine
/// configuration, aggregated over the whole suite.
///
/// The run is always probed internally (the table needs the recorders);
/// the `BENCH_figure8_stalls_probe.json` document still only appears when
/// `ARL_PROBE` asks for it, like every other binary.
pub fn figure8_stalls(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let configs = MachineConfig::figure8_suite();
    let (grouped, records, probe_cells) = timing_cells(&opts.with_probe(true), &configs);
    debug_assert_eq!(probe_cells.len(), grouped.len() * configs.len());

    // Fold the per-(workload × config) recorders into one recorder per
    // config; cells are workload-major, configs in suite order.
    let mut agg: Vec<Recorder> = vec![Recorder::new(); configs.len()];
    for (i, cell) in probe_cells.iter().enumerate() {
        agg[i % configs.len()].merge(&cell.recorder);
    }
    let base_cycles: u64 = grouped.iter().map(|row| row[0].cycles).sum();

    let mut header: Vec<String> = vec!["Config".into(), "Cycles".into(), "Useful %".into()];
    header.extend(StallCause::ALL.iter().map(|c| format!("{} %", c.label())));
    header.push("Speedup".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableBuilder::new(&header_refs);
    for (config, rec) in configs.iter().zip(&agg) {
        let total = rec.cycles().max(1) as f64;
        let mut row = vec![
            config.name.clone(),
            rec.cycles().to_string(),
            format!("{:.1}", 100.0 * rec.useful_cycles() as f64 / total),
        ];
        for cause in StallCause::ALL {
            row.push(format!(
                "{:.1}",
                100.0 * rec.stall_cycles(cause) as f64 / total
            ));
        }
        row.push(format!(
            "{:.3}",
            base_cycles as f64 / rec.cycles().max(1) as f64
        ));
        table.row(&row);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Figure 8 stall attribution: where commit-blocked cycles go, summed over the suite"
    );
    let _ = writeln!(text, "{}", table.render());
    let _ = writeln!(
        text,
        "Columns: useful = at least one instruction committed; the eight stall\n\
         categories attribute every remaining cycle to the reason the ROB head\n\
         could not commit (they sum with useful to 100%). Speedup is summed\n\
         suite cycles relative to the (2+0) baseline."
    );
    finish("figure8_stalls", opts, records, text, start, probe_cells)
}
