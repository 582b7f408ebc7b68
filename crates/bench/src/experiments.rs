//! One entry point per table/figure binary, shared between the thin
//! `src/bin/*` wrappers and the integration tests.
//!
//! Each experiment renders over two shared functions. `workload_passes`
//! runs one functional pass per workload: it builds the program, executes
//! it once with an optional profiler, and captures the trace only when the
//! experiment replays. A cell runner (`timing_cells` or `eval_cells`) then
//! fans the (workload × config) cells out over a [`Pool`] and folds the
//! results back in cell order, so the rendered [`ExperimentRun::text`] is
//! byte-identical for any thread count. Alongside the text, every pass and
//! cell contributes a [`RunRecord`] to the experiment's [`SuiteReport`]
//! for `BENCH_*.json` emission.

use std::fmt::Write as _;
use std::time::Instant;

use arl_asm::Program;
use arl_core::{Capacity, Context, EvalConfig, HintTable, PredictorKind, Source};
use arl_mem::{Region, RegionSet};
use arl_sim::{
    Machine, RegionProfiler, SlidingWindowProfiler, TraceEntry, TraceSource, WorkloadCharacter,
};
use arl_stats::{BarChart, Json, TableBuilder};
use arl_timing::{
    BackendConfig, CacheConfig, MachineConfig, Recorder, RecoveryMode, SimStats, StallCause,
    TimingSim,
};
use arl_trace::Trace;
use arl_workloads::{suite, workload, Scale, WorkloadSpec};

use crate::knob::Knobs;
use crate::runner::{
    end_main, timed_record, JobFailure, Pool, RunRecord, SuiteFailures, SuiteReport, PROBE_SCHEMA,
};
use crate::{
    evaluate_program, evaluate_trace_all, fmt_millions, fmt_pct, functional_pass, replayer,
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

    /// Overrides the memory backend (tests drive per-backend differential
    /// comparisons with this).
    pub fn with_backend(mut self, backend: BackendConfig) -> ExperimentOptions {
        self.backend = backend;
        self
    }

    fn pool(&self) -> Pool {
        Pool::new(self.threads)
    }

    /// Whether a workload's pass captures the trace its cells replay:
    /// always, except under [`TraceMode::Live`], where every cell executes
    /// for itself.
    fn capture(&self) -> bool {
        self.trace == TraceMode::Replay
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

/// Runs an experiment with the environment's `Knobs`, prints its text,
/// and emits `BENCH_<experiment>.json` (plus the `ARL_PROBE` document)
/// under `ARL_JSON`. The shared `main` of every table/figure binary.
///
/// Failed jobs never abort the suite silently: a `SuiteFailures` panic
/// from the pool (every surviving cell already ran) ends in a
/// one-line-per-job stderr summary, no output and a non-zero exit.
pub fn run_main(experiment: impl FnOnce(&ExperimentOptions) -> ExperimentRun) {
    let knobs = Knobs::from_env();
    let opts = knobs.options();
    let run = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| experiment(&opts))) {
        Ok(run) => run,
        Err(payload) => match payload.downcast::<SuiteFailures>() {
            Ok(failures) => {
                let mut lines: Vec<String> = failures.0.iter().map(JobFailure::summary).collect();
                lines.push(format!(
                    "{} job(s) failed; no output written",
                    failures.0.len()
                ));
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
    end_main(&knobs, &run.text, &docs, &[]);
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

/// One workload's functional pass: its built program and, when the
/// experiment replays, the captured trace its cells replay.
struct Pass {
    spec: WorkloadSpec,
    program: Program,
    trace: Option<Trace>,
}

/// The observer of a pass nothing profiles.
const UNOBSERVED: Option<fn(&mut (), &TraceEntry)> = None;

/// Runs one functional pass per workload of `specs`, one pool job each,
/// and hands every pass with its profile to `then` inside the same job.
///
/// A pass builds the program and executes it once, feeding every retired
/// instruction to `observe` on a fresh `P`. `capture` (see
/// [`ExperimentOptions::capture`]) also records the trace. A pass with
/// neither a capture nor an observer only builds the program: under
/// [`TraceMode::Live`] its cells execute it themselves. Every pass that
/// executed contributes one record, `"capture"` when it captured and
/// `"profile"` otherwise.
fn workload_passes<P: Default, T: Send>(
    opts: &ExperimentOptions,
    specs: &[WorkloadSpec],
    capture: bool,
    observe: Option<impl Fn(&mut P, &TraceEntry) + Sync>,
    then: impl Fn(Pass, P) -> T + Sync,
) -> (Vec<T>, Vec<RunRecord>) {
    let executes = capture || observe.is_some();
    let label = if capture { "capture" } else { "profile" };
    let jobs = opts.pool().map(specs, |&spec| {
        let mut profile = P::default();
        let (pass, record) = timed_record(spec.name, label, |record| {
            let program = spec.build(opts.scale);
            let run = match &observe {
                Some(observe) => Some(functional_pass(&program, spec.name, capture, |e| {
                    observe(&mut profile, e)
                })),
                None if capture => Some(functional_pass(&program, spec.name, capture, |_| {})),
                None => None,
            };
            let trace = run.and_then(|(metrics, trace)| {
                record.instructions = metrics.instructions;
                record.peak_rss_bytes = metrics.peak_rss_bytes;
                trace
            });
            if trace.is_some() {
                record.phase = "capture".into();
            }
            Pass {
                spec,
                program,
                trace,
            }
        });
        (then(pass, profile), executes.then_some(record))
    });
    let mut records = Vec::new();
    let results = jobs
        .into_iter()
        .map(|(result, record)| {
            records.extend(record);
            result
        })
        .collect();
    (results, records)
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

/// Runs `config` over `source`, attaching a [`Recorder`] when `probe` is
/// set. Monomorphized per source, so the live and replay loops are the
/// same code with no per-entry dispatch.
fn run_timing<S: TraceSource>(
    probe: bool,
    source: &mut S,
    name: &str,
    config: &MachineConfig,
) -> (SimStats, Option<Recorder>) {
    if probe {
        let (stats, recorder) = TimingSim::run_source_probed(source, config, Recorder::new())
            .unwrap_or_else(|e| panic!("workload {name} failed: {e}"));
        (stats, Some(recorder))
    } else {
        let stats = TimingSim::run_source(source, config)
            .unwrap_or_else(|e| panic!("workload {name} failed: {e}"));
        (stats, None)
    }
}

/// Runs one timing cell over `pass`: live execution when the pass captured
/// nothing, else a replay of its trace. The stats are bit-identical either
/// way.
fn timing_cell(
    opts: &ExperimentOptions,
    pass: &Pass,
    config: &MachineConfig,
) -> (SimStats, Option<Recorder>) {
    let (program, name) = (&pass.program, pass.spec.name);
    match &pass.trace {
        None => run_timing(opts.probe, &mut Machine::new(program), name, config),
        Some(trace) => run_timing(
            opts.probe,
            &mut replayer(trace, program, name),
            name,
            config,
        ),
    }
}

/// Runs every (workload × config) timing cell of `specs` in parallel; the
/// backbone of Figure 8, the timing ablations and `probe`. Results come
/// back grouped by workload, configs in the given order, with one
/// [`ProbeCell`] per cell (in cell order) when `opts.probe` is set.
///
/// The workload passes run first: in [`TraceMode::Replay`] each captures
/// its trace (a `"capture"` record; these lead the record list) and every
/// cell replays it; in [`TraceMode::Live`] every cell re-executes the
/// built program. Both modes produce bit-identical [`SimStats`].
fn timing_cells(
    opts: &ExperimentOptions,
    specs: &[WorkloadSpec],
    configs: &[MachineConfig],
) -> (Vec<Vec<SimStats>>, Vec<RunRecord>, Vec<ProbeCell>) {
    // `ARL_BACKEND` swaps the memory backend under every swept config; the
    // default baseline application is a no-op (names and stats untouched).
    let configs: Vec<MachineConfig> = configs
        .iter()
        .map(|c| c.clone().with_backend(opts.backend))
        .collect();
    let (passes, mut records) =
        workload_passes(opts, specs, opts.capture(), UNOBSERVED, |pass, ()| pass);
    let cells: Vec<(usize, usize)> = (0..passes.len())
        .flat_map(|wi| (0..configs.len()).map(move |ci| (wi, ci)))
        .collect();
    let results = opts.pool().map(&cells, |&(wi, ci)| {
        let (pass, config) = (&passes[wi], &configs[ci]);
        timed_record(pass.spec.name, &config.name, |record| {
            if pass.trace.is_some() {
                record.phase = "replay".into();
            }
            let (stats, recorder) = timing_cell(opts, pass, config);
            timing_record(record, &stats);
            let cell = recorder.map(|recorder| ProbeCell {
                workload: pass.spec.name.to_string(),
                config: config.name.clone(),
                recorder,
            });
            (stats, cell)
        })
    });
    let mut grouped: Vec<Vec<SimStats>> = Vec::with_capacity(passes.len());
    let mut probe_cells = Vec::new();
    for (i, ((stats, cell), record)) in results.into_iter().enumerate() {
        if i % configs.len() == 0 {
            grouped.push(Vec::with_capacity(configs.len()));
        }
        grouped.last_mut().expect("row started").push(stats);
        probe_cells.extend(cell);
        records.push(record);
    }
    (grouped, records, probe_cells)
}

/// Runs every (workload × scheme) prediction-evaluation cell, one pool job
/// per workload; the backbone of Figure 4, Table 3, Figure 5 and the 2-bit
/// ablation. Each workload's schemes come from its pass's profile (only
/// Figure 5 observes, for its hint table). Results come back grouped by
/// workload, schemes in the order `schemes` returns them.
///
/// In [`TraceMode::Replay`] the pass captures the trace (a `"capture"`
/// record; these lead the record list, as in [`timing_cells`]), one decode
/// of it feeds every scheme ([`fan_out_eval`]), and the job drops it before
/// returning, so at most one trace per worker is ever live. In
/// [`TraceMode::Live`] every scheme re-executes the built program. Both
/// modes produce bit-identical [`EvalReport`]s.
fn eval_cells<P: Default, L: AsRef<str>>(
    opts: &ExperimentOptions,
    observe: Option<impl Fn(&mut P, &TraceEntry) + Sync>,
    schemes: impl Fn(P) -> Vec<(L, EvalConfig)> + Sync,
) -> (Vec<Vec<EvalReport>>, Vec<RunRecord>) {
    let (cells, pass_records) =
        workload_passes(opts, &suite(), opts.capture(), observe, |pass, profile| {
            let (program, name) = (&pass.program, pass.spec.name);
            let schemes = schemes(profile);
            match &pass.trace {
                Some(trace) => fan_out_eval(program, trace, name, &schemes),
                None => schemes
                    .iter()
                    .map(|(label, config)| {
                        timed_record(name, label.as_ref(), |record| {
                            let report = evaluate_program(program, name, config.clone());
                            eval_record(record, &report);
                            report
                        })
                    })
                    .collect(),
            }
        });
    // A live pass runs only to profile; the re-executed cells are the record.
    let mut records: Vec<RunRecord> = pass_records
        .into_iter()
        .filter(|r| r.phase == "capture")
        .collect();
    let grouped = cells
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|(report, record)| {
                    records.push(record);
                    report
                })
                .collect()
        })
        .collect();
    (grouped, records)
}

/// **Table 1**: per-benchmark dynamic instruction count and load/store
/// percentages.
pub fn table1(opts: &ExperimentOptions) -> ExperimentRun {
    let start = Instant::now();
    let observe = Some(WorkloadCharacter::observe);
    let (characters, records) = workload_passes(opts, &suite(), false, observe, |_, c| c);
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
    let observe = Some(SlidingWindowProfiler::observe);
    let (windows, records) = workload_passes(opts, &suite(), false, observe, |_, p| p.stats());
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
    let observe = Some(RegionProfiler::observe);
    let (breakdowns, records) =
        workload_passes(opts, &suite(), false, observe, |_, p| p.breakdown());
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
    let (grouped, records) = eval_cells(opts, UNOBSERVED, |()| schemes.clone());
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
    let (grouped, records) = eval_cells(opts, UNOBSERVED, |()| schemes.clone());
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
    // The hint table needs one profiled functional pass per workload either
    // way; in replay mode that pass is also the capture.
    let observe = Some(RegionProfiler::observe);
    let (grouped, mut records) = eval_cells(opts, observe, |profiler| {
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
        variants
    });
    // Figure 5 lists each workload's capture right before its cells.
    let specs = suite();
    records.sort_by_key(|r| specs.iter().position(|s| s.name == r.workload));
    let mut header: Vec<String> = vec!["Benchmark".into()];
    for (name, _) in &capacities {
        header.push(name.to_string());
        header.push(format!("{name}+hints"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = TableBuilder::new(&header_refs);
    for (spec, reports) in specs.iter().zip(&grouped) {
        let mut row = vec![spec.spec_name.to_string()];
        row.extend(reports.iter().map(|r| fmt_pct(r.stats.accuracy(), 2)));
        table.row(&row);
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
    let specs = suite();
    let (grouped, records, probe_cells) = timing_cells(opts, &specs, &configs);
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
    let specs = suite();
    let (grouped, records, probe_cells) = timing_cells(opts, &specs, &configs);
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
    let specs = suite();
    let (grouped, records, probe_cells) = timing_cells(opts, &specs, &configs);
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

    let specs = suite();
    let (grouped, records, probe_cells) = timing_cells(opts, &specs, &configs);
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
    let specs = suite();
    let (grouped, records, probe_cells) = timing_cells(opts, &specs, &configs);
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
    let (grouped, records) = eval_cells(opts, UNOBSERVED, |()| schemes.clone());
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
    let (grouped, records, probe_cells) = timing_cells(opts, &[spec], &configs);
    let mut text = String::new();
    for s in &grouped[0] {
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
    let (grouped, records, probe_cells) = timing_cells(&opts.with_probe(true), &suite(), &configs);
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
