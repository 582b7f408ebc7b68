//! Metrics from a workload run's spans and reports, and the process
//! readings (`/proc`) they use.

use std::collections::BTreeMap;

use crate::spans::Work;
use crate::workloads::{WorkloadRun, EXPERIMENTS};

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(metrics: &mut Metrics, name: impl Into<String>, value: f64, unit: &'static str) {
    // A metric with no data (an empty or zero-length denominator) is left
    // out rather than printed as a non-number.
    if value.is_finite() {
        metrics.insert(name.into(), (value, unit));
    }
}

/// The `q`-quantile of `values`, interpolating linearly between ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Process CPU seconds so far (user + system, every thread), from
/// `/proc/self/stat` in USER_HZ (100/s) ticks.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &WorkloadRun, peak_rss_mb: f64) -> Metrics {
    let spans = run.spans.all();
    let self_s = run.spans.self_secs();
    let timed = run.workload.timed_layers();
    let inst_layer = run.workload.inst_layer();
    let (mut round_s, mut minst_s, mut cpu_s) = (Vec::new(), Vec::new(), Vec::new());
    for round in &run.rounds {
        let (mut work, mut inst, mut cpu) = (0.0, 0u64, 0.0);
        for i in round.clone() {
            let span = &spans[i];
            if timed.contains(&span.name) {
                work += self_s[i];
            }
            if span.name == inst_layer {
                inst += span.work.inst;
            }
            if span.name == "bench.op" {
                cpu += run.op_cpu_s.get(&span.op).copied().unwrap_or(0.0);
            }
        }
        round_s.push(work);
        minst_s.push(inst as f64 / work / 1e6);
        cpu_s.push(cpu);
    }
    let mut m = Metrics::new();
    put(&mut m, "round_s", median(&round_s), "s");
    put(&mut m, "minst_s", median(&minst_s), "Minst/s");
    put(&mut m, "cpu_s", median(&cpu_s), "s");
    // Each set-up step (one workload's) at its fastest repetition.
    let mut steps: BTreeMap<&str, f64> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == "bench.setup") {
        let step = steps
            .entry(run.spans.op_key(span.op))
            .or_insert(f64::INFINITY);
        *step = step.min(span.secs());
    }
    put(&mut m, "setup_s", steps.values().sum(), "s");
    put(&mut m, "peak_rss_mb", peak_rss_mb, "MB");
    m
}

/// A layer's totals over a run: self seconds, span count and work.
#[derive(Default)]
struct Layer {
    secs: f64,
    count: usize,
    work: Work,
    durations: Vec<f64>,
}

/// `timing.minst_s.<config>` name for a config name: `(3+0)3c` → `c3_0_3c`.
pub fn config_metric(config: &str) -> String {
    let mut name = String::from("c");
    for c in config.chars() {
        if c.is_ascii_alphanumeric() {
            name.push(c);
        } else if !name.ends_with('_') && name.len() > 1 {
            name.push('_');
        }
    }
    name.trim_end_matches('_').to_string()
}

/// The per-layer metrics a run's spans and reports give. A metric whose
/// layer the run never entered is absent.
pub fn per_layer(run: &WorkloadRun) -> Metrics {
    let spans = run.spans.all();
    let self_s = run.spans.self_secs();
    let mut layers: BTreeMap<&str, Layer> = BTreeMap::new();
    // Timing cells grouped by config and by workload: (inst, secs).
    let mut by_config: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut by_workload: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut experiments: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(&self_s) {
        let layer = layers.entry(span.name).or_default();
        layer.secs += own;
        layer.count += 1;
        layer.work.inst += span.work.inst;
        layer.work.bytes += span.work.bytes;
        layer.work.cycles += span.work.cycles;
        layer.durations.push(span.secs());
        let key = run.spans.op_key(span.op);
        if span.name == "timing.replay" {
            if let Some((workload, config)) = key.split_once(' ') {
                for (map, k) in [
                    (&mut by_config, config_metric(config)),
                    (&mut by_workload, workload.to_string()),
                ] {
                    let e = map.entry(k).or_default();
                    e.0 += span.work.inst;
                    e.1 += own;
                }
            }
        }
        if span.name == "bench.experiment" {
            if let Some((name, _)) = EXPERIMENTS.iter().find(|(n, _)| *n == key) {
                experiments.entry(name).or_default().push(span.secs());
            }
        }
    }
    let layer = |name: &str| layers.get(name);
    let minst_s = |l: &Layer| l.work.inst as f64 / l.secs / 1e6;
    let mb_s = |l: &Layer| l.work.bytes as f64 / l.secs / 1e6;
    let ns_per = |l: &Layer, n: u64| l.secs / n as f64 * 1e9;
    let mut m = Metrics::new();

    if let Some(l) = layer("workloads.build") {
        // Seconds to build the 12-program suite.
        let suites = l.count as f64 / 12.0;
        put(&mut m, "workloads.build_s", l.secs / suites, "s");
    }
    if let Some(l) = layer("sim.execute") {
        put(&mut m, "sim.execute_minst_s", minst_s(l), "Minst/s");
    }
    if let Some(l) = layer("trace.capture") {
        put(&mut m, "trace.capture_minst_s", minst_s(l), "Minst/s");
        let bytes_per_inst = l.work.bytes as f64 / l.work.inst as f64;
        put(&mut m, "trace.bytes_per_inst", bytes_per_inst, "B/inst");
        if let Some(e) = layer("sim.execute") {
            let encode = ns_per(l, l.work.inst) - ns_per(e, e.work.inst);
            put(&mut m, "trace.encode_ns_per_inst", encode, "ns/inst");
        }
    }
    if let Some(l) = layer("sink.write") {
        put(&mut m, "sink.write_mb_s", mb_s(l), "MB/s");
    }
    if let Some(l) = layer("trace.read") {
        put(&mut m, "trace.read_mb_s", mb_s(l), "MB/s");
    }
    if let Some(l) = layer("trace.decode") {
        put(&mut m, "trace.decode_minst_s", minst_s(l), "Minst/s");
    }
    if let Some(l) = layer("timing.replay") {
        put(
            &mut m,
            "timing.ns_per_inst",
            ns_per(l, l.work.inst),
            "ns/inst",
        );
        put(
            &mut m,
            "timing.ns_per_cycle",
            ns_per(l, l.work.cycles),
            "ns/cycle",
        );
        let cell_ms: Vec<f64> = l.durations.iter().map(|d| d * 1e3).collect();
        put(&mut m, "timing.cell_ms.p50", quantile(&cell_ms, 0.5), "ms");
        put(&mut m, "timing.cell_ms.p75", quantile(&cell_ms, 0.75), "ms");
        for (k, (inst, secs)) in by_config.iter().chain(&by_workload) {
            let rate = *inst as f64 / secs / 1e6;
            put(&mut m, format!("timing.minst_s.{k}"), rate, "Minst/s");
        }
    }
    if let Some(l) = layer("bench.experiment") {
        paper_metrics(run, l.secs, &experiments, &mut m);
    }
    m
}

/// `paper.*`: per-experiment seconds, and the phase split, pool use and
/// functional work the experiments' own reports record.
fn paper_metrics(
    run: &WorkloadRun,
    experiment_secs: f64,
    experiments: &BTreeMap<&str, Vec<f64>>,
    m: &mut Metrics,
) {
    for (name, secs) in experiments {
        put(m, format!("paper.{name}_s"), median(secs), "s");
    }
    let rounds = run.rounds.len() as f64;
    let records: Vec<_> = run.reports.iter().flat_map(|r| &r.records).collect();
    let busy: f64 = records.iter().map(|r| r.wall_seconds).sum();
    put(
        m,
        "paper.pool_busy_frac",
        busy / (run.threads as f64 * experiment_secs),
        "frac",
    );
    let functional: Vec<_> = records.iter().filter(|r| r.phase != "replay").collect();
    put(
        m,
        "paper.functional_passes",
        functional.len() as f64 / rounds,
        "count",
    );
    let functional_inst: u64 = functional.iter().map(|r| r.instructions).sum();
    put(
        m,
        "paper.functional_minst",
        functional_inst as f64 / rounds / 1e6,
        "Minst",
    );
    let phase_secs = |phase: &str| {
        records
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| r.wall_seconds)
            .sum::<f64>()
            / rounds
    };
    put(m, "paper.execute_cpu_s", phase_secs("execute"), "s");
    put(m, "paper.capture_cpu_s", phase_secs("capture"), "s");
    // Replay cells with cycles are timing cells; the rest evaluate predictors.
    let cell_ms = |timing: bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.phase == "replay" && r.cycles.is_some() == timing)
            .map(|r| r.wall_seconds * 1e3)
            .collect()
    };
    let (timing_ms, eval_ms) = (cell_ms(true), cell_ms(false));
    put(
        m,
        "paper.timing_cpu_s",
        timing_ms.iter().sum::<f64>() / 1e3 / rounds,
        "s",
    );
    put(
        m,
        "paper.eval_cpu_s",
        eval_ms.iter().sum::<f64>() / 1e3 / rounds,
        "s",
    );
    put(
        m,
        "paper.timing_cell_ms.p50",
        quantile(&timing_ms, 0.5),
        "ms",
    );
    put(
        m,
        "paper.timing_cell_ms.p75",
        quantile(&timing_ms, 0.75),
        "ms",
    );
    put(m, "paper.eval_cell_ms.p50", quantile(&eval_ms, 0.5), "ms");
    put(m, "paper.eval_cell_ms.p90", quantile(&eval_ms, 0.9), "ms");
}

/// Self seconds and span count per layer, for the traced run's summary.
pub fn self_time_by_layer(run: &WorkloadRun) -> BTreeMap<&'static str, (f64, usize)> {
    let mut by_layer: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, own) in run.spans.all().iter().zip(run.spans.self_secs()) {
        let e = by_layer.entry(span.name).or_default();
        e.0 += own;
        e.1 += 1;
    }
    by_layer
}

/// Tracing overhead in percent of the run's wall time: what recording its
/// spans cost, at `cost_ns` per span.
pub fn trace_overhead_pct(run: &WorkloadRun, cost_ns: f64) -> f64 {
    let spans = run.spans.all();
    let wall: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.secs())
        .sum();
    cost_ns * 1e-9 * spans.len() as f64 / wall * 100.0
}
