//! Replay-throughput benchmark for the timing core (`bench_speed`).
//!
//! Measures replayed instructions per second on the 12-workload suite for
//! the event-driven core and the legacy cycle-ticking core, emitting
//! `BENCH_speed.json` (schema [`SPEED_SCHEMA`], `arl-speed/v3`). The
//! `speedup` per row is event over legacy. Both cores' `SimStats` are
//! asserted equal before a row is recorded (`identical:true` in the
//! JSON) — every benchmark run doubles as an event-vs-legacy
//! differential test.
//!
//! The committed copy at the repo root is the speed trajectory the ci
//! gate holds the event core to: a run may not fall below
//! `ARL_SPEED_MIN_RATIO` (default 0.8) of the baseline's per-workload
//! `speedup` (machine-load-immune; see [`regressions_vs_baseline`]), or
//! of the baseline `event_ips` when legacy timing was skipped.
//!
//! Each workload's trace is captured once and pre-decoded into one
//! [`TraceEntry`] slice, so the measurement times the *simulator*, not
//! trace decode. Knobs (all warn-and-fallback via
//! [`crate::knob`]): `ARL_SPEED_WORKLOADS` (comma list filter),
//! `ARL_SPEED_REPS` (best-of, default 2), `ARL_SPEED_LEGACY=0` (skip the
//! slow legacy timing), `ARL_SPEED_CONFIG` (Figure 8 config name),
//! `ARL_SPEED_BASELINE` (path to a committed baseline to gate against),
//! `ARL_SPEED_MIN_RATIO`, plus the usual `ARL_SCALE`/`ARL_JSON`.

use std::time::Instant;

use arl_sim::{TraceEntry, TraceSource};
use arl_stats::Json;
use arl_timing::{CoreMode, MachineConfig, SimStats, TimingSim};
use arl_workloads::{suite, Scale};

use crate::knob::{knob_f64, knob_parsed, knob_u64};
use crate::runner::{scale_label, write_named_json};
use crate::INST_CAP;

/// `BENCH_speed.json` schema identifier.
///
/// v3 (this version) times one event-vs-legacy pair per workload and
/// records `identical` per row; v2 additionally timed traces carrying
/// precomputed per-instruction model hints.
pub const SPEED_SCHEMA: &str = "arl-speed/v3";

/// One workload's measurement.
pub struct SpeedRow {
    /// Workload name.
    pub workload: String,
    /// Instructions replayed per timed run.
    pub instructions: u64,
    /// Simulated cycles (identical on both cores, asserted).
    pub cycles: u64,
    /// Best-of-reps event-core throughput — the cell the gate tracks.
    pub event_ips: f64,
    /// Best-of-reps legacy-core throughput, the speedup's denominator.
    /// `None` when legacy was skipped (`ARL_SPEED_LEGACY=0`).
    pub legacy_ips: Option<f64>,
    /// Both cores produced bit-identical `SimStats` (asserted at
    /// measurement time; recorded so the artifact carries the proof).
    pub identical: bool,
}

impl SpeedRow {
    /// Event over legacy throughput.
    pub fn speedup(&self) -> Option<f64> {
        self.legacy_ips.map(|l| self.event_ips / l)
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("workload".to_string(), Json::from(self.workload.as_str())),
            ("instructions".to_string(), Json::from(self.instructions)),
            ("cycles".to_string(), Json::from(self.cycles)),
            ("event_ips".to_string(), Json::from(self.event_ips)),
            ("identical".to_string(), Json::from(self.identical)),
        ];
        if let Some(legacy) = self.legacy_ips {
            pairs.push(("legacy_ips".to_string(), Json::from(legacy)));
        }
        if let Some(speedup) = self.speedup() {
            pairs.push(("speedup".to_string(), Json::from(speedup)));
        }
        Json::Obj(pairs)
    }
}

/// The full benchmark result.
pub struct SpeedReport {
    /// Scale label the suite ran at.
    pub scale: Scale,
    /// Name of the machine config measured.
    pub config_name: String,
    /// Per-workload rows, suite order.
    pub rows: Vec<SpeedRow>,
}

/// Geometric mean of `values`; `None` when empty.
fn geomean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (mut log_sum, mut n) = (0.0f64, 0u32);
    for v in values {
        log_sum += v.max(f64::MIN_POSITIVE).ln();
        n += 1;
    }
    (n > 0).then(|| (log_sum / f64::from(n)).exp())
}

impl SpeedReport {
    /// Suite-aggregate event throughput (total instructions / total time).
    pub fn suite_event_ips(&self) -> f64 {
        let inst: u64 = self.rows.iter().map(|r| r.instructions).sum();
        let secs: f64 = self
            .rows
            .iter()
            .map(|r| r.instructions as f64 / r.event_ips)
            .sum();
        inst as f64 / secs.max(f64::MIN_POSITIVE)
    }

    /// Suite-aggregate legacy throughput, when every row timed legacy.
    pub fn suite_legacy_ips(&self) -> Option<f64> {
        let inst: u64 = self.rows.iter().map(|r| r.instructions).sum();
        let mut secs = 0.0;
        for row in &self.rows {
            secs += row.instructions as f64 / row.legacy_ips?;
        }
        Some(inst as f64 / secs.max(f64::MIN_POSITIVE))
    }

    /// Suite-aggregate speedup (aggregate-throughput ratio).
    pub fn suite_speedup(&self) -> Option<f64> {
        self.suite_legacy_ips().map(|l| self.suite_event_ips() / l)
    }

    /// Suite geometric-mean speedup (every workload weighted equally —
    /// the acceptance number).
    pub fn suite_speedup_geomean(&self) -> Option<f64> {
        let speedups: Option<Vec<f64>> = self.rows.iter().map(SpeedRow::speedup).collect();
        geomean(speedups?.into_iter())
    }

    /// The `BENCH_speed.json` document.
    pub fn to_json(&self) -> Json {
        let mut suite_pairs = vec![("event_ips".to_string(), Json::from(self.suite_event_ips()))];
        if let Some(legacy) = self.suite_legacy_ips() {
            suite_pairs.push(("legacy_ips".to_string(), Json::from(legacy)));
        }
        if let Some(speedup) = self.suite_speedup() {
            suite_pairs.push(("speedup".to_string(), Json::from(speedup)));
        }
        if let Some(geo) = self.suite_speedup_geomean() {
            suite_pairs.push(("speedup_geomean".to_string(), Json::from(geo)));
        }
        Json::obj([
            ("schema", Json::from(SPEED_SCHEMA)),
            ("scale", Json::from(scale_label(self.scale))),
            ("config", Json::from(self.config_name.as_str())),
            (
                "rows",
                Json::Arr(self.rows.iter().map(SpeedRow::to_json).collect()),
            ),
            ("suite", Json::Obj(suite_pairs)),
        ])
    }
}

/// The measured machine config: `ARL_SPEED_CONFIG` selects a Figure 8
/// config by name (e.g. `(2+0)`, `(3+3)`, `(16+0)`); unknown names warn
/// and fall back to the default `(3+3)`.
fn config_from_env() -> MachineConfig {
    knob_parsed(
        "ARL_SPEED_CONFIG",
        std::env::var("ARL_SPEED_CONFIG").ok().as_deref(),
        MachineConfig::decoupled(3, 3),
        "the (3+3) config (valid: figure-8 config names)",
        |name| {
            MachineConfig::figure8_suite()
                .into_iter()
                .find(|c| c.name == name)
        },
    )
}

fn workload_filter() -> Option<Vec<String>> {
    let raw = std::env::var("ARL_SPEED_WORKLOADS").ok()?;
    let names: Vec<String> = raw
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if names.is_empty() {
        None
    } else {
        Some(names)
    }
}

fn reps_from_env() -> u32 {
    let n = knob_u64(
        "ARL_SPEED_REPS",
        std::env::var("ARL_SPEED_REPS").ok().as_deref(),
        2,
        1,
    );
    u32::try_from(n.min(1_000)).unwrap_or(2)
}

fn legacy_enabled() -> bool {
    crate::knob::knob_bool(
        "ARL_SPEED_LEGACY",
        std::env::var("ARL_SPEED_LEGACY").ok().as_deref(),
        true,
    )
}

/// Times `reps` replays of `entries` under `core`, returning the best
/// throughput and the (rep-invariant) stats.
fn time_core(
    entries: &[TraceEntry],
    config: &MachineConfig,
    core: CoreMode,
    reps: u32,
) -> (f64, SimStats) {
    let mut cfg = config.clone();
    cfg.core = core;
    let mut best = 0.0f64;
    let mut stats = SimStats::default();
    for _ in 0..reps {
        let start = Instant::now();
        let run = TimingSim::run_trace(entries, &cfg);
        let secs = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        best = best.max(run.instructions as f64 / secs);
        stats = run;
    }
    (best, stats)
}

/// Runs the benchmark over the (possibly filtered) suite.
///
/// # Panics
///
/// Panics if a workload fails to execute or capture, if
/// `ARL_SPEED_WORKLOADS` names an unknown workload, or if the two cores'
/// stats diverge (which would mean the event core is broken — the
/// differential suite covers this, but a free check here keeps the
/// committed baseline honest).
pub fn run_speed_suite(scale: Scale) -> SpeedReport {
    let filter = workload_filter();
    let reps = reps_from_env();
    let with_legacy = legacy_enabled();
    let config = config_from_env();
    let mut rows = Vec::new();
    let mut matched = 0usize;
    for spec in suite() {
        if let Some(names) = &filter {
            if !names.iter().any(|n| n == spec.name) {
                continue;
            }
        }
        matched += 1;
        let program = spec.build(scale);
        let trace = arl_trace::capture(&program, INST_CAP)
            .unwrap_or_else(|e| panic!("{}: capture failed: {e}", spec.name));
        let mut replayer = arl_trace::Replayer::new(&trace, &program)
            .unwrap_or_else(|e| panic!("{}: trace rejected: {e}", spec.name));
        let mut entries = Vec::new();
        while let Some(entry) = replayer
            .next_entry()
            .unwrap_or_else(|e| panic!("{}: trace replay failed: {e}", spec.name))
        {
            entries.push(entry);
        }

        let (event_ips, stats) = time_core(&entries, &config, CoreMode::Event, reps);
        let legacy_ips = with_legacy.then(|| {
            let (legacy_ips, legacy_stats) = time_core(&entries, &config, CoreMode::Legacy, reps);
            assert_eq!(
                stats, legacy_stats,
                "{}: event and legacy cores diverged",
                spec.name
            );
            legacy_ips
        });
        rows.push(SpeedRow {
            workload: spec.name.to_string(),
            instructions: stats.instructions,
            cycles: stats.cycles,
            event_ips,
            legacy_ips,
            identical: true,
        });
    }
    if let Some(names) = &filter {
        assert_eq!(
            matched,
            names.len(),
            "ARL_SPEED_WORKLOADS names unknown workloads: {names:?}"
        );
    }
    SpeedReport {
        scale,
        config_name: config.name.clone(),
        rows,
    }
}

/// Writes the report as `BENCH_speed.json` per the `ARL_JSON` convention.
pub fn write_speed_json(report: &SpeedReport) -> std::io::Result<std::path::PathBuf> {
    write_named_json("BENCH_speed.json", &report.to_json())
}

fn min_ratio() -> f64 {
    knob_f64(
        "ARL_SPEED_MIN_RATIO",
        std::env::var("ARL_SPEED_MIN_RATIO").ok().as_deref(),
        0.8,
        0.0,
    )
}

/// Gates `report` against the committed baseline at `path`. Returns the
/// offending rows.
///
/// When a row timed both cores and the baseline row recorded a
/// `speedup`, the gate compares speedups: the row must reach
/// `min_ratio × baseline speedup`. Both cores share whatever load the
/// machine is under, so the ratio cancels it — absolute throughput on a
/// shared box swings ±30% with background load and would gate on the
/// weather. The absolute `event_ips` floor is kept only as a fallback
/// for legacy-skipped runs (`ARL_SPEED_LEGACY=0`), where no same-run
/// reference exists.
pub fn regressions_vs_baseline(report: &SpeedReport, path: &str) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("baseline {path} is not JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SPEED_SCHEMA) => {}
        other => {
            return Err(format!(
                "baseline {path} has schema {other:?}, want {SPEED_SCHEMA}"
            ))
        }
    }
    let ratio = min_ratio();
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("baseline {path} has no rows array"))?;
    let mut failures = Vec::new();
    for row in &report.rows {
        let baseline_row = rows
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(row.workload.as_str()));
        let Some(baseline_row) = baseline_row else {
            continue; // workload not in the baseline (e.g. different scale subset)
        };
        if let (Some(speedup), Some(baseline_speedup)) = (
            row.speedup(),
            baseline_row.get("speedup").and_then(Json::as_f64),
        ) {
            let floor = baseline_speedup * ratio;
            if speedup < floor {
                failures.push(format!(
                    "{}: event/legacy speedup {:.2}x < {:.2}x ({}% of baseline {:.2}x)",
                    row.workload,
                    speedup,
                    floor,
                    (ratio * 100.0) as u32,
                    baseline_speedup,
                ));
            }
            continue;
        }
        let Some(baseline_ips) = baseline_row.get("event_ips").and_then(Json::as_f64) else {
            continue;
        };
        let floor = baseline_ips * ratio;
        if row.event_ips < floor {
            failures.push(format!(
                "{}: {:.0} inst/s < {:.0} ({}% of baseline {:.0})",
                row.workload,
                row.event_ips,
                floor,
                (ratio * 100.0) as u32,
                baseline_ips,
            ));
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(rows: Vec<SpeedRow>) -> SpeedReport {
        SpeedReport {
            scale: Scale::default(),
            config_name: "(3+3)".to_string(),
            rows,
        }
    }

    fn row(workload: &str, event_ips: f64, legacy_ips: Option<f64>) -> SpeedRow {
        SpeedRow {
            workload: workload.to_string(),
            instructions: 1_000_000,
            cycles: 200_000,
            event_ips,
            legacy_ips,
            identical: true,
        }
    }

    fn baseline_file(tag: &str, rows: Vec<SpeedRow>) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("arl-speed-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, report(rows).to_json().render()).expect("write baseline");
        path
    }

    #[test]
    fn speedup_gate_is_immune_to_shared_machine_load() {
        let baseline = baseline_file("ratio", vec![row("go", 6_000_000.0, Some(2_000_000.0))]);
        let path = baseline.to_str().expect("utf-8 path");
        // Same code on a box under heavy load: both cores at half
        // throughput, so the speedup ratio is unchanged and the gate
        // must pass even though absolute throughput is far below the
        // 0.8 floor.
        let loaded = report(vec![row("go", 3_000_000.0, Some(1_000_000.0))]);
        assert_eq!(
            regressions_vs_baseline(&loaded, path).expect("gate runs"),
            Vec::<String>::new()
        );
        // A genuine hot-loop regression shows up as a speedup drop no
        // matter the load: event core slowed, legacy untouched.
        let regressed = report(vec![row("go", 2_000_000.0, Some(1_000_000.0))]);
        let failures = regressions_vs_baseline(&regressed, path).expect("gate runs");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("speedup"), "{}", failures[0]);
        std::fs::remove_file(&baseline).ok();
    }

    #[test]
    fn absolute_floor_applies_only_when_legacy_was_skipped() {
        let baseline = baseline_file("floor", vec![row("go", 6_000_000.0, Some(2_000_000.0))]);
        let path = baseline.to_str().expect("utf-8 path");
        // Legacy skipped: no same-run reference, so the absolute
        // event_ips floor (0.8 × 6M = 4.8M) gates.
        let slow = report(vec![row("go", 3_000_000.0, None)]);
        let failures = regressions_vs_baseline(&slow, path).expect("gate runs");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("inst/s"), "{}", failures[0]);
        let fast = report(vec![row("go", 5_000_000.0, None)]);
        assert_eq!(
            regressions_vs_baseline(&fast, path).expect("gate runs"),
            Vec::<String>::new()
        );
        // Workloads absent from the baseline are never gated.
        let unknown = report(vec![row("novel", 1.0, None)]);
        assert_eq!(
            regressions_vs_baseline(&unknown, path).expect("gate runs"),
            Vec::<String>::new()
        );
        std::fs::remove_file(&baseline).ok();
    }

    #[test]
    fn speedup_and_geomean() {
        let r = row("go", 8_000_000.0, Some(2_000_000.0));
        assert_eq!(r.speedup(), Some(4.0), "event over legacy");
        let rep = report(vec![
            row("go", 8_000_000.0, Some(2_000_000.0)),
            row("gcc", 9_000_000.0, Some(1_000_000.0)),
        ]);
        let geo = rep.suite_speedup_geomean().expect("both rows timed legacy");
        assert!((geo - 6.0).abs() < 1e-9, "geomean(4,9) = 6, got {geo}");
        let rendered = rep.to_json().render();
        assert!(rendered.contains("\"schema\":\"arl-speed/v3\""));
        assert!(rendered.contains("\"identical\":true"));
        assert!(rendered.contains("\"speedup_geomean\""));
    }

    #[test]
    fn geomean_of_empty_is_none() {
        assert_eq!(geomean(std::iter::empty()), None);
        let no_legacy = report(vec![row("go", 1.0, None)]);
        assert_eq!(no_legacy.suite_speedup_geomean(), None);
    }
}
