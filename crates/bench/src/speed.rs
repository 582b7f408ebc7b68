//! Replay-throughput benchmark for the timing core (`bench_speed`).
//!
//! Measures replayed instructions per second on the 12-workload suite on
//! the `(3+3)` machine, for the event-driven production core and the
//! legacy cycle-ticking oracle ([`arl_timing::reference`]), emitting
//! `BENCH_speed.json` (schema [`SPEED_SCHEMA`], `arl-speed/v3`). The
//! `speedup` per row is event over legacy. Both cores' `SimStats` are
//! asserted equal before a row is recorded (`identical:true` in the
//! JSON) — every benchmark run doubles as an event-vs-legacy
//! differential test.
//!
//! The committed copy at the repo root is the speed trajectory the ci
//! gate holds the event core to: a run may not fall below
//! [`MIN_SPEEDUP_RATIO`] of the baseline's per-workload `speedup`
//! (machine-load-immune; see [`regressions_vs_baseline`]).
//!
//! Each workload's trace is captured once and pre-decoded into one
//! [`TraceEntry`] slice, so the measurement times the *simulator*, not
//! trace decode. The reps alternate the two cores so both share the same
//! window of host load. Knobs (all warn-and-fallback via [`Knobs`]):
//! `ARL_SPEED_WORKLOADS` (comma list filter), `ARL_SPEED_BASELINE` (path
//! to a committed baseline to gate against), plus the usual
//! `ARL_SCALE`/`ARL_JSON`. Each core's rate is the best of [`SPEED_REPS`]
//! reps.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use arl_sim::{EntrySliceSource, TraceEntry, TraceSource};
use arl_stats::Json;
use arl_timing::{reference, MachineConfig, NullProbe, SimStats, TimingSim};
use arl_workloads::{suite, Scale};

use crate::knob::Knobs;
use crate::runner::{end_main, scale_label};
use crate::INST_CAP;

/// `BENCH_speed.json` schema identifier.
///
/// v3 (this version) times one event-vs-legacy pair per workload and
/// records `identical` per row; v2 additionally timed traces carrying
/// precomputed per-instruction model hints.
pub(crate) const SPEED_SCHEMA: &str = "arl-speed/v3";

/// One workload's measurement.
pub(crate) struct SpeedRow {
    /// Workload name.
    pub workload: String,
    /// Instructions replayed per timed run.
    pub instructions: u64,
    /// Simulated cycles (identical on both cores, asserted).
    pub cycles: u64,
    /// Best-of-reps event-core throughput — the cell the gate tracks.
    pub(crate) event_ips: f64,
    /// Best-of-reps legacy-core throughput, the speedup's denominator.
    pub(crate) legacy_ips: f64,
    /// Both cores produced bit-identical `SimStats` (asserted at
    /// measurement time; recorded so the artifact carries the proof).
    pub identical: bool,
}

impl SpeedRow {
    /// Event over legacy throughput.
    pub(crate) fn speedup(&self) -> f64 {
        self.event_ips / self.legacy_ips
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("instructions", Json::from(self.instructions)),
            ("cycles", Json::from(self.cycles)),
            ("event_ips", Json::from(self.event_ips)),
            ("identical", Json::from(self.identical)),
            ("legacy_ips", Json::from(self.legacy_ips)),
            ("speedup", Json::from(self.speedup())),
        ])
    }
}

/// The full benchmark result.
pub(crate) struct SpeedReport {
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
    pub(crate) fn suite_event_ips(&self) -> f64 {
        let inst: u64 = self.rows.iter().map(|r| r.instructions).sum();
        let secs: f64 = self
            .rows
            .iter()
            .map(|r| r.instructions as f64 / r.event_ips)
            .sum();
        inst as f64 / secs.max(f64::MIN_POSITIVE)
    }

    /// Suite-aggregate legacy throughput.
    pub(crate) fn suite_legacy_ips(&self) -> f64 {
        let inst: u64 = self.rows.iter().map(|r| r.instructions).sum();
        let secs: f64 = self
            .rows
            .iter()
            .map(|r| r.instructions as f64 / r.legacy_ips)
            .sum();
        inst as f64 / secs.max(f64::MIN_POSITIVE)
    }

    /// Suite-aggregate speedup (aggregate-throughput ratio).
    pub(crate) fn suite_speedup(&self) -> f64 {
        self.suite_event_ips() / self.suite_legacy_ips()
    }

    /// Suite geometric-mean speedup (every workload weighted equally —
    /// the acceptance number); `None` for an empty report.
    pub(crate) fn suite_speedup_geomean(&self) -> Option<f64> {
        geomean(self.rows.iter().map(SpeedRow::speedup))
    }

    /// The `BENCH_speed.json` document.
    pub(crate) fn to_json(&self) -> Json {
        let mut suite_pairs = vec![
            ("event_ips".to_string(), Json::from(self.suite_event_ips())),
            (
                "legacy_ips".to_string(),
                Json::from(self.suite_legacy_ips()),
            ),
            ("speedup".to_string(), Json::from(self.suite_speedup())),
        ];
        if let Some(geo) = self.suite_speedup_geomean() {
            suite_pairs.push(("speedup_geomean".to_string(), Json::from(geo)));
        }
        Json::obj([
            ("schema", Json::from(SPEED_SCHEMA)),
            ("scale", Json::from(scale_label(self.scale))),
            ("config", Json::from(self.config_name.as_str())),
            ("reps", Json::from(u64::from(SPEED_REPS))),
            (
                "rows",
                Json::Arr(self.rows.iter().map(SpeedRow::to_json).collect()),
            ),
            ("suite", Json::Obj(suite_pairs)),
        ])
    }
}

/// The legacy reference core over a pre-decoded slice.
fn reference_trace(entries: &[TraceEntry], config: &MachineConfig) -> SimStats {
    reference::run_probed(&mut EntrySliceSource::new(entries), config, NullProbe)
        .unwrap_or_else(|e| panic!("slice sources cannot fail: {e}"))
        .0
}

/// How many rounds [`time_cores`] times each core; the best one counts.
/// The document records it as `reps`, so a regenerated baseline is timed
/// the way the committed one was.
const SPEED_REPS: u32 = 3;

/// Times [`SPEED_REPS`] rounds of `entries` through the event core and the legacy
/// reference core, alternating them (event, legacy, event, legacy, ...)
/// so a spell of host contention slows both cores alike instead of
/// skewing their ratio. Returns each core's best throughput and its
/// (rep-invariant) stats, event core first.
fn time_cores(entries: &[TraceEntry], config: &MachineConfig) -> [(f64, SimStats); 2] {
    let cores: [fn(&[TraceEntry], &MachineConfig) -> SimStats; 2] =
        [TimingSim::run_trace, reference_trace];
    let mut best: [(f64, SimStats); 2] = Default::default();
    for _ in 0..SPEED_REPS {
        for (run, (best_ips, stats)) in cores.iter().zip(&mut best) {
            let start = Instant::now();
            let run = run(entries, config);
            let secs = start.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
            *best_ips = best_ips.max(run.instructions as f64 / secs);
            *stats = run;
        }
    }
    best
}

/// Runs the benchmark over the suite, or over the workloads `filter`
/// names, timing each core best-of-`SPEED_REPS`.
///
/// # Panics
///
/// Panics if a workload fails to execute or capture, if `filter` names
/// an unknown workload, or if the two cores' stats diverge (which would
/// mean the event core is broken — the differential suite covers this,
/// but a free check here keeps the committed baseline honest).
pub(crate) fn run_speed_suite(scale: Scale, filter: Option<&[String]>) -> SpeedReport {
    let config = MachineConfig::decoupled(3, 3);
    let mut rows = Vec::new();
    let mut matched = 0usize;
    for spec in suite() {
        if let Some(names) = filter {
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

        let [(event_ips, stats), (legacy_ips, legacy_stats)] = time_cores(&entries, &config);
        assert_eq!(
            stats, legacy_stats,
            "{}: event and legacy cores diverged",
            spec.name
        );
        rows.push(SpeedRow {
            workload: spec.name.to_string(),
            instructions: stats.instructions,
            cycles: stats.cycles,
            event_ips,
            legacy_ips,
            identical: true,
        });
    }
    if let Some(names) = filter {
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

/// The speed gate's floor: each workload's speedup must reach this share
/// of the baseline's.
pub(crate) const MIN_SPEEDUP_RATIO: f64 = 0.85;

/// Gates `report` against the committed baseline at `path`. Returns the
/// offending rows.
///
/// The gate compares speedups: each row must reach [`MIN_SPEEDUP_RATIO`]
/// × the baseline speedup. Both cores share whatever load the machine is
/// under, so the ratio cancels it — absolute throughput on a shared box
/// swings ±30% with background load and would gate on the weather.
pub(crate) fn regressions_vs_baseline(
    report: &SpeedReport,
    path: &Path,
) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path);
    let path = path.display();
    let text = text.map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("baseline {path} is not JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SPEED_SCHEMA) => {}
        other => {
            return Err(format!(
                "baseline {path} has schema {other:?}, want {SPEED_SCHEMA}"
            ))
        }
    }
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
        let Some(baseline_speedup) = baseline_row.get("speedup").and_then(Json::as_f64) else {
            return Err(format!(
                "baseline {path} row {} has no speedup",
                row.workload
            ));
        };
        let floor = baseline_speedup * MIN_SPEEDUP_RATIO;
        if row.speedup() < floor {
            failures.push(format!(
                "{}: event/legacy speedup {:.2}x < {:.2}x ({}% of baseline {:.2}x)",
                row.workload,
                row.speedup(),
                floor,
                (MIN_SPEEDUP_RATIO * 100.0) as u32,
                baseline_speedup,
            ));
        }
    }
    Ok(failures)
}

/// The `bench_speed` binary's `main`: times the suite with the
/// environment's `Knobs`, prints the table, emits `BENCH_speed.json`
/// under `ARL_JSON`, and — with `ARL_SPEED_BASELINE` set — exits non-zero
/// if any workload's speedup falls below `MIN_SPEEDUP_RATIO` of the
/// baseline's.
pub fn run_speed_main() {
    let knobs = Knobs::from_env();
    let report = run_speed_suite(
        knobs.scale.unwrap_or_default(),
        knobs.speed_workloads.as_deref(),
    );
    let mut text = format!(
        "{:<10} {:>12} {:>14} {:>14} {:>9}\n",
        "workload", "inst", "event i/s", "legacy i/s", "speedup"
    );
    for row in &report.rows {
        let _ = writeln!(
            text,
            "{:<10} {:>12} {:>14.0} {:>14.0} {:>8.1}x",
            row.workload,
            row.instructions,
            row.event_ips,
            row.legacy_ips,
            row.speedup(),
        );
    }
    let suite_speedup = report
        .suite_speedup_geomean()
        .map_or_else(|| "-".to_string(), |v| format!("{v:.2}x"));
    let _ = writeln!(
        text,
        "suite: event {:.0} inst/s, geomean speedup {suite_speedup}",
        report.suite_event_ips()
    );
    let failures = match &knobs.speed_baseline {
        None => Vec::new(),
        Some(baseline) => match regressions_vs_baseline(&report, baseline) {
            Ok(failures) if failures.is_empty() => {
                let _ = writeln!(text, "speed gate: ok vs {}", baseline.display());
                failures
            }
            Ok(failures) => failures
                .iter()
                .map(|f| format!("regression: {f}"))
                .collect(),
            Err(e) => vec![e],
        },
    };
    end_main(
        &knobs,
        &text,
        &[("BENCH_speed.json".to_string(), report.to_json())],
        &failures,
    );
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

    fn row(workload: &str, event_ips: f64, legacy_ips: f64) -> SpeedRow {
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
        let baseline = baseline_file("ratio", vec![row("go", 6_000_000.0, 2_000_000.0)]);
        let path = baseline.as_path();
        // Same code on a box under heavy load: both cores at half
        // throughput, so the speedup ratio is unchanged and the gate
        // must pass even though absolute throughput is far below the
        // floor.
        let loaded = report(vec![row("go", 3_000_000.0, 1_000_000.0)]);
        assert_eq!(
            regressions_vs_baseline(&loaded, path).expect("gate runs"),
            Vec::<String>::new()
        );
        // A genuine hot-loop regression shows up as a speedup drop no
        // matter the load: event core slowed, legacy untouched.
        let regressed = report(vec![row("go", 2_000_000.0, 1_000_000.0)]);
        let failures = regressions_vs_baseline(&regressed, path).expect("gate runs");
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("speedup"), "{}", failures[0]);
        // Workloads absent from the baseline are never gated.
        let unknown = report(vec![row("novel", 1.0, 1.0)]);
        assert_eq!(
            regressions_vs_baseline(&unknown, path).expect("gate runs"),
            Vec::<String>::new()
        );
        std::fs::remove_file(&baseline).ok();
    }

    #[test]
    fn gate_floor_is_inclusive_at_the_min_ratio() {
        let baseline = baseline_file("floor", vec![row("go", 2.0, 1.0)]);
        let floor = 2.0 * MIN_SPEEDUP_RATIO;
        let at_floor = report(vec![row("go", floor, 1.0)]);
        assert_eq!(
            regressions_vs_baseline(&at_floor, &baseline).expect("gate runs"),
            Vec::<String>::new(),
            "exactly {MIN_SPEEDUP_RATIO}x the baseline speedup passes"
        );
        let below = report(vec![row("go", floor - 1e-9, 1.0)]);
        let failures = regressions_vs_baseline(&below, &baseline).expect("gate runs");
        assert_eq!(failures.len(), 1, "just below the floor fails");
        assert!(failures[0].contains("85% of baseline"), "{}", failures[0]);
        std::fs::remove_file(&baseline).ok();
    }

    #[test]
    fn baseline_row_without_speedup_is_an_error() {
        let path =
            std::env::temp_dir().join(format!("arl-speed-nospeedup-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"schema":"arl-speed/v3","rows":[{"workload":"go","event_ips":1.0}]}"#,
        )
        .expect("write baseline");
        let run = report(vec![row("go", 2.0, 1.0)]);
        let err = regressions_vs_baseline(&run, &path)
            .expect_err("a row the gate cannot compare must not pass silently");
        assert!(err.contains("no speedup"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// The committed baseline predates the `reps` field; the gate reads
    /// only `schema` and each row's `speedup`, so it must keep passing a
    /// run that matches the baseline's own speedups.
    #[test]
    fn committed_baseline_without_reps_is_accepted() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_speed.json");
        let text = std::fs::read_to_string(&path).expect("committed baseline");
        assert!(!text.contains("\"reps\""), "baseline gained a reps field");
        let rows = Json::parse(&text).expect("baseline is JSON");
        let rows = rows.get("rows").and_then(Json::as_array).expect("rows");
        let run = report(
            rows.iter()
                .map(|r| {
                    let speedup = r.get("speedup").and_then(Json::as_f64).expect("speedup");
                    let name = r.get("workload").and_then(Json::as_str).expect("workload");
                    row(name, speedup, 1.0)
                })
                .collect(),
        );
        assert_eq!(
            regressions_vs_baseline(&run, &path).expect("gate runs"),
            Vec::<String>::new()
        );
    }

    #[test]
    fn speedup_and_geomean() {
        let r = row("go", 8_000_000.0, 2_000_000.0);
        assert_eq!(r.speedup(), 4.0, "event over legacy");
        let rep = report(vec![
            row("go", 8_000_000.0, 2_000_000.0),
            row("gcc", 9_000_000.0, 1_000_000.0),
        ]);
        let geo = rep.suite_speedup_geomean().expect("two rows");
        assert!((geo - 6.0).abs() < 1e-9, "geomean(4,9) = 6, got {geo}");
        let rendered = rep.to_json().render();
        assert!(rendered.contains("\"schema\":\"arl-speed/v3\""));
        assert!(rendered.contains("\"reps\":3"));
        assert!(rendered.contains("\"identical\":true"));
        assert!(rendered.contains("\"speedup_geomean\""));
    }

    #[test]
    fn geomean_of_empty_is_none() {
        assert_eq!(geomean(std::iter::empty()), None);
        assert_eq!(report(Vec::new()).suite_speedup_geomean(), None);
    }
}
