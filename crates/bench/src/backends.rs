//! The memory-backend sweep (`bench_backends` binary).
//!
//! The paper's split-port design wins by multiplying *port* bandwidth in
//! front of a flat 50-cycle memory. Die-stacked DRAM and burst-friendly
//! parts attack the same stall cycles from the other side — by making the
//! misses cheaper — so the interesting question is where the (3+3) split
//! stops paying once the backend improves. This sweep runs every
//! [`BackendConfig`] over a workload subset with both the conventional
//! `(2+0)` machine and the decoupled `(3+3)` machine, always probed, and
//! emits `BENCH_backends.json` (schema [`BACKENDS_SCHEMA`]) with full
//! stall attribution per row plus a per-backend split-port speedup table.

use std::fmt::Write as _;
use std::time::Instant;

use arl_stats::{Json, TableBuilder};
use arl_timing::{BackendConfig, CacheStats, MachineConfig, Recorder, SimStats, StallCause};
use arl_workloads::workload;

use crate::knob::Knobs;
use crate::runner::{end_main, scale_label, Pool};
use crate::{capture_trace, timing_trace_probed, ExperimentOptions};

/// `BENCH_backends.json` schema identifier.
pub const BACKENDS_SCHEMA: &str = "arl-backends/v1";

/// Workload subset for the backend sweep: an integer benchmark dominated
/// by heap pointer-chasing (`go`), one with high-locality streams
/// (`compress`), and the floating-point array walker (`tomcatv`).
const WORKLOADS: [&str; 3] = ["compress", "go", "tomcatv"];

/// The two machines the paper compares: conventional 2-port and the
/// decoupled split-port design.
fn machines() -> [MachineConfig; 2] {
    [
        MachineConfig::baseline_2_0(),
        MachineConfig::decoupled(3, 3),
    ]
}

/// A finished backend sweep: rendered text, the JSON document, and
/// whether any cell violated stall conservation.
#[derive(Clone, Debug)]
pub struct BackendsBenchRun {
    /// The exact bytes the binary prints to stdout.
    pub text: String,
    /// The `BENCH_backends.json` payload.
    pub doc: Json,
    /// True if any cell's probe failed `useful + Σstalls == cycles`.
    pub failed: bool,
}

struct Cell {
    workload: String,
    backend: BackendConfig,
    config: String,
    stats: SimStats,
    recorder: Recorder,
    conserved: bool,
}

fn cache_stats_json(stats: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::from(stats.hits)),
        ("misses", Json::from(stats.misses)),
        ("hit_rate", Json::from(stats.hit_rate())),
    ])
}

fn cell_json(cell: &Cell) -> Json {
    let stalls = StallCause::ALL
        .iter()
        .map(|&cause| (cause.label(), Json::from(cell.recorder.stall_cycles(cause))))
        .collect::<Vec<_>>();
    Json::obj([
        ("workload", Json::from(cell.workload.as_str())),
        ("backend", Json::from(cell.backend.label())),
        ("config", Json::from(cell.config.as_str())),
        ("cycles", Json::from(cell.stats.cycles)),
        ("instructions", Json::from(cell.stats.instructions)),
        ("ipc", Json::from(cell.stats.ipc())),
        ("l2", cache_stats_json(&cell.stats.l2)),
        (
            "stacked",
            match &cell.stats.stacked {
                Some(stats) => cache_stats_json(stats),
                None => Json::Null,
            },
        ),
        ("useful_cycles", Json::from(cell.recorder.useful_cycles())),
        (
            "stall_cycles",
            Json::Obj(
                stalls
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        ("conserved", Json::from(cell.conserved)),
    ])
}

/// Runs the (workload × backend × machine) sweep and builds the report.
/// Every cell is probed regardless of `opts.probe`; `opts.backend` is
/// ignored because the sweep covers all backends by construction.
///
/// # Panics
///
/// Panics if a sweep workload is missing from the suite or fails to
/// execute/replay.
pub fn backends_bench(opts: &ExperimentOptions) -> BackendsBenchRun {
    let start = Instant::now();
    let pool = Pool::new(opts.threads);

    // One functional execution per workload; every cell replays it.
    let captured = pool.map(WORKLOADS.to_vec(), |_i, name| {
        let spec =
            workload(name).unwrap_or_else(|| panic!("backend sweep workload {name} missing"));
        let program = spec.build(opts.scale);
        let trace = capture_trace(&program, name);
        (name, program, trace)
    });

    let mut jobs = Vec::new();
    for wi in 0..captured.len() {
        for backend in BackendConfig::ALL {
            for machine in machines() {
                jobs.push((wi, backend, machine));
            }
        }
    }
    let cells = pool.map(jobs, |_i, (wi, backend, machine)| {
        let (name, program, trace) = &captured[wi];
        let base_name = machine.name.clone();
        let config = machine.with_backend(backend);
        let (stats, recorder) = timing_trace_probed(program, trace, name, &config);
        let conserved = recorder.cycles() == stats.cycles
            && recorder.useful_cycles() + recorder.total_stall_cycles() == stats.cycles;
        Cell {
            workload: name.to_string(),
            backend,
            config: base_name,
            stats,
            recorder,
            conserved,
        }
    });

    let failed = cells.iter().any(|c| !c.conserved);
    let cycles_of = |workload: &str, backend: BackendConfig, config: &str| -> u64 {
        cells
            .iter()
            .find(|c| c.workload == workload && c.backend == backend && c.config == config)
            .map(|c| c.stats.cycles)
            .unwrap_or(0)
    };
    let [base_name, split_name] = machines().map(|m| m.name);

    // Per-backend split-port speedup: how much the (3+3) machine still
    // buys over (2+0) once the backend absorbs part of the miss cost.
    let mut speedup_rows = Vec::new();
    let mut table = {
        let mut header = vec!["Backend".to_string()];
        header.extend(WORKLOADS.iter().map(|w| w.to_string()));
        header.push("geomean".to_string());
        TableBuilder::new(&header.iter().map(String::as_str).collect::<Vec<_>>())
    };
    for backend in BackendConfig::ALL {
        let mut row = vec![backend.label().to_string()];
        let mut pairs = vec![("backend".to_string(), Json::from(backend.label()))];
        let mut log_sum = 0.0;
        for name in WORKLOADS {
            let base = cycles_of(name, backend, &base_name);
            let split = cycles_of(name, backend, &split_name);
            let speedup = if split == 0 {
                0.0
            } else {
                base as f64 / split as f64
            };
            log_sum += speedup.max(f64::MIN_POSITIVE).ln();
            row.push(format!("{speedup:.3}x"));
            pairs.push((name.to_string(), Json::from(speedup)));
        }
        let geomean = (log_sum / WORKLOADS.len() as f64).exp();
        row.push(format!("{geomean:.3}x"));
        pairs.push(("geomean".to_string(), Json::from(geomean)));
        table.row(&row);
        speedup_rows.push(Json::Obj(pairs));
    }

    let doc = Json::obj([
        ("schema", Json::from(BACKENDS_SCHEMA)),
        ("scale", Json::from(scale_label(opts.scale))),
        (
            "workloads",
            Json::Arr(WORKLOADS.iter().map(|&w| Json::from(w)).collect()),
        ),
        (
            "configs",
            Json::Arr(machines().map(|m| Json::from(m.name)).to_vec()),
        ),
        ("rows", Json::Arr(cells.iter().map(cell_json).collect())),
        ("split_port_speedup", Json::Arr(speedup_rows)),
        ("wall_seconds", Json::from(start.elapsed().as_secs_f64())),
    ]);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "Memory-backend sweep at scale {}: {} workloads x {} backends x {} machines",
        scale_label(opts.scale),
        WORKLOADS.len(),
        BackendConfig::ALL.len(),
        machines().len()
    );
    let _ = writeln!(
        text,
        "\nSplit-port speedup ({base_name} cycles / {split_name} cycles):\n"
    );
    let _ = writeln!(text, "{}", table.render());
    for cell in cells.iter().filter(|c| !c.conserved) {
        let _ = writeln!(
            text,
            "CONSERVATION VIOLATION: {} {} {}: useful {} + stalls {} != cycles {}",
            cell.workload,
            cell.backend.label(),
            cell.config,
            cell.recorder.useful_cycles(),
            cell.recorder.total_stall_cycles(),
            cell.stats.cycles
        );
    }

    BackendsBenchRun { text, doc, failed }
}

/// The `bench_backends` binary's `main`: runs [`backends_bench`] with
/// the environment's [`Knobs`], prints the report, emits
/// `BENCH_backends.json` under `ARL_JSON`, and exits non-zero if any cell
/// violates stall conservation.
pub fn run_backends_main() {
    let knobs = Knobs::from_env();
    let run = backends_bench(&knobs.options());
    let failure = run
        .failed
        .then(|| "backend sweep FAILED: a probed cell broke stall conservation".to_string());
    end_main(
        &knobs,
        &run.text,
        &[("BENCH_backends.json".to_string(), run.doc)],
        failure.as_slice(),
    );
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use arl_workloads::Scale;

    #[test]
    fn backend_sweep_covers_every_cell_and_conserves_stalls() {
        let opts = ExperimentOptions::new(Scale::tiny(), 2);
        let run = backends_bench(&opts);
        assert!(!run.failed, "stall conservation must hold on every backend");
        assert_eq!(
            run.doc.get("schema").and_then(Json::as_str),
            Some(BACKENDS_SCHEMA)
        );
        let rows = match run.doc.get("rows") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("rows missing: {other:?}"),
        };
        assert_eq!(
            rows.len(),
            WORKLOADS.len() * BackendConfig::ALL.len() * machines().len()
        );
        for row in rows {
            assert_eq!(row.get("conserved"), Some(&Json::Bool(true)));
            let backend = row
                .get("backend")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            let stacked = row.get("stacked").unwrap();
            let expects_device = matches!(
                BackendConfig::from_label(&backend).unwrap(),
                BackendConfig::StackedCache | BackendConfig::StackedMemCache | BackendConfig::Burst
            );
            assert_eq!(
                *stacked != Json::Null,
                expects_device,
                "backend {backend} device-stats presence is wrong"
            );
        }
        let speedups = match run.doc.get("split_port_speedup") {
            Some(Json::Arr(rows)) => rows,
            other => panic!("speedup table missing: {other:?}"),
        };
        assert_eq!(speedups.len(), BackendConfig::ALL.len());
        for row in speedups {
            let geomean = row.get("geomean").and_then(Json::as_f64).unwrap();
            assert!(geomean > 0.0, "speedups must be positive");
        }
    }
}
