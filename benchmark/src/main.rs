//! # benchmark — end-to-end and per-layer benchmark of the ARL reproduction
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload <paper|replay|capture|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (each metric
//! a `{"value", "unit"}` pair). `--trace 0` prints the end-to-end metrics,
//! `--trace 1` the per-layer ones. The run stamp (seed, threads, `nproc`,
//! `/proc/loadavg` at start, `git rev-parse HEAD` when there is a
//! repository) goes to standard error. `--workload all` runs the three
//! workloads one after another, each in a child process of its own, so each
//! has its own cold start and peak RSS. `--seed` defaults to 1, `--seconds`
//! to 30 and `--trace` to 0.
//!
//! A later change that claims a gain must not edit `benchmark/` or
//! `BENCHMARK.json`: parent and change are measured with the same benchmark.
//! Adding a workload or a metric is a change of its own, after which the
//! baseline (`benchmark/baseline.json`) is measured again. The package's
//! tests (`cargo test --release --manifest-path benchmark/Cargo.toml`) run
//! every workload at the smoke scale through the same functions.
//!
//! ## Workloads
//!
//! Each is a closed batch — one op at a time, no arrival rate — of a fixed
//! input size. A round runs every op once; rounds repeat until
//! `--seconds` have passed (another starts only if it should still end in
//! time; at least one runs). The seed only permutes job order (experiments,
//! workloads, configs); every op's output is identical for every seed and is
//! checked against `golden.json`. An op fails if it panics, returns an error
//! or its output differs from the golden.
//!
//! | name | op | round | why |
//! |---|---|---|---|
//! | `paper` | one experiment, writing its text and `BENCH_<experiment>.json` | table1, table2, figure2, figure4, table3, table4, figure5, figure8 at ×1 on 2 threads (fewer if the host has fewer cores) | the user journey behind time-to-paper: 84 functional passes, 324 replays and the worker pool in their real mix |
//! | `replay` | one Figure 8 cell: `TimingSim::run_trace` over a pre-decoded trace | the 96 cells (12 workloads × 8 configs) at ×1 on 1 thread | isolates the timing core on exactly Figure 8's cells; capture, decode and orchestration levers must show no change |
//! | `capture` | one workload: `capture_trace`, durable `Trace::write_to`, `Trace::read_from`, full `Replayer` decode with an entry digest | the 12 workloads at ×2 on 1 thread | the trace layer both ways at a longer footprint; timing levers must show no change |
//!
//! Set-up, untimed, runs twice before the timed section and twice after it:
//! `paper` builds the 12 programs (each experiment then builds its own
//! inside the timed call, so this only checks they build); `replay` builds
//! and captures the suite; `capture` builds the 12 programs at ×2. In each
//! round `replay` decodes a workload's trace, untimed, just before its cells.
//! `setup_s` takes each step (one workload's) at its fastest repetition: a
//! shared host has spells of memory contention lasting seconds, they only
//! ever add time, and a step takes milliseconds.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! | name | unit | better | meaning |
//! |---|---|---|---|
//! | `round_s` | s | lower | timed seconds of a round, median over rounds: time-to-paper; Σ `run_trace`; Σ capture + write + read + decode |
//! | `minst_s` | Minst/s | higher | simulated instructions of a round ÷ `round_s` (`paper`: every record's instructions) |
//! | `cpu_s` | s | lower | process CPU seconds (utime + stime, all threads) of a round's ops |
//! | `setup_s` | s | lower | seconds of one set-up |
//! | `peak_rss_mb` | MB | lower | `VmHWM` at the end of the run |
//!
//! Failures are the `failed` count against `attempted`. `BENCHMARK.json`
//! holds each metric's regression bound; `baseline.json` the medians and
//! quartiles measured when the benchmark was added.
//!
//! ## Per-layer metrics (`--trace 1`) and the end-to-end metric each moves
//!
//! Every call into a layer runs inside a span (`bench.op`, `bench.setup`,
//! `bench.experiment`, `workloads.build`, `sim.execute`, `trace.capture`,
//! `sink.write`, `trace.read`, `trace.decode`, `bench.digest`,
//! `timing.replay`, `stats.render`) with start, end, parent, op and the work
//! done (instructions, bytes, cycles). The spans are the timers of both kinds
//! of run; a traced run additionally writes them to
//! `.bench_tmp/spans-<workload>-<seed>.json`, prints self time per layer to
//! standard error, runs `capture`'s execute-only pass, and measures the two
//! other workloads at `Scale::tiny()` so that every per-layer metric is
//! measured: a metric comes from the workload itself when it enters that
//! layer, else from the tiny runs.
//!
//! | metric | layer | moves |
//! |---|---|---|
//! | `paper.<experiment>_s` | bench (orchestration) | `paper` `round_s` |
//! | `paper.pool_busy_frac` (Σ record seconds ÷ threads × experiment seconds) | bench (pool) | `paper` `round_s` |
//! | `paper.functional_passes`, `paper.functional_minst` | sim/trace, from the experiments' records | `paper` `round_s`, `cpu_s`; `replay` unchanged |
//! | `paper.{execute,capture,eval,timing}_cpu_s`, `paper.timing_cell_ms.p50/.p75`, `paper.eval_cell_ms.p50/.p90` | phase split | `paper` `round_s` |
//! | `trace.decode_minst_s` | trace | `paper` `round_s`, `capture` `minst_s`; on `replay` only the untimed wall time |
//! | `trace.capture_minst_s`, `trace.encode_ns_per_inst` (capture − execute) | trace | `capture` `minst_s` |
//! | `trace.read_mb_s`, `trace.bytes_per_inst` | trace | `capture` `minst_s`, `peak_rss_mb` |
//! | `sim.execute_minst_s` | sim | `capture` `minst_s`, `paper` `round_s` |
//! | `sink.write_mb_s` | sink | `capture` `minst_s` |
//! | `workloads.build_s` (one suite build) | workloads | `setup_s`, `paper` `round_s` |
//! | `timing.minst_s.<config>`, `timing.minst_s.<workload>`, `timing.ns_per_cycle`, `timing.ns_per_inst`, `timing.cell_ms.p50/.p75` | timing | `replay` `minst_s`, `paper` `round_s`; `capture` unchanged |
//! | `trace_overhead_pct` | the spans themselves | — |
//!
//! ## Environment
//!
//! The benchmark reads no environment knob; scales and threads are constants
//! here. Each workload run — direct, or a child of `all` — first removes
//! every `ARL_*` variable from its environment (the library would honour
//! them), then works in a fresh directory `.bench_tmp/<workload>-<pid>`
//! under the directory it started in, with `TMPDIR` pointed into it, and
//! deletes it at exit.

mod golden;
mod report;
mod spans;
mod workloads;

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use arl_stats::Json;
use arl_workloads::Scale;

use golden::Golden;
use report::Metrics;
use workloads::{Workload, WorkloadRun};

const USAGE: &str =
    "usage: benchmark --workload <paper|replay|capture|all> [--seed N] [--seconds S] [--trace 0|1]";

/// Parsed command line. `workload == None` means `all`.
struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            seed: 1,
            seconds: 30,
            trace: false,
        };
        let mut workload = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {flag} {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => cli.seed = number()?,
                "--seconds" => cli.seconds = number()?,
                "--trace" => {
                    cli.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        match workload.as_deref() {
            None => Err("--workload is required".into()),
            Some("all") => Ok(cli),
            Some(name) => {
                cli.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
                Ok(cli)
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cli.workload {
        Some(workload) => run_one(workload, &cli),
        None => run_all(&cli),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs each workload in a child process of its own, one at a time.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut ok = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("starting the {} run: {e}", workload.name()))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// Deletes the run's directory at exit, and `.bench_tmp` with it once empty.
struct RunDir {
    start: PathBuf,
    dir: PathBuf,
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = env::set_current_dir(&self.start);
        let _ = fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// One workload run in this process. Returns whether every op passed.
fn run_one(workload: Workload, cli: &Cli) -> Result<bool, String> {
    // The library honours ARL_* knobs; the benchmark measures its defaults.
    for (key, _) in env::vars_os() {
        if key.to_string_lossy().starts_with("ARL_") {
            env::remove_var(&key);
        }
    }
    let start = env::current_dir().map_err(|e| format!("reading the working directory: {e}"))?;
    let run_dir = RunDir {
        dir: start
            .join(".bench_tmp")
            .join(format!("{}-{}", workload.name(), std::process::id())),
        start: start.clone(),
    };
    fs::create_dir_all(&run_dir.dir)
        .map_err(|e| format!("creating {}: {e}", run_dir.dir.display()))?;
    env::set_var("TMPDIR", &run_dir.dir);
    env::set_current_dir(&run_dir.dir)
        .map_err(|e| format!("entering {}: {e}", run_dir.dir.display()))?;
    let golden = Golden::embedded()?;
    eprintln!("[benchmark] {}", stamp(workload, cli, &start).render());

    let own = workloads::run(
        workload,
        workload.scale(),
        cli.seed,
        cli.seconds as f64,
        cli.trace,
        &golden,
        &run_dir.dir,
    );
    let (metrics, attempted, failed) = if cli.trace {
        let spans_dir = start.join(".bench_tmp");
        traced_metrics(own, cli.seed, &golden, &run_dir.dir, &spans_dir)?
    } else {
        let metrics = report::end_to_end(&own, report::peak_rss_mb());
        (metrics, own.attempted, own.failed)
    };
    println!("{}", result_line(&metrics, attempted, failed).render());
    Ok(failed == 0)
}

/// The per-layer metrics of a traced run. Layers `own` never enters are
/// measured on the other workloads at the smoke scale. The spans go to
/// `spans_dir`.
fn traced_metrics(
    own: WorkloadRun,
    seed: u64,
    golden: &Golden,
    dir: &Path,
    spans_dir: &Path,
) -> Result<(Metrics, u64, u64), String> {
    let mut metrics = report::per_layer(&own);
    let overhead = report::trace_overhead_pct(&own, spans::cost_per_span_ns());
    metrics.insert("trace_overhead_pct".into(), (overhead, "%"));
    print_self_times(&own);
    let (mut attempted, mut failed) = (own.attempted, own.failed);
    let name = own.workload.name();
    let mut runs = vec![own];
    for other in Workload::ALL.into_iter().filter(|w| w.name() != name) {
        let tiny = workloads::run(other, Scale::tiny(), seed, 0.0, true, golden, dir);
        for (metric, value) in report::per_layer(&tiny) {
            metrics.entry(metric).or_insert(value);
        }
        attempted += tiny.attempted;
        failed += tiny.failed;
        runs.push(tiny);
    }
    let doc = Json::Arr(
        runs.iter()
            .map(|run| {
                Json::obj([
                    ("workload", Json::from(run.workload.name())),
                    ("scale", Json::from(workloads::scale_label(run.scale))),
                    ("spans", run.spans.to_json()),
                ])
            })
            .collect(),
    );
    let path = spans_dir.join(format!("spans-{name}-{seed}.json"));
    arl_sink::durable_write(&path, (doc.render() + "\n").as_bytes())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("[benchmark] wrote {}", path.display());
    Ok((metrics, attempted, failed))
}

fn print_self_times(run: &WorkloadRun) {
    let by_layer = report::self_time_by_layer(run);
    let total: f64 = by_layer.values().map(|(secs, _)| secs).sum();
    eprintln!("[benchmark] self time per layer, {}:", run.workload.name());
    for (layer, (secs, count)) in by_layer {
        eprintln!(
            "[benchmark]   {layer:<18} {secs:>10.3} s {:>6.2}% {count:>6} spans",
            100.0 * secs / total
        );
    }
}

/// The run stamp: what produced these numbers, on what, under what load.
fn stamp(workload: Workload, cli: &Cli, start: &Path) -> Json {
    let loadavg = fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(start)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string());
    Json::obj([
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(cli.seed)),
        ("seconds", Json::from(cli.seconds)),
        ("trace", Json::from(cli.trace)),
        (
            "scale",
            Json::from(workloads::scale_label(workload.scale())),
        ),
        ("threads", Json::from(workload.threads())),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("loadavg", Json::from(loadavg.trim())),
        ("git", git.map_or(Json::Null, Json::from)),
    ])
}

/// The last line of standard output.
fn result_line(metrics: &Metrics, attempted: u64, failed: u64) -> Json {
    Json::obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, (value, unit))| {
                (
                    name.clone(),
                    Json::obj([("value", Json::from(*value)), ("unit", Json::from(*unit))]),
                )
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh directory for one test (tests run in parallel and must not
    /// share files).
    fn test_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_tmp")
            .join(format!("test-{name}"));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("creating the test directory");
        dir
    }

    fn tiny(
        workload: Workload,
        seed: u64,
        traced: bool,
        golden: &Golden,
        dir: &Path,
    ) -> WorkloadRun {
        workloads::run(workload, Scale::tiny(), seed, 0.0, traced, golden, dir)
    }

    /// Declared `(name, unit)` pairs of one `BENCHMARK.json` metric list.
    fn declared(list: &str) -> BTreeMap<String, String> {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        doc.get(list)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn emitted(metrics: &Metrics) -> BTreeMap<String, String> {
        metrics
            .iter()
            .map(|(name, (_, unit))| (name.clone(), unit.to_string()))
            .collect()
    }

    use std::collections::BTreeMap;

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit() {
        let golden = Golden::embedded().expect("golden.json parses");
        let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
        assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
        let valid = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        for name in end_to_end.keys().chain(per_layer.keys()) {
            assert!(valid(name), "metric name {name:?}");
        }
        for workload in Workload::ALL {
            let dir = test_dir(&format!("metrics-{}", workload.name()));
            let run = tiny(workload, 1, false, &golden, &dir);
            assert_eq!(run.failed, 0, "{}", workload.name());
            let metrics = report::end_to_end(&run, report::peak_rss_mb());
            assert_eq!(emitted(&metrics), end_to_end, "{}", workload.name());

            let run = tiny(workload, 1, true, &golden, &dir);
            let (metrics, attempted, failed) =
                traced_metrics(run, 1, &golden, &dir, &dir).expect("traced run");
            assert_eq!(failed, 0);
            assert!(attempted > 0);
            assert_eq!(emitted(&metrics), per_layer, "{}", workload.name());
            assert!(metrics.values().all(|(v, _)| v.is_finite()));
        }
    }

    #[test]
    fn outputs_do_not_depend_on_the_seed() {
        let golden = Golden::embedded().expect("golden.json parses");
        let dir = test_dir("seeds");
        for workload in Workload::ALL {
            let a = tiny(workload, 1, false, &golden, &dir);
            let b = tiny(workload, 2, false, &golden, &dir);
            assert_eq!(a.outputs, b.outputs, "{}", workload.name());
            let order = |run: &WorkloadRun| -> Vec<String> {
                run.spans
                    .all()
                    .iter()
                    .filter(|s| s.name == "bench.op")
                    .map(|s| run.spans.op_key(s.op).to_string())
                    .collect()
            };
            assert_ne!(order(&a), order(&b), "the seed permutes job order");
        }
    }

    #[test]
    fn a_corrupted_golden_entry_counts_as_a_failed_op() {
        let mut golden = Golden::embedded().expect("golden.json parses");
        let section = golden
            .0
            .get_mut("replay/tiny")
            .expect("replay/tiny section");
        let entry = section.values_mut().next().expect("an entry");
        entry.push('0');
        let run = tiny(Workload::Replay, 1, false, &golden, &test_dir("corrupt"));
        assert_eq!((run.attempted, run.failed), (96, 1));
    }

    #[test]
    fn self_times_account_for_each_op() {
        let golden = Golden::embedded().expect("golden.json parses");
        let run = tiny(Workload::Capture, 1, true, &golden, &test_dir("spans"));
        let spans = run.spans.all();
        let self_s = run.spans.self_secs();
        let mut per_op: BTreeMap<usize, f64> = BTreeMap::new();
        for (span, own) in spans.iter().zip(&self_s) {
            if let Some(p) = span.parent {
                let parent = &spans[p];
                assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
                assert_eq!(parent.op, span.op);
            }
            *per_op.entry(span.op).or_default() += own;
        }
        for span in spans.iter().filter(|s| s.parent.is_none()) {
            let wall = span.secs();
            assert!(
                (per_op[&span.op] - wall).abs() <= 0.01 * wall,
                "op {}",
                span.op
            );
        }
        assert!(
            spans.iter().any(|s| s.name == "bench.digest"),
            "three levels deep"
        );
    }

    /// Rewrites `golden.json` from the current program: every workload at
    /// its own scale and at the smoke scale.
    #[test]
    #[ignore]
    fn regenerate_golden() {
        let dir = test_dir("golden");
        let mut golden = Golden::default();
        for workload in Workload::ALL {
            for scale in [workload.scale(), Scale::tiny()] {
                let run = workloads::run(workload, scale, 1, 0.0, false, &Golden::default(), &dir);
                assert_eq!(run.outputs.len() as u64, run.attempted, "an op broke");
                let section = format!("{}/{}", workload.name(), workloads::scale_label(scale));
                golden.0.insert(section, run.outputs);
            }
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.json");
        fs::write(&path, golden.render()).expect("writing golden.json");
    }
}
