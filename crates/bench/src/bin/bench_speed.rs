//! Replay-throughput benchmark: event-driven core vs the legacy
//! reference core, instructions/second per workload on `(3+3)`.
//!
//! Prints a table, writes `BENCH_speed.json` (schema `arl-speed/v3`),
//! and — when `ARL_SPEED_BASELINE` points at a committed baseline —
//! exits non-zero if any measured workload's speedup regresses below
//! `ARL_SPEED_MIN_RATIO` (default 0.8) of the baseline's.

use arl_bench::{regressions_vs_baseline, run_speed_suite};

fn main() {
    let scale = arl_bench::scale_from_env();
    let report = run_speed_suite(scale);

    println!(
        "{:<10} {:>12} {:>14} {:>14} {:>9}",
        "workload", "inst", "event i/s", "legacy i/s", "speedup"
    );
    for row in &report.rows {
        println!(
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
    println!(
        "suite: event {:.0} inst/s, geomean speedup {suite_speedup}",
        report.suite_event_ips()
    );

    match arl_bench::write_speed_json(&report) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("[bench_speed] failed to write BENCH_speed.json: {e}");
            std::process::exit(1);
        }
    }

    if let Ok(baseline) = std::env::var("ARL_SPEED_BASELINE") {
        match regressions_vs_baseline(&report, &baseline) {
            Ok(failures) if failures.is_empty() => {
                println!("speed gate: ok vs {baseline}");
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("[bench_speed] regression: {f}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("[bench_speed] {e}");
                std::process::exit(1);
            }
        }
    }
}
