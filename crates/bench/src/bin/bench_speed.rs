//! Replay-throughput benchmark: event-driven core vs the legacy
//! reference core, instructions/second per workload on `(3+3)`.
//!
//! Prints a table, writes `BENCH_speed.json` (schema `arl-speed/v3`)
//! under `ARL_JSON`, and — when `ARL_SPEED_BASELINE` points at a
//! committed baseline — exits non-zero if any measured workload's
//! speedup regresses below `MIN_SPEEDUP_RATIO` (0.85) of the baseline's.

fn main() {
    arl_bench::run_speed_main();
}
