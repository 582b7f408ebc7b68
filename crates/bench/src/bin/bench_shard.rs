//! Sharded replay benchmark: serial vs chained-shard wall clock
//! plus the kill-resume recovery measurement (`BENCH_shard.json`).

fn main() {
    arl_bench::run_shard_main();
}
