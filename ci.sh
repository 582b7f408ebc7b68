#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build + test pass.
# Run from the repo root; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> env reads only in crates/bench/src/knob.rs (and arl-sink's I/O hooks)"
# Every knob is read once, into one Knobs value; any other module
# reading the environment would bypass its warn-and-fallback contract.
# The one exception is crates/sink/src/lib.rs: ARL_IO_FAULT/ARL_IO_TRACE
# arm a process-global I/O gate that arl-trace also writes through.
if grep -rnE 'env::var|var_os|vars_os' crates/*/src \
    | grep -vE '^crates/(bench/src/knob|sink/src/lib)\.rs:'; then
    echo "environment read outside crates/bench/src/knob.rs (above)" >&2
    exit 1
fi

echo "==> ARL_* knobs in the source match README.md's knob list"
# A knob the code reads but README.md does not document, or a documented
# knob nothing reads any more, fails the gate; the diff names it.
diff <(grep -rhoE '"ARL_[A-Z_]+"' crates/*/src | tr -d '"' | sort -u) \
    <(grep -oE '`ARL_[A-Z_]+' README.md | tr -d '`' | sort -u) \
    || { echo "ARL_* names differ: < source literals, > README.md" >&2; exit 1; }

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (every workspace crate)"
cargo test --workspace -q

echo "==> cargo check benchmark/ (a separate package over arl-bench's API)"
# `cargo test --workspace` never builds benchmark/, so an arl-bench API
# change could break it unnoticed. Its lock file carries a stale entry
# that every build rewrites; restore it whether or not the check passes.
lock_backup="$(mktemp)"
cp benchmark/Cargo.lock "$lock_backup"
bench_ok=0
cargo check --offline --manifest-path benchmark/Cargo.toml && bench_ok=1
cp "$lock_backup" benchmark/Cargo.lock
rm -f "$lock_backup"
test "$bench_ok" = 1

echo "==> figure8_stalls smoke gate (ARL_SCALE=1)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
ARL_SCALE=1 ARL_PROBE=1 ARL_JSON="$smoke_dir" \
    cargo run --quiet --release -p arl-bench --bin figure8_stalls
test -s "$smoke_dir/BENCH_figure8_stalls.json"
test -s "$smoke_dir/BENCH_figure8_stalls_probe.json"

echo "==> fault-campaign smoke gate (ARL_SCALE=tiny, fixed seed)"
# Fixed seed, every layer: the campaign must classify every fault and
# must never observe a silent corruption or a fatal (uncaught) fault.
mkdir -p "$smoke_dir/full" "$smoke_dir/first" "$smoke_dir/resumed"
ARL_SCALE=tiny ARL_FAULT=all:42:2 ARL_JSON="$smoke_dir/full" \
    cargo run --quiet --release -p arl-bench --bin fault_campaign
test -s "$smoke_dir/full/BENCH_faults.json"
grep -q '"fault_silent":0' "$smoke_dir/full/BENCH_faults.json"
grep -q '"fault_fatal":0' "$smoke_dir/full/BENCH_faults.json"

echo "==> fault-campaign kill-resume gate"
# "Interrupt" after the first job (ARL_MAX_JOBS=1 against a checkpoint),
# then resume the full sweep: the merged JSON must be byte-identical to
# the uninterrupted run above.
ARL_SCALE=tiny ARL_FAULT=all:42:2 ARL_MAX_JOBS=1 \
    ARL_CHECKPOINT="$smoke_dir/campaign.ckpt" ARL_JSON="$smoke_dir/first" \
    cargo run --quiet --release -p arl-bench --bin fault_campaign > /dev/null
ARL_SCALE=tiny ARL_FAULT=all:42:2 \
    ARL_CHECKPOINT="$smoke_dir/campaign.ckpt" ARL_JSON="$smoke_dir/resumed" \
    cargo run --quiet --release -p arl-bench --bin fault_campaign > /dev/null
diff "$smoke_dir/full/BENCH_faults.json" "$smoke_dir/resumed/BENCH_faults.json"

echo "==> chaos smoke gate (2 seeded points: one SIGKILL, one torn write)"
# Two points of the seeded rotation — point 0 SIGKILLs the child at a
# durable op, point 1 tears a write short — then the harness proves loud
# recovery and byte-identical merged output, and the fingerprint guard
# refuses a mismatched resume naming both identities.
mkdir -p "$smoke_dir/chaos"
ARL_CHAOS_POINTS=2 ARL_CHAOS_DIR="$smoke_dir/chaos/work" \
    ARL_JSON="$smoke_dir/chaos" \
    cargo run --quiet --release -p arl-bench --bin bench_chaos
test -s "$smoke_dir/chaos/BENCH_chaos.json"
grep -q '"schema":"arl-chaos/v1"' "$smoke_dir/chaos/BENCH_chaos.json"
grep -q '"silent":0' "$smoke_dir/chaos/BENCH_chaos.json"
grep -q '"fatal":0' "$smoke_dir/chaos/BENCH_chaos.json"
grep -q '"recovered":1' "$smoke_dir/chaos/BENCH_chaos.json"
grep -q '"all_identical":true' "$smoke_dir/chaos/BENCH_chaos.json"

echo "==> snapshot-shard smoke gate (three shard jobs, stitched vs serial)"
# One workload, three chained shard jobs over trace snapshots, plus an
# interrupt/resume cycle against a ledger: the stitched stats must be
# bit-identical to the serial replay (the binary exits non-zero and the
# JSON records identical:false on any divergence).
ARL_SCALE=tiny ARL_SNAPSHOT_INTERVAL=5000 \
    ARL_CHECKPOINT="$smoke_dir/shard.ckpt" ARL_JSON="$smoke_dir" \
    cargo run --quiet --release -p arl-bench --bin bench_shard
test -s "$smoke_dir/BENCH_shard.json"
grep -q '"identical":true' "$smoke_dir/BENCH_shard.json"

echo "==> memory-backend smoke gate (all backends, stall conservation)"
# Tiny-scale sweep of every backend on both machines with the probe
# attached: every cell must satisfy useful + Σstalls == cycles (the
# binary exits non-zero and records conserved:false on any violation).
ARL_SCALE=tiny ARL_JSON="$smoke_dir" \
    cargo run --quiet --release -p arl-bench --bin bench_backends
test -s "$smoke_dir/BENCH_backends.json"
grep -q '"schema":"arl-backends/v1"' "$smoke_dir/BENCH_backends.json"
! grep -q '"conserved":false' "$smoke_dir/BENCH_backends.json"

echo "==> replay-speed regression gate (subset vs committed BENCH_speed.json)"
# Re-time a fixed three-workload subset on both cores and fail if any
# event-over-legacy speedup falls below 0.85 (MIN_SPEEDUP_RATIO) of the
# committed baseline's. Absolute throughput on a shared machine swings
# ±30% with background load, so the gate compares the same-run speedup
# ratio (both cores see the same load and it cancels); a retry absorbs a
# load spike landing inside one core's timing window but not the
# other's. The run asserts both cores' SimStats equal before recording a
# row, so the JSON must say so: schema v3, best of 3 reps like the
# baseline, every row identical:true, none identical:false.
speed_ok=0
for attempt in 1 2 3; do
    if ARL_SPEED_WORKLOADS=compress,go,tomcatv \
        ARL_SPEED_BASELINE=BENCH_speed.json ARL_JSON="$smoke_dir" \
        cargo run --quiet --release -p arl-bench --bin bench_speed; then
        speed_ok=1
        break
    fi
    echo "speed gate attempt $attempt failed; retrying" >&2
done
test "$speed_ok" = 1
test -s "$smoke_dir/BENCH_speed.json"
grep -q '"schema":"arl-speed/v3"' "$smoke_dir/BENCH_speed.json"
grep -q '"reps":3' "$smoke_dir/BENCH_speed.json"
grep -q '"identical":true' "$smoke_dir/BENCH_speed.json"
! grep -q '"identical":false' "$smoke_dir/BENCH_speed.json"

echo "CI OK"
