//! Snapshot-sharded trace replay (`bench_shard` binary and the
//! `ARL_SHARD` experiment knob).
//!
//! A v2 `.arltrace` captured with snapshots has `S + 1` independent
//! segments. This module groups those segments into `M` contiguous
//! *shard jobs* and replays them as a chain: each job opens a
//! [`Replayer::open_span`] over its segment group, resumes the timing
//! model from the previous job's exported machine-state blob, and exports
//! its own blob for the next. The final job's [`SimStats`] are the whole
//! run's — **bit-identical** to an unsharded replay (the shard
//! differential suite holds this to `==` on every workload).
//!
//! Machine state is config-dependent (ARPT geometry, cache contents,
//! in-flight pipeline), so shard jobs of one (workload × config) cell are
//! *chained*, not parallel: the payoff is not intra-cell parallelism but
//! shard-granular fault tolerance. With `ARL_CHECKPOINT` set, every
//! completed non-final shard appends its state blob to the ledger, and an
//! interrupted cell resumes from the last recorded shard instead of cycle
//! zero — [`replay_sharded_supervised`] is exactly-once over shard jobs.
//!
//! Knobs: `ARL_SHARD` (shard jobs per cell, default 1 = unsharded),
//! `ARL_SNAPSHOT_INTERVAL` (capture-time snapshot cadence in
//! instructions, default [`DEFAULT_SNAPSHOT_INTERVAL`]; 0 disables).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use arl_asm::Program;
use arl_stats::Json;
use arl_timing::{MachineConfig, Recorder, SimStats, TimingSim};
use arl_trace::{Replayer, Trace};
use arl_workloads::workload;

use crate::runner::{scale_label, write_named_json, Checkpoint, RunIdentity};
use crate::{capture_trace_snapshotted, timing_trace, ExperimentOptions};

/// `BENCH_shard.json` schema identifier.
pub const SHARD_SCHEMA: &str = "arl-shard/v1";

/// Default `ARL_SNAPSHOT_INTERVAL`: one snapshot per million retired
/// instructions — coarse enough to stay invisible in container size,
/// fine enough that default-scale workloads shard into several segments.
pub const DEFAULT_SNAPSHOT_INTERVAL: u64 = 1_000_000;

/// Resolves a raw `ARL_SHARD` value: a positive integer is the shard-job
/// count per (workload × config) cell; unset means 1 (unsharded); zero is
/// clamped to 1 and anything unparsable warns and replays unsharded.
/// Routed through [`crate::knob_u64`] like every other `ARL_*` knob.
pub fn shard_from_value(value: Option<&str>) -> usize {
    crate::knob_u64("ARL_SHARD", value, 1, 1) as usize
}

/// Reads `ARL_SHARD`.
pub fn shard_from_env() -> usize {
    shard_from_value(std::env::var("ARL_SHARD").ok().as_deref())
}

/// Resolves a raw `ARL_SNAPSHOT_INTERVAL` value: instructions between
/// snapshot records at capture time; 0 disables snapshots; unset or
/// unparsable values use [`DEFAULT_SNAPSHOT_INTERVAL`]. Routed through
/// [`crate::knob_u64`] like every other `ARL_*` knob.
pub fn snapshot_interval_from_value(value: Option<&str>) -> u64 {
    crate::knob_u64("ARL_SNAPSHOT_INTERVAL", value, DEFAULT_SNAPSHOT_INTERVAL, 0)
}

/// Reads `ARL_SNAPSHOT_INTERVAL`.
pub fn snapshot_interval_from_env() -> u64 {
    snapshot_interval_from_value(std::env::var("ARL_SNAPSHOT_INTERVAL").ok().as_deref())
}

/// Groups `segments` trace segments into at most `shards` contiguous,
/// balanced shard jobs. Returns `(start, end)` *boundary* pairs in
/// [`Replayer::open_span`] coordinates: job `i` replays boundaries
/// `[start, end)`. The job count is `min(shards.max(1), segments)`; sizes
/// differ by at most one segment, larger groups first.
pub fn shard_plan(segments: u64, shards: usize) -> Vec<(u64, u64)> {
    let jobs = (shards.max(1) as u64).min(segments.max(1));
    let base = segments / jobs;
    let extra = segments % jobs;
    let mut plan = Vec::with_capacity(jobs as usize);
    let mut at = 0u64;
    for i in 0..jobs {
        let size = base + u64::from(i < extra);
        plan.push((at, at + size));
        at += size;
    }
    debug_assert_eq!(at, segments);
    plan
}

/// An FNV-1a 64 fingerprint of the *full* `Debug` rendering of a
/// [`SimStats`] — every counter, nested cache stats included. Two runs
/// fingerprint equal iff their stats are field-for-field identical, so
/// the `BENCH_shard.json` document can prove bit-identity in one number.
pub fn stats_fingerprint(stats: &SimStats) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{stats:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(s.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

/// One shard job's result before probe-genericity is erased.
struct SpanRun {
    stats: SimStats,
    state: Option<Vec<u8>>,
    recorder: Option<Recorder>,
}

/// Replays boundaries `[span.0, span.1)` as one shard job.
#[allow(clippy::too_many_arguments)]
fn replay_span(
    program: &Program,
    trace: &Trace,
    name: &str,
    config: &MachineConfig,
    span: (u64, u64),
    resume: Option<&[u8]>,
    final_shard: bool,
    probe: bool,
) -> SpanRun {
    let mut replayer = Replayer::open_span(trace, program, span.0, span.1).unwrap_or_else(|e| {
        panic!(
            "workload {name} shard span [{}, {}) rejected: {e}",
            span.0, span.1
        )
    });
    if probe {
        let run = TimingSim::run_segment_probed(
            &mut replayer,
            config,
            resume,
            final_shard,
            Recorder::new(),
        )
        .unwrap_or_else(|e| panic!("workload {name} shard replay failed: {e}"));
        SpanRun {
            stats: run.stats,
            state: run.state,
            recorder: Some(run.probe),
        }
    } else {
        let run = TimingSim::run_segment(&mut replayer, config, resume, final_shard)
            .unwrap_or_else(|e| panic!("workload {name} shard replay failed: {e}"));
        SpanRun {
            stats: run.stats,
            state: run.state,
            recorder: None,
        }
    }
}

/// The stitched result of a sharded replay.
pub struct ShardedReplay {
    /// Whole-run statistics (the final shard's cumulative view) —
    /// bit-identical to an unsharded replay of the same trace.
    pub stats: SimStats,
    /// Per-shard recorders merged in shard order, when probing was on —
    /// identical to a serial probed run's recorder.
    pub recorder: Option<Recorder>,
    /// The boundary plan that was replayed (after clamping to the
    /// available segments).
    pub plan: Vec<(u64, u64)>,
    /// Shard jobs replayed by *this* invocation.
    pub executed: usize,
    /// Shard jobs served from the checkpoint ledger instead of replayed.
    pub skipped: usize,
    /// Wall seconds per executed shard job, in execution order.
    pub shard_walls: Vec<f64>,
}

/// Replays `trace` as `shards` chained shard jobs, stitching the result.
///
/// # Panics
///
/// Panics if the trace does not replay cleanly against `program` — the
/// same contract as [`timing_trace`](crate::timing_trace).
pub fn replay_sharded(
    program: &Program,
    trace: &Trace,
    name: &str,
    config: &MachineConfig,
    shards: usize,
    probe: bool,
) -> ShardedReplay {
    let plan = shard_plan(trace.snapshot_count() + 1, shards);
    let mut state: Option<Vec<u8>> = None;
    let mut merged = probe.then(Recorder::new);
    let mut stats: Option<SimStats> = None;
    let mut walls = Vec::with_capacity(plan.len());
    for (i, &span) in plan.iter().enumerate() {
        let final_shard = i + 1 == plan.len();
        let start = Instant::now();
        let run = replay_span(
            program,
            trace,
            name,
            config,
            span,
            state.as_deref(),
            final_shard,
            probe,
        );
        walls.push(start.elapsed().as_secs_f64());
        if let (Some(m), Some(r)) = (&mut merged, &run.recorder) {
            m.merge(r);
        }
        state = run.state;
        stats = Some(run.stats);
    }
    let executed = plan.len();
    ShardedReplay {
        stats: stats.unwrap_or_else(|| panic!("workload {name}: empty shard plan")),
        recorder: merged,
        plan,
        executed,
        skipped: 0,
        shard_walls: walls,
    }
}

fn shard_key(scope: &str, shard: usize, shards: usize) -> String {
    format!("shard/{scope}/{shard}of{shards}")
}

/// [`replay_sharded`], supervised by a [`Checkpoint`] ledger: every
/// completed non-final shard records its machine-state blob under
/// `shard/<scope>/<i>of<M>`, and a later invocation with the same ledger
/// and scope resumes after the last recorded shard instead of replaying
/// from cycle zero — exactly-once over shard jobs.
///
/// `max_shard_jobs` caps the shard jobs *executed this invocation* (the
/// kill-resume gates interrupt deterministically with it); when the cap
/// strikes before the final shard, the function returns `None` and the
/// ledger holds everything needed to resume. Supervised replays are
/// always unprobed: a resumed run cannot reconstruct the recorders of
/// shards it skipped, so offering a probe here would silently under-count.
///
/// # Panics
///
/// Panics if the trace does not replay cleanly, if a ledger entry for
/// this scope is corrupt or disagrees with the plan, or if the ledger
/// cannot be appended to.
#[allow(clippy::too_many_arguments)]
pub fn replay_sharded_supervised(
    program: &Program,
    trace: &Trace,
    name: &str,
    config: &MachineConfig,
    shards: usize,
    ledger: &mut Checkpoint,
    scope: &str,
    max_shard_jobs: Option<usize>,
) -> Option<ShardedReplay> {
    let plan = shard_plan(trace.snapshot_count() + 1, shards);
    let jobs = plan.len();

    // Resume after the *latest* recorded non-final shard: its payload
    // carries the exact machine state the next shard must start from.
    let mut first = 0usize;
    let mut state: Option<Vec<u8>> = None;
    for i in (0..jobs.saturating_sub(1)).rev() {
        let key = shard_key(scope, i, jobs);
        let Some(payload) = ledger.get(&key) else {
            continue;
        };
        let doc = Json::parse(payload)
            .unwrap_or_else(|e| panic!("corrupt shard ledger entry for {key}: {e}"));
        let recorded_jobs = doc.get("shards").and_then(Json::as_u64);
        if recorded_jobs != Some(jobs as u64) {
            panic!(
                "shard ledger entry {key} was recorded for {recorded_jobs:?} shard jobs, \
                 this plan has {jobs}"
            );
        }
        let hex = doc
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("shard ledger entry {key} has no state blob"));
        state = Some(
            from_hex(hex).unwrap_or_else(|| panic!("shard ledger entry {key} state is not hex")),
        );
        first = i + 1;
        break;
    }

    let mut executed = 0usize;
    let mut walls = Vec::new();
    let mut stats: Option<SimStats> = None;
    for (i, &span) in plan.iter().enumerate().skip(first) {
        if let Some(cap) = max_shard_jobs {
            if executed >= cap {
                return None; // interrupted; the ledger carries the resume point
            }
        }
        let final_shard = i + 1 == jobs;
        let start = Instant::now();
        let run = replay_span(
            program,
            trace,
            name,
            config,
            span,
            state.as_deref(),
            final_shard,
            false,
        );
        walls.push(start.elapsed().as_secs_f64());
        executed += 1;
        if let Some(blob) = &run.state {
            let key = shard_key(scope, i, jobs);
            let payload = Json::obj([
                ("schema", Json::from(SHARD_SCHEMA)),
                ("shard", Json::from(i)),
                ("shards", Json::from(jobs)),
                ("span", Json::Arr(vec![span.0.into(), span.1.into()])),
                ("instructions", Json::from(run.stats.instructions)),
                ("cycles", Json::from(run.stats.cycles)),
                ("state", Json::from(to_hex(blob))),
            ]);
            ledger
                .record(&key, &payload)
                .unwrap_or_else(|e| panic!("failed to checkpoint {key}: {e}"));
        }
        state = run.state;
        stats = Some(run.stats);
    }
    Some(ShardedReplay {
        stats: stats.unwrap_or_else(|| {
            panic!("workload {name}: every shard was already checkpointed but none was final")
        }),
        recorder: None,
        plan,
        executed,
        skipped: first,
        shard_walls: walls,
    })
}

/// A finished shard benchmark: rendered text, the `arl-shard/v1`
/// document, and whether stitched and serial results diverged.
pub struct ShardBenchRun {
    /// The exact bytes the binary prints to stdout.
    pub text: String,
    /// The `BENCH_shard.json` payload.
    pub doc: Json,
    /// True when any stitched result was not bit-identical to serial.
    pub failed: bool,
}

/// The ledger fingerprint for one shard benchmark: the workload, config,
/// scale, snapshot cadence, shard-job count, and — because recorded
/// shard-state blobs are only meaningful for the exact capture they were
/// replayed from — the FNV-1a64 checksum of the trace container.
pub fn shard_identity(
    workload: &str,
    config_name: &str,
    scale: &str,
    interval: u64,
    shards: usize,
    trace_checksum: u64,
) -> RunIdentity {
    RunIdentity::new("shard")
        .field("workload", workload)
        .field("config", config_name)
        .field("scale", scale)
        .field("snapshot_interval", interval)
        .field("shards", shards)
        .field("trace", format!("{trace_checksum:016x}"))
}

/// Runs the shard benchmark on one workload: captures a snapshotted
/// trace, times a serial replay and an `shards`-way sharded replay,
/// asserts bit-identity, and — when a ledger path is given — additionally
/// times an interrupt-then-resume cycle (`shards − 1` jobs, "crash",
/// resume) to measure what shard-granular recovery saves over restarting.
/// The ledger opens *after* capture so its identity can fingerprint the
/// trace checksum.
///
/// # Errors
///
/// Ledger I/O failures or an identity mismatch ([`Checkpoint::open`]).
pub fn shard_bench_with(
    opts: &ExperimentOptions,
    workload_name: &str,
    shards: usize,
    interval: u64,
    ledger_path: Option<&Path>,
    force: bool,
) -> std::io::Result<ShardBenchRun> {
    let spec = workload(workload_name)
        .unwrap_or_else(|| panic!("ARL_SHARD_WORKLOAD={workload_name} matches no suite workload"));
    let config = MachineConfig::decoupled(3, 3);
    let scale = scale_label(opts.scale);

    let program = spec.build(opts.scale);
    let capture_start = Instant::now();
    let trace = capture_trace_snapshotted(&program, spec.name, interval);
    let capture_wall = capture_start.elapsed().as_secs_f64();

    let mut ledger = match ledger_path {
        Some(path) => {
            let identity = shard_identity(
                spec.name,
                &config.name,
                &scale,
                interval,
                shards,
                arl_trace::fnv1a64(trace.as_bytes()),
            );
            Some(Checkpoint::open(path, &identity, force)?)
        }
        None => None,
    };

    let serial_start = Instant::now();
    let serial = timing_trace(&program, &trace, spec.name, &config);
    let serial_wall = serial_start.elapsed().as_secs_f64();

    let sharded_start = Instant::now();
    let sharded = replay_sharded(&program, &trace, spec.name, &config, shards, false);
    let sharded_wall = sharded_start.elapsed().as_secs_f64();
    let identical = serial == sharded.stats;

    // Optional kill-resume measurement against the ledger: run all but
    // the last shard job, "crash", then resume. The resumed invocation
    // replays exactly one job, so (serial_wall / resume_wall) is the
    // recovery speedup sharding buys at this cadence.
    let mut resume_pairs: Option<Vec<(String, Json)>> = None;
    let mut resume_identical = true;
    if let Some(ckpt) = ledger.as_mut() {
        let scope = format!(
            "{}/{}/{}/interval={}",
            spec.name, config.name, scale, interval
        );
        let jobs = sharded.plan.len();
        let interrupted = replay_sharded_supervised(
            &program,
            &trace,
            spec.name,
            &config,
            shards,
            ckpt,
            &scope,
            Some(jobs.saturating_sub(1)),
        );
        let resume_start = Instant::now();
        let resumed = replay_sharded_supervised(
            &program, &trace, spec.name, &config, shards, ckpt, &scope, None,
        )
        .unwrap_or_else(|| panic!("{}: uncapped resume cannot be interrupted", spec.name));
        let resume_wall = resume_start.elapsed().as_secs_f64();
        resume_identical = resumed.stats == serial;
        resume_pairs = Some(vec![
            ("interrupted".to_string(), Json::from(interrupted.is_none())),
            ("executed".to_string(), Json::from(resumed.executed)),
            ("skipped".to_string(), Json::from(resumed.skipped)),
            ("wall_seconds".to_string(), Json::from(resume_wall)),
            (
                "speedup_vs_serial".to_string(),
                Json::from(serial_wall / resume_wall.max(f64::MIN_POSITIVE)),
            ),
            ("identical".to_string(), Json::from(resume_identical)),
        ]);
    }

    let mut pairs = vec![
        ("schema".to_string(), Json::from(SHARD_SCHEMA)),
        ("scale".to_string(), Json::from(scale.as_str())),
        ("workload".to_string(), Json::from(spec.name)),
        ("config".to_string(), Json::from(config.name.as_str())),
        ("snapshot_interval".to_string(), Json::from(interval)),
        ("snapshots".to_string(), Json::from(trace.snapshot_count())),
        ("shards".to_string(), Json::from(sharded.plan.len())),
        ("instructions".to_string(), Json::from(serial.instructions)),
        ("cycles".to_string(), Json::from(serial.cycles)),
        (
            "fingerprint".to_string(),
            Json::from(format!("{:#018x}", stats_fingerprint(&serial))),
        ),
        (
            "stitched_fingerprint".to_string(),
            Json::from(format!("{:#018x}", stats_fingerprint(&sharded.stats))),
        ),
        ("identical".to_string(), Json::from(identical)),
        ("capture_wall_seconds".to_string(), Json::from(capture_wall)),
        ("serial_wall_seconds".to_string(), Json::from(serial_wall)),
        ("sharded_wall_seconds".to_string(), Json::from(sharded_wall)),
        (
            "shard_wall_seconds".to_string(),
            Json::Arr(sharded.shard_walls.iter().map(|&w| Json::from(w)).collect()),
        ),
    ];
    if let Some(resume) = resume_pairs {
        pairs.push(("resume".to_string(), Json::Obj(resume)));
    }
    let doc = Json::Obj(pairs);

    let mut text = String::new();
    let _ = writeln!(
        text,
        "Shard bench: {} at scale {}, config {}, snapshot interval {} ({} snapshots)",
        spec.name,
        scale,
        config.name,
        interval,
        trace.snapshot_count()
    );
    let _ = writeln!(
        text,
        "  serial   {:>8} cycles in {serial_wall:.3}s",
        serial.cycles
    );
    let _ = writeln!(
        text,
        "  sharded  {:>8} cycles in {sharded_wall:.3}s over {} chained shard job(s) — {}",
        sharded.stats.cycles,
        sharded.plan.len(),
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );
    if let Some(resume) = doc.get("resume") {
        let _ = writeln!(
            text,
            "  resume   1 job in {:.3}s ({:.1}x vs serial restart) — {}",
            resume
                .get("wall_seconds")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            resume
                .get("speedup_vs_serial")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
            if resume_identical {
                "bit-identical"
            } else {
                "DIVERGED"
            }
        );
    }

    Ok(ShardBenchRun {
        text,
        doc,
        failed: !identical || !resume_identical,
    })
}

/// The `bench_shard` binary's `main`: reads `ARL_SHARD` (default 3 when
/// unset — a serial "sweep" would measure nothing), `ARL_SHARD_WORKLOAD`
/// (default `gcc`, the longest suite workload), `ARL_SNAPSHOT_INTERVAL`,
/// `ARL_SCALE`, and `ARL_CHECKPOINT` (enables the kill-resume
/// measurement); prints the comparison; writes `BENCH_shard.json` when
/// `ARL_JSON` is set; exits non-zero if stitched and serial diverge.
pub fn run_shard_main() {
    let opts = ExperimentOptions::from_env();
    let shards = if std::env::var_os("ARL_SHARD").is_some() {
        shard_from_env()
    } else {
        3
    };
    let workload_name = std::env::var("ARL_SHARD_WORKLOAD").unwrap_or_else(|_| "gcc".to_string());
    let interval = snapshot_interval_from_env();
    let ledger_path = std::env::var_os("ARL_CHECKPOINT").map(PathBuf::from);
    // An unusable or mismatched ledger the user explicitly asked for is
    // a hard error — running on without resume protection would silently
    // discard the guarantee they requested.
    let run = match shard_bench_with(
        &opts,
        &workload_name,
        shards,
        interval,
        ledger_path.as_deref(),
        crate::runner::force_from_env(),
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("[arl-bench] cannot open ARL_CHECKPOINT: {e}");
            std::process::exit(2);
        }
    };
    print!("{}", run.text);
    if std::env::var_os("ARL_JSON").is_some() {
        match write_named_json("BENCH_shard.json", &run.doc) {
            Ok(path) => eprintln!("[arl-bench] wrote {}", path.display()),
            Err(e) => {
                eprintln!("[arl-bench] failed to write ARL_JSON: {e}");
                std::process::exit(1);
            }
        }
    }
    if run.failed {
        eprintln!("[arl-bench] shard bench FAILED: stitched replay diverged from serial");
        std::process::exit(1);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn shard_plan_is_balanced_contiguous_and_clamped() {
        assert_eq!(shard_plan(1, 1), vec![(0, 1)]);
        assert_eq!(shard_plan(1, 8), vec![(0, 1)], "clamps to segment count");
        assert_eq!(shard_plan(5, 0), vec![(0, 5)], "zero shards means one job");
        assert_eq!(shard_plan(7, 3), vec![(0, 3), (3, 5), (5, 7)]);
        // Exhaustive: contiguity, coverage, and balance for small cases.
        for segments in 1u64..=32 {
            for shards in 1usize..=10 {
                let plan = shard_plan(segments, shards);
                assert_eq!(plan.len(), shards.min(segments as usize));
                assert_eq!(plan[0].0, 0);
                assert_eq!(plan[plan.len() - 1].1, segments);
                for pair in plan.windows(2) {
                    assert_eq!(pair[0].1, pair[1].0, "contiguous");
                }
                let sizes: Vec<u64> = plan.iter().map(|(a, b)| b - a).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "balanced: {sizes:?}");
                assert!(min >= 1, "no empty shard job");
            }
        }
    }

    #[test]
    fn hex_round_trips() {
        let blob: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        assert_eq!(from_hex(&to_hex(&blob)).unwrap(), blob);
        assert_eq!(from_hex(""), Some(Vec::new()));
        assert_eq!(from_hex("abc"), None, "odd length");
        assert_eq!(from_hex("zz"), None, "non-hex digits");
    }

    #[test]
    fn env_value_parsers_handle_edge_cases() {
        assert_eq!(shard_from_value(None), 1);
        assert_eq!(shard_from_value(Some("4")), 4);
        assert_eq!(shard_from_value(Some(" 2 ")), 2);
        assert_eq!(shard_from_value(Some("0")), 1);
        assert_eq!(shard_from_value(Some("many")), 1);
        assert_eq!(
            snapshot_interval_from_value(None),
            DEFAULT_SNAPSHOT_INTERVAL
        );
        assert_eq!(snapshot_interval_from_value(Some("5000")), 5_000);
        assert_eq!(snapshot_interval_from_value(Some("0")), 0, "0 disables");
        assert_eq!(
            snapshot_interval_from_value(Some("soon")),
            DEFAULT_SNAPSHOT_INTERVAL
        );
    }

    #[test]
    fn fingerprint_separates_distinct_stats() {
        let a = SimStats::default();
        let mut b = SimStats::default();
        assert_eq!(stats_fingerprint(&a), stats_fingerprint(&b));
        b.cycles = 1;
        assert_ne!(stats_fingerprint(&a), stats_fingerprint(&b));
    }
}
