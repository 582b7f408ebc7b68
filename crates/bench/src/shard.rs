//! Sharded trace replay (the `bench_shard` binary).
//!
//! [`shard_plan`] splits a trace's events into `M` balanced, contiguous
//! instruction ranges, replayed as a chain of *shard jobs*. Each job ends
//! by handing the next two things: the machine-state blob its timing model
//! exported, and its replayer's resume point ([`Replayer::snapshot`]:
//! decode cursor, delta registers, replayed contexts). The next job opens
//! a [`Replayer::open_span`] at that point and resumes the timing model
//! from the blob, both in O(1). The final job's [`SimStats`] are the whole
//! run's — **bit-identical** to an unsharded replay (the shard
//! differential suite holds this to `==` on every workload).
//!
//! Machine state is config-dependent (ARPT geometry, cache contents,
//! in-flight pipeline), so shard jobs of one (workload × config) cell are
//! *chained*, not parallel: the payoff is not intra-cell parallelism but
//! shard-granular fault tolerance. With `ARL_CHECKPOINT` set, every
//! completed non-final shard appends its hand-off to the ledger, and an
//! interrupted cell resumes from the last recorded shard instead of cycle
//! zero — [`replay_sharded_supervised`] is exactly-once over shard jobs.
//! The in-process chain and the ledger resume run the same loop; they
//! differ only in where the first hand-off comes from.
//!
//! Sharding buys resume only through that ledger, so only `bench_shard`
//! shards; the experiment binaries always replay each cell serially.
//! `bench_shard` replays its workload as [`SHARDS`] chained jobs.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use arl_asm::Program;
use arl_stats::Json;
use arl_timing::{MachineConfig, NullProbe, Probe, Recorder, SimStats, TimingSim};
use arl_trace::{Replayer, SnapshotRecord, Trace};
use arl_workloads::workload;

use crate::knob::Knobs;
use crate::runner::{end_main, scale_label, Checkpoint, RunIdentity};
use crate::{capture_trace, timing_trace, ExperimentOptions};

/// `BENCH_shard.json` schema identifier.
pub(crate) const SHARD_SCHEMA: &str = "arl-shard/v2";

/// Splits `events` trace events into at most `shards` contiguous,
/// balanced shard jobs. Returns `(start, end)` event ranges: job `i`
/// replays events `[start, end)`. The job count is
/// `min(shards.max(1), events.max(1))`; sizes differ by at most one
/// event, larger jobs first.
pub fn shard_plan(events: u64, shards: usize) -> Vec<(u64, u64)> {
    let jobs = (shards.max(1) as u64).min(events.max(1));
    let base = events / jobs;
    let extra = events % jobs;
    let mut plan = Vec::with_capacity(jobs as usize);
    let mut at = 0u64;
    for i in 0..jobs {
        let size = base + u64::from(i < extra);
        plan.push((at, at + size));
        at += size;
    }
    debug_assert_eq!(at, events);
    plan
}

/// An FNV-1a 64 fingerprint of the *full* `Debug` rendering of a
/// [`SimStats`] — every counter, nested cache stats included. Two runs
/// fingerprint equal iff their stats are field-for-field identical, so
/// the `BENCH_shard.json` document can prove bit-identity in one number.
pub fn stats_fingerprint(stats: &SimStats) -> u64 {
    arl_trace::fnv1a64(format!("{stats:?}").as_bytes())
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

/// What a finished non-final shard job hands the next: the machine-state
/// blob its timing model exported and its replayer's resume point.
struct Handoff {
    state: Vec<u8>,
    snapshot: SnapshotRecord,
}

/// The stitched result of a sharded replay.
pub struct ShardedReplay {
    /// Whole-run statistics (the final shard's cumulative view) —
    /// bit-identical to an unsharded replay of the same trace.
    pub stats: SimStats,
    /// Per-shard recorders merged in shard order, when probing was on —
    /// identical to a serial probed run's recorder.
    pub recorder: Option<Recorder>,
    /// The event ranges that were replayed ([`shard_plan`]).
    pub plan: Vec<(u64, u64)>,
    /// Shard jobs replayed by *this* invocation.
    pub executed: usize,
    /// Shard jobs served from the checkpoint ledger instead of replayed.
    pub skipped: usize,
    /// Wall seconds per executed shard job, in execution order.
    pub(crate) shard_walls: Vec<f64>,
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
    let uncapped = "an uncapped shard chain runs its final job";
    if probe {
        let mut merged = Recorder::new();
        let mut run = replay_chain(program, trace, name, config, shards, None, None, |r| {
            merged.merge(&r)
        })
        .expect(uncapped);
        run.recorder = Some(merged);
        run
    } else {
        replay_chain(
            program,
            trace,
            name,
            config,
            shards,
            None,
            None,
            |_: NullProbe| {},
        )
        .expect(uncapped)
    }
}

/// The one shard chain behind [`replay_sharded`] and
/// [`replay_sharded_supervised`]: replays the plan's jobs in order, each
/// resuming from its predecessor's hand-off and handing its fresh `P` to
/// `absorb`; every job but the final one ends with the hand-off for the
/// next. With a `(ledger, scope)`, the chain starts from the hand-off
/// of the last shard the ledger records ([`ledger_resume`]) and records
/// each non-final shard's hand-off; `max_jobs` caps the jobs executed, and
/// the chain returns `None` when the cap strikes before the final job.
#[allow(clippy::too_many_arguments)]
fn replay_chain<P: Probe + Default>(
    program: &Program,
    trace: &Trace,
    name: &str,
    config: &MachineConfig,
    shards: usize,
    mut ledger: Option<(&mut Checkpoint, &str)>,
    max_jobs: Option<usize>,
    mut absorb: impl FnMut(P),
) -> Option<ShardedReplay> {
    let plan = shard_plan(trace.event_count(), shards);
    let jobs = plan.len();
    let (first, mut handoff) = match &ledger {
        Some((ckpt, scope)) => ledger_resume(ckpt, scope, &plan),
        None => (0, None),
    };
    let mut walls = Vec::with_capacity(jobs - first);
    let mut stats = None;
    for (i, &span) in plan.iter().enumerate().skip(first) {
        if max_jobs.is_some_and(|cap| walls.len() >= cap) {
            return None; // interrupted; the ledger carries the resume point
        }
        let start = Instant::now();
        let resume = handoff.as_ref().map(|h| &h.snapshot);
        let mut replayer = Replayer::open_span(trace, program, resume, span.1)
            .unwrap_or_else(|e| panic!("workload {name} shard {i} rejected: {e}"));
        let state = handoff.as_ref().map(|h| h.state.as_slice());
        let run = TimingSim::run_segment_probed(
            &mut replayer,
            config,
            state,
            i + 1 == jobs,
            P::default(),
        )
        .unwrap_or_else(|e| panic!("workload {name} shard replay failed: {e}"));
        walls.push(start.elapsed().as_secs_f64());
        absorb(run.probe);
        handoff = run.state.map(|state| Handoff {
            state,
            snapshot: replayer.snapshot(),
        });
        if let (Some((ckpt, scope)), Some(next)) = (ledger.as_mut(), &handoff) {
            let key = shard_key(scope, i, jobs);
            let payload = Json::obj([
                ("schema", Json::from(SHARD_SCHEMA)),
                ("shard", Json::from(i)),
                ("shards", Json::from(jobs)),
                ("span", Json::Arr(vec![span.0.into(), span.1.into()])),
                ("instructions", Json::from(run.stats.instructions)),
                ("cycles", Json::from(run.stats.cycles)),
                ("state", Json::from(to_hex(&next.state))),
                ("snapshot", Json::from(to_hex(&next.snapshot.to_bytes()))),
            ]);
            ckpt.record(&key, &payload)
                .unwrap_or_else(|e| panic!("failed to checkpoint {key}: {e}"));
        }
        stats = Some(run.stats);
    }
    Some(ShardedReplay {
        stats: stats.unwrap_or_else(|| panic!("workload {name}: empty shard plan")),
        recorder: None,
        plan,
        executed: walls.len(),
        skipped: first,
        shard_walls: walls,
    })
}

fn shard_key(scope: &str, shard: usize, shards: usize) -> String {
    format!("shard/{scope}/{shard}of{shards}")
}

/// Where a supervised chain over `plan` resumes: the index of the first
/// job still to run and the hand-off it starts from, taken from the
/// *latest* non-final shard the ledger records under `scope` (`(0, None)`
/// when there is none).
///
/// # Panics
///
/// Panics, naming the ledger key and the field, when that entry is
/// corrupt or disagrees with the plan: a bad hand-off must never replay.
fn ledger_resume(
    ledger: &Checkpoint,
    scope: &str,
    plan: &[(u64, u64)],
) -> (usize, Option<Handoff>) {
    let jobs = plan.len();
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
        let hex = |field: &str| {
            let text = doc
                .get(field)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("shard ledger entry {key} has no \"{field}\""));
            from_hex(text)
                .unwrap_or_else(|| panic!("shard ledger entry {key} \"{field}\" is not hex"))
        };
        let state = hex("state");
        let raw = hex("snapshot");
        let snapshot = <[u8; SnapshotRecord::LEN]>::try_from(raw.as_slice())
            .map_err(|_| format!("{} bytes, not {}", raw.len(), SnapshotRecord::LEN))
            .and_then(|bytes| SnapshotRecord::from_bytes(&bytes).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| panic!("shard ledger entry {key} \"snapshot\" is corrupt: {e}"));
        let start = plan[i + 1].0;
        if snapshot.inst_index != start {
            panic!(
                "shard ledger entry {key} \"snapshot\" resumes at event {}, \
                 but shard {} starts at event {start}",
                snapshot.inst_index,
                i + 1
            );
        }
        return (i + 1, Some(Handoff { state, snapshot }));
    }
    (0, None)
}

/// [`replay_sharded`], supervised by a [`Checkpoint`] ledger: every
/// completed non-final shard records its hand-off — machine-state blob
/// and replayer resume point — under `shard/<scope>/<i>of<M>`, and a later
/// invocation with the same ledger and scope resumes after the last
/// recorded shard instead of replaying from cycle zero — exactly-once over
/// shard jobs.
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
/// this scope is corrupt or disagrees with the plan (the message names
/// the entry and the field), or if the ledger cannot be appended to.
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
    replay_chain(
        program,
        trace,
        name,
        config,
        shards,
        Some((ledger, scope)),
        max_shard_jobs,
        |_: NullProbe| {},
    )
}

/// A finished shard benchmark: rendered text, the `arl-shard/v2`
/// document, and whether stitched and serial results diverged.
pub(crate) struct ShardBenchRun {
    /// The exact bytes the binary prints to stdout.
    pub text: String,
    /// The `BENCH_shard.json` payload.
    pub doc: Json,
    /// True when any stitched result was not bit-identical to serial.
    pub failed: bool,
}

/// The ledger fingerprint for one shard benchmark: the workload, config,
/// scale, shard-job count, and — because recorded hand-offs are only
/// meaningful for the exact capture they were replayed from — the sealed
/// checksum of the trace container.
pub(crate) fn shard_identity(
    workload: &str,
    config_name: &str,
    scale: &str,
    shards: usize,
    trace_checksum: u64,
) -> RunIdentity {
    RunIdentity::new("shard")
        .field("workload", workload)
        .field("config", config_name)
        .field("scale", scale)
        .field("shards", shards)
        .field("trace", format!("{trace_checksum:016x}"))
}

/// Runs the shard benchmark on one workload: captures its trace, times a serial replay and an `shards`-way sharded replay,
/// asserts bit-identity, and — when a ledger path is given — additionally
/// times an interrupt-then-resume cycle (`shards − 1` jobs, "crash",
/// resume) to measure what shard-granular recovery saves over restarting.
/// The ledger opens *after* capture so its identity can fingerprint the
/// trace checksum.
///
/// # Errors
///
/// Ledger I/O failures or an identity mismatch ([`Checkpoint::open`]).
pub(crate) fn shard_bench_with(
    opts: &ExperimentOptions,
    workload_name: &str,
    shards: usize,
    ledger_path: Option<&Path>,
    force: bool,
) -> std::io::Result<ShardBenchRun> {
    let spec = workload(workload_name)
        .unwrap_or_else(|| panic!("workload {workload_name} matches no suite workload"));
    let config = MachineConfig::decoupled(3, 3);
    let scale = scale_label(opts.scale);

    let program = spec.build(opts.scale);
    let capture_start = Instant::now();
    let trace = capture_trace(&program, spec.name);
    let capture_wall = capture_start.elapsed().as_secs_f64();

    let mut ledger = match ledger_path {
        Some(path) => {
            let identity =
                shard_identity(spec.name, &config.name, &scale, shards, trace.checksum());
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
    // recovery speedup sharding buys at this shard count.
    let mut resume_pairs: Option<Vec<(String, Json)>> = None;
    let mut resume_identical = true;
    if let Some(ckpt) = ledger.as_mut() {
        let scope = format!("{}/{}/{}", spec.name, config.name, scale);
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
        "Shard bench: {} at scale {}, config {}",
        spec.name, scale, config.name
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

/// The workload `bench_shard` measures: `gcc`, the longest in the suite.
const SHARD_WORKLOAD: &str = "gcc";

/// The shard jobs `bench_shard` chains: more than one, or the sweep would
/// measure nothing.
const SHARDS: usize = 3;

/// The `bench_shard` binary's `main`: reads the `Knobs`
/// (`ARL_CHECKPOINT` enables the kill-resume measurement), prints the
/// comparison, emits `BENCH_shard.json` under `ARL_JSON`, and exits
/// non-zero if stitched and serial diverge.
pub fn run_shard_main() {
    let knobs = Knobs::from_env();
    // An unusable or mismatched ledger the user explicitly asked for is
    // a hard error — running on without resume protection would silently
    // discard the guarantee they requested.
    let run = match shard_bench_with(
        &knobs.options(),
        SHARD_WORKLOAD,
        SHARDS,
        knobs.checkpoint.as_deref(),
        knobs.checkpoint_force,
    ) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("[arl-bench] cannot open ARL_CHECKPOINT: {e}");
            std::process::exit(2);
        }
    };
    let failure = run
        .failed
        .then(|| "shard bench FAILED: stitched replay diverged from serial".to_string());
    end_main(
        &knobs,
        &run.text,
        &[("BENCH_shard.json".to_string(), run.doc)],
        failure.as_slice(),
    );
}

#[cfg(test)]
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
    fn fingerprint_separates_distinct_stats() {
        let a = SimStats::default();
        let mut b = SimStats::default();
        assert_eq!(stats_fingerprint(&a), stats_fingerprint(&b));
        b.cycles = 1;
        assert_ne!(stats_fingerprint(&a), stats_fingerprint(&b));
    }
}
