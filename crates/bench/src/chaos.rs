//! The crash-consistency chaos campaign (`bench_chaos` binary).
//!
//! The harness proves the artifact pipeline's crash story *end to end*,
//! on real processes: it runs the supervised fault-campaign sweep
//! (`fault_campaign`) as a subprocess, SIGKILLs it at seeded durable-I/O
//! operations and replays it under seeded I/O faults (short write,
//! ENOSPC, interrupted rename — see [`arl_sink`]), then demands that
//! every perturbation is **recovered** (a crash whose resume completes)
//! or **detected** (an error the child reports loudly), never silent —
//! and that the final merged `BENCH_faults.json` is *byte-identical* to
//! an undisturbed run with **zero** functional re-execution once the
//! ledger is complete.
//!
//! Protocol per seeded point:
//!
//! 1. **Fault run** — the child executes with `ARL_IO_FAULT` aiming one
//!    planned fault at one durable op (learned from a clean calibration
//!    run's `ARL_IO_TRACE` log). A `kill` point must die by signal; the
//!    error kinds must exit non-zero. A child that sails through its
//!    planned fault is a *silent* outcome and fails the campaign.
//! 2. **Resume run** — same ledger, no faults: must exit 0 and publish
//!    output byte-identical to the undisturbed reference.
//! 3. **Compact + verify run** — the supervisor compacts the ledger
//!    in-place ([`Checkpoint::compact`]), then reruns the child, which
//!    must report `functional instructions executed: 0` — the compacted
//!    ledger alone reconstructs the entire document.
//!
//! One extra probe exercises the fingerprint guard: resuming the
//! reference ledger under a different fault plan must fail naming both
//! identities, and `ARL_CHECKPOINT_FORCE=1` must override it.
//!
//! Every field of the emitted `arl-chaos/v1` document is deterministic
//! (seeded faults, deterministic simulators, no wall-clock), so the
//! committed `BENCH_chaos.json` regenerates bit-for-bit.
//!
//! The fault seed is 42 and each child sweeps the first 3 suite
//! workloads. Knobs: `ARL_CHAOS_POINTS` (default 20), `ARL_SCALE`
//! (default tiny), `ARL_CHAOS_CHILD` (path to the `fault_campaign`
//! binary, default: a sibling of the current executable), `ARL_CHAOS_DIR`
//! (work directory, default: under the system temp dir; kept on failure
//! for inspection).

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use arl_faults::{parse_plan, plan_io_fault, LayerPlan};
use arl_sink::{parse_io_trace, IoOp, PlannedIoFault};
use arl_stats::{Json, TableBuilder};
use arl_workloads::{suite, Scale};

use crate::knob::{ambient_knob_names, Knobs};
use crate::runner::{end_main, Checkpoint};
use crate::ExperimentOptions;

/// `BENCH_chaos.json` schema identifier.
pub(crate) const CHAOS_SCHEMA: &str = "arl-chaos/v1";

/// The fault plan every child sweep runs under. One fault per layer
/// keeps a child run short while still exercising ledger payloads of
/// every record shape.
const CHILD_FAULT_PLAN: &str = "all:42:1";

/// Seed for I/O-fault planning.
const SEED: u64 = 42;

/// Suite workloads per child sweep.
const JOBS: usize = 3;

/// Configuration for one chaos campaign.
pub(crate) struct ChaosOptions {
    /// Seeded kill/fault points to run (`ARL_CHAOS_POINTS`).
    pub points: u32,
    /// The scale every child runs at (`ARL_SCALE`, default tiny — chaos
    /// measures robustness, not throughput).
    pub scale: Scale,
    /// Path to the `fault_campaign` binary (`ARL_CHAOS_CHILD`), or
    /// `None` to use the sibling of the current executable.
    pub(crate) child: Option<PathBuf>,
    /// Work directory (`ARL_CHAOS_DIR`), or `None` for a fresh temp dir.
    pub dir: Option<PathBuf>,
}

impl ChaosOptions {
    /// The `ARL_SCALE` value that selects [`ChaosOptions::scale`] in a
    /// child.
    fn scale_arg(&self) -> String {
        if self.scale.is_tiny() {
            "tiny".to_string()
        } else {
            self.scale.factor().to_string()
        }
    }
}

/// A finished chaos campaign: rendered text, the `arl-chaos/v1`
/// document, and whether anything demands a non-zero exit.
pub(crate) struct ChaosRun {
    /// The exact bytes the binary prints to stdout.
    pub text: String,
    /// The `BENCH_chaos.json` payload.
    pub doc: Json,
    /// True on any silent/fatal outcome, divergent merge, or guard miss.
    pub failed: bool,
}

/// How one child invocation ended.
struct ChildRun {
    /// `Some(code)` for a normal exit, `None` for death by signal.
    code: Option<i32>,
    stderr: String,
}

impl ChildRun {
    fn label(&self) -> String {
        match self.code {
            Some(code) => format!("exit:{code}"),
            None => "signal".to_string(),
        }
    }
}

/// One per-point work item, resolved against the calibrated op list.
struct PointPlan {
    fault: PlannedIoFault,
    file: String,
}

fn run_child(
    exe: &Path,
    dir: &Path,
    opts: &ChaosOptions,
    extra: &[(&str, String)],
) -> std::io::Result<ChildRun> {
    let mut cmd = Command::new(exe);
    // Children must see exactly the chaos configuration — ambient ARL_*
    // knobs (a user's ARL_BACKEND, a CI ARL_JSON) would silently change
    // what the campaign measures.
    for key in ambient_knob_names() {
        cmd.env_remove(key);
    }
    cmd.env("ARL_SCALE", opts.scale_arg())
        .env("ARL_THREADS", "1") // deterministic durable-op order
        .env("ARL_FAULT", CHILD_FAULT_PLAN)
        .env("ARL_MAX_JOBS", JOBS.to_string())
        .env("ARL_JSON", dir)
        .env("ARL_CHECKPOINT", dir.join("ledger.ckpt"));
    for (key, value) in extra {
        cmd.env(key, value);
    }
    let output = cmd.output()?;
    Ok(ChildRun {
        code: output.status.code(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    })
}

fn functional_instructions(stderr: &str) -> Option<u64> {
    stderr.lines().find_map(|line| {
        line.strip_prefix("[arl-bench] functional instructions executed: ")?
            .trim()
            .parse()
            .ok()
    })
}

/// The campaign identity the child runs under (for parent-side ledger
/// compaction and the fingerprint-guard probe).
fn child_identity(opts: &ChaosOptions, plan: &str) -> std::io::Result<crate::RunIdentity> {
    let plans: Vec<LayerPlan> = parse_plan(plan)
        .map_err(|e| std::io::Error::other(format!("bad chaos child plan {plan:?}: {e}")))?;
    Ok(crate::campaign_identity(
        &ExperimentOptions::new(opts.scale, 1),
        &plans,
    ))
}

fn locate_child(opts: &ChaosOptions) -> std::io::Result<PathBuf> {
    if let Some(child) = &opts.child {
        return Ok(child.clone());
    }
    let exe = std::env::current_exe()?;
    let sibling = exe
        .parent()
        .map(|d| d.join("fault_campaign"))
        .filter(|p| p.exists());
    sibling.ok_or_else(|| {
        std::io::Error::other(
            "cannot locate the fault_campaign binary next to bench_chaos; \
             set ARL_CHAOS_CHILD to its path",
        )
    })
}

fn survivors(ledger: &Path) -> usize {
    Checkpoint::inspect(ledger).map(|v| v.live()).unwrap_or(0)
}

/// Runs the chaos campaign (see module docs).
///
/// # Errors
///
/// Infrastructure failures only — a missing child binary, an unwritable
/// work directory, a reference run that will not complete cleanly.
/// *Fault* failures (silent outcomes, divergent merges) are reported in
/// the returned [`ChaosRun::failed`], not as errors.
pub(crate) fn chaos_campaign(opts: &ChaosOptions) -> std::io::Result<ChaosRun> {
    let exe = locate_child(opts)?;
    let root = opts
        .dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("arl-chaos-{}", std::process::id())));
    std::fs::create_dir_all(&root)?;

    // Reference: one undisturbed sweep, with the durable-op sequence
    // logged for fault planning.
    let ref_dir = root.join("ref");
    std::fs::create_dir_all(&ref_dir)?;
    let io_log = ref_dir.join("io.log");
    let reference = run_child(
        &exe,
        &ref_dir,
        opts,
        &[("ARL_IO_TRACE", io_log.display().to_string())],
    )?;
    if reference.code != Some(0) {
        return Err(std::io::Error::other(format!(
            "reference run failed ({}):\n{}",
            reference.label(),
            reference.stderr
        )));
    }
    let reference_json = std::fs::read(ref_dir.join("BENCH_faults.json"))?;
    let ops: Vec<IoOp> = parse_io_trace(&std::fs::read_to_string(&io_log)?);
    if ops.is_empty() {
        return Err(std::io::Error::other(
            "calibration logged no durable operations; cannot plan faults",
        ));
    }
    let identity = child_identity(opts, CHILD_FAULT_PLAN)?;

    let mut records: Vec<Json> = Vec::new();
    let mut totals = [0u64; 4]; // recovered, detected, silent, fatal
    let mut all_identical = true;
    let mut table = TableBuilder::new(&[
        "Point",
        "Fault",
        "Target",
        "Child",
        "Live",
        "Rerun",
        "Identical",
        "Outcome",
    ]);

    for index in 0..opts.points {
        let plan = plan_io_fault(SEED, index, &ops).map(|fault| PointPlan {
            file: ops
                .iter()
                .find(|o| o.op == fault.op)
                .map(|o| o.file.clone())
                .unwrap_or_default(),
            fault,
        });
        let Some(point) = plan else {
            // Unreachable with a real op list (every kind has a host op);
            // a plan gap would mean the campaign tested less than
            // promised, so it fails loudly rather than skipping quietly.
            totals[3] += 1;
            records.push(Json::obj([
                ("point", Json::from(u64::from(index))),
                ("outcome", Json::from("fatal")),
                ("detail", Json::from("no plannable operation")),
            ]));
            continue;
        };
        let dir = root.join(format!("p{index:02}"));
        std::fs::create_dir_all(&dir)?;
        let ledger = dir.join("ledger.ckpt");
        let spec = point.fault.to_spec();
        let kind = point.fault.kind_label();

        // 1. Fault run.
        let faulted = run_child(&exe, &dir, opts, &[("ARL_IO_FAULT", spec.clone())])?;
        let crash_expected = kind == "kill";
        let perturbed = if crash_expected {
            faulted.code.is_none()
        } else {
            matches!(faulted.code, Some(c) if c != 0)
        };
        let live = survivors(&ledger);

        // 2. Resume run (no faults).
        let resumed = run_child(&exe, &dir, opts, &[])?;
        let resume_ok = resumed.code == Some(0);
        let merged = std::fs::read(dir.join("BENCH_faults.json")).unwrap_or_default();
        let identical = merged == reference_json;

        // 3. Compact the ledger in the supervisor, then verify the
        // child reconstructs everything from it without re-executing.
        let compacted = Checkpoint::open(&ledger, &identity, false)
            .and_then(|mut c| c.compact())
            .is_ok();
        let verified = run_child(&exe, &dir, opts, &[])?;
        let re_executed = functional_instructions(&verified.stderr);
        let verify_ok = verified.code == Some(0) && re_executed == Some(0);
        let still_identical = std::fs::read(dir.join("BENCH_faults.json"))
            .map(|bytes| bytes == reference_json)
            .unwrap_or(false);

        let outcome = if !perturbed {
            "silent" // the planned fault left no trace at all
        } else if !(resume_ok && identical && compacted && verify_ok && still_identical) {
            "fatal" // the fault landed but recovery broke
        } else if crash_expected {
            "recovered"
        } else {
            "detected"
        };
        match outcome {
            "recovered" => totals[0] += 1,
            "detected" => totals[1] += 1,
            "silent" => totals[2] += 1,
            _ => totals[3] += 1,
        }
        all_identical &= identical && still_identical;

        table.row(&[
            format!("{index}"),
            spec.clone(),
            point.file.clone(),
            faulted.label(),
            format!("{live}"),
            format!("{}", JOBS.saturating_sub(live)),
            format!("{}", identical && still_identical),
            outcome.to_string(),
        ]);
        records.push(Json::obj([
            ("point", Json::from(u64::from(index))),
            ("fault", Json::from(spec.as_str())),
            ("kind", Json::from(kind)),
            ("file", Json::from(point.file.as_str())),
            ("child", Json::from(faulted.label())),
            ("survivors", Json::from(live)),
            ("reexecuted_jobs", Json::from(JOBS.saturating_sub(live))),
            ("resume_identical", Json::from(identical)),
            ("compacted", Json::from(compacted)),
            (
                "verify_reexecution",
                re_executed.map_or(Json::Null, Json::from),
            ),
            ("outcome", Json::from(outcome)),
        ]));
    }

    // Fingerprint guard probe: the reference ledger under a different
    // fault plan must be refused with both identities named, and the
    // force knob must override.
    let guard_plan = "all:43:1";
    let guard_dir = root.join("guard");
    std::fs::create_dir_all(&guard_dir)?;
    std::fs::copy(ref_dir.join("ledger.ckpt"), guard_dir.join("ledger.ckpt"))?;
    let refused = run_child(
        &exe,
        &guard_dir,
        opts,
        &[("ARL_FAULT", guard_plan.to_string())],
    )?;
    let theirs = identity.render();
    let ours = child_identity(opts, guard_plan)?.render();
    let guard_refused = refused.code == Some(2);
    let guard_names_both = refused.stderr.contains(&theirs) && refused.stderr.contains(&ours);
    let forced = run_child(
        &exe,
        &guard_dir,
        opts,
        &[
            ("ARL_FAULT", guard_plan.to_string()),
            ("ARL_CHECKPOINT_FORCE", "1".to_string()),
        ],
    )?;
    let guard_force_ok = forced.code == Some(0);
    let guard_ok = guard_refused && guard_names_both && guard_force_ok;

    let silent = totals[2];
    let fatal = totals[3];
    let failed = silent > 0 || fatal > 0 || !all_identical || !guard_ok;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "Chaos campaign: {} seeded I/O fault point(s), seed {}, {} workload job(s) per sweep, \
         scale {}",
        opts.points,
        SEED,
        JOBS,
        opts.scale_arg()
    );
    let _ = writeln!(text, "{}", table.render());
    let _ = writeln!(
        text,
        "Totals: recovered={} detected={} silent={silent} fatal={fatal} — merged output {}",
        totals[0],
        totals[1],
        if all_identical {
            "byte-identical to the undisturbed run"
        } else {
            "DIVERGED"
        }
    );
    let _ = writeln!(
        text,
        "Fingerprint guard: refused={guard_refused} names_both={guard_names_both} \
         force_override={guard_force_ok}"
    );

    let workloads = {
        let mut specs = suite();
        specs.truncate(JOBS);
        specs.iter().map(|s| Json::from(s.name)).collect::<Vec<_>>()
    };
    let doc = Json::obj([
        ("schema", Json::from(CHAOS_SCHEMA)),
        ("experiment", Json::from("chaos")),
        ("seed", Json::from(SEED)),
        ("points", Json::from(u64::from(opts.points))),
        ("scale", Json::from(opts.scale_arg())),
        ("plan", Json::from(CHILD_FAULT_PLAN)),
        ("workloads", Json::Arr(workloads)),
        ("records", Json::Arr(records)),
        (
            "totals",
            Json::obj([
                ("recovered", Json::from(totals[0])),
                ("detected", Json::from(totals[1])),
                ("silent", Json::from(silent)),
                ("fatal", Json::from(fatal)),
            ]),
        ),
        ("all_identical", Json::from(all_identical)),
        (
            "identity_guard",
            Json::obj([
                ("refused", Json::from(guard_refused)),
                ("names_both", Json::from(guard_names_both)),
                ("force_override", Json::from(guard_force_ok)),
            ]),
        ),
    ]);

    if failed {
        eprintln!(
            "[arl-bench] chaos campaign FAILED; work directory kept at {}",
            root.display()
        );
    } else if opts.dir.is_none() {
        let _ = std::fs::remove_dir_all(&root);
    }
    Ok(ChaosRun { text, doc, failed })
}

/// The `bench_chaos` binary's `main`: reads the `Knobs`, runs the
/// campaign, prints the table, emits `BENCH_chaos.json` under `ARL_JSON`,
/// and exits non-zero on any silent/fatal outcome, divergent merge, or
/// fingerprint-guard miss.
pub fn run_chaos_main() {
    let knobs = Knobs::from_env();
    let opts = ChaosOptions {
        points: knobs.chaos_points,
        scale: knobs.scale.unwrap_or_else(Scale::tiny),
        child: knobs.chaos_child.clone(),
        dir: knobs.chaos_dir.clone(),
    };
    let run = match chaos_campaign(&opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("[arl-bench] chaos campaign could not run: {e}");
            std::process::exit(2);
        }
    };
    let failure = run
        .failed
        .then(|| "chaos campaign FAILED (silent/fatal outcomes or guard miss above)".to_string());
    end_main(
        &knobs,
        &run.text,
        &[("BENCH_chaos.json".to_string(), run.doc)],
        failure.as_slice(),
    );
}
