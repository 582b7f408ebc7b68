//! The seeded fault-injection campaign (`fault_campaign` binary).
//!
//! For every suite workload the campaign captures one trace, runs one
//! fault-free decoupled timing baseline, then injects each planned fault
//! (`ARL_FAULT`; see [`arl_faults::parse_plan`]) into its layer and
//! classifies the outcome against the baseline:
//!
//! * **trace** faults corrupt the serialized `.arltrace` container and
//!   must be *detected* by the decoder's checksum (a decode that
//!   succeeds anyway is differentially replayed; a functional mismatch
//!   is *silent* — a campaign failure).
//! * **arpt** faults flip ARPT entry state mid-run; the pipeline's
//!   misprediction-recovery path must absorb them (*recovered*) or they
//!   must change nothing (*masked*) — the functional signature may never
//!   move, because the replayed instruction stream does not depend on
//!   steering.
//! * **port** faults black out or slow a first-level memory port for a
//!   window; they may only cost cycles (*masked*).
//!
//! Jobs run through [`Pool::try_map`]: a workload whose job panics (a
//! failed ledger append, say) becomes an `ERROR:` line and an
//! `{"index","message"}` record in the document's `errors` array instead
//! of aborting the sweep, and the binary exits 1. `ARL_CHECKPOINT`
//! persists per-job completion so an interrupted campaign resumes without
//! re-running finished workloads — the emitted document contains no
//! wall-clock fields, so a resumed merge is byte-identical to an
//! uninterrupted run.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use arl_faults::{
    apply_trace_fault, classify_timing, classify_trace, describe_timing_fault, parse_plan,
    plan_arpt_fault, plan_port_fault, plan_trace_fault, FaultOutcome, Layer, LayerPlan,
    RunSignature, TimingObservation, DEFAULT_COUNT, DEFAULT_SEED,
};
use arl_stats::{Json, TableBuilder};
use arl_timing::{MachineConfig, SimStats, TimingFault};
use arl_trace::Trace;
use arl_workloads::suite;

use crate::knob::Knobs;
use crate::runner::{end_main, scale_label, Checkpoint, JobFailure, Pool, RunIdentity};
use crate::{capture_trace, timing_trace, ExperimentOptions};

/// `BENCH_faults.json` schema identifier.
pub const FAULTS_SCHEMA: &str = "arl-faults/v1";

/// A finished campaign: rendered text, the `arl-faults/v1` document, and
/// whether anything demands a non-zero exit.
pub struct FaultCampaignRun {
    /// The exact bytes the binary prints to stdout.
    pub text: String,
    /// The `BENCH_faults.json` payload.
    pub doc: Json,
    /// True when any fault was fatal or silent, or any job failed.
    pub failed: bool,
}

fn signature(stats: &SimStats) -> RunSignature {
    RunSignature {
        instructions: stats.instructions,
        mem_refs: stats.mem_refs,
        peak_rss_bytes: stats.peak_rss_bytes,
    }
}

fn observation(stats: &SimStats) -> TimingObservation {
    TimingObservation {
        signature: signature(stats),
        recoveries: stats.recoveries,
    }
}

/// One fault's classified outcome, before JSON rendering.
struct FaultRecord<'a> {
    workload: &'a str,
    layer: Layer,
    fault_id: u32,
    detail: &'a str,
    outcome: FaultOutcome,
    fired: bool,
    recoveries_delta: Option<u64>,
    cycles_delta: Option<i64>,
}

/// Renders one outcome record (no wall-clock fields — resume merges must
/// be byte-identical).
fn record_json(r: &FaultRecord<'_>) -> Json {
    Json::obj([
        ("workload", Json::from(r.workload)),
        ("layer", Json::from(r.layer.label())),
        ("fault_id", Json::from(u64::from(r.fault_id))),
        ("detail", Json::from(r.detail)),
        ("outcome", Json::from(r.outcome.label())),
        ("fired", Json::from(r.fired)),
        (
            "recoveries_delta",
            r.recoveries_delta.map_or(Json::Null, Json::from),
        ),
        (
            "cycles_delta",
            r.cycles_delta.map_or(Json::Null, |d| Json::Num(d as f64)),
        ),
    ])
}

/// Runs one timing-layer fault and classifies it. The run itself is
/// guarded: a panic inside the simulator is the *fatal* outcome, not a
/// campaign abort.
fn run_timing_fault(
    program: &arl_asm::Program,
    trace: &Trace,
    name: &str,
    config: &MachineConfig,
    fault: TimingFault,
    baseline: &TimingObservation,
    baseline_cycles: u64,
) -> (FaultOutcome, bool, Option<u64>, Option<i64>) {
    let mut faulty_config = config.clone();
    faulty_config.faults = vec![fault];
    let result = catch_unwind(AssertUnwindSafe(|| {
        timing_trace(program, trace, name, &faulty_config)
    }))
    .ok();
    let outcome = classify_timing(baseline, result.as_ref().map(observation).as_ref());
    match result {
        Some(stats) => (
            outcome,
            stats.faults_applied.contains(&fault.id),
            Some(stats.recoveries.saturating_sub(baseline.recoveries)),
            Some(stats.cycles as i64 - baseline_cycles as i64),
        ),
        None => (outcome, true, None, None),
    }
}

/// The stable cell of `ARL_FAULT` this campaign ran under, used in
/// checkpoint keys and the output document.
fn plan_spec(plans: &[LayerPlan]) -> String {
    plans
        .iter()
        .map(|p| format!("{}:{}:{}", p.layer.label(), p.seed, p.count))
        .collect::<Vec<_>>()
        .join(",")
}

/// The checkpoint-ledger fingerprint for a fault campaign: everything
/// that shapes the recorded payloads. Threads are deliberately excluded —
/// the payloads are bit-identical at any thread count — and
/// `ARL_MAX_JOBS` is excluded because a job cap is an *interruption* of
/// the same campaign, not a different campaign — a capped run must
/// brand its ledger so the uncapped resume is accepted.
pub fn campaign_identity(opts: &ExperimentOptions, plans: &[LayerPlan]) -> RunIdentity {
    let workloads = suite().iter().map(|s| s.name).collect::<Vec<_>>().join(",");
    RunIdentity::new("faults")
        .field("scale", scale_label(opts.scale))
        .field("plan", plan_spec(plans))
        .field("config", "decoupled(3,3)")
        .field("workloads", workloads)
}

/// Runs the campaign: `plans` faults per workload over the first
/// `max_jobs` suite workloads (all 12 when `None`), resuming completed
/// jobs from `checkpoint` when one is given. A job that panics becomes
/// one `errors` record and marks the run failed.
pub fn fault_campaign_with(
    opts: &ExperimentOptions,
    plans: &[LayerPlan],
    max_jobs: Option<usize>,
    checkpoint: Option<Checkpoint>,
) -> FaultCampaignRun {
    let mut specs = suite();
    if let Some(n) = max_jobs {
        specs.truncate(n);
    }
    let scale = scale_label(opts.scale);
    let spec_str = plan_spec(plans);
    let checkpoint = Mutex::new(checkpoint);

    let results = Pool::new(opts.threads).try_map(&specs, |spec| {
        let key = format!("faults/{}/{}/{}", spec.name, scale, spec_str);
        if let Some(ckpt) = checkpoint
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            if let Some(payload) = ckpt.get(&key) {
                return Json::parse(payload)
                    .unwrap_or_else(|e| panic!("corrupt checkpoint entry for {key}: {e}"));
            }
        }

        let program = spec.build(opts.scale);
        let trace = capture_trace(&program, spec.name);
        let config = MachineConfig::decoupled(3, 3);
        let baseline = timing_trace(&program, &trace, spec.name, &config);
        let base_obs = observation(&baseline);
        let bytes = trace.as_bytes();

        let mut records: Vec<Json> = Vec::new();
        let mut next_id = 0u32;
        for plan in plans {
            for index in 0..plan.count {
                let id = next_id;
                next_id += 1;
                let record = match plan.layer {
                    Layer::Trace => {
                        let fault = plan_trace_fault(plan.seed, index, bytes.len());
                        let mutated = apply_trace_fault(bytes, &fault);
                        let outcome = match Trace::from_bytes(mutated) {
                            Err(_) => classify_trace(None),
                            Ok(decoded) => {
                                // The checksum missed it; the
                                // differential replay is the last
                                // line of defence.
                                let replay = catch_unwind(AssertUnwindSafe(|| {
                                    timing_trace(&program, &decoded, spec.name, &config)
                                }));
                                match replay {
                                    Err(_) => FaultOutcome::Fatal,
                                    Ok(stats) => classify_trace(Some(
                                        signature(&stats) == base_obs.signature,
                                    )),
                                }
                            }
                        };
                        record_json(&FaultRecord {
                            workload: spec.name,
                            layer: plan.layer,
                            fault_id: id,
                            detail: &fault.describe(),
                            outcome,
                            fired: true,
                            recoveries_delta: None,
                            cycles_delta: None,
                        })
                    }
                    Layer::Arpt => {
                        let fault = plan_arpt_fault(id, plan.seed, index, baseline.region_checks);
                        let detail = describe_timing_fault(&fault);
                        let (outcome, fired, rec_delta, cyc_delta) = run_timing_fault(
                            &program,
                            &trace,
                            spec.name,
                            &config,
                            fault,
                            &base_obs,
                            baseline.cycles,
                        );
                        record_json(&FaultRecord {
                            workload: spec.name,
                            layer: plan.layer,
                            fault_id: id,
                            detail: &detail,
                            outcome,
                            fired,
                            recoveries_delta: rec_delta,
                            cycles_delta: cyc_delta,
                        })
                    }
                    Layer::Port => {
                        let fault = plan_port_fault(
                            id,
                            plan.seed,
                            index,
                            baseline.cycles,
                            config.lvc.is_some(),
                        );
                        let detail = describe_timing_fault(&fault);
                        let (outcome, fired, rec_delta, cyc_delta) = run_timing_fault(
                            &program,
                            &trace,
                            spec.name,
                            &config,
                            fault,
                            &base_obs,
                            baseline.cycles,
                        );
                        record_json(&FaultRecord {
                            workload: spec.name,
                            layer: plan.layer,
                            fault_id: id,
                            detail: &detail,
                            outcome,
                            fired,
                            recoveries_delta: rec_delta,
                            cycles_delta: cyc_delta,
                        })
                    }
                };
                records.push(record);
            }
        }
        let payload = Json::Arr(records);
        if let Some(ckpt) = checkpoint
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            ckpt.record(&key, &payload)
                .unwrap_or_else(|e| panic!("failed to checkpoint {key}: {e}"));
        }
        payload
    });

    // Fold: flatten per-workload record arrays (suite order), collect
    // job failures, and tally outcomes.
    let mut records: Vec<Json> = Vec::new();
    let mut errors: Vec<JobFailure> = Vec::new();
    for result in results {
        match result {
            Ok(Json::Arr(items)) => records.extend(items),
            Ok(other) => records.push(other),
            Err(failure) => errors.push(failure),
        }
    }
    let mut totals = [0u64; FaultOutcome::ALL.len()];
    for record in &records {
        let outcome = record.get("outcome").and_then(Json::as_str);
        for (i, candidate) in FaultOutcome::ALL.iter().enumerate() {
            if outcome == Some(candidate.label()) {
                totals[i] += 1;
            }
        }
    }

    let mut table = TableBuilder::new(&[
        "Workload", "Layer", "Fault", "Outcome", "Fired", "ΔRecov", "ΔCycles",
    ]);
    for record in &records {
        let cell = |key: &str| {
            record
                .get(key)
                .map(|v| match v {
                    Json::Str(s) => s.clone(),
                    Json::Null => "-".to_string(),
                    other => other.render(),
                })
                .unwrap_or_default()
        };
        table.row(&[
            cell("workload"),
            cell("layer"),
            cell("detail"),
            cell("outcome"),
            cell("fired"),
            cell("recoveries_delta"),
            cell("cycles_delta"),
        ]);
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fault campaign: {} over {} workload(s), scale {}",
        spec_str,
        specs.len(),
        scale
    );
    let _ = writeln!(text, "{}", table.render());
    let mut totals_line = String::from("Totals:");
    for (i, outcome) in FaultOutcome::ALL.iter().enumerate() {
        let _ = write!(totals_line, " fault_{}={}", outcome.label(), totals[i]);
    }
    let _ = writeln!(text, "{totals_line}");
    for failure in &errors {
        let _ = writeln!(text, "ERROR: {}", failure.summary());
    }

    let silent = totals[4];
    let fatal = totals[3];
    let mut pairs = vec![
        ("schema", Json::from(FAULTS_SCHEMA)),
        ("experiment", Json::from("faults")),
        ("scale", Json::from(scale.as_str())),
        ("plan", Json::from(spec_str.as_str())),
        ("workloads", Json::from(specs.len())),
        ("records", Json::Arr(records)),
        (
            "totals",
            Json::obj(
                FaultOutcome::ALL
                    .iter()
                    .enumerate()
                    .map(|(i, o)| (format!("fault_{}", o.label()), Json::from(totals[i]))),
            ),
        ),
    ];
    if !errors.is_empty() {
        pairs.push((
            "errors",
            Json::Arr(errors.iter().map(JobFailure::to_json).collect()),
        ));
    }
    FaultCampaignRun {
        text,
        doc: Json::obj(pairs),
        failed: silent > 0 || fatal > 0 || !errors.is_empty(),
    }
}

/// The `fault_campaign` binary's `main`: reads `ARL_FAULT` and the
/// `Knobs` (`ARL_SCALE`, `ARL_THREADS`, `ARL_MAX_JOBS`,
/// `ARL_CHECKPOINT`, ...); prints the campaign table and one `ERROR:`
/// line per failed job; emits `BENCH_faults.json` under `ARL_JSON`;
/// exits 1 when any fault was fatal or silent or any job panicked, and 2
/// when `ARL_FAULT` or `ARL_CHECKPOINT` is unusable.
pub fn run_faults_main() {
    let knobs = Knobs::from_env();
    let opts = knobs.options();
    let default_plan = format!("all:{DEFAULT_SEED}:{DEFAULT_COUNT}");
    let plans = match parse_plan(knobs.fault.as_deref().unwrap_or(&default_plan)) {
        Ok(plans) => plans,
        Err(e) => {
            eprintln!("[arl-bench] invalid ARL_FAULT: {e}");
            std::process::exit(2);
        }
    };
    // A ledger the user asked for but that cannot be opened — or that
    // fingerprints a different run — is a hard error: proceeding would
    // either silently lose resume protection or merge foreign payloads.
    let identity = campaign_identity(&opts, &plans);
    let checkpoint = match knobs
        .checkpoint
        .as_deref()
        .map(|path| Checkpoint::open(path, &identity, knobs.checkpoint_force))
        .transpose()
    {
        Ok(ckpt) => ckpt,
        Err(e) => {
            eprintln!("[arl-bench] cannot open ARL_CHECKPOINT: {e}");
            std::process::exit(2);
        }
    };
    let run = fault_campaign_with(&opts, &plans, knobs.max_jobs, checkpoint);
    // Audit line for supervisors (the chaos harness asserts a fully
    // resumed campaign re-executes zero functional instructions).
    eprintln!(
        "[arl-bench] functional instructions executed: {}",
        arl_sim::functional_instructions_executed()
    );
    let failure = run
        .failed
        .then(|| "fault campaign FAILED (fatal/silent faults or job errors above)".to_string());
    end_main(
        &knobs,
        &run.text,
        &[("BENCH_faults.json".to_string(), run.doc)],
        failure.as_slice(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use arl_workloads::Scale;

    fn tiny_opts() -> ExperimentOptions {
        ExperimentOptions::new(Scale::tiny(), 2)
    }

    fn plans(seed: u64, count: u32) -> Vec<LayerPlan> {
        Layer::ALL
            .iter()
            .map(|&layer| LayerPlan { layer, seed, count })
            .collect()
    }

    #[test]
    fn campaign_classifies_and_never_goes_silent_on_two_workloads() {
        let run = fault_campaign_with(&tiny_opts(), &plans(42, 2), Some(2), None);
        assert!(!run.failed, "campaign failed:\n{}", run.text);
        let totals = run.doc.get("totals").unwrap();
        assert_eq!(totals.get("fault_silent").unwrap().as_u64(), Some(0));
        assert_eq!(totals.get("fault_fatal").unwrap().as_u64(), Some(0));
        // 2 workloads × 3 layers × 2 faults.
        let records = run.doc.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 12);
        // Every trace fault is caught by the container checksum.
        for r in records {
            if r.get("layer").unwrap().as_str() == Some("trace") {
                assert_eq!(r.get("outcome").unwrap().as_str(), Some("detected"));
            }
        }
        assert_eq!(run.doc.get("schema").unwrap().as_str(), Some(FAULTS_SCHEMA));
        // The document round-trips through the parser.
        assert_eq!(Json::parse(&run.doc.render()).unwrap(), run.doc);
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        let a = fault_campaign_with(&tiny_opts(), &plans(7, 1), Some(1), None);
        let b = fault_campaign_with(&tiny_opts(), &plans(7, 1), Some(1), None);
        assert_eq!(a.doc.render(), b.doc.render());
        let c = fault_campaign_with(&tiny_opts(), &plans(8, 1), Some(1), None);
        assert_ne!(
            a.doc.get("records").unwrap(),
            c.doc.get("records").unwrap(),
            "different seeds must plan different faults"
        );
    }

    #[test]
    fn campaign_identity_pins_plan_scale_and_workload_set() {
        let a = campaign_identity(&tiny_opts(), &plans(42, 2));
        let b = campaign_identity(&tiny_opts(), &plans(42, 2));
        assert_eq!(a, b);
        assert_ne!(a, campaign_identity(&tiny_opts(), &plans(43, 2)));
        let rendered = a.render();
        assert!(rendered.contains("\"experiment\":\"faults\""), "{rendered}");
        assert!(rendered.contains("trace:42:2"), "{rendered}");
    }
}
