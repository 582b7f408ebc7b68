//! Fault-campaign integration: checkpoint/resume produces byte-identical
//! merged output with exactly-once execution, and the full suite shows
//! zero silent corruptions at tiny scale.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use arl::sim::functional_instructions_executed;
use arl::stats::Json;
use arl::timing::MachineConfig;
use arl::trace::capture;
use arl_bench::{
    campaign_identity, fault_campaign_with, replay_sharded, replay_sharded_supervised,
    stats_fingerprint, timing_trace, Checkpoint, ExperimentOptions, RunIdentity, FAULTS_SCHEMA,
    INST_CAP,
};
use arl_faults::{Layer, LayerPlan};
use arl_workloads::{workload, Scale};

/// The functional-instruction counter is process-global, so tests that
/// difference it must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn opts() -> ExperimentOptions {
    ExperimentOptions::new(Scale::tiny(), 2)
}

fn plans() -> Vec<LayerPlan> {
    Layer::ALL
        .iter()
        .map(|&layer| LayerPlan {
            layer,
            seed: 42,
            count: 1,
        })
        .collect()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("arl-faultcamp-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn checkpoint_resume_is_byte_identical_and_exactly_once() {
    let _guard = serialize();
    let dir = temp_dir("resume");
    let ckpt_path = dir.join("campaign.ckpt");
    let plans = plans();

    // Reference: an uninterrupted 3-workload campaign, and the
    // functional work it costs (captures only; replays execute nothing).
    let before = functional_instructions_executed();
    let uninterrupted = fault_campaign_with(&opts(), &plans, Some(3), None);
    let full_cost = functional_instructions_executed() - before;
    assert!(!uninterrupted.failed, "{}", uninterrupted.text);
    assert!(full_cost > 0, "captures must execute functionally");

    // Interrupted sweep: run only the first job against a checkpoint,
    // then "crash". The identity is the full 3-job sweep's — the cap is
    // the interruption, not a different campaign.
    let identity = campaign_identity(&opts(), &plans);
    let before = functional_instructions_executed();
    let first = fault_campaign_with(
        &opts(),
        &plans,
        Some(1),
        Some(Checkpoint::open(&ckpt_path, &identity, false).unwrap()),
    );
    let first_cost = functional_instructions_executed() - before;
    assert!(!first.failed);
    assert!(first_cost > 0 && first_cost < full_cost);

    // Resume: reopen the checkpoint and run the full 3-job sweep. The
    // first job must be served from the checkpoint (no re-execution),
    // and the merged document must be byte-identical to the
    // uninterrupted run.
    let resumed_ckpt = Checkpoint::open(&ckpt_path, &identity, false).unwrap();
    assert_eq!(resumed_ckpt.len(), 1);
    let before = functional_instructions_executed();
    let resumed = fault_campaign_with(&opts(), &plans, Some(3), Some(resumed_ckpt));
    let resume_cost = functional_instructions_executed() - before;
    assert!(!resumed.failed);
    assert_eq!(
        resumed.doc.render(),
        uninterrupted.doc.render(),
        "resumed merge must be byte-identical to the uninterrupted run"
    );
    // Exactly-once: the resume re-executed precisely the two missing
    // workloads (workload builds/replays are deterministic, so the
    // functional-instruction ledger balances to the instruction).
    assert_eq!(
        resume_cost,
        full_cost - first_cost,
        "resume must not re-execute the checkpointed workload"
    );

    // A second resume with everything checkpointed executes nothing.
    let done_ckpt = Checkpoint::open(&ckpt_path, &identity, false).unwrap();
    assert_eq!(done_ckpt.len(), 3);
    let before = functional_instructions_executed();
    let replayed = fault_campaign_with(&opts(), &plans, Some(3), Some(done_ckpt));
    assert_eq!(functional_instructions_executed() - before, 0);
    assert_eq!(replayed.doc.render(), uninterrupted.doc.render());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Kill-resume *under sharding*: interrupt a supervised sharded replay
/// mid-plan, resume from the ledger, and land on results bit-identical
/// to both the serial replay and an uninterrupted sharded replay —
/// re-running only the shards the crash lost, and never touching the
/// functional layer at all.
#[test]
fn sharded_kill_resume_is_exactly_once_and_bit_identical() {
    let _guard = serialize();
    let dir = temp_dir("shard");
    let ckpt_path = dir.join("shards.ckpt");

    let program = workload("perl")
        .expect("perl workload")
        .build(Scale::tiny());
    let trace = capture(&program, INST_CAP).expect("capture perl");
    let config = MachineConfig::decoupled(3, 3);

    // References: serial and uninterrupted 4-way sharded replays agree.
    let serial = timing_trace(&program, &trace, "perl", &config);
    let uninterrupted = replay_sharded(&program, &trace, "perl", &config, 4, false);
    assert_eq!(uninterrupted.stats, serial, "sharded must match serial");

    // Replays reconstruct everything from the trace: zero functional
    // re-execution across interrupt, crash, and resume.
    let before = functional_instructions_executed();

    // Run 2 of the 4 shard jobs against a ledger, then "crash".
    let identity = RunIdentity::new("test-shard").field("workload", "perl");
    let mut ledger = Checkpoint::open(&ckpt_path, &identity, false).unwrap();
    let interrupted = replay_sharded_supervised(
        &program,
        &trace,
        "perl",
        &config,
        4,
        &mut ledger,
        "perl/tiny",
        Some(2),
    );
    assert!(
        interrupted.is_none(),
        "the job cap must interrupt before the final shard"
    );
    drop(ledger);

    // Resume from a freshly reopened ledger: the two completed shards
    // are served from their recorded hand-offs, only the lost tail
    // re-runs, and the stitched result is bit-identical.
    let mut ledger = Checkpoint::open(&ckpt_path, &identity, false).unwrap();
    assert_eq!(ledger.len(), 2, "both completed shards must be recorded");
    let resumed = replay_sharded_supervised(
        &program,
        &trace,
        "perl",
        &config,
        4,
        &mut ledger,
        "perl/tiny",
        None,
    )
    .expect("uncapped resume runs to completion");
    assert_eq!(resumed.skipped, 2, "resume must skip the recorded shards");
    assert_eq!(
        resumed.executed + resumed.skipped,
        resumed.plan.len(),
        "every planned shard is either skipped or executed, exactly once"
    );
    assert_eq!(resumed.stats, serial, "resumed stats must match serial");
    assert_eq!(
        format!("{:?}", resumed.stats),
        format!("{:?}", uninterrupted.stats),
        "resumed results must render byte-identically"
    );
    assert_eq!(
        stats_fingerprint(&resumed.stats),
        stats_fingerprint(&uninterrupted.stats)
    );
    assert_eq!(
        functional_instructions_executed() - before,
        0,
        "sharded replay and resume must never execute functionally"
    );

    // A second supervised pass re-runs only the final shard (its stats
    // are never ledgered) and still reproduces the same results.
    let resumed_again = replay_sharded_supervised(
        &program,
        &trace,
        "perl",
        &config,
        4,
        &mut ledger,
        "perl/tiny",
        None,
    )
    .expect("fully checkpointed plan still yields final stats");
    assert_eq!(resumed_again.skipped, 3, "all non-final shards are served");
    assert_eq!(resumed_again.executed, 1);
    assert_eq!(resumed_again.stats, serial);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The resume point a ledger entry hands over is outside input: a
/// missing, non-hex or checksum-failing `"snapshot"` must stop the resume
/// with a message naming the entry and the field, before any shard replays.
#[test]
fn sharded_resume_refuses_a_bad_snapshot_naming_the_key() {
    let _guard = serialize();
    let dir = temp_dir("badsnap");
    let program = workload("perl")
        .expect("perl workload")
        .build(Scale::tiny());
    let trace = capture(&program, INST_CAP).expect("capture perl");
    let config = MachineConfig::decoupled(3, 3);
    let identity = RunIdentity::new("test-shard").field("workload", "perl");
    let mut ledger = Checkpoint::open(&dir.join("shards.ckpt"), &identity, false).unwrap();
    let supervised = |ledger: &mut Checkpoint, cap| {
        replay_sharded_supervised(
            &program,
            &trace,
            "perl",
            &config,
            4,
            ledger,
            "perl/tiny",
            cap,
        )
    };
    assert!(supervised(&mut ledger, Some(2)).is_none());

    let key = "shard/perl/tiny/1of4";
    let Json::Obj(genuine) = Json::parse(ledger.get(key).expect("shard 1 recorded")).unwrap()
    else {
        panic!("ledger payloads are objects");
    };
    let snapshot = genuine
        .iter()
        .find_map(|(k, v)| (k == "snapshot").then(|| v.as_str().unwrap().to_string()))
        .expect("a non-final shard records its resume point");
    // Flipping one hex digit keeps 64 well-formed bytes but breaks the
    // record's own checksum.
    let flipped = format!(
        "{}{}",
        if snapshot.starts_with('0') { '1' } else { '0' },
        &snapshot[1..]
    );
    let cases = [
        (None, "has no \"snapshot\""),
        (Some("not hex"), "\"snapshot\" is not hex"),
        (Some(flipped.as_str()), "\"snapshot\" is corrupt"),
    ];
    for (value, expected) in cases {
        let forged: Vec<(String, Json)> = genuine
            .iter()
            .filter(|(k, _)| k != "snapshot")
            .cloned()
            .chain(value.map(|v| ("snapshot".to_string(), Json::from(v))))
            .collect();
        ledger.record(key, &Json::Obj(forged)).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| supervised(&mut ledger, None)));
        let panic = outcome.err().expect("a bad snapshot must stop the resume");
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains(key) && msg.contains(expected),
            "{expected}: unexpected refusal {msg:?}"
        );
        assert!(
            ledger.get("shard/perl/tiny/2of4").is_none(),
            "{expected}: a shard replayed from the bad hand-off"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn full_suite_tiny_campaign_has_zero_silent_corruptions() {
    let _guard = serialize();
    // The acceptance gate: every workload, every layer, seeded faults —
    // nothing may complete with a corrupted result unnoticed, and the
    // timing layers may never corrupt anything at all.
    let run = fault_campaign_with(&opts(), &plans(), None, None);
    assert!(!run.failed, "campaign failed:\n{}", run.text);
    assert_eq!(run.doc.get("schema").unwrap().as_str(), Some(FAULTS_SCHEMA));
    let records = run.doc.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len(), 12 * 3, "12 workloads x 3 layers x 1 fault");
    let totals = run.doc.get("totals").unwrap();
    assert_eq!(totals.get("fault_silent").unwrap().as_u64(), Some(0));
    assert_eq!(totals.get("fault_fatal").unwrap().as_u64(), Some(0));
    // Trace corruption is always caught by the container checksum.
    let detected = totals.get("fault_detected").unwrap().as_u64().unwrap();
    assert!(detected >= 12, "every trace fault must be detected");
    assert_eq!(run.doc.get("errors"), None, "no job may fail");
}
