//! Subprocess-level crash-consistency checks against the real binaries:
//! the ledger fingerprint guard and the hard `ARL_CHECKPOINT` error path
//! in both supervisors (`fault_campaign`, `bench_shard`), plus a
//! one-point `bench_chaos` smoke campaign.
//!
//! These run the actual executables (`CARGO_BIN_EXE_*`) because the
//! guarantees under test are about process exit codes and stderr — the
//! contract CI scripts and the chaos harness itself rely on.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("arl-chaosh-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `exe` with a scrubbed `ARL_*` environment plus `envs`, at tiny
/// scale with a single worker thread, returning (exit code or None on
/// signal, stderr).
fn run(exe: &str, dir: &Path, envs: &[(&str, &str)]) -> (Option<i32>, String) {
    let out = output(exe, dir, envs);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// [`run`], returning the whole process output.
fn output(exe: &str, dir: &Path, envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(exe);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("ARL_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("ARL_SCALE", "tiny").env("ARL_THREADS", "1");
    cmd.env("ARL_JSON", dir);
    for (key, value) in envs {
        cmd.env(key, value);
    }
    cmd.output().expect("spawn binary")
}

/// A resume under a different fault plan must be refused with exit 2,
/// naming both fingerprints and the override knob; `ARL_CHECKPOINT_FORCE`
/// must then accept the ledger. (The regression this pins: supervisors
/// must make an unusable ledger a *hard* error, never a silent
/// run-without-resume-protection.)
#[test]
fn fault_campaign_refuses_a_mismatched_ledger_naming_both() {
    let dir = temp_dir("identity");
    let ckpt = dir.join("ledger.ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let exe = env!("CARGO_BIN_EXE_fault_campaign");
    let base = [
        ("ARL_FAULT", "all:42:1"),
        ("ARL_MAX_JOBS", "1"),
        ("ARL_CHECKPOINT", ckpt),
    ];

    let (code, stderr) = run(exe, &dir, &base);
    assert_eq!(code, Some(0), "seed run must pass:\n{stderr}");

    let mismatched = [
        ("ARL_FAULT", "all:43:1"),
        ("ARL_MAX_JOBS", "1"),
        ("ARL_CHECKPOINT", ckpt),
    ];
    let (code, stderr) = run(exe, &dir, &mismatched);
    assert_eq!(code, Some(2), "mismatched resume must exit 2:\n{stderr}");
    assert!(stderr.contains("cannot open ARL_CHECKPOINT"), "{stderr}");
    assert!(stderr.contains("refusing to merge"), "{stderr}");
    // `all:<seed>:1` expands layer by layer in the rendered fingerprint.
    for plan in [
        "trace:42:1,arpt:42:1,port:42:1",
        "trace:43:1,arpt:43:1,port:43:1",
    ] {
        assert!(
            stderr.contains(plan),
            "refusal must name both identities (missing {plan}):\n{stderr}"
        );
    }
    assert!(stderr.contains("ARL_CHECKPOINT_FORCE"), "{stderr}");

    let forced = [
        ("ARL_FAULT", "all:43:1"),
        ("ARL_MAX_JOBS", "1"),
        ("ARL_CHECKPOINT", ckpt),
        ("ARL_CHECKPOINT_FORCE", "1"),
    ];
    let (code, stderr) = run(exe, &dir, &forced);
    assert_eq!(code, Some(0), "forced resume must pass:\n{stderr}");
    assert!(stderr.contains("ARL_CHECKPOINT_FORCE"), "{stderr}");

    std::fs::remove_dir_all(&dir).unwrap();
}

/// An `ARL_CHECKPOINT` that cannot be opened — missing parent directory
/// or a file that is not a v2 ledger — is a hard exit-2 error in both
/// supervisors that honour the knob.
#[test]
fn unopenable_checkpoint_is_a_hard_error_in_both_supervisors() {
    let dir = temp_dir("unopenable");
    let missing = dir.join("no-such-dir").join("ledger.ckpt");
    let garbage = dir.join("garbage.ckpt");
    std::fs::write(&garbage, "not a ledger\n").unwrap();

    for (exe, extra) in [
        (
            env!("CARGO_BIN_EXE_fault_campaign"),
            ("ARL_FAULT", "all:42:1"),
        ),
        (env!("CARGO_BIN_EXE_bench_shard"), ("ARL_SHARD", "2")),
    ] {
        for bad in [&missing, &garbage] {
            let envs = [extra, ("ARL_CHECKPOINT", bad.to_str().unwrap())];
            let (code, stderr) = run(exe, &dir, &envs);
            assert_eq!(
                code,
                Some(2),
                "{exe} with ledger {} must exit 2:\n{stderr}",
                bad.display()
            );
            assert!(stderr.contains("cannot open ARL_CHECKPOINT"), "{stderr}");
        }
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A campaign job that panics — here its ledger append hits an injected
/// out-of-space error — fails alone: the other job still runs, stdout
/// names the failure on an `ERROR:` line, `BENCH_faults.json` carries one
/// `{"index","message"}` record per failed job, and the binary exits 1
/// (a failed run), not 2 (an unusable configuration).
#[test]
fn fault_campaign_reports_a_failed_job_and_exits_one() {
    let dir = temp_dir("jobfail");
    let ckpt = dir.join("ledger.ckpt");
    let io_log = dir.join("io.log");
    let exe = env!("CARGO_BIN_EXE_fault_campaign");
    let base = [
        ("ARL_FAULT", "all:42:1"),
        ("ARL_MAX_JOBS", "2"),
        ("ARL_CHECKPOINT", ckpt.to_str().unwrap()),
    ];

    // Calibrate: the ledger's first append is its header, the second is
    // job 0's completion record.
    let mut traced = base.to_vec();
    traced.push(("ARL_IO_TRACE", io_log.to_str().unwrap()));
    let (code, stderr) = run(exe, &dir, &traced);
    assert_eq!(code, Some(0), "calibration run must pass:\n{stderr}");
    let ops = arl_sink::parse_io_trace(&std::fs::read_to_string(&io_log).unwrap());
    let job0_append = ops
        .iter()
        .filter(|op| op.kind == arl_sink::OpKind::Append)
        .nth(1)
        .expect("header and job 0 appends")
        .op;

    std::fs::remove_file(&ckpt).unwrap();
    let fault = format!("enospc@{job0_append}:0");
    let mut faulted = base.to_vec();
    faulted.push(("ARL_IO_FAULT", &fault));
    let out = output(exe, &dir, &faulted);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("ERROR: job 0 failed: "), "{stdout}");
    assert_eq!(stdout.matches("ERROR:").count(), 1, "{stdout}");

    let doc = std::fs::read_to_string(dir.join("BENCH_faults.json")).expect("faults doc");
    let doc = arl_stats::Json::parse(&doc).expect("valid json");
    let errors = doc.get("errors").unwrap().as_array().unwrap();
    assert_eq!(errors.len(), 1);
    let message = errors[0].get("message").unwrap().as_str().unwrap();
    assert!(message.contains("failed to checkpoint"), "{message}");
    assert_eq!(
        errors[0],
        arl_stats::Json::obj([
            ("index", arl_stats::Json::from(0u64)),
            ("message", arl_stats::Json::from(message)),
        ])
    );
    // Job 1 still ran: its three faults (one per layer) are recorded.
    let records = doc.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len(), 3);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// One seeded chaos point end to end through the real `bench_chaos`
/// binary: the campaign must classify it (zero silent, zero fatal),
/// prove byte-identical recovery, pass the fingerprint-guard probe, and
/// emit a deterministic `arl-chaos/v1` document.
#[test]
fn one_point_chaos_campaign_recovers_and_stays_identical() {
    let dir = temp_dir("smoke");
    let envs = [
        ("ARL_CHAOS_POINTS", "1"),
        ("ARL_CHAOS_CHILD", env!("CARGO_BIN_EXE_fault_campaign")),
        ("ARL_CHAOS_DIR", dir.to_str().unwrap()),
    ];
    let (code, stderr) = run(env!("CARGO_BIN_EXE_bench_chaos"), &dir, &envs);
    assert_eq!(code, Some(0), "chaos smoke must pass:\n{stderr}");

    let doc = std::fs::read_to_string(dir.join("BENCH_chaos.json")).expect("chaos doc");
    let doc = arl_stats::Json::parse(&doc).expect("valid json");
    assert_eq!(doc.get("schema").unwrap().as_str(), Some("arl-chaos/v1"));
    let totals = doc.get("totals").unwrap();
    assert_eq!(totals.get("silent").unwrap().as_u64(), Some(0));
    assert_eq!(totals.get("fatal").unwrap().as_u64(), Some(0));
    // Point 0 of the seeded rotation is a SIGKILL; it must be the
    // recovered one.
    assert_eq!(totals.get("recovered").unwrap().as_u64(), Some(1));
    assert_eq!(
        doc.get("all_identical").unwrap(),
        &arl_stats::Json::Bool(true)
    );
    let guard = doc.get("identity_guard").unwrap();
    for field in ["refused", "names_both", "force_override"] {
        assert_eq!(
            guard.get(field).unwrap(),
            &arl_stats::Json::Bool(true),
            "identity guard field {field}"
        );
    }

    std::fs::remove_dir_all(&dir).unwrap();
}
