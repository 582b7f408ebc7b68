//! End-to-end smoke for every bench entry point at `Scale::tiny()`.
//!
//! Each experiment runs twice — serial (`threads = 1`) and on a 2-worker
//! pool — and the rendered text must be **byte-identical**: the parallel
//! runner folds cells in suite order, so scheduling must never leak into
//! the output. The structured `SuiteReport` is additionally written to a
//! temp directory through `emit`, the one `BENCH_*.json` writer, and
//! parsed back, pinning the schema every binary emits.

use std::collections::BTreeSet;

use arl::stats::Json;
use arl::workloads::{suite, Scale};
use arl_bench::{emit, ExperimentOptions, ExperimentRun, JSON_SCHEMA};

/// Runs one experiment serial and parallel, checks the determinism
/// contract plus JSON round-trip, and returns the parallel run.
fn smoke(name: &str, f: impl Fn(&ExperimentOptions) -> ExperimentRun) -> ExperimentRun {
    let serial = f(&ExperimentOptions::new(Scale::tiny(), 1));
    let parallel = f(&ExperimentOptions::new(Scale::tiny(), 2));
    assert_eq!(
        serial.text, parallel.text,
        "{name}: parallel text must be byte-identical to serial"
    );
    assert!(!parallel.text.is_empty(), "{name}: produced no output");
    assert_eq!(parallel.report.experiment, name);
    assert_eq!(parallel.report.threads, 2);
    assert_eq!(parallel.report.scale, "tiny");
    assert_eq!(
        serial.report.records.len(),
        parallel.report.records.len(),
        "{name}: cell count must not depend on the worker count"
    );
    for (s, p) in serial.report.records.iter().zip(&parallel.report.records) {
        assert_eq!(s.workload, p.workload, "{name}: record order");
        assert_eq!(s.config, p.config, "{name}: record order");
        assert_eq!(s.phase, p.phase, "{name}: record order");
        assert_eq!(s.instructions, p.instructions, "{name}: determinism");
        assert_eq!(s.cycles, p.cycles, "{name}: determinism");
        assert_eq!(s.peak_rss_bytes, p.peak_rss_bytes, "{name}: determinism");
    }

    // BENCH_*.json: write to a temp dir, parse back, check the schema.
    let dir = std::env::temp_dir().join(format!("arl-smoke-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file_name = format!("BENCH_{name}.json");
    let path = emit(&dir, &file_name, &parallel.report.to_json()).unwrap();
    assert_eq!(path, dir.join(file_name));
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(JSON_SCHEMA));
    assert_eq!(doc.get("experiment").unwrap().as_str(), Some(name));
    assert!(doc.get("capture_seconds").unwrap().as_f64().is_some());
    assert!(doc.get("replay_seconds").unwrap().as_f64().is_some());
    let records = doc.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len(), parallel.report.records.len());
    for record in records {
        for key in [
            "workload",
            "config",
            "phase",
            "instructions",
            "cycles",
            "ipc",
            "accuracy",
            "wall_seconds",
            "peak_rss_bytes",
        ] {
            assert!(
                record.get(key).is_some(),
                "{name}: record missing `{key}` field"
            );
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    parallel
}

/// Asserts the experiment's records span all 12 suite workloads.
fn covers_suite(name: &str, run: &ExperimentRun) {
    let seen: BTreeSet<&str> = run
        .report
        .records
        .iter()
        .map(|r| r.workload.as_str())
        .collect();
    for spec in suite() {
        assert!(
            seen.contains(spec.name),
            "{name}: records missing workload {}",
            spec.name
        );
    }
}

#[test]
fn table1_smoke() {
    covers_suite("table1", &smoke("table1", arl_bench::table1));
}

#[test]
fn table2_smoke() {
    covers_suite("table2", &smoke("table2", arl_bench::table2));
}

#[test]
fn table3_smoke() {
    covers_suite("table3", &smoke("table3", arl_bench::table3));
}

#[test]
fn table4_smoke() {
    // Table 4 is a parameter dump: no cells, but still a valid report.
    let run = smoke("table4", arl_bench::table4);
    assert!(run.report.records.is_empty());
    assert!(run.text.contains("base machine model"));
}

#[test]
fn figure2_smoke() {
    covers_suite("figure2", &smoke("figure2", arl_bench::figure2));
}

#[test]
fn figure4_smoke() {
    let run = smoke("figure4", arl_bench::figure4);
    covers_suite("figure4", &run);
    // One capture per workload, then workloads × 5 replayed schemes,
    // every replay cell with a measured accuracy.
    assert_eq!(run.report.records.len(), suite().len() * (1 + 5));
    assert!(run
        .report
        .records
        .iter()
        .filter(|r| r.phase == "replay")
        .all(|r| r.accuracy.is_some()));
    assert_eq!(
        run.report
            .records
            .iter()
            .filter(|r| r.phase == "capture")
            .count(),
        suite().len()
    );
}

#[test]
fn figure5_smoke() {
    let run = smoke("figure5", arl_bench::figure5);
    covers_suite("figure5", &run);
    // One capture per workload plus 5 capacities × {no hints, hints}.
    assert_eq!(run.report.records.len(), suite().len() * (1 + 10));
}

#[test]
fn figure8_smoke() {
    let run = smoke("figure8", arl_bench::figure8);
    covers_suite("figure8", &run);
    // One capture per workload, then workloads × 8 machine
    // configurations, every replayed cell with cycle counts.
    assert_eq!(run.report.records.len(), suite().len() * (1 + 8));
    assert!(run
        .report
        .records
        .iter()
        .filter(|r| r.phase == "replay")
        .all(|r| r.cycles.is_some() && r.ipc.is_some() && r.peak_rss_bytes > 0));
    assert!(run.report.records.iter().all(|r| r.peak_rss_bytes > 0));
}

#[test]
fn ablation_l1size_smoke() {
    covers_suite(
        "ablation_l1size",
        &smoke("ablation_l1size", arl_bench::ablation_l1size),
    );
}

#[test]
fn ablation_lvc_smoke() {
    covers_suite(
        "ablation_lvc",
        &smoke("ablation_lvc", arl_bench::ablation_lvc),
    );
}

#[test]
fn ablation_ports_smoke() {
    covers_suite(
        "ablation_ports",
        &smoke("ablation_ports", arl_bench::ablation_ports),
    );
}

#[test]
fn ablation_recovery_smoke() {
    covers_suite(
        "ablation_recovery",
        &smoke("ablation_recovery", arl_bench::ablation_recovery),
    );
}

#[test]
fn ablation_twobit_smoke() {
    covers_suite(
        "ablation_twobit",
        &smoke("ablation_twobit", arl_bench::ablation_twobit),
    );
}

#[test]
fn bench_json_schema_is_stable() {
    // A checked-in `BENCH_*.json` emitted by an earlier build must keep
    // parsing with today's parser and carry the same schema identifier
    // and record fields — consumers of the trajectory files rely on it.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/BENCH_figure8.json"
    );
    let doc = Json::parse(&std::fs::read_to_string(fixture).unwrap()).unwrap();
    assert_eq!(doc.get("schema").unwrap().as_str(), Some(JSON_SCHEMA));
    assert_eq!(doc.get("experiment").unwrap().as_str(), Some("figure8"));
    assert_eq!(doc.get("scale").unwrap().as_str(), Some("tiny"));
    assert_eq!(doc.get("threads").unwrap().as_u64(), Some(2));
    assert!(doc.get("capture_seconds").unwrap().as_f64().unwrap() > 0.0);
    assert!(doc.get("replay_seconds").unwrap().as_f64().unwrap() > 0.0);
    // 12 captures + 12 workloads × 8 configurations.
    let records = doc.get("records").unwrap().as_array().unwrap();
    assert_eq!(records.len(), 108);
    // Records lead with the per-workload capture phase...
    let first = &records[0];
    assert_eq!(first.get("workload").unwrap().as_str(), Some("go"));
    assert_eq!(first.get("config").unwrap().as_str(), Some("capture"));
    assert_eq!(first.get("phase").unwrap().as_str(), Some("capture"));
    assert_eq!(first.get("instructions").unwrap().as_u64(), Some(130_009));
    assert_eq!(first.get("cycles"), Some(&Json::Null));
    assert_eq!(first.get("peak_rss_bytes").unwrap().as_u64(), Some(16_384));
    // ...and the replayed baseline cell carries the exact cycle count the
    // pre-trace harness measured with live per-cell execution (the
    // `arl-bench/v1` fixture pinned 28_371 for this cell too).
    let baseline = records
        .iter()
        .find(|r| {
            r.get("workload").unwrap().as_str() == Some("go")
                && r.get("config").unwrap().as_str() == Some("(2+0)")
        })
        .expect("go/(2+0) record");
    assert_eq!(baseline.get("phase").unwrap().as_str(), Some("replay"));
    assert_eq!(
        baseline.get("instructions").unwrap().as_u64(),
        Some(130_009)
    );
    assert_eq!(baseline.get("cycles").unwrap().as_u64(), Some(28_371));
    assert!(baseline.get("ipc").unwrap().as_f64().unwrap() > 1.0);
    assert_eq!(baseline.get("accuracy"), Some(&Json::Null));
    assert_eq!(
        baseline.get("peak_rss_bytes").unwrap().as_u64(),
        Some(16_384)
    );
}

#[test]
fn oversubscribed_runner_matches_serial() {
    // Way more workers than cells: claiming must stay race-free and the
    // folded output byte-identical (the unit tests cover `ARL_THREADS`
    // parsing fallbacks; this pins the end-to-end behavior).
    let serial = arl_bench::probe(&ExperimentOptions::new(Scale::tiny(), 1), "perl");
    let oversub = arl_bench::probe(&ExperimentOptions::new(Scale::tiny(), 64), "perl");
    assert_eq!(serial.text, oversub.text);
    assert_eq!(serial.report.records.len(), oversub.report.records.len());
}

#[test]
fn probe_smoke() {
    let run = smoke("probe", |opts| arl_bench::probe(opts, "compress"));
    // One capture plus three replayed configurations.
    assert_eq!(run.report.records.len(), 1 + 3);
    assert!(run.text.contains("cycles="));
}
