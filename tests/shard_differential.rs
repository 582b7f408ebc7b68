//! Snapshot-sharded replay differential suite: stitching shard segments
//! back together must be **bit-identical** to one unsharded serial replay
//! — same entry stream, same `SimStats`, same `PredictionStats`, same
//! probed stall breakdown, same rendered table bytes — for every suite
//! workload and shard counts 2/3/7.
//!
//! The shard runner chains segments through serialized machine-state
//! blobs (`crates/timing/src/state.rs`); these tests are the proof that
//! the mid-cycle cut and resume is unobservable, that a blob from a
//! different core or machine or a truncated one is refused loudly, and —
//! against `tests/fixtures/state_blobs.digests` — that the blob bytes
//! themselves do not drift.

use arl::core::{Capacity, Context, EvalConfig, Evaluator, PredictorKind};
use arl::sim::{EntrySliceSource, Machine, SourceError, TraceEntry, TraceSource};
use arl::stats::TableBuilder;
use arl::timing::{BackendConfig, MachineConfig, NullProbe, SimStats, TimingSim};
use arl::trace::{capture_snapshotted_with, fnv1a64, Replayer, Trace};
use arl::workloads::{workload, Scale};
use arl_bench::{replay_sharded, shard_plan, stats_fingerprint, timing_trace_probed, INST_CAP};

/// Snapshot cadence for the differential traces. Every suite workload
/// retires at least ~71k instructions at `Scale::tiny()`, so this yields
/// at least 7 interior snapshots — enough segments for a 7-way plan.
const INTERVAL: u64 = 10_000;

const SHARD_COUNTS: [usize; 3] = [2, 3, 7];

/// Workloads whose timing also stitches under the `(2+0)` baseline, where
/// every reference shares one LSQ: loads park behind unknown store
/// addresses and missing store data, so cuts land while parked loads are
/// in flight (the blob exports them as on the retry list).
const PARKING_AXIS: [&str; 3] = ["tomcatv", "gcc", "m88ksim"];

/// Builds the workload and captures its snapshotted trace once.
fn snapshotted(name: &str) -> (arl::asm::Program, Trace) {
    let spec = workload(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let program = spec.build(Scale::tiny());
    let trace = capture_snapshotted_with(&program, INST_CAP, INTERVAL, |_| {}).expect("capture");
    assert!(
        trace.snapshot_count() >= 2,
        "{name}: need at least 2 snapshots to shard meaningfully, got {}",
        trace.snapshot_count()
    );
    (program, trace)
}

/// Drains a replayer into a vector.
fn drain(mut replayer: Replayer<'_>, name: &str) -> Vec<TraceEntry> {
    let mut entries = Vec::new();
    while let Some(entry) = replayer
        .next_entry()
        .unwrap_or_else(|e| panic!("{name}: replay failed: {e}"))
    {
        entries.push(entry);
    }
    entries
}

/// The stitched functional entry stream — shard spans replayed back to
/// back — must equal the single serial replay, for every shard count.
fn assert_entries_stitch(name: &str, program: &arl::asm::Program, trace: &Trace) {
    let serial = drain(
        Replayer::new(trace, program).unwrap_or_else(|e| panic!("{name}: {e}")),
        name,
    );
    assert_eq!(serial.len() as u64, trace.event_count());
    let boundaries = trace.snapshot_count() + 1;
    for shards in SHARD_COUNTS {
        let mut stitched = Vec::with_capacity(serial.len());
        for (start, end) in shard_plan(boundaries, shards) {
            let span = Replayer::open_span(trace, program, start, end)
                .unwrap_or_else(|e| panic!("{name}: span [{start},{end}) rejected: {e}"));
            stitched.extend(drain(span, name));
        }
        assert_eq!(
            stitched, serial,
            "{name}: {shards}-shard stitched entry stream diverged"
        );
    }
}

/// Sharded timing replay — machine state exported at each cut and
/// re-imported by the next shard — must reproduce the serial run's
/// `SimStats` and probed stall breakdown exactly.
fn assert_timing_stitches(
    name: &str,
    program: &arl::asm::Program,
    trace: &Trace,
    config: &MachineConfig,
) {
    let label = format!("{name} on {}", config.name);
    let (serial_stats, serial_rec) = timing_trace_probed(program, trace, name, config);
    let serial_probe = serial_rec.to_json().render();
    for shards in SHARD_COUNTS {
        let run = replay_sharded(program, trace, name, config, shards, true);
        assert_eq!(
            run.plan.len(),
            shards.min((trace.snapshot_count() + 1) as usize),
            "{label}: unexpected shard plan size"
        );
        assert_eq!(
            run.stats, serial_stats,
            "{label}: {shards}-shard SimStats diverged from serial"
        );
        assert_eq!(
            run.recorder
                .expect("probed run returns a recorder")
                .to_json()
                .render(),
            serial_probe,
            "{label}: {shards}-shard probe JSON diverged from serial"
        );
    }
}

/// The predictor evaluator is a pure fold over the entry stream, so one
/// evaluator consuming shard spans in order must land on the same
/// `PredictionStats` as consuming the serial replay.
fn assert_prediction_stitches(name: &str, program: &arl::asm::Program, trace: &Trace) {
    let config = EvalConfig {
        kind: PredictorKind::OneBit,
        context: Context::Gbh { bits: 8 },
        capacity: Capacity::Entries(1 << 12),
        hints: None,
    };
    let mut serial = Evaluator::new(config.clone());
    let mut replayer = Replayer::new(trace, program)
        .unwrap_or_else(|e| panic!("{name}: serial replay rejected: {e}"));
    serial
        .consume(&mut replayer)
        .unwrap_or_else(|e| panic!("{name}: serial evaluation failed: {e}"));
    let serial = *serial.stats();
    let boundaries = trace.snapshot_count() + 1;
    for shards in SHARD_COUNTS {
        let mut evaluator = Evaluator::new(config.clone());
        for (start, end) in shard_plan(boundaries, shards) {
            let mut span = Replayer::open_span(trace, program, start, end)
                .unwrap_or_else(|e| panic!("{name}: span [{start},{end}) rejected: {e}"));
            evaluator
                .consume(&mut span)
                .unwrap_or_else(|e| panic!("{name}: segmented evaluation failed: {e}"));
        }
        assert_eq!(
            *evaluator.stats(),
            serial,
            "{name}: {shards}-shard PredictionStats diverged from serial"
        );
    }
}

fn differential(name: &str) {
    let (program, trace) = snapshotted(name);
    assert_entries_stitch(name, &program, &trace);
    assert_timing_stitches(name, &program, &trace, &MachineConfig::decoupled(3, 3));
    if PARKING_AXIS.contains(&name) {
        assert_timing_stitches(name, &program, &trace, &MachineConfig::baseline_2_0());
    }
    assert_prediction_stitches(name, &program, &trace);
}

macro_rules! shard_differential {
    ($($test:ident => $workload:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                differential($workload);
            }
        )*
    };
}

shard_differential! {
    stitched_equals_serial_go => "go",
    stitched_equals_serial_m88ksim => "m88ksim",
    stitched_equals_serial_gcc => "gcc",
    stitched_equals_serial_compress => "compress",
    stitched_equals_serial_li => "li",
    stitched_equals_serial_ijpeg => "ijpeg",
    stitched_equals_serial_perl => "perl",
    stitched_equals_serial_vortex => "vortex",
    stitched_equals_serial_tomcatv => "tomcatv",
    stitched_equals_serial_swim => "swim",
    stitched_equals_serial_su2cor => "su2cor",
    stitched_equals_serial_mgrid => "mgrid",
}

/// The backend axis: the state blob carries per-backend device state
/// (stacked-cache tags, open burst rows), so the mid-cycle cut-and-resume
/// must stay unobservable under every backend.
#[test]
fn stitched_equals_serial_per_backend() {
    let name = "compress";
    let (program, trace) = snapshotted(name);
    for backend in BackendConfig::ALL {
        let config = MachineConfig::decoupled(3, 3).with_backend(backend);
        let label = format!("{name} on {}", config.name);
        let (serial_stats, serial_rec) = timing_trace_probed(&program, &trace, name, &config);
        let run = replay_sharded(&program, &trace, name, &config, 3, true);
        assert_eq!(
            run.stats, serial_stats,
            "{label}: sharded SimStats diverged from serial"
        );
        assert_eq!(
            run.recorder
                .expect("probed run returns a recorder")
                .to_json()
                .render(),
            serial_rec.to_json().render(),
            "{label}: sharded probe JSON diverged from serial"
        );
    }
}

/// Resumes the second half of `entries` on `config` from `blob` and
/// returns the refusal message.
fn refusal(entries: &[TraceEntry], config: &MachineConfig, blob: &[u8]) -> String {
    let mut rest = EntrySliceSource::new(&entries[entries.len() / 2..]);
    match TimingSim::run_segment_probed(&mut rest, config, Some(blob), true, NullProbe) {
        Err(SourceError::Corrupt(msg)) => msg,
        Err(e) => panic!("resume blob refused with the wrong error kind: {e}"),
        Ok(_) => panic!("resume blob was accepted"),
    }
}

/// `perl`'s full functional entry stream at `Scale::tiny()`.
fn perl_entries() -> Vec<TraceEntry> {
    let program = workload("perl")
        .expect("perl is a suite workload")
        .build(Scale::tiny());
    let mut machine = Machine::new(&program);
    let mut entries = Vec::new();
    while let Some(entry) = machine.next_entry().expect("functional execution") {
        entries.push(entry);
    }
    entries
}

/// The non-final blob `config` exports after the first half of `entries`.
fn midpoint_blob(entries: &[TraceEntry], config: &MachineConfig) -> Vec<u8> {
    let mut head = EntrySliceSource::new(&entries[..entries.len() / 2]);
    TimingSim::run_segment_probed(&mut head, config, None, false, NullProbe)
        .expect("first segment runs")
        .state
        .expect("a non-final segment exports its state")
}

/// `body` sealed with the blob's trailing FNV-1a-64 checksum.
fn reseal(body: &[u8]) -> Vec<u8> {
    let mut blob = body.to_vec();
    blob.extend_from_slice(&fnv1a64(body).to_le_bytes());
    blob
}

/// A validly sealed resume blob that belongs to another core or another
/// machine must be refused as corrupt, naming the reason — never resumed
/// into silently wrong statistics.
#[test]
fn foreign_resume_blobs_are_refused_loudly() {
    let entries = perl_entries();
    let config = MachineConfig::decoupled(3, 3);
    let blob = midpoint_blob(&entries, &config);

    // Byte 5 is the core tag (after the 4-byte magic and the version);
    // tag 1 is what a legacy-core checkpoint carried.
    assert_eq!(&blob[..4], b"ARLS");
    assert_eq!(blob[5], 0, "the event core writes core tag 0");
    let mut foreign = blob[..blob.len() - 8].to_vec();
    foreign[5] = 1;
    let msg = refusal(&entries, &config, &reseal(&foreign));
    assert!(msg.contains("different core"), "{msg}");

    let msg = refusal(&entries, &MachineConfig::baseline_2_0(), &blob);
    assert!(msg.contains("configuration mismatch"), "{msg}");
}

/// A real mid-run blob cut short anywhere — at a stride across the whole
/// body and at every offset of its last KiB, where the ROB records and
/// the wheel's wake-ups sit — and resealed so the checksum passes must
/// still be refused as corrupt: the field walk itself catches every
/// truncation, without panicking and without resuming.
#[test]
fn truncated_real_blobs_are_refused_at_every_cut() {
    let entries = perl_entries();
    let config = MachineConfig::decoupled(3, 3);
    let blob = midpoint_blob(&entries, &config);
    let body = &blob[..blob.len() - 8];
    let tail = body.len().saturating_sub(1024);
    let stride = (body.len() / 257).max(1);
    let cuts = (0..tail).step_by(stride).chain(tail..body.len());
    for cut in cuts {
        refusal(&entries, &config, &reseal(&body[..cut]));
    }
}

const BLOB_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/state_blobs.digests"
);

/// The machines whose mid-run blobs are pinned: a conventional core, the
/// paper's data-decoupled `(3+3)` with and without value prediction, every
/// memory backend, and both non-true-port data-cache models.
fn blob_configs() -> Vec<(String, MachineConfig)> {
    let decoupled = MachineConfig::decoupled(3, 3);
    let mut no_vp = decoupled.clone();
    no_vp.value_prediction = false;
    let mut banked = decoupled.clone();
    banked.dcache = banked.dcache.with_banks(4);
    let mut line_buffered = decoupled.clone();
    line_buffered.dcache = line_buffered.dcache.with_line_buffer();
    let mut configs = vec![
        ("baseline_2_0".to_string(), MachineConfig::baseline_2_0()),
        ("decoupled_3_3".to_string(), decoupled.clone()),
        ("decoupled_3_3_no_vp".to_string(), no_vp),
    ];
    for backend in BackendConfig::ALL {
        configs.push((
            format!("backend_{}", backend.label()),
            decoupled.clone().with_backend(backend),
        ));
    }
    configs.push(("banked_dcache".to_string(), banked));
    configs.push(("line_buffered_dcache".to_string(), line_buffered));
    configs
}

/// `name digest` lines, one per pinned machine: FNV-1a-64 of the whole
/// sealed blob `perl` exports at its midpoint.
fn blob_digests() -> String {
    let entries = perl_entries();
    blob_configs()
        .iter()
        .map(|(name, config)| {
            let blob = midpoint_blob(&entries, config);
            format!("{name} {:016x}\n", fnv1a64(&blob))
        })
        .collect()
}

/// The `"ARLS"` bytes are a format: a refactor of the state codec must
/// leave every blob byte-identical (regenerate with `--ignored` only for an
/// intentional format change, which also bumps the blob version).
#[test]
fn state_blobs_match_the_pinned_digests() {
    let pinned =
        std::fs::read_to_string(BLOB_FIXTURE).expect("read fixture (regenerate with --ignored)");
    let actual = blob_digests();
    for (want, got) in pinned.lines().zip(actual.lines()) {
        assert_eq!(got, want, "state blob drifted from the golden digest");
    }
    assert_eq!(
        pinned.lines().count(),
        actual.lines().count(),
        "fixture lists every pinned machine"
    );
}

#[test]
#[ignore = "rewrites the golden fixture"]
fn regenerate_state_blob_digests() {
    std::fs::write(BLOB_FIXTURE, blob_digests()).expect("write fixture");
}

/// The reporting layer sees no difference either: a results table built
/// from sharded stats renders byte-for-byte the same as one built from
/// serial stats.
#[test]
fn rendered_tables_match_byte_for_byte() {
    let row = |stats: &SimStats, name: &str| -> [String; 3] {
        [
            name.to_string(),
            stats.cycles.to_string(),
            format!("{:016x}", stats_fingerprint(stats)),
        ]
    };
    let mut serial_table = TableBuilder::new(&["Benchmark", "Cycles", "Fingerprint"]);
    let mut sharded_table = TableBuilder::new(&["Benchmark", "Cycles", "Fingerprint"]);
    for name in ["perl", "compress", "li"] {
        let (program, trace) = snapshotted(name);
        let config = MachineConfig::decoupled(3, 3);
        let (serial_stats, _) = timing_trace_probed(&program, &trace, name, &config);
        let sharded = replay_sharded(&program, &trace, name, &config, 3, false);
        serial_table.row(&row(&serial_stats, name));
        sharded_table.row(&row(&sharded.stats, name));
    }
    assert_eq!(
        serial_table.render(),
        sharded_table.render(),
        "sharded results must render to identical table bytes"
    );
}
