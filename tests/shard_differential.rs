//! Snapshot-sharded replay differential suite: stitching shard segments
//! back together must be **bit-identical** to one unsharded serial replay
//! — same entry stream, same `SimStats`, same `PredictionStats`, same
//! probed stall breakdown, same rendered table bytes — for every suite
//! workload and shard counts 2/3/7.
//!
//! The shard runner chains segments through serialized machine-state
//! blobs (`crates/timing/src/state.rs`); these tests are the proof that
//! the mid-cycle cut and resume is unobservable, and that a blob from a
//! different core or machine is refused loudly.

use arl::core::{Capacity, Context, EvalConfig, Evaluator, PredictorKind};
use arl::sim::{EntrySliceSource, Machine, SourceError, TraceEntry, TraceSource};
use arl::stats::TableBuilder;
use arl::timing::{MachineConfig, SimStats, TimingSim};
use arl::trace::{Replayer, Trace};
use arl::workloads::{workload, Scale};
use arl_bench::{
    capture_trace_snapshotted, evaluate_trace, replay_sharded, shard_plan, stats_fingerprint,
    timing_trace_probed,
};

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
    let trace = capture_trace_snapshotted(&program, name, INTERVAL);
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
    let serial = evaluate_trace(program, trace, name, config.clone()).stats;
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
    use arl::timing::BackendConfig;
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

/// FNV-1a 64 over `body` — the `"ARLS"` blob's trailing checksum.
fn fnv1a64(body: &[u8]) -> u64 {
    body.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Resumes the second half of `entries` on `config` from `blob` and
/// returns the refusal message.
fn refusal(entries: &[TraceEntry], config: &MachineConfig, blob: &[u8]) -> String {
    let mut rest = EntrySliceSource::new(&entries[entries.len() / 2..]);
    match TimingSim::run_segment(&mut rest, config, Some(blob), true) {
        Err(SourceError::Corrupt(msg)) => msg,
        Err(e) => panic!("foreign blob refused with the wrong error kind: {e}"),
        Ok(_) => panic!("foreign blob was accepted"),
    }
}

/// A validly sealed resume blob that belongs to another core or another
/// machine must be refused as corrupt, naming the reason — never resumed
/// into silently wrong statistics.
#[test]
fn foreign_resume_blobs_are_refused_loudly() {
    let program = workload("perl")
        .expect("perl is a suite workload")
        .build(Scale::tiny());
    let mut machine = Machine::new(&program);
    let mut entries = Vec::new();
    while let Some(entry) = machine.next_entry().expect("functional execution") {
        entries.push(entry);
    }
    let config = MachineConfig::decoupled(3, 3);
    let mut head = EntrySliceSource::new(&entries[..entries.len() / 2]);
    let blob = TimingSim::run_segment(&mut head, &config, None, false)
        .expect("first segment runs")
        .state
        .expect("a non-final segment exports its state");

    // Byte 5 is the core tag (after the 4-byte magic and the version);
    // tag 1 is what a legacy-core checkpoint carried.
    assert_eq!(&blob[..4], b"ARLS");
    assert_eq!(blob[5], 0, "the event core writes core tag 0");
    let mut foreign = blob[..blob.len() - 8].to_vec();
    foreign[5] = 1;
    let checksum = fnv1a64(&foreign);
    foreign.extend_from_slice(&checksum.to_le_bytes());
    let msg = refusal(&entries, &config, &foreign);
    assert!(msg.contains("different core"), "{msg}");

    let msg = refusal(&entries, &MachineConfig::baseline_2_0(), &blob);
    assert!(msg.contains("configuration mismatch"), "{msg}");
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
