//! The three workloads. Each is a closed batch: one op at a time, no arrival
//! rate, rounds of a fixed input size repeated until the run's seconds are
//! spent. The seed only permutes job order, so every op's output is the
//! same for every seed.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use arl_asm::Program;
use arl_bench::{
    capture_trace, figure2, figure4, figure5, figure8, table1, table2, table3, table4,
    ExperimentOptions, ExperimentRun, SuiteReport, INST_CAP,
};
use arl_sim::{Machine, TraceEntry, TraceSource};
use arl_timing::{MachineConfig, TimingSim};
use arl_trace::{Replayer, Trace};
use arl_workloads::{suite, Scale, WorkloadSpec};

use crate::golden::{fnv1a, EntryDigest, Golden};
use crate::report::cpu_seconds;
use crate::spans::{Spans, Work};

/// Worker threads of the `paper` workload (capped at the host's cores).
pub const PAPER_THREADS: usize = 2;
/// Set-ups run before the timed section, and again after it.
const SETUPS: usize = 2;
/// Entries decoded between two digest steps of a `capture` op.
const DECODE_CHUNK: usize = 1 << 18;

type Experiment = fn(&ExperimentOptions) -> ExperimentRun;

/// The paper's experiments, in the order the paper presents them.
pub const EXPERIMENTS: [(&str, Experiment); 8] = [
    ("table1", table1),
    ("table2", table2),
    ("figure2", figure2),
    ("figure4", figure4),
    ("table3", table3),
    ("table4", table4),
    ("figure5", figure5),
    ("figure8", figure8),
];

/// One benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The eight paper experiments in one process: time-to-paper.
    Paper,
    /// Figure 8's 96 timing cells over pre-decoded traces.
    Replay,
    /// Capture, write, read and decode of every workload's trace.
    Capture,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::Paper, Workload::Replay, Workload::Capture];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Replay => "replay",
            Workload::Capture => "capture",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scale the workload measures at.
    pub fn scale(self) -> Scale {
        match self {
            Workload::Paper | Workload::Replay => Scale::default(),
            // A longer footprint (gcc: 8.4M instructions) than the paper's.
            Workload::Capture => Scale::new(2),
        }
    }

    /// Threads the workload runs on.
    pub fn threads(self) -> usize {
        match self {
            Workload::Paper => {
                PAPER_THREADS.min(std::thread::available_parallelism().map_or(1, |n| n.get()))
            }
            Workload::Replay | Workload::Capture => 1,
        }
    }

    /// Layers whose self time is the workload's timed work.
    pub fn timed_layers(self) -> &'static [&'static str] {
        match self {
            Workload::Paper => &["bench.op", "bench.experiment", "stats.render", "sink.write"],
            Workload::Replay => &["timing.replay"],
            Workload::Capture => &["trace.capture", "sink.write", "trace.read", "trace.decode"],
        }
    }

    /// The layer whose instruction count is a round's instructions.
    pub fn inst_layer(self) -> &'static str {
        match self {
            Workload::Paper => "bench.experiment",
            Workload::Replay => "timing.replay",
            Workload::Capture => "trace.capture",
        }
    }
}

/// `x1`, `x2` or `tiny`, as in the program's own reports.
pub fn scale_label(scale: Scale) -> String {
    if scale.is_tiny() {
        "tiny".into()
    } else {
        format!("x{}", scale.factor())
    }
}

/// Everything one workload run measured.
pub struct WorkloadRun {
    pub workload: Workload,
    pub scale: Scale,
    pub threads: usize,
    /// Indices of each round's spans.
    pub rounds: Vec<Range<usize>>,
    pub spans: Spans,
    /// Process CPU seconds (user + system, all threads) of each op, by op.
    pub op_cpu_s: BTreeMap<usize, f64>,
    /// The `paper` workload's experiment reports, every round's.
    pub reports: Vec<SuiteReport>,
    /// Each op's output, by op key (what the golden is checked against;
    /// read by the tests, which regenerate the golden from it).
    #[cfg_attr(not(test), allow(dead_code))]
    pub outputs: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `workload` at `scale`: set-up, rounds until `seconds` have passed
/// (at least one), set-up again. A traced run of `capture` ends its rounds
/// with an execute-only pass over its programs. Files go to `dir`.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
    golden: &Golden,
    dir: &Path,
) -> WorkloadRun {
    let mut b = Bench {
        spans: Spans::new(),
        golden,
        section: format!("{}/{}", workload.name(), scale_label(scale)),
        outputs: BTreeMap::new(),
        reports: Vec::new(),
        op_cpu_s: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let mut order = Permutations(seed);
    let threads = workload.threads();
    let mut rounds = Vec::new();
    match workload {
        Workload::Paper => {
            // Every experiment builds its programs inside the timed call; the
            // set-up builds the suite beforehand, so a program that no longer
            // builds fails before the first experiment starts.
            let opts = ExperimentOptions::new(scale, threads);
            with_setup(
                &mut b,
                |b| b.build_suite(scale),
                |b, _| {
                    measure(b, seconds, &mut rounds, |b| {
                        b.paper_round(&opts, &order.next(EXPERIMENTS.len()), dir)
                    });
                },
            );
        }
        Workload::Replay => {
            let configs = MachineConfig::figure8_suite();
            with_setup(
                &mut b,
                |b| b.capture_suite(scale),
                |b, captured| {
                    measure(b, seconds, &mut rounds, |b| {
                        for wi in order.next(captured.len()) {
                            let cap = &captured[wi];
                            b.replay_workload(cap, &configs, &order.next(configs.len()));
                        }
                    });
                },
            );
        }
        Workload::Capture => {
            with_setup(
                &mut b,
                |b| b.build_suite(scale),
                |b, programs| {
                    measure(b, seconds, &mut rounds, |b| {
                        for wi in order.next(programs.len()) {
                            let (spec, program) = &programs[wi];
                            b.capture_op(spec, program, dir);
                        }
                    });
                    if traced {
                        for (spec, program) in programs {
                            b.execute(spec, program);
                        }
                    }
                },
            );
        }
    }
    WorkloadRun {
        workload,
        scale,
        threads,
        rounds,
        spans: b.spans,
        op_cpu_s: b.op_cpu_s,
        reports: b.reports,
        outputs: b.outputs,
        attempted: b.attempted,
        failed: b.failed,
    }
}

/// Sets up [`SETUPS`] times, runs `body` on the last set-up's result, then
/// sets up [`SETUPS`] times more: a set-up step is short, and repeating it
/// on both sides of the timed section lets one repetition miss the host's
/// spells of contention.
fn with_setup<T>(
    b: &mut Bench,
    setup: impl Fn(&mut Bench) -> T,
    body: impl FnOnce(&mut Bench, &T),
) {
    let mut input = None;
    for _ in 0..SETUPS {
        drop(input.take());
        input = Some(setup(b));
    }
    body(b, input.as_ref().expect("at least one set-up"));
    drop(input);
    for _ in 0..SETUPS {
        setup(b);
    }
}

/// Runs rounds until `seconds` have passed: another round starts only if
/// one more of the last round's length still ends in time.
fn measure(
    b: &mut Bench,
    seconds: f64,
    rounds: &mut Vec<Range<usize>>,
    mut round: impl FnMut(&mut Bench),
) {
    let start = Instant::now();
    loop {
        let first = b.spans.all().len();
        let round_start = Instant::now();
        round(b);
        rounds.push(first..b.spans.all().len());
        let last = round_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return;
        }
    }
}

/// A workload's program with its captured trace.
struct Captured {
    spec: WorkloadSpec,
    program: Program,
    trace: Trace,
}

/// The state one workload run threads through its ops.
struct Bench<'g> {
    spans: Spans,
    golden: &'g Golden,
    section: String,
    outputs: BTreeMap<String, String>,
    reports: Vec<SuiteReport>,
    op_cpu_s: BTreeMap<usize, f64>,
    attempted: u64,
    failed: u64,
}

impl Bench<'_> {
    /// Runs one op under a `bench.op` span. A panic, an error, or an output
    /// that differs from the golden counts the op as failed.
    fn op(&mut self, key: &str, body: impl FnOnce(&mut Self) -> Result<String, String>) {
        self.attempted += 1;
        let cpu = cpu_seconds();
        let root = self.spans.begin("bench.op", key);
        let result = catch_unwind(AssertUnwindSafe(|| body(self)));
        self.spans.end(root, Work::default());
        let op = self.spans.all()[root].op;
        self.op_cpu_s.insert(op, cpu_seconds() - cpu);
        let verdict = match result {
            Ok(Ok(output)) => {
                let verdict = self.golden.check(&self.section, key, &output);
                self.outputs.insert(key.to_string(), output);
                verdict
            }
            Ok(Err(e)) => Err(e),
            Err(panic) => Err(format!("panicked: {}", panic_message(panic.as_ref()))),
        };
        if let Err(e) = verdict {
            self.failed += 1;
            eprintln!("[benchmark] {} {key} failed: {e}", self.section);
        }
    }

    /// Runs one set-up step under a `bench.setup` span labelled `key`.
    fn setup<T>(&mut self, key: &str, body: impl FnOnce(&mut Self) -> T) -> T {
        let root = self.spans.begin("bench.setup", key);
        let value = body(self);
        self.spans.end(root, Work::default());
        value
    }

    fn build(&mut self, spec: &WorkloadSpec, scale: Scale) -> Program {
        self.spans
            .leaf("workloads.build", || (spec.build(scale), Work::default()))
    }

    /// Builds the suite, one set-up step per workload.
    fn build_suite(&mut self, scale: Scale) -> Vec<(WorkloadSpec, Program)> {
        suite()
            .into_iter()
            .map(|spec| (spec, self.setup(spec.name, |b| b.build(&spec, scale))))
            .collect()
    }

    fn capture(&mut self, spec: &WorkloadSpec, program: &Program) -> Trace {
        self.spans.leaf("trace.capture", || {
            let trace = capture_trace(program, spec.name);
            let work = Work {
                inst: trace.event_count(),
                bytes: trace.as_bytes().len() as u64,
                cycles: 0,
            };
            (trace, work)
        })
    }

    /// Builds and captures the suite, one set-up step per workload.
    fn capture_suite(&mut self, scale: Scale) -> Vec<Captured> {
        suite()
            .into_iter()
            .map(|spec| {
                self.setup(spec.name, |b| {
                    let program = b.build(&spec, scale);
                    let trace = b.capture(&spec, &program);
                    Captured {
                        spec,
                        program,
                        trace,
                    }
                })
            })
            .collect()
    }

    /// `paper`: one op per experiment. Each writes its text and its
    /// `BENCH_<experiment>.json` into `dir`, as a user's run would.
    fn paper_round(&mut self, opts: &ExperimentOptions, order: &[usize], dir: &Path) {
        for &i in order {
            let (name, experiment) = EXPERIMENTS[i];
            self.op(name, |b| {
                let run = b.spans.leaf("bench.experiment", || {
                    let run = experiment(opts);
                    let inst = run.report.records.iter().map(|r| r.instructions).sum();
                    (run, Work::inst(inst))
                });
                let json = b.spans.leaf("stats.render", || {
                    let json = run.report.to_json().render() + "\n";
                    let bytes = json.len() as u64;
                    (json, Work::bytes(bytes))
                });
                b.spans
                    .leaf("sink.write", || {
                        let written = arl_sink::durable_write(
                            &dir.join(format!("{name}.txt")),
                            run.text.as_bytes(),
                        )
                        .and_then(|()| {
                            arl_sink::durable_write(
                                &dir.join(format!("BENCH_{name}.json")),
                                json.as_bytes(),
                            )
                        });
                        (written, Work::bytes((run.text.len() + json.len()) as u64))
                    })
                    .map_err(|e| format!("writing {name}: {e}"))?;
                if !run.report.errors.is_empty() {
                    return Err(format!("{} job(s) failed", run.report.errors.len()));
                }
                let digest = fnv1a(run.text.as_bytes());
                b.reports.push(run.report);
                Ok(format!("{digest:016x}"))
            });
        }
    }

    /// `replay`: decodes one workload's trace (untimed), then one op per
    /// Figure 8 config, in `order`.
    fn replay_workload(&mut self, cap: &Captured, configs: &[MachineConfig], order: &[usize]) {
        let id = self.spans.begin("trace.decode", cap.spec.name);
        let entries = decode(&cap.trace, &cap.program);
        let decoded = entries.as_ref().map_or(0, |e| e.len() as u64);
        self.spans.end(id, Work::inst(decoded));
        for &ci in order {
            let config = &configs[ci];
            let key = format!("{} {}", cap.spec.name, config.name);
            match &entries {
                Ok(entries) => self.op(&key, |b| {
                    let stats = b.spans.leaf("timing.replay", || {
                        let stats = TimingSim::run_trace(entries, config);
                        let work = Work {
                            inst: stats.instructions,
                            bytes: 0,
                            cycles: stats.cycles,
                        };
                        (stats, work)
                    });
                    Ok(format!("{} {}", stats.instructions, stats.cycles))
                }),
                Err(e) => self.op(&key, |_| Err(e.clone())),
            }
        }
    }

    /// `capture`: one op per workload — capture, durable write, checked
    /// read, full decode with an entry digest.
    fn capture_op(&mut self, spec: &WorkloadSpec, program: &Program, dir: &Path) {
        self.op(spec.name, |b| {
            let trace = b.capture(spec, program);
            let path = dir.join(format!("{}.arltrace", spec.name));
            let bytes = trace.as_bytes().len() as u64;
            b.spans
                .leaf("sink.write", || (trace.write_to(&path), Work::bytes(bytes)))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            drop(trace);
            let read = b.spans.leaf("trace.read", || {
                let read = Trace::read_from(&path);
                let bytes = read.as_ref().map_or(0, |t| t.as_bytes().len() as u64);
                (read, Work::bytes(bytes))
            });
            std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
            let read = read.map_err(|e| format!("reading {}: {e}", path.display()))?;
            let id = b.spans.begin("trace.decode", "");
            let digest = decode_digest(&mut b.spans, &read, program);
            let decoded = digest.as_ref().map_or(0, |d| d.0);
            b.spans.end(id, Work::inst(decoded));
            let (inst, digest) = digest?;
            Ok(format!("{inst} {digest:016x}"))
        });
    }

    /// An execute-only functional pass (no trace, no visitor work).
    fn execute(&mut self, spec: &WorkloadSpec, program: &Program) {
        let id = self.spans.begin("sim.execute", spec.name);
        let mut machine = Machine::new(program);
        let outcome = machine.run_with(INST_CAP, |_| {});
        self.spans
            .end(id, Work::inst(machine.metrics().instructions));
        if let Err(e) = outcome {
            panic!("workload {} failed: {e}", spec.name);
        }
    }
}

/// Decodes a whole trace into entries.
fn decode(trace: &Trace, program: &Program) -> Result<Vec<TraceEntry>, String> {
    let mut replayer = Replayer::new(trace, program).map_err(|e| e.to_string())?;
    let mut entries = Vec::with_capacity(trace.event_count() as usize);
    while let Some(entry) = replayer.next_entry().map_err(|e| e.to_string())? {
        entries.push(entry);
    }
    Ok(entries)
}

/// Decodes a whole trace a chunk at a time, digesting each chunk under a
/// `bench.digest` span so the decode span's self time is decoding alone.
/// Returns the entry count and digest.
fn decode_digest(
    spans: &mut Spans,
    trace: &Trace,
    program: &Program,
) -> Result<(u64, u64), String> {
    let mut replayer = Replayer::new(trace, program).map_err(|e| e.to_string())?;
    let mut digest = EntryDigest::default();
    let mut chunk = Vec::with_capacity(DECODE_CHUNK);
    let mut count = 0u64;
    loop {
        while chunk.len() < DECODE_CHUNK {
            match replayer.next_entry().map_err(|e| e.to_string())? {
                Some(entry) => chunk.push(entry),
                None => break,
            }
        }
        if chunk.is_empty() {
            return Ok((count, digest.value()));
        }
        count += chunk.len() as u64;
        spans.leaf("bench.digest", || {
            chunk.iter().for_each(|e| digest.push(e));
            ((), Work::inst(chunk.len() as u64))
        });
        if chunk.len() < DECODE_CHUNK {
            return Ok((count, digest.value()));
        }
        chunk.clear();
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Seeded job orders: SplitMix64 driving Fisher–Yates shuffles.
struct Permutations(u64);

impl Permutations {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next permutation of `0..n`.
    fn next(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}
