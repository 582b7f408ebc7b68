//! Parallel experiment runner and structured run records.
//!
//! Every table/figure binary fans its (workload × config) cells out over a
//! [`Pool`] of scoped worker threads, then folds the results back **in
//! cell order**, so the rendered output is byte-identical to a serial run
//! (`ARL_THREADS=1`). On top of the raw results, each cell produces a
//! [`RunRecord`]; the per-experiment [`SuiteReport`] serializes them to
//! JSON (`arl-stats`' hand-rolled [`Json`]) and, when `ARL_JSON` is set,
//! writes a `BENCH_<experiment>.json` trajectory file.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use arl_stats::Json;
use arl_workloads::Scale;

use crate::knob::Knobs;

/// Locks a mutex even when a previous holder panicked: a worker panic
/// must never cascade into `PoisonError` panics on the threads that are
/// still making progress. Every datum behind these locks is written in
/// one assignment, so a poisoned value is never half-updated.
fn relock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Renders a caught panic payload (the `&str`/`String` the job panicked
/// with, or a placeholder for exotic payloads).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Why a supervised job failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// The job panicked (caught; the suite kept running).
    Panic,
    /// The job finished after its deadline; the late result was discarded.
    /// Worker threads are scoped and cannot be killed mid-cell, so the
    /// watchdog is post-hoc: a stuck job still blocks its worker, but a
    /// merely-slow one is reported instead of silently accepted.
    Timeout,
}

impl FailureKind {
    /// Stable lowercase label (JSON, stderr summaries).
    pub fn label(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
        }
    }
}

/// One supervised job's terminal failure, after retries were exhausted.
#[derive(Clone, PartialEq, Debug)]
pub struct JobFailure {
    /// Cell index in the input order.
    pub index: usize,
    /// What went wrong on the last attempt.
    pub kind: FailureKind,
    /// The panic message or deadline description.
    pub message: String,
    /// Attempts made (1 = no retries).
    pub attempts: u32,
}

impl JobFailure {
    /// The `errors` array element for `BENCH_*.json` documents.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("index", Json::from(self.index)),
            ("kind", Json::from(self.kind.label())),
            ("message", Json::from(self.message.as_str())),
            ("attempts", Json::from(u64::from(self.attempts))),
        ])
    }

    /// One-line stderr summary.
    pub fn summary(&self) -> String {
        format!(
            "job {} failed ({}, {} attempt{}): {}",
            self.index,
            self.kind.label(),
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.message
        )
    }
}

/// Collapses repeated failure records for the same job id: retried and
/// re-collected jobs (a resumed sweep, a supervisor that logs every
/// attempt) would otherwise repeat one job's summary line per attempt.
/// Keeps the record with the most attempts — the most complete account of
/// the job's fate — and normalizes the order to job order, so reports
/// stay deterministic regardless of how the failures were gathered.
pub fn dedupe_failures(failures: &mut Vec<JobFailure>) {
    failures.sort_by(|a, b| a.index.cmp(&b.index).then(b.attempts.cmp(&a.attempts)));
    failures.dedup_by_key(|f| f.index);
}

/// The panic payload [`Pool::map`] raises after **every** job has run
/// when at least one of them panicked: the completed cells are not lost
/// to the first failure, and `run_main` turns this into per-job stderr
/// lines plus a non-zero exit instead of a raw panic trace.
pub struct SuiteFailures(pub Vec<JobFailure>);

impl std::fmt::Debug for SuiteFailures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut failures = self.0.clone();
        dedupe_failures(&mut failures);
        writeln!(f, "{} job(s) failed:", failures.len())?;
        for failure in &failures {
            writeln!(f, "  {}", failure.summary())?;
        }
        Ok(())
    }
}

/// A fixed-width pool of scoped worker threads.
///
/// Work items are claimed from a shared counter (dynamic load balancing —
/// timing cells vary ~10× in cost), but results land in a slot vector
/// indexed by cell, so the fold order never depends on scheduling. Cells
/// must be deterministic functions of their input and index; all of this
/// crate's cells are (the simulators take no seeds and share no state).
///
/// Jobs run supervised: a panicking cell is caught, the remaining cells
/// complete, and the failure surfaces either as a [`SuiteFailures`] panic
/// ([`Pool::map`]) or as per-job `Err` records ([`Pool::try_map`], which
/// additionally enforces the deadline and retry policy).
pub struct Pool {
    threads: usize,
    deadline: Option<Duration>,
    retries: u32,
}

impl Pool {
    /// A pool with an explicit worker count (`0` is clamped to 1), no
    /// deadline, and no retries.
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
            deadline: None,
            retries: 0,
        }
    }

    /// Sets the per-job deadline for [`Pool::try_map`] jobs.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Pool {
        self.deadline = deadline;
        self
    }

    /// Sets the bounded retry count for [`Pool::try_map`] jobs.
    pub fn with_retries(mut self, retries: u32) -> Pool {
        self.retries = retries;
        self
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning outputs in input
    /// order. `f` receives the cell index alongside the item so cells can
    /// derive per-cell seeds/labels deterministically.
    ///
    /// # Panics
    ///
    /// If any job panics, the panic is caught, **every other job still
    /// runs to completion**, and this panics afterwards with a
    /// [`SuiteFailures`] payload listing each failed cell (`run_main`
    /// catches it and exits non-zero with a per-job summary).
    pub fn map<I, O, F>(&self, items: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(usize, I) -> O + Sync,
    {
        let n = items.len();
        let failures: Mutex<Vec<JobFailure>> = Mutex::new(Vec::new());
        let run = |i: usize, item: I| -> Option<O> {
            match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(out) => Some(out),
                Err(payload) => {
                    relock(&failures).push(JobFailure {
                        index: i,
                        kind: FailureKind::Panic,
                        message: panic_message(payload.as_ref()),
                        attempts: 1,
                    });
                    None
                }
            }
        };
        let slots: Vec<Option<O>> = if self.threads == 1 || n <= 1 {
            items
                .into_iter()
                .enumerate()
                .map(|(i, item)| run(i, item))
                .collect()
        } else {
            let jobs: Vec<Mutex<Option<I>>> =
                items.into_iter().map(|i| Mutex::new(Some(i))).collect();
            let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..self.threads.min(n) {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // A missing item would mean the claim counter
                        // handed the same index out twice; skipping is
                        // strictly safer than panicking the worker.
                        let Some(item) = relock(&jobs[i]).take() else {
                            continue;
                        };
                        let out = run(i, item);
                        *relock(&slots[i]) = out;
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()))
                .collect()
        };
        let mut failures = failures.into_inner().unwrap_or_else(|e| e.into_inner());
        if !failures.is_empty() {
            dedupe_failures(&mut failures);
            std::panic::panic_any(SuiteFailures(failures));
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("no failure recorded, so every slot was filled"))
            .collect()
    }

    /// Fully supervised [`Pool::map`]: every job runs under
    /// `catch_unwind`, against the pool's deadline, with up to
    /// `retries` bounded re-attempts (deterministic linear backoff), and
    /// a job that still fails yields an `Err(JobFailure)` **in its slot**
    /// instead of failing the suite — the caller decides how to report it.
    ///
    /// `f` borrows its item (retries re-run the same input). Outputs come
    /// back in input order, exactly one per item.
    pub fn try_map<I, O, F>(&self, items: &[I], f: F) -> Vec<Result<O, JobFailure>>
    where
        I: Sync,
        O: Send,
        F: Fn(usize, &I) -> O + Sync,
    {
        let supervise = |i: usize, item: &I| -> Result<O, JobFailure> {
            let mut last: Option<JobFailure> = None;
            for attempt in 1..=self.retries + 1 {
                if attempt > 1 {
                    std::thread::sleep(Duration::from_millis(10 * u64::from(attempt - 1)));
                }
                let start = Instant::now();
                match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    Ok(out) => match self.deadline {
                        Some(deadline) if start.elapsed() > deadline => {
                            last = Some(JobFailure {
                                index: i,
                                kind: FailureKind::Timeout,
                                message: format!(
                                    "finished after the {:.3}s deadline; result discarded",
                                    deadline.as_secs_f64()
                                ),
                                attempts: attempt,
                            });
                        }
                        _ => return Ok(out),
                    },
                    Err(payload) => {
                        last = Some(JobFailure {
                            index: i,
                            kind: FailureKind::Panic,
                            message: panic_message(payload.as_ref()),
                            attempts: attempt,
                        });
                    }
                }
            }
            Err(last.unwrap_or_else(|| unreachable!("at least one attempt always runs")))
        };
        let n = items.len();
        if self.threads == 1 || n <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| supervise(i, item))
                .collect();
        }
        let slots: Vec<Mutex<Option<Result<O, JobFailure>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let out = supervise(i, &items[i]);
                    *relock(&slots[i]) = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("supervise never unwinds, so every slot was filled")
            })
            .collect()
    }
}

/// One (workload × config) cell's structured result.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// Workload short name (`"go"`, ...).
    pub workload: String,
    /// Configuration/scheme label (`"(3+3)"`, `"1BIT-HYBRID"`, `"profile"`).
    pub config: String,
    /// How the cell obtained its instruction stream: `"execute"` (live
    /// functional simulation), `"capture"` (live execution recording a
    /// trace), or `"replay"` (trace-driven, no functional execution).
    pub phase: String,
    /// Dynamic instructions the cell simulated.
    pub instructions: u64,
    /// Cycles, for timing cells.
    pub cycles: Option<u64>,
    /// Instructions per cycle, for timing cells.
    pub ipc: Option<f64>,
    /// Prediction accuracy (ARPT/evaluator or in-pipeline), when the cell
    /// predicts anything.
    pub accuracy: Option<f64>,
    /// Host wall-clock seconds the cell took. A replay-mode prediction
    /// cell shares one decode with the other schemes of its workload and
    /// records an equal share of that shared pass; under `ARL_TRACE=live`
    /// every cell runs its own pass and records its own time.
    pub wall_seconds: f64,
    /// Peak-RSS proxy: bytes resident in the simulated memory image.
    pub peak_rss_bytes: u64,
}

impl RunRecord {
    /// A record with everything optional unset; cells fill in what they
    /// measured.
    pub fn new(workload: &str, config: &str) -> RunRecord {
        RunRecord {
            workload: workload.to_string(),
            config: config.to_string(),
            phase: "execute".to_string(),
            instructions: 0,
            cycles: None,
            ipc: None,
            accuracy: None,
            wall_seconds: 0.0,
            peak_rss_bytes: 0,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("phase", Json::from(self.phase.as_str())),
            ("instructions", Json::from(self.instructions)),
            ("cycles", Json::from(self.cycles)),
            ("ipc", Json::from(self.ipc)),
            ("accuracy", Json::from(self.accuracy)),
            ("wall_seconds", Json::from(self.wall_seconds)),
            ("peak_rss_bytes", Json::from(self.peak_rss_bytes)),
        ])
    }
}

/// Times one cell body and stamps the elapsed wall clock into the record
/// it returns.
pub fn timed_record<T>(
    workload: &str,
    config: &str,
    body: impl FnOnce(&mut RunRecord) -> T,
) -> (T, RunRecord) {
    let mut record = RunRecord::new(workload, config);
    let start = Instant::now();
    let value = body(&mut record);
    record.wall_seconds = start.elapsed().as_secs_f64();
    (value, record)
}

/// Everything one experiment run produced, ready for `BENCH_*.json`.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Experiment name (`"figure8"`, `"ablation_lvc"`, ...).
    pub experiment: String,
    /// Human-readable scale (`"tiny"`, `"x1"`, `"x4"`).
    pub scale: String,
    /// Worker threads used.
    pub threads: usize,
    /// Whole-experiment wall-clock seconds.
    pub wall_seconds: f64,
    /// Per-cell records, in cell order.
    pub records: Vec<RunRecord>,
    /// Supervised jobs that failed (panic/timeout) after retries. Only
    /// serialized when non-empty, so fault-free runs stay byte-identical
    /// to the unsupervised harness.
    pub errors: Vec<JobFailure>,
}

/// `BENCH_*.json` schema identifier; bump when the shape changes.
/// v2 added per-record `phase` and the report-level capture/replay
/// wall-clock split for the execute-once/replay-many pipeline.
pub const JSON_SCHEMA: &str = "arl-bench/v2";

/// `BENCH_*_probe.json` schema identifier (the `ARL_PROBE=1` payload).
pub const PROBE_SCHEMA: &str = "arl-probe/v1";

/// Writes `doc` as `file_name` under the `ARL_JSON` value `json`: inside
/// the directory it names (an existing directory, or any path ending in
/// `/`), or alongside the file it names. The one writer of every
/// `BENCH_*.json` document.
pub fn emit(json: &Path, file_name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    let dir = if json.is_dir() || json.as_os_str().as_encoded_bytes().ends_with(b"/") {
        json
    } else {
        json.parent().unwrap_or(Path::new(""))
    };
    let file = dir.join(file_name);
    arl_sink::durable_write(&file, (doc.render() + "\n").as_bytes())?;
    Ok(file)
}

/// The shared end of every bench binary: prints `text`, emits each
/// `(file name, document)` when `ARL_JSON` is set, then reports each of
/// `failures` as one stderr line and exits non-zero if there are any.
pub(crate) fn end_main(knobs: &Knobs, text: &str, docs: &[(String, Json)], failures: &[String]) {
    print!("{text}");
    if let Some(json) = &knobs.json {
        for (file_name, doc) in docs {
            match emit(json, file_name, doc) {
                Ok(path) => eprintln!("[arl-bench] wrote {}", path.display()),
                Err(e) => {
                    eprintln!("[arl-bench] failed to write ARL_JSON {file_name}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    for line in failures {
        eprintln!("[arl-bench] {line}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

impl SuiteReport {
    /// An empty report for `experiment` (records are appended by the
    /// experiment driver).
    pub fn new(experiment: &str, scale: Scale, threads: usize) -> SuiteReport {
        SuiteReport {
            experiment: experiment.to_string(),
            scale: scale_label(scale),
            threads,
            wall_seconds: 0.0,
            records: Vec::new(),
            errors: Vec::new(),
        }
    }

    /// Summed cell wall-clock spent functionally executing workloads
    /// (the `"execute"` and `"capture"` phases).
    pub fn capture_seconds(&self) -> f64 {
        self.records
            .iter()
            .filter(|r| r.phase != "replay")
            .map(|r| r.wall_seconds)
            .sum()
    }

    /// Summed cell wall-clock spent replaying captured traces.
    pub fn replay_seconds(&self) -> f64 {
        self.records
            .iter()
            .filter(|r| r.phase == "replay")
            .map(|r| r.wall_seconds)
            .sum()
    }

    /// The full `BENCH_*.json` document. The `errors` array (supervised
    /// job failures) only appears when at least one job failed, keeping
    /// clean-run documents byte-identical to the pre-supervision schema.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::from(JSON_SCHEMA)),
            ("experiment", Json::from(self.experiment.as_str())),
            ("scale", Json::from(self.scale.as_str())),
            ("threads", Json::from(self.threads)),
            ("wall_seconds", Json::from(self.wall_seconds)),
            ("capture_seconds", Json::from(self.capture_seconds())),
            ("replay_seconds", Json::from(self.replay_seconds())),
            (
                "records",
                Json::Arr(self.records.iter().map(RunRecord::to_json).collect()),
            ),
        ];
        if !self.errors.is_empty() {
            pairs.push((
                "errors",
                Json::Arr(self.errors.iter().map(JobFailure::to_json).collect()),
            ));
        }
        Json::obj(pairs)
    }
}

/// Ledger format tag; the first token of every v2 checkpoint header.
pub const CHECKPOINT_SCHEMA: &str = "arl-ckpt/v2";

/// Identity fingerprint of the sweep that owns a checkpoint ledger.
///
/// The fingerprint names everything that makes recorded payloads
/// meaningful for a resume: the experiment, its configuration (backend,
/// shard plan, fault plan, …), the workload set, and — where the sweep
/// replays a captured trace — that trace's checksum. Two sweeps with
/// different fingerprints must never merge through one ledger; payloads
/// recorded under one configuration are silently wrong under another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunIdentity {
    experiment: String,
    fields: Vec<(String, String)>,
}

impl RunIdentity {
    /// A fingerprint for `experiment` with no fields yet.
    pub fn new(experiment: &str) -> RunIdentity {
        RunIdentity {
            experiment: experiment.to_string(),
            fields: Vec::new(),
        }
    }

    /// Adds one `key = value` fingerprint field (builder style). Field
    /// order is part of the rendered identity, so callers must add
    /// fields in a fixed order.
    pub fn field(mut self, key: &str, value: impl std::fmt::Display) -> RunIdentity {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Compact JSON rendering; this exact string is what the ledger
    /// header carries and what identity comparison is defined over.
    pub fn render(&self) -> String {
        Json::obj([
            ("experiment", Json::from(self.experiment.as_str())),
            (
                "fields",
                Json::obj(
                    self.fields
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
                ),
            ),
        ])
        .render()
    }
}

fn checksum_hex(body: &str) -> String {
    format!("{:016x}", arl_trace::fnv1a64(body.as_bytes()))
}

/// Why a ledger file could not be parsed as a v2 ledger.
enum LedgerDamage {
    /// No newline at all: the process died while writing the header.
    /// There can be no entries, so the ledger restarts empty.
    TornHeader,
    /// The header line is present but unreadable (wrong magic, failed
    /// checksum, unparsable identity). Resuming would risk merging
    /// foreign data, so this is a hard error.
    Corrupt(String),
}

struct ParsedLedger {
    /// The header line exactly as stored (no trailing newline).
    header: String,
    /// The identity JSON carried by the header.
    identity: String,
    /// `(key, payload)` pairs in record order, duplicates included.
    entries: Vec<(String, String)>,
    /// Byte length of the valid prefix; anything beyond is torn/corrupt.
    good_bytes: u64,
    /// Whether a torn or corrupt tail was dropped.
    dropped_tail: bool,
}

fn parse_ledger(text: &str) -> Result<ParsedLedger, LedgerDamage> {
    let Some(header_end) = text.find('\n') else {
        return Err(LedgerDamage::TornHeader);
    };
    let header = &text[..header_end];
    let parts: Vec<&str> = header.split('\t').collect();
    let [magic, identity, chk] = parts.as_slice() else {
        return Err(LedgerDamage::Corrupt(format!(
            "header has {} tab-separated fields, expected 3",
            parts.len()
        )));
    };
    if *magic != CHECKPOINT_SCHEMA {
        return Err(LedgerDamage::Corrupt(format!(
            "header magic {magic:?} is not {CHECKPOINT_SCHEMA:?}"
        )));
    }
    if *chk != checksum_hex(&header[..header.len() - chk.len() - 1]) {
        return Err(LedgerDamage::Corrupt(
            "header checksum mismatch".to_string(),
        ));
    }
    match Json::parse(identity) {
        Ok(doc) if doc.get("experiment").and_then(Json::as_str).is_some() => {}
        _ => {
            return Err(LedgerDamage::Corrupt(
                "header identity is not a fingerprint object".to_string(),
            ));
        }
    }

    let mut entries: Vec<(String, String)> = Vec::new();
    let mut offset = header_end + 1;
    let mut dropped_tail = false;
    while offset < text.len() {
        let Some(line_end) = text[offset..].find('\n').map(|i| offset + i) else {
            // Torn final line: a kill mid-append. Its job re-runs.
            dropped_tail = true;
            break;
        };
        let line = &text[offset..line_end];
        let parsed = line.rsplit_once('\t').and_then(|(body, chk)| {
            if chk != checksum_hex(body) {
                return None;
            }
            let (seq, rest) = body.split_once('\t')?;
            let (key, payload) = rest.split_once('\t')?;
            (seq.parse::<u64>().ok()? == entries.len() as u64).then_some((key, payload))
        });
        match parsed {
            Some((key, payload)) => entries.push((key.to_string(), payload.to_string())),
            None => {
                // A failed checksum or broken sequence invalidates this
                // entry and everything after it: entries past a corrupt
                // point may depend on state the corruption destroyed
                // (e.g. shard resume chains), so the tail is dropped
                // wholesale rather than cherry-picked.
                dropped_tail = true;
                break;
            }
        }
        offset = line_end + 1;
    }
    Ok(ParsedLedger {
        header: header.to_string(),
        identity: identity.to_string(),
        entries,
        good_bytes: offset as u64,
        dropped_tail,
    })
}

/// A read-only parse of a checkpoint ledger (nothing is truncated or
/// written). Lets a supervisor count surviving entries in a ledger it
/// does not own — e.g. the chaos harness auditing a killed child.
pub struct LedgerView {
    /// Identity JSON from the header.
    pub identity: String,
    /// `(key, payload)` in record order, duplicates included.
    pub entries: Vec<(String, String)>,
    /// Whether a torn or corrupt tail follows the valid prefix.
    pub torn_tail: bool,
}

impl LedgerView {
    /// Distinct completed keys (what a resume would skip).
    pub fn live(&self) -> usize {
        let mut keys: Vec<&str> = self.entries.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }
}

/// Append-only per-job completion ledger backing `ARL_CHECKPOINT` resume.
///
/// # Format (v2)
///
/// ```text
/// arl-ckpt/v2\t<identity-json>\t<fnv1a64-hex>
/// <seq>\t<key>\t<compact-json>\t<fnv1a64-hex>
/// ```
///
/// The header fingerprints the run (see [`RunIdentity`]); `open` refuses
/// to resume under a different fingerprint unless forced, naming both
/// identities. Each entry carries a monotonic sequence number and an
/// FNV-1a64 checksum over `<seq>\t<key>\t<payload>`, so a torn append, a
/// flipped byte, or a truncated-but-still-valid-JSON payload all fail
/// verification; the valid prefix is kept and the damaged tail is
/// physically truncated on open — affected jobs re-run, nothing corrupt
/// is ever merged.
///
/// # Durability
///
/// The handle stays open for the ledger's lifetime and every append goes
/// through [`arl_sink::append_durable`] (`write` + `sync_data`), so a
/// SIGKILL loses at most the in-flight append — and a torn in-flight
/// append is exactly what the checksums catch on reopen. Payloads are
/// merged back **verbatim** on resume, so a resumed sweep's output is
/// byte-identical to an uninterrupted run provided payloads contain no
/// wall-clock fields.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    file: std::fs::File,
    header: String,
    done: HashMap<String, String>,
    /// First-recorded order of live keys (compaction preserves it).
    order: Vec<String>,
    next_seq: u64,
}

impl Checkpoint {
    fn header_line(identity: &RunIdentity) -> String {
        let body = format!("{CHECKPOINT_SCHEMA}\t{}", identity.render());
        let chk = checksum_hex(&body);
        format!("{body}\t{chk}")
    }

    fn open_handle(path: &Path) -> std::io::Result<std::fs::File> {
        std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)
    }

    /// Opens (or starts) the ledger at `path` for the run identified by
    /// `identity`, loading every intact entry already recorded and
    /// truncating any torn or corrupt tail.
    ///
    /// # Errors
    ///
    /// I/O errors; an unreadable (non-v2 or checksum-failing) header; or
    /// a fingerprint mismatch when `force` is false — the error names
    /// both identities so the operator can see exactly what differed.
    pub fn open(path: &Path, identity: &RunIdentity, force: bool) -> std::io::Result<Checkpoint> {
        let mut file = Self::open_handle(path)?;
        // Read as bytes and decode lossily: a non-UTF-8 byte (disk
        // corruption) must cost the tail from its line onward, not make
        // the whole ledger unreadable. Replacement chars corrupt the
        // damaged line's checksum, so `parse_ledger` drops it; offsets
        // before the first invalid byte are unshifted, so `good_bytes`
        // stays a valid file offset for the truncation below.
        let raw = {
            use std::io::Read as _;
            let mut raw = Vec::new();
            file.read_to_end(&mut raw)?;
            raw
        };
        let text = String::from_utf8_lossy(&raw);
        let expected_header = Self::header_line(identity);
        let fresh = |file: &mut std::fs::File| -> std::io::Result<()> {
            file.set_len(0)?;
            arl_sink::append_durable(file, path, format!("{expected_header}\n").as_bytes())
        };
        if text.is_empty() {
            fresh(&mut file)?;
            return Ok(Checkpoint {
                path: path.to_path_buf(),
                file,
                header: expected_header,
                done: HashMap::new(),
                order: Vec::new(),
                next_seq: 0,
            });
        }
        let parsed = match parse_ledger(&text) {
            Ok(parsed) => parsed,
            Err(LedgerDamage::TornHeader) => {
                eprintln!(
                    "[arl-bench] checkpoint {}: torn header (crash during creation); \
                     restarting the ledger",
                    path.display()
                );
                fresh(&mut file)?;
                return Ok(Checkpoint {
                    path: path.to_path_buf(),
                    file,
                    header: expected_header,
                    done: HashMap::new(),
                    order: Vec::new(),
                    next_seq: 0,
                });
            }
            Err(LedgerDamage::Corrupt(why)) => {
                return Err(std::io::Error::other(format!(
                    "checkpoint {} is not a readable {CHECKPOINT_SCHEMA} ledger: {why}",
                    path.display()
                )));
            }
        };
        if parsed.identity != identity.render() {
            if !force {
                return Err(std::io::Error::other(format!(
                    "checkpoint {} was written by a different run; refusing to merge.\n  \
                     ledger identity:  {}\n  current identity: {}\n  \
                     set ARL_CHECKPOINT_FORCE=1 to resume it anyway",
                    path.display(),
                    parsed.identity,
                    identity.render()
                )));
            }
            eprintln!(
                "[arl-bench] ARL_CHECKPOINT_FORCE: resuming ledger {} (identity {}) under \
                 current identity {}",
                path.display(),
                parsed.identity,
                identity.render()
            );
        }
        if parsed.dropped_tail {
            eprintln!(
                "[arl-bench] checkpoint {}: dropping torn/corrupt tail after {} intact entries",
                path.display(),
                parsed.entries.len()
            );
            file.set_len(parsed.good_bytes)?;
            file.sync_data()?;
        }
        let next_seq = parsed.entries.len() as u64;
        let mut done = HashMap::new();
        let mut order = Vec::new();
        for (key, payload) in parsed.entries {
            if done.insert(key.clone(), payload).is_none() {
                order.push(key);
            }
        }
        Ok(Checkpoint {
            path: path.to_path_buf(),
            file,
            header: parsed.header,
            done,
            order,
            next_seq,
        })
    }

    /// Parses an existing ledger without opening it for writing (nothing
    /// is truncated); `Err` for a missing file or unreadable header.
    pub fn inspect(path: &Path) -> std::io::Result<LedgerView> {
        // Lossy for the same reason as `open`: flipped bytes must read
        // as a damaged tail, not an unreadable ledger.
        let text = String::from_utf8_lossy(&std::fs::read(path)?).into_owned();
        match parse_ledger(&text) {
            Ok(parsed) => Ok(LedgerView {
                identity: parsed.identity,
                entries: parsed.entries,
                torn_tail: parsed.dropped_tail,
            }),
            Err(LedgerDamage::TornHeader) => Err(std::io::Error::other(format!(
                "checkpoint {} has a torn header",
                path.display()
            ))),
            Err(LedgerDamage::Corrupt(why)) => Err(std::io::Error::other(format!(
                "checkpoint {} is not a readable {CHECKPOINT_SCHEMA} ledger: {why}",
                path.display()
            ))),
        }
    }

    /// The payload recorded for `key`, if that job already completed.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.done.get(key).map(String::as_str)
    }

    /// Completed jobs on record.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether nothing has completed yet.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Records `key` as complete with `payload`: one checksummed,
    /// sequence-numbered line durably appended through the open handle.
    ///
    /// # Errors
    ///
    /// I/O errors appending or syncing, or a key containing the line
    /// separators (`\t`/`\n`) the format reserves.
    pub fn record(&mut self, key: &str, payload: &Json) -> std::io::Result<()> {
        if key.contains('\t') || key.contains('\n') {
            return Err(std::io::Error::other(format!(
                "checkpoint key {key:?} contains a reserved separator"
            )));
        }
        let rendered = payload.render();
        let body = format!("{}\t{key}\t{rendered}", self.next_seq);
        let chk = checksum_hex(&body);
        arl_sink::append_durable(
            &mut self.file,
            &self.path,
            format!("{body}\t{chk}\n").as_bytes(),
        )?;
        self.next_seq += 1;
        if self.done.insert(key.to_string(), rendered).is_none() {
            self.order.push(key.to_string());
        }
        Ok(())
    }

    /// Rewrites the ledger to exactly one entry per live key (first-
    /// recorded order, latest payload, resequenced from 0), dropping
    /// superseded duplicates — e.g. intermediate shard-state blobs — that
    /// long campaign ledgers accumulate. The rewrite is an atomic
    /// publication ([`arl_sink::durable_write`]), so a crash mid-compact
    /// leaves the previous ledger intact.
    ///
    /// # Errors
    ///
    /// I/O errors from the rewrite or from reopening the handle.
    pub fn compact(&mut self) -> std::io::Result<()> {
        let mut text = format!("{}\n", self.header);
        for (seq, key) in self.order.iter().enumerate() {
            let Some(payload) = self.done.get(key) else {
                continue;
            };
            let body = format!("{seq}\t{key}\t{payload}");
            let chk = checksum_hex(&body);
            text.push_str(&format!("{body}\t{chk}\n"));
        }
        arl_sink::durable_write(&self.path, text.as_bytes())?;
        // The old handle points at the replaced inode; reopen.
        self.file = Self::open_handle(&self.path)?;
        self.next_seq = self.order.len() as u64;
        Ok(())
    }
}

pub(crate) fn scale_label(scale: Scale) -> String {
    if scale.is_tiny() {
        "tiny".to_string()
    } else {
        format!("x{}", scale.factor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn map_preserves_order_and_covers_every_item() {
        for threads in [1, 2, 7] {
            let pool = Pool::new(threads);
            let out = pool.map((0..100).collect(), |i, x: i32| {
                assert_eq!(i as i32, x);
                x * x
            });
            assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(Vec::<u8>::new(), |_, x| x), Vec::<u8>::new());
        assert_eq!(pool.map(vec![9], |_, x: u8| x + 1), vec![10]);
    }

    #[test]
    fn pool_clamps_zero_threads() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn oversubscribed_pool_output_matches_serial() {
        // Far more workers than items: identical results, every item
        // processed exactly once.
        let serial = Pool::new(1).map((0..5).collect(), |_, x: i32| x * 10);
        let oversub = Pool::new(64).map((0..5).collect(), |_, x: i32| x * 10);
        assert_eq!(serial, oversub);
    }

    #[test]
    fn report_json_has_the_documented_schema() {
        let mut report = SuiteReport::new("unit", Scale::tiny(), 2);
        let ((), record) = timed_record("go", "(2+0)", |r| {
            r.instructions = 1000;
            r.cycles = Some(500);
            r.ipc = Some(2.0);
            r.peak_rss_bytes = 4096;
        });
        report.records.push(record);
        let json = report.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some(JSON_SCHEMA));
        assert_eq!(json.get("scale").unwrap().as_str(), Some("tiny"));
        let records = json.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("phase").unwrap().as_str(), Some("execute"));
        assert_eq!(records[0].get("cycles").unwrap().as_u64(), Some(500));
        assert_eq!(records[0].get("accuracy"), Some(&Json::Null));
        assert!(records[0].get("wall_seconds").unwrap().as_f64().unwrap() >= 0.0);
        assert!(json.get("capture_seconds").unwrap().as_f64().is_some());
        assert!(json.get("replay_seconds").unwrap().as_f64().is_some());
        // The document round-trips through the parser.
        let text = json.render();
        assert_eq!(Json::parse(&text).unwrap(), json);
    }

    #[test]
    fn phase_split_sums_capture_and_replay_wall_clock() {
        let mut report = SuiteReport::new("unit", Scale::tiny(), 1);
        for (phase, wall) in [("capture", 2.0), ("replay", 0.25), ("replay", 0.5)] {
            let mut r = RunRecord::new("go", "(2+0)");
            r.phase = phase.to_string();
            r.wall_seconds = wall;
            report.records.push(r);
        }
        assert!((report.capture_seconds() - 2.0).abs() < 1e-12);
        assert!((report.replay_seconds() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn panicking_job_fails_the_map_but_every_other_job_completes() {
        for threads in [1, 4] {
            let completed = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                Pool::new(threads).map((0..8).collect(), |_, x: i32| {
                    if x == 3 {
                        panic!("job {x} exploded");
                    }
                    completed.fetch_add(1, Ordering::Relaxed);
                    x
                })
            }));
            let payload = result.expect_err("a panicking job must fail the map");
            let failures = payload
                .downcast::<SuiteFailures>()
                .expect("map panics with SuiteFailures");
            assert_eq!(failures.0.len(), 1);
            assert_eq!(failures.0[0].index, 3);
            assert_eq!(failures.0[0].kind, FailureKind::Panic);
            assert!(failures.0[0].message.contains("job 3 exploded"));
            // The failure did not take the suite down with it.
            assert_eq!(completed.load(Ordering::Relaxed), 7, "threads={threads}");
            assert!(format!("{:?}", failures).contains("job 3 failed"));
        }
    }

    #[test]
    fn try_map_turns_panics_into_error_records() {
        for threads in [1, 4] {
            let out = Pool::new(threads).try_map(&(0..6).collect::<Vec<i32>>(), |i, x| {
                if *x == 2 {
                    panic!("bad cell");
                }
                i as i32 + *x
            });
            assert_eq!(out.len(), 6);
            for (i, slot) in out.iter().enumerate() {
                if i == 2 {
                    let failure = slot.as_ref().expect_err("cell 2 panicked");
                    assert_eq!(failure.kind, FailureKind::Panic);
                    assert_eq!(failure.attempts, 1);
                    assert!(failure.message.contains("bad cell"));
                } else {
                    assert_eq!(*slot.as_ref().expect("cell succeeded"), 2 * i as i32);
                }
            }
        }
    }

    #[test]
    fn try_map_retries_until_a_job_succeeds() {
        let attempts = AtomicUsize::new(0);
        let out = Pool::new(1).with_retries(3).try_map(&[()], |_, ()| {
            if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                panic!("flaky");
            }
            7u32
        });
        assert_eq!(out[0].as_ref().copied(), Ok(7));
        assert_eq!(attempts.load(Ordering::Relaxed), 3);

        // Retries exhausted: the last failure is reported with its
        // attempt count.
        let out = Pool::new(1).with_retries(2).try_map(&[()], |_, ()| -> u32 {
            panic!("always");
        });
        let failure = out[0].as_ref().expect_err("job never succeeds");
        assert_eq!(failure.attempts, 3);
        assert_eq!(failure.kind, FailureKind::Panic);
    }

    #[test]
    fn try_map_reports_deadline_overruns_as_timeouts() {
        let out = Pool::new(2)
            .with_deadline(Some(Duration::from_millis(1)))
            .try_map(&[false, true], |i, slow| {
                if *slow {
                    std::thread::sleep(Duration::from_millis(30));
                }
                i
            });
        assert_eq!(out[0].as_ref().copied(), Ok(0));
        let failure = out[1].as_ref().expect_err("slow job misses the deadline");
        assert_eq!(failure.kind, FailureKind::Timeout);
        assert!(failure.message.contains("deadline"));
        let json = failure.to_json();
        assert_eq!(json.get("kind").unwrap().as_str(), Some("timeout"));
        assert_eq!(json.get("index").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn dedupe_failures_keeps_one_record_per_job() {
        let failure = |index, attempts, message: &str| JobFailure {
            index,
            kind: FailureKind::Panic,
            message: message.into(),
            attempts,
        };
        // Job 2 recorded once per attempt, out of order; job 0 once.
        let mut failures = vec![
            failure(2, 1, "first attempt"),
            failure(0, 1, "lone"),
            failure(2, 3, "final attempt"),
            failure(2, 2, "second attempt"),
        ];
        dedupe_failures(&mut failures);
        assert_eq!(failures.len(), 2);
        assert_eq!((failures[0].index, failures[0].attempts), (0, 1));
        // The surviving record is the most-attempted one, job order.
        assert_eq!((failures[1].index, failures[1].attempts), (2, 3));
        assert_eq!(failures[1].message, "final attempt");

        // The stderr rendering collapses the same way without mutating
        // the payload it summarizes.
        let suite = SuiteFailures(vec![failure(4, 1, "boom"), failure(4, 2, "boom again")]);
        let rendered = format!("{suite:?}");
        assert!(rendered.starts_with("1 job(s) failed:"));
        assert_eq!(rendered.matches("job 4 failed").count(), 1);
        assert!(rendered.contains("boom again"));
        assert_eq!(suite.0.len(), 2);
    }

    #[test]
    fn report_errors_only_serialize_when_present() {
        let mut report = SuiteReport::new("unit", Scale::tiny(), 1);
        assert_eq!(report.to_json().get("errors"), None);
        report.errors.push(JobFailure {
            index: 4,
            kind: FailureKind::Panic,
            message: "boom".into(),
            attempts: 2,
        });
        let errors = report.to_json();
        let errors = errors.get("errors").unwrap().as_array().unwrap();
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].get("message").unwrap().as_str(), Some("boom"));
        assert_eq!(errors[0].get("attempts").unwrap().as_u64(), Some(2));
    }

    fn ckpt_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arl-ckpt-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn unit_identity() -> RunIdentity {
        RunIdentity::new("unit")
            .field("backend", "baseline")
            .field("workloads", "go,gcc,perl")
    }

    #[test]
    fn checkpoint_records_resume_and_truncate_torn_tails() {
        let dir = ckpt_dir("torn");
        let path = dir.join("jobs.ckpt");
        let identity = unit_identity();

        let mut ckpt = Checkpoint::open(&path, &identity, false).unwrap();
        assert!(ckpt.is_empty());
        ckpt.record("go/0", &Json::obj([("cycles", Json::from(100u64))]))
            .unwrap();
        ckpt.record("gcc/1", &Json::obj([("cycles", Json::from(200u64))]))
            .unwrap();
        drop(ckpt);

        // Simulate a kill mid-append: a torn trailing line.
        let intact = std::fs::read(&path).unwrap();
        {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(file, "2\tperl/2\t{{\"cyc").unwrap();
        }

        let reopened = Checkpoint::open(&path, &identity, false).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("go/0"), Some(r#"{"cycles":100}"#));
        assert_eq!(reopened.get("gcc/1"), Some(r#"{"cycles":200}"#));
        // The torn job reads as not-done, so a resume re-runs it …
        assert_eq!(reopened.get("perl/2"), None);
        drop(reopened);
        // … and the torn bytes were physically truncated away.
        assert_eq!(std::fs::read(&path).unwrap(), intact);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_refuses_a_mismatched_identity_naming_both() {
        let dir = ckpt_dir("identity");
        let path = dir.join("jobs.ckpt");
        let theirs = unit_identity();
        Checkpoint::open(&path, &theirs, false)
            .unwrap()
            .record("go/0", &Json::from(1u64))
            .unwrap();

        let ours = RunIdentity::new("unit")
            .field("backend", "burst")
            .field("workloads", "go,gcc,perl");
        let err = Checkpoint::open(&path, &ours, false).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains(&theirs.render()),
            "names ledger identity: {msg}"
        );
        assert!(
            msg.contains(&ours.render()),
            "names current identity: {msg}"
        );
        assert!(
            msg.contains("ARL_CHECKPOINT_FORCE"),
            "names override: {msg}"
        );

        // The override resumes anyway, keeping the recorded entries.
        let forced = Checkpoint::open(&path, &ours, true).unwrap();
        assert_eq!(forced.get("go/0"), Some("1"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_restarts_over_a_torn_header_and_rejects_foreign_files() {
        let dir = ckpt_dir("header");
        let identity = unit_identity();

        // A crash during creation leaves a header with no newline: the
        // ledger restarts empty (nothing could have been recorded).
        let torn = dir.join("torn.ckpt");
        std::fs::write(&torn, CHECKPOINT_SCHEMA.as_bytes()).unwrap();
        let ckpt = Checkpoint::open(&torn, &identity, false).unwrap();
        assert!(ckpt.is_empty());
        drop(ckpt);

        // A file that is not a v2 ledger at all is a hard error, not a
        // silent fresh start — it might be someone else's data.
        let foreign = dir.join("foreign.ckpt");
        std::fs::write(&foreign, b"go/0\t{\"cycles\":100}\n").unwrap();
        let err = Checkpoint::open(&foreign, &identity, false).unwrap_err();
        assert!(err.to_string().contains(CHECKPOINT_SCHEMA), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compaction_keeps_latest_payloads_and_stays_resumable() {
        let dir = ckpt_dir("compact");
        let path = dir.join("jobs.ckpt");
        let identity = unit_identity();

        let mut ckpt = Checkpoint::open(&path, &identity, false).unwrap();
        for round in 0..5u64 {
            ckpt.record("state", &Json::from(round)).unwrap();
        }
        ckpt.record("go/0", &Json::from(7u64)).unwrap();
        let before = std::fs::metadata(&path).unwrap().len();
        ckpt.compact().unwrap();
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(
            after < before,
            "compaction shrinks the ledger: {after} >= {before}"
        );
        assert_eq!(ckpt.len(), 2);
        assert_eq!(ckpt.get("state"), Some("4"), "latest payload survives");
        // Appends keep working on the compacted ledger …
        ckpt.record("gcc/1", &Json::from(9u64)).unwrap();
        drop(ckpt);
        // … and a reopen sees the full live set.
        let reopened = Checkpoint::open(&path, &identity, false).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.get("state"), Some("4"));
        assert_eq!(reopened.get("gcc/1"), Some("9"));
        let view = Checkpoint::inspect(&path).unwrap();
        assert_eq!(view.live(), 3);
        assert!(!view.torn_tail);
        assert_eq!(view.identity, identity.render());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_numeric_payload_is_rejected_not_merged() {
        // Regression for the v1 design flaw: a payload cut short can
        // still be valid JSON (`456` → `45`), so JSON-parsability alone
        // must never gate a merge. The v2 checksum catches it.
        let dir = ckpt_dir("cutshort");
        let path = dir.join("jobs.ckpt");
        let identity = unit_identity();
        let mut ckpt = Checkpoint::open(&path, &identity, false).unwrap();
        ckpt.record("go/0", &Json::from(456u64)).unwrap();
        drop(ckpt);
        let bytes = std::fs::read(&path).unwrap();
        // Cut the final entry short so its payload reads `45…` — drop
        // enough of the tail that the checksum (and newline) are gone.
        std::fs::write(&path, &bytes[..bytes.len() - 21]).unwrap();
        let reopened = Checkpoint::open(&path, &identity, false).unwrap();
        assert_eq!(reopened.get("go/0"), None, "cut-short payload re-runs");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn emit_writes_inside_a_directory_or_alongside_a_file() {
        let dir = std::env::temp_dir().join(format!("arl-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let report = SuiteReport::new("figure8", Scale::default(), 1);
        let path = emit(&dir, "BENCH_figure8.json", &report.to_json()).unwrap();
        assert_eq!(path, dir.join("BENCH_figure8.json"));
        let back = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back.get("experiment").unwrap().as_str(), Some("figure8"));
        assert_eq!(back.get("scale").unwrap().as_str(), Some("x1"));
        // A file path (existing or not) places the document beside it.
        let beside = emit(&dir.join("run.json"), "BENCH_x.json", &Json::Null).unwrap();
        assert_eq!(beside, dir.join("BENCH_x.json"));
        // A missing directory is an error, never a silent fallback.
        assert!(emit(&dir.join("missing/"), "BENCH_x.json", &Json::Null).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
