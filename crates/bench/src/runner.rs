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
use std::sync::Mutex;
use std::time::Instant;

use arl_stats::Json;
use arl_workloads::Scale;

use crate::knob::Knobs;

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

/// One job that panicked under [`Pool::try_map`].
#[derive(Clone, PartialEq, Debug)]
pub struct JobFailure {
    /// Job index in the input order.
    pub index: usize,
    /// The panic message.
    pub message: String,
}

impl JobFailure {
    /// The `errors` array element for `BENCH_*.json` documents.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("index", Json::from(self.index)),
            ("message", Json::from(self.message.as_str())),
        ])
    }

    /// One-line stderr summary.
    pub fn summary(&self) -> String {
        format!("job {} failed: {}", self.index, self.message)
    }
}

/// The panic payload [`Pool::map`] raises after **every** job has run
/// when at least one of them panicked: the completed cells are not lost
/// to the first failure, and `run_main` turns this into per-job stderr
/// lines plus a non-zero exit instead of a raw panic trace.
pub struct SuiteFailures(pub Vec<JobFailure>);

impl std::fmt::Debug for SuiteFailures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} job(s) failed:", self.0.len())?;
        for failure in &self.0 {
            writeln!(f, "  {}", failure.summary())?;
        }
        Ok(())
    }
}

const UNPOISONED: &str = "no job panics while a slot is locked";

/// A fixed-width pool of scoped worker threads.
///
/// Work items are claimed from a shared counter (dynamic load balancing —
/// timing cells vary ~10× in cost), but results land in a slot vector
/// indexed by item, so the fold order never depends on scheduling. Jobs
/// must be deterministic functions of their input; all of this crate's
/// jobs are (the simulators take no seeds and share no state), so a job
/// that panics would panic again and is never re-run.
///
/// A panicking job is caught and every other job still runs; the failure
/// surfaces as an `Err` in its slot ([`Pool::try_map`]) or, once all jobs
/// are done, as a [`SuiteFailures`] panic ([`Pool::map`]).
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with an explicit worker count (`0` is clamped to 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Applies `f` to every item, in parallel, returning outputs in input
    /// order.
    ///
    /// # Panics
    ///
    /// If any job panics, the panic is caught, **every other job still
    /// runs to completion**, and this panics afterwards with a
    /// [`SuiteFailures`] payload listing each failed job (`run_main`
    /// catches it and exits non-zero with a per-job summary).
    pub fn map<I: Sync, O: Send>(&self, items: &[I], f: impl Fn(&I) -> O + Sync) -> Vec<O> {
        let mut outputs = Vec::with_capacity(items.len());
        let mut failures = Vec::new();
        for result in self.try_map(items, f) {
            match result {
                Ok(out) => outputs.push(out),
                Err(failure) => failures.push(failure),
            }
        }
        if !failures.is_empty() {
            std::panic::panic_any(SuiteFailures(failures));
        }
        outputs
    }

    /// Applies `f` to every item, in parallel, returning in input order
    /// each job's output or, for a job that panicked, its [`JobFailure`]
    /// — the caller decides how to report it.
    ///
    /// One claim loop runs on up to `threads` scoped workers (inline when
    /// one would do), each worker claiming the next unclaimed index.
    pub fn try_map<I: Sync, O: Send>(
        &self,
        items: &[I],
        f: impl Fn(&I) -> O + Sync,
    ) -> Vec<Result<O, JobFailure>> {
        let slots: Vec<Mutex<Option<Result<O, JobFailure>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let claim = || loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                break;
            };
            let out = catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| JobFailure {
                index,
                message: panic_message(payload.as_ref()),
            });
            // A slot is locked only to store a finished result, so no
            // panic can poison it.
            *slots[index].lock().expect(UNPOISONED) = Some(out);
        };
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            claim();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(claim);
                }
            });
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect(UNPOISONED)
                    .expect("the claim loop fills every slot")
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
    /// Always empty, and not serialized: a failed cell ends the run
    /// through [`Pool::map`]'s [`SuiteFailures`] panic before any report
    /// exists. Kept because the repository benchmark
    /// (`benchmark/src/workloads.rs`) reads it.
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

    /// The full `BENCH_*.json` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
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
        ])
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
            let out = pool.map(&(0..100).collect::<Vec<i32>>(), |x| x * x);
            assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let pool = Pool::new(4);
        assert_eq!(pool.map(&[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(pool.map(&[9u8], |x| x + 1), vec![10]);
    }

    #[test]
    fn pool_clamps_zero_threads() {
        // A zero worker count runs every job serially instead of none.
        assert_eq!(Pool::new(0).map(&[1, 2, 3], |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn oversubscribed_pool_output_matches_serial() {
        // Far more workers than items: identical results, every item
        // processed exactly once.
        let items: Vec<i32> = (0..5).collect();
        let serial = Pool::new(1).map(&items, |x| x * 10);
        let oversub = Pool::new(64).map(&items, |x| x * 10);
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
                Pool::new(threads).map(&(0..8).collect::<Vec<i32>>(), |&x| {
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
            assert!(failures.0[0].message.contains("job 3 exploded"));
            // The failure did not take the suite down with it.
            assert_eq!(completed.load(Ordering::Relaxed), 7, "threads={threads}");
            assert!(format!("{:?}", failures).contains("job 3 failed"));
        }
    }

    #[test]
    fn try_map_turns_panics_into_error_records() {
        for threads in [1, 4] {
            let out = Pool::new(threads).try_map(&(0..6).collect::<Vec<i32>>(), |&x| {
                if x == 2 {
                    panic!("bad cell");
                }
                2 * x
            });
            assert_eq!(out.len(), 6);
            for (i, slot) in out.iter().enumerate() {
                if i == 2 {
                    let failure = slot.as_ref().expect_err("cell 2 panicked");
                    assert_eq!(failure.index, 2);
                    assert!(failure.message.contains("bad cell"));
                } else {
                    assert_eq!(*slot.as_ref().expect("cell succeeded"), 2 * i as i32);
                }
            }
        }
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
