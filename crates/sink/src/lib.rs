//! Crash-consistent artifact sink with an injectable, seeded I/O fault gate.
//!
//! Every durable artifact the workspace publishes — `BENCH_*.json`
//! documents, `.arltrace` captures, checkpoint-ledger appends and
//! compactions — is routed through this crate so that (a) the happy path
//! follows one audited protocol (temp file + `sync_all` + rename for
//! whole-file publication, `write` + `sync_data` for ledger appends, both
//! followed by a best-effort parent-directory fsync) and (b) a chaos
//! harness can deterministically perturb exactly one of those operations.
//!
//! # Operation index
//!
//! Each durable operation (one whole-file publication counts as one
//! `write` op plus one `rename` op; each ledger append is one `append`
//! op) draws a process-global monotonically increasing index. A fault
//! plan names operations by that index, so a calibration run that logs
//! the op sequence (`ARL_IO_TRACE=<file>`) lets a supervisor aim a fault
//! at, say, "the 7th durable operation" and know exactly which artifact
//! it hits. Indices are only deterministic when the process performs its
//! durable writes in a deterministic order (the chaos harness pins
//! `ARL_THREADS=1` in children for this reason).
//!
//! # Fault plan syntax (`ARL_IO_FAULT`)
//!
//! Comma-separated `kind@op[:keep]` entries:
//!
//! - `short@7:44` — at op 7, write only the first 44 bytes (then sync
//!   them) and return an injected I/O error: a torn write that persists.
//! - `enospc@7:44` — same torn prefix, surfaced as an injected
//!   out-of-space error.
//! - `rename@8` — fail the rename of op 8 after the temp file was
//!   durably written: the published artifact keeps its old contents.
//! - `kill@7:44` — write and sync the first 44 bytes of op 7, then kill
//!   the process with SIGKILL: a crash mid-write, no destructors run.
//!
//! A malformed plan aborts the process rather than silently running
//! fault-free: a chaos campaign whose faults never arm would report a
//! perfect score that tested nothing.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// One injected I/O misbehaviour at a single durable operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoFault {
    /// Persist only the first `keep` bytes, then fail with an I/O error.
    ShortWrite { keep: u64 },
    /// Persist only the first `keep` bytes, then fail as out-of-space.
    Enospc { keep: u64 },
    /// Fail the publishing rename; the target keeps its old contents.
    InterruptedRename,
    /// Persist the first `keep` bytes, then SIGKILL the process.
    Kill { keep: u64 },
}

/// An [`IoFault`] aimed at a specific global operation index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedIoFault {
    pub op: u64,
    pub fault: IoFault,
}

impl PlannedIoFault {
    /// Renders the `ARL_IO_FAULT` spec for this fault (`kill@7:44`).
    pub fn to_spec(&self) -> String {
        match self.fault {
            IoFault::ShortWrite { keep } => format!("short@{}:{keep}", self.op),
            IoFault::Enospc { keep } => format!("enospc@{}:{keep}", self.op),
            IoFault::InterruptedRename => format!("rename@{}", self.op),
            IoFault::Kill { keep } => format!("kill@{}:{keep}", self.op),
        }
    }

    /// Short human label for reports (`kill`, `short`, `enospc`, `rename`).
    pub fn kind_label(&self) -> &'static str {
        match self.fault {
            IoFault::ShortWrite { .. } => "short",
            IoFault::Enospc { .. } => "enospc",
            IoFault::InterruptedRename => "rename",
            IoFault::Kill { .. } => "kill",
        }
    }
}

/// Parses a comma-separated `ARL_IO_FAULT` plan (see crate docs).
pub(crate) fn parse_io_plan(value: &str) -> Result<Vec<PlannedIoFault>, String> {
    let mut plan = Vec::new();
    for raw in value.split(',') {
        let spec = raw.trim();
        if spec.is_empty() {
            continue;
        }
        let (kind, rest) = spec
            .split_once('@')
            .ok_or_else(|| format!("fault spec {spec:?} is missing '@'"))?;
        let (op_text, keep_text) = match rest.split_once(':') {
            Some((op, keep)) => (op, Some(keep)),
            None => (rest, None),
        };
        let op: u64 = op_text
            .parse()
            .map_err(|_| format!("fault spec {spec:?} has a non-numeric op index"))?;
        let keep = match keep_text {
            Some(k) => Some(
                k.parse::<u64>()
                    .map_err(|_| format!("fault spec {spec:?} has a non-numeric keep count"))?,
            ),
            None => None,
        };
        let fault = match (kind, keep) {
            ("short", Some(keep)) => IoFault::ShortWrite { keep },
            ("enospc", Some(keep)) => IoFault::Enospc { keep },
            ("kill", Some(keep)) => IoFault::Kill { keep },
            ("rename", None) => IoFault::InterruptedRename,
            ("short" | "enospc" | "kill", None) => {
                return Err(format!("fault spec {spec:?} needs a ':keep' byte count"));
            }
            ("rename", Some(_)) => {
                return Err(format!("fault spec {spec:?}: rename takes no keep count"));
            }
            _ => {
                return Err(format!(
                    "fault spec {spec:?} has unknown kind {kind:?} \
                     (valid: short, enospc, rename, kill)"
                ));
            }
        };
        plan.push(PlannedIoFault { op, fault });
    }
    Ok(plan)
}

struct PlanState {
    armed: bool,
    plan: Vec<PlannedIoFault>,
}

static PLAN: Mutex<PlanState> = Mutex::new(PlanState {
    armed: false,
    plan: Vec::new(),
});
static OPS: AtomicU64 = AtomicU64::new(0);

fn fault_for(op: u64) -> Option<IoFault> {
    let mut state = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    if !state.armed {
        state.armed = true;
        if let Ok(value) = std::env::var("ARL_IO_FAULT") {
            match parse_io_plan(&value) {
                Ok(plan) => state.plan = plan,
                Err(e) => {
                    // Failing open would let a chaos run silently test nothing.
                    eprintln!("[arl-sink] invalid ARL_IO_FAULT: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    state.plan.iter().find(|p| p.op == op).map(|p| p.fault)
}

fn trace_target() -> Option<&'static PathBuf> {
    static TARGET: OnceLock<Option<PathBuf>> = OnceLock::new();
    TARGET
        .get_or_init(|| std::env::var_os("ARL_IO_TRACE").map(PathBuf::from))
        .as_ref()
}

/// Kind of durable operation, as logged by `ARL_IO_TRACE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Whole-file write of a temp file (half of a publication).
    Write,
    /// The rename publishing a temp file over its target.
    Rename,
    /// An append to an open ledger handle.
    Append,
}

impl OpKind {
    fn label(self) -> &'static str {
        match self {
            OpKind::Write => "write",
            OpKind::Rename => "rename",
            OpKind::Append => "append",
        }
    }

    fn from_label(label: &str) -> Option<Self> {
        match label {
            "write" => Some(OpKind::Write),
            "rename" => Some(OpKind::Rename),
            "append" => Some(OpKind::Append),
            _ => None,
        }
    }
}

/// One durable operation recorded by a calibration run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoOp {
    pub op: u64,
    pub kind: OpKind,
    pub bytes: u64,
    pub file: String,
}

/// Parses the `ARL_IO_TRACE` log back into the op sequence. Unparsable
/// lines (e.g. a torn tail from a killed calibration run) are skipped.
pub fn parse_io_trace(text: &str) -> Vec<IoOp> {
    let mut ops = Vec::new();
    for line in text.lines() {
        let mut op = None;
        let mut kind = None;
        let mut bytes = None;
        let mut file = None;
        for field in line.split_whitespace() {
            match field.split_once('=') {
                Some(("op", v)) => op = v.parse().ok(),
                Some(("kind", v)) => kind = OpKind::from_label(v),
                Some(("bytes", v)) => bytes = v.parse().ok(),
                Some(("file", v)) => file = Some(v.to_string()),
                _ => {}
            }
        }
        if let (Some(op), Some(kind), Some(bytes), Some(file)) = (op, kind, bytes, file) {
            ops.push(IoOp {
                op,
                kind,
                bytes,
                file,
            });
        }
    }
    ops
}

fn log_op(op: u64, kind: OpKind, bytes: u64, path: &Path) {
    let Some(target) = trace_target() else {
        return;
    };
    static LOG: Mutex<()> = Mutex::new(());
    let _guard = LOG.lock().unwrap_or_else(|e| e.into_inner());
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let line = format!("op={op} kind={} bytes={bytes} file={name}\n", kind.label());
    // Calibration logging is best-effort and intentionally bypasses the
    // fault gate: it observes durable ops, it is not one.
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(target)
        .and_then(|mut f| f.write_all(line.as_bytes()));
}

fn next_op(kind: OpKind, bytes: u64, path: &Path) -> u64 {
    let op = OPS.fetch_add(1, Ordering::SeqCst);
    log_op(op, kind, bytes, path);
    op
}

fn hard_kill() -> ! {
    // SIGKILL ourselves: no destructors, no atexit, no buffered flushes —
    // the closest portable-within-this-workspace stand-in for a crash.
    let pid = std::process::id();
    let _ = std::process::Command::new("/bin/sh")
        .arg("-c")
        .arg(format!("kill -KILL {pid}"))
        .status();
    // `kill` should never let us get here; abort as a fallback so a
    // planned crash can't continue as if nothing happened.
    std::process::abort();
}

fn injected_error(what: String) -> io::Error {
    io::Error::other(what)
}

/// Writes `bytes` through the fault gate at a fresh op index.
fn gated_write(file: &mut File, bytes: &[u8], op: u64) -> io::Result<()> {
    match fault_for(op) {
        None => file.write_all(bytes),
        Some(IoFault::ShortWrite { keep }) => {
            let keep = (keep as usize).min(bytes.len());
            file.write_all(&bytes[..keep])?;
            let _ = file.sync_data();
            Err(injected_error(format!(
                "injected short write: kept {keep} of {} bytes (op {op})",
                bytes.len()
            )))
        }
        Some(IoFault::Enospc { keep }) => {
            let keep = (keep as usize).min(bytes.len());
            file.write_all(&bytes[..keep])?;
            let _ = file.sync_data();
            Err(injected_error(format!(
                "injected ENOSPC after {keep} of {} bytes (op {op})",
                bytes.len()
            )))
        }
        Some(IoFault::Kill { keep }) => {
            let keep = (keep as usize).min(bytes.len());
            let _ = file.write_all(&bytes[..keep]);
            let _ = file.sync_data();
            hard_kill();
        }
        Some(IoFault::InterruptedRename) => {
            // A rename fault landing on a write op still means "this
            // publication fails": write nothing and surface the error.
            Err(injected_error(format!(
                "injected rename fault aimed at write op {op}"
            )))
        }
    }
}

fn sync_parent_dir(path: &Path) {
    // Durability of the rename itself. Best-effort: some filesystems
    // refuse to open directories, and a lost dirent after a crash is
    // detected (missing artifact), never silent corruption.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Deterministic sibling temp path for an atomic publication of `path`.
pub(crate) fn temp_path_for(path: &Path) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_string());
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    dir.join(format!(".{name}.arl-tmp"))
}

/// Atomically publishes `bytes` at `path`: temp file + `sync_all` +
/// rename + parent-directory fsync. Under any crash or injected fault
/// the target holds either its previous contents or the complete new
/// contents — never a torn mixture (the torn prefix lives only in the
/// deterministic `.<name>.arl-tmp` sibling).
pub fn durable_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = temp_path_for(path);
    let mut file = File::create(&tmp)?;
    let write_op = next_op(OpKind::Write, bytes.len() as u64, path);
    gated_write(&mut file, bytes, write_op)?;
    file.sync_all()?;
    drop(file);
    let rename_op = next_op(OpKind::Rename, 0, path);
    match fault_for(rename_op) {
        Some(IoFault::Kill { .. }) => hard_kill(),
        Some(_) => {
            return Err(injected_error(format!(
                "injected interrupted rename of {} (op {rename_op})",
                path.display()
            )));
        }
        None => {}
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Durably appends `bytes` to an open handle: fault-gated `write_all`
/// followed by `sync_data`, so a completed append survives a crash and a
/// torn one persists only its prefix (for the reader to detect).
pub fn append_durable(file: &mut File, label: &Path, bytes: &[u8]) -> io::Result<()> {
    let op = next_op(OpKind::Append, bytes.len() as u64, label);
    gated_write(file, bytes, op)?;
    file.sync_data()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Fault-plan state and the op counter are process-global; serialize
    /// the tests that arm plans so indices stay predictable.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    /// Number of durable operations this process has issued so far.
    fn ops_used() -> u64 {
        OPS.load(Ordering::SeqCst)
    }

    /// Installs a fault plan directly, overriding any `ARL_IO_FAULT` value.
    fn install_io_plan(plan: Vec<PlannedIoFault>) {
        let mut state = PLAN.lock().unwrap_or_else(|e| e.into_inner());
        state.armed = true;
        state.plan = plan;
    }

    fn temp_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("arl-sink-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(tag)
    }

    #[test]
    fn plan_specs_round_trip() {
        let plan = vec![
            PlannedIoFault {
                op: 7,
                fault: IoFault::ShortWrite { keep: 44 },
            },
            PlannedIoFault {
                op: 9,
                fault: IoFault::Enospc { keep: 0 },
            },
            PlannedIoFault {
                op: 11,
                fault: IoFault::InterruptedRename,
            },
            PlannedIoFault {
                op: 13,
                fault: IoFault::Kill { keep: 3 },
            },
        ];
        let spec = plan
            .iter()
            .map(PlannedIoFault::to_spec)
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(spec, "short@7:44,enospc@9:0,rename@11,kill@13:3");
        assert_eq!(parse_io_plan(&spec).unwrap(), plan);
        assert_eq!(parse_io_plan("").unwrap(), vec![]);
        assert_eq!(parse_io_plan(" short@1:2 , ").unwrap().len(), 1);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "short",
            "short@x:1",
            "short@1:x",
            "short@1",
            "rename@1:2",
            "explode@1:2",
        ] {
            assert!(parse_io_plan(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn io_trace_round_trips_and_skips_garbage() {
        let text = "op=0 kind=write bytes=10 file=a.json\n\
                    torn garbage line\n\
                    op=1 kind=rename bytes=0 file=a.json\n\
                    op=2 kind=append bytes=33 file=ledger\n";
        let ops = parse_io_trace(text);
        assert_eq!(ops.len(), 3);
        assert_eq!(ops[0].kind, OpKind::Write);
        assert_eq!(ops[1].kind, OpKind::Rename);
        assert_eq!(
            ops[2],
            IoOp {
                op: 2,
                kind: OpKind::Append,
                bytes: 33,
                file: "ledger".to_string(),
            }
        );
    }

    #[test]
    fn durable_write_publishes_atomically() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install_io_plan(vec![]);
        let path = temp_file("plain.json");
        durable_write(&path, b"{\"v\":1}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":1}");
        assert!(!temp_path_for(&path).exists(), "temp file is consumed");
        durable_write(&path, b"{\"v\":2}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"v\":2}");
    }

    #[test]
    fn short_write_fault_leaves_target_intact() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install_io_plan(vec![]);
        let path = temp_file("short.json");
        durable_write(&path, b"old-contents").unwrap();
        let fault_op = ops_used(); // the next write op
        install_io_plan(vec![PlannedIoFault {
            op: fault_op,
            fault: IoFault::ShortWrite { keep: 4 },
        }]);
        let err = durable_write(&path, b"new-contents").unwrap_err();
        assert!(err.to_string().contains("injected short write"), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"old-contents",
            "published artifact is untouched by a torn write"
        );
        assert_eq!(
            std::fs::read(temp_path_for(&path)).unwrap(),
            b"new-",
            "the torn prefix lives only in the temp sibling"
        );
        install_io_plan(vec![]);
        durable_write(&path, b"new-contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new-contents");
    }

    #[test]
    fn interrupted_rename_keeps_old_contents() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install_io_plan(vec![]);
        let path = temp_file("rename.json");
        durable_write(&path, b"old").unwrap();
        let rename_op = ops_used() + 1; // write op, then rename op
        install_io_plan(vec![PlannedIoFault {
            op: rename_op,
            fault: IoFault::InterruptedRename,
        }]);
        let err = durable_write(&path, b"new").unwrap_err();
        assert!(err.to_string().contains("interrupted rename"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert_eq!(
            std::fs::read(temp_path_for(&path)).unwrap(),
            b"new",
            "the fully written temp file is left for inspection"
        );
        install_io_plan(vec![]);
    }

    #[test]
    fn enospc_fault_persists_only_the_prefix() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install_io_plan(vec![]);
        let path = temp_file("enospc-ledger");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .unwrap();
        append_durable(&mut file, &path, b"entry-one\n").unwrap();
        let fault_op = ops_used();
        install_io_plan(vec![PlannedIoFault {
            op: fault_op,
            fault: IoFault::Enospc { keep: 3 },
        }]);
        let err = append_durable(&mut file, &path, b"entry-two\n").unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"entry-one\nent");
        install_io_plan(vec![]);
    }

    #[test]
    fn op_counter_is_monotonic_across_publications() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install_io_plan(vec![]);
        let before = ops_used();
        let path = temp_file("count.json");
        durable_write(&path, b"x").unwrap();
        assert_eq!(ops_used(), before + 2, "one write op + one rename op");
    }
}
