//! Dynamic trace records and the [`TraceSource`] abstraction.

use std::error::Error;
use std::fmt;

use arl_isa::{Gpr, Inst, Width};
use arl_mem::Region;

use crate::exec::ExecError;
use crate::metrics::Metrics;

/// One dynamic memory access.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MemAccess {
    /// Effective address.
    pub addr: u64,
    /// Access width.
    pub width: Width,
    /// Load (`true`) or store (`false`).
    pub is_load: bool,
    /// The region the address falls in.
    pub region: Region,
}

impl MemAccess {
    /// Whether the access targets the stack region.
    pub fn is_stack(&self) -> bool {
        self.region == Region::Stack
    }
}

/// One retired instruction, as produced by [`Machine`](crate::Machine).
///
/// Carries everything downstream consumers need:
///
/// * profilers use `pc` + `mem`;
/// * the access-region predictors additionally use the run-time context
///   (`ghr`, `ra`) sampled *before* the instruction executes — exactly what
///   the fetch-stage ARPT lookup would see;
/// * the timing simulator uses the register identities from `inst`, the
///   produced `value` (for value-prediction verification), and `taken`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceEntry {
    /// The instruction's address.
    pub pc: u64,
    /// The decoded instruction.
    pub inst: Inst,
    /// The memory access performed, if any.
    pub mem: Option<MemAccess>,
    /// For conditional branches: whether the branch was taken.
    pub taken: bool,
    /// The pc of the next retired instruction.
    pub next_pc: u64,
    /// Value written to the destination GPR, if the instruction writes one
    /// (used by the stride value predictor).
    pub gpr_write: Option<(Gpr, i64)>,
    /// Global (conditional-)branch history register sampled before this
    /// instruction; newest outcome in bit 0.
    pub ghr: u64,
    /// Link-register (`$ra`) value sampled before this instruction — the
    /// paper's caller identification (CID) context.
    pub ra: u64,
}

impl TraceEntry {
    /// Whether this entry is a memory reference.
    pub fn is_mem(&self) -> bool {
        self.mem.is_some()
    }

    /// Whether this entry is a load.
    pub fn is_load(&self) -> bool {
        self.mem.map(|m| m.is_load).unwrap_or(false)
    }

    /// Whether this entry is a store.
    pub fn is_store(&self) -> bool {
        self.mem.map(|m| !m.is_load).unwrap_or(false)
    }
}

/// Errors raised while pulling entries from a [`TraceSource`].
#[derive(Debug)]
pub enum SourceError {
    /// Live functional execution failed.
    Exec(ExecError),
    /// A captured trace could not be decoded back into entries.
    Corrupt(String),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Exec(e) => write!(f, "functional execution failed: {e}"),
            SourceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
        }
    }
}

impl Error for SourceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SourceError::Exec(e) => Some(e),
            SourceError::Corrupt(_) => None,
        }
    }
}

impl From<ExecError> for SourceError {
    fn from(e: ExecError) -> SourceError {
        SourceError::Exec(e)
    }
}

/// A stream of retired-instruction [`TraceEntry`] records.
///
/// The execute-once/replay-many pipeline hinges on this trait: the live
/// functional executor ([`Machine`](crate::Machine)) and a trace replayer
/// (`arl-trace`'s `Replayer`) both implement it, so the predictor
/// evaluation in `arl-core` and the cycle-level pipeline in `arl-timing`
/// are agnostic to whether entries come from real execution or from a
/// captured trace.
pub trait TraceSource {
    /// Produces the next retired instruction, or `None` once the stream is
    /// exhausted (repeated calls after exhaustion keep returning `None`).
    ///
    /// # Errors
    ///
    /// [`SourceError::Exec`] when live execution fails,
    /// [`SourceError::Corrupt`] when a captured trace cannot be decoded.
    fn next_entry(&mut self) -> Result<Option<TraceEntry>, SourceError>;

    /// End-of-run functional counters (instructions, peak-RSS proxy,
    /// output count). Only meaningful once the stream is exhausted.
    fn metrics(&self) -> Metrics;
}

/// A [`TraceSource`] over a pre-collected entry slice (tests and
/// micro-harnesses; carries no functional metrics beyond the entry count).
pub struct EntrySliceSource<'a> {
    entries: std::slice::Iter<'a, TraceEntry>,
    delivered: u64,
}

impl<'a> EntrySliceSource<'a> {
    /// Wraps a slice of entries.
    pub fn new(entries: &'a [TraceEntry]) -> EntrySliceSource<'a> {
        EntrySliceSource {
            entries: entries.iter(),
            delivered: 0,
        }
    }
}

impl TraceSource for EntrySliceSource<'_> {
    fn next_entry(&mut self) -> Result<Option<TraceEntry>, SourceError> {
        let next = self.entries.next().copied();
        self.delivered += next.is_some() as u64;
        Ok(next)
    }

    fn metrics(&self) -> Metrics {
        Metrics {
            instructions: self.delivered,
            ..Metrics::default()
        }
    }
}
