//! # arl-sim — functional simulation and profiling
//!
//! The analog of SimpleScalar's `sim-profile` (paper Section 3.1): "In each
//! simulated cycle, it fetches and executes one instruction as specified in
//! the program. While doing so, it collects desired information, i.e., which
//! region(s) a memory reference instruction accesses."
//!
//! * [`Machine`] executes a linked [`arl_asm::Program`], producing a stream
//!   of [`TraceEntry`] records (one per retired instruction) that carries
//!   everything the profilers and the timing simulator need: the memory
//!   access and its region, the written register value, the branch outcome,
//!   and the run-time context (global branch history, link register).
//! * [`RegionProfiler`] reproduces Figure 2's static breakdown and the
//!   dynamic share of multi-region instructions.
//! * [`SlidingWindowProfiler`] reproduces Table 2's per-region
//!   mean/standard-deviation window statistics.
//! * [`characterize`] reproduces Table 1's instruction-mix columns.
//!
//! ```
//! use arl_asm::{FunctionBuilder, ProgramBuilder};
//! use arl_isa::Gpr;
//! use arl_sim::Machine;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = FunctionBuilder::new("main");
//! f.li(Gpr::A0, 42);
//! f.print_int(Gpr::A0);
//! pb.add_function(f);
//! let program = pb.link("main")?;
//!
//! let mut m = Machine::new(&program);
//! m.run(1_000_000)?;
//! assert_eq!(m.output(), &[42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod exec;
mod metrics;
mod profile;
mod trace;
mod window;

pub use exec::{ExecError, Machine, RunOutcome};
pub use metrics::Metrics;
pub use profile::{characterize, RegionBreakdown, RegionProfiler, WorkloadCharacter};
pub use trace::{EntrySliceSource, MemAccess, SourceError, TraceEntry, TraceSource};
pub use window::{SlidingWindowProfiler, WindowStats};

use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of instructions executed *functionally* (via
/// [`Machine`]), across all threads. Trace replay does not advance it, so
/// the execute-once/replay-many pipeline can audit that each workload was
/// executed exactly once per experiment.
static FUNCTIONAL_INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Monotonic count of functionally executed instructions in this process.
pub fn functional_instructions_executed() -> u64 {
    FUNCTIONAL_INSTRUCTIONS.load(Ordering::Relaxed)
}

pub(crate) fn count_functional_instructions(n: u64) {
    if n > 0 {
        FUNCTIONAL_INSTRUCTIONS.fetch_add(n, Ordering::Relaxed);
    }
}
