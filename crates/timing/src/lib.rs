//! # arl-timing — cycle-level data-decoupled superscalar model
//!
//! The timing simulator behind the paper's Section 4: a 16-wide
//! out-of-order processor (Table 4) whose memory system can be either
//! *conventional* (one Load Store Queue feeding an N-ported data cache) or
//! *data-decoupled* (LSQ + Local Variable Access Queue feeding a data cache
//! and a small 1-cycle Local Variable Cache, steered by the ARPT).
//!
//! ## Fidelity and substitutions
//!
//! The paper's machine uses a **perfect I-cache and perfect branch
//! prediction** precisely so that the data-memory system is the bottleneck
//! under study. With a perfect front end there is no wrong-path work, so
//! this model is driven by the functional trace (`arl-sim`) — equivalent
//! to execution-driven simulation under the paper's front-end assumptions,
//! not an approximation of them. The two speculative mechanisms that *do*
//! remain are modeled explicitly:
//!
//! * **ARPT region mispredictions** are detected when the address is
//!   generated (the TLB stack-bit check) and recovered by re-routing the
//!   access to the correct queue, with dependent re-issue one cycle after
//!   detection (Section 4.3).
//! * **Stride value prediction** (16K entries) lets consumers of a
//!   correctly predicted register value issue without waiting for the
//!   producer.
//!
//! ```
//! use arl_asm::{FunctionBuilder, ProgramBuilder};
//! use arl_isa::Gpr;
//! use arl_timing::{MachineConfig, TimingSim};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = FunctionBuilder::new("main");
//! let x = f.local(8);
//! f.li(Gpr::T0, 7);
//! f.store_local(Gpr::T0, x, 0);
//! f.load_local(Gpr::T1, x, 0);
//! pb.add_function(f);
//! let program = pb.link("main")?;
//!
//! let base = TimingSim::run_program(&program, &MachineConfig::baseline_2_0());
//! let split = TimingSim::run_program(&program, &MachineConfig::decoupled(3, 3));
//! assert!(base.instructions == split.instructions);
//! # Ok::<(), arl_asm::LinkError>(())
//! ```

mod cache;
mod config;
mod fault;
mod legacy;
mod metrics;
mod pipeline;
mod probe;
mod state;
mod valuepred;
mod wheel;

pub use cache::{Cache, CacheStats, MemSystem, Route};
pub use config::{BackendConfig, CacheConfig, MachineConfig, PortModel, RecoveryMode};
pub use fault::{FaultKind, TimingFault};
pub use metrics::SimStats;
pub use pipeline::{SegmentRun, TimingSim};
pub use probe::{CycleObs, NullProbe, Probe, Recorder, StallCause};
pub use valuepred::StridePredictor;
pub use wheel::EventWheel;

/// The reference implementation: the pre-event-wheel core that ticks
/// every cycle. [`TimingSim`] is the one production timing loop; this
/// oracle exists so the differential suites can hold it to bit-identical
/// `SimStats` and probe output, and so `bench_speed` has a same-run
/// speedup denominator. It runs whole traces only — no resume state.
pub mod reference {
    pub use crate::legacy::run_probed;
}
