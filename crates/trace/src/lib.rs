//! # arl-trace — execute-once / replay-many trace pipeline
//!
//! The paper's experiments sweep many configurations over the *same*
//! dynamic instruction stream: Figures 4/5 and Table 3 evaluate predictor
//! variants on one reference trace per workload, and Figure 8 runs each
//! workload through seven timing configurations. Re-executing the
//! functional simulation for every (workload × config) cell wastes almost
//! all of that wall-clock. This crate captures the stream once into a
//! compact binary trace and replays it as many times as needed:
//!
//! * [`capture`] / [`capture_with`] execute a program functionally once
//!   (the latter feeding profilers along the way) and return a [`Trace`];
//! * [`Trace`] is the validated `.arltrace` container (format version 5)
//!   — delta+varint encoded events framed by a header and a footer, sealed
//!   with [`container_checksum`], a word-wise FNV-1a that detects any
//!   single-byte corruption with certainty (see [`format`](self) docs for
//!   the byte layout);
//! * [`Replayer`] implements `arl-sim`'s `TraceSource`, reconstructing a
//!   bit-identical `TraceEntry` stream from the trace plus the program
//!   image — predictors (`arl-core`) and the cycle-level pipeline
//!   (`arl-timing`) consume it exactly as they consume a live `Machine`.
//!   [`Replayer::open_span`] replays one contiguous span of events,
//!   resuming from the [`SnapshotRecord`] another replayer stopped at
//!   ([`Replayer::snapshot`]) — the hand-off between chained shard jobs.
//!
//! ```
//! use arl_sim::TraceSource;
//! use arl_workloads::{workload, Scale};
//!
//! let spec = workload("go").unwrap();
//! let program = spec.build(Scale::tiny());
//!
//! // Execute once...
//! let trace = arl_trace::capture(&program, 1_000_000)?;
//!
//! // ...replay many times, bit-identically, at a fraction of the cost.
//! let mut replayer = arl_trace::Replayer::new(&trace, &program)?;
//! let mut mem_refs = 0u64;
//! while let Some(entry) = replayer.next_entry()? {
//!     mem_refs += entry.mem.is_some() as u64;
//! }
//! assert_eq!(trace.metrics().instructions, trace.event_count());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod codec;
mod format;
mod replay;

pub use codec::{container_checksum, fnv1a64};
pub use format::{SnapshotRecord, Trace, TraceEvent, VERSION};
pub use replay::{capture, capture_with, Replayer};
