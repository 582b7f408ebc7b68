//! # arl — Access Region Locality
//!
//! A from-scratch Rust reproduction of *"Access Region Locality for
//! High-Bandwidth Processor Memory System Design"* (Cho, Yew, Lee,
//! MICRO-32, 1999): the access-region predictor (ARPT), the data-decoupled
//! memory pipeline it drives, and the full simulation stack the paper's
//! evaluation needs — ISA, assembler, functional simulator, profilers,
//! cycle-level out-of-order timing model, and twelve SPEC95-analog
//! workloads.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`isa`] | `arl-isa` | registers, instructions, encoding |
//! | [`mem`] | `arl-mem` | layout, regions, memory image, allocator |
//! | [`asm`] | `arl-asm` | program builder & linker |
//! | [`sim`] | `arl-sim` | functional simulator & profilers |
//! | [`trace`] | `arl-trace` | binary trace capture & replay |
//! | [`core`] | `arl-core` | static heuristics, ARPT, hints, evaluator |
//! | [`timing`] | `arl-timing` | cycle-level data-decoupled pipeline |
//! | [`workloads`] | `arl-workloads` | the 12 synthetic SPEC95 analogs |
//! | [`stats`] | `arl-stats` | moments, tables, charts |
//!
//! ## Quickstart
//!
//! ```
//! use arl::sim::Machine;
//! use arl::core::{Arpt, Capacity, Context, CounterScheme};
//! use arl::workloads::{workload, Scale};
//!
//! // Build a workload, run it, and measure ARPT accuracy on the fly.
//! let program = workload("li").unwrap().build(Scale::tiny());
//! let mut machine = Machine::new(&program);
//! let mut arpt = Arpt::new(CounterScheme::OneBit, Context::None, Capacity::Entries(1 << 15));
//! let (mut correct, mut total) = (0u64, 0u64);
//! machine.run_with(10_000_000, |entry| {
//!     if let Some(mem) = entry.mem {
//!         let predicted = arpt.predict(entry.pc, entry.ghr, entry.ra);
//!         arpt.update(entry.pc, entry.ghr, entry.ra, mem.is_stack());
//!         total += 1;
//!         correct += (predicted == mem.is_stack()) as u64;
//!     }
//! })?;
//! assert!(correct as f64 / total as f64 > 0.9);
//! # Ok::<(), arl::sim::ExecError>(())
//! ```

pub use arl_asm as asm;
pub use arl_core as core;
pub use arl_isa as isa;
pub use arl_mem as mem;
pub use arl_sim as sim;
pub use arl_stats as stats;
pub use arl_timing as timing;
pub use arl_trace as trace;
pub use arl_workloads as workloads;
