//! # arl-asm — programmatic assembler and linker
//!
//! Workloads are written as Rust code that *builds* programs for the
//! simulated ISA, the way a C compiler would: named functions with stack
//! frames, callee-saved registers, globals in the data segment, `malloc`
//! for heap storage, and calls following the MIPS-style convention
//! (`$a0..$a3` arguments, `$v0` result, `$ra` link).
//!
//! Because the builder plays the role of the compiler front end, it records
//! for every memory instruction what the compiler would know about the
//! accessed storage — a [`Provenance`] — which feeds the Figure 6
//! `classify_mem` analysis in `arl-core` (the "compiler hints" of
//! Section 3.5.2).
//!
//! ```
//! use arl_asm::{FunctionBuilder, ProgramBuilder};
//! use arl_isa::Gpr;
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = FunctionBuilder::new("main");
//! let x = f.local(8);
//! f.li(Gpr::T0, 41);
//! f.addi(Gpr::T0, Gpr::T0, 1);
//! f.store_local(Gpr::T0, x, 0);   // a stack access
//! f.load_local(Gpr::A0, x, 0);
//! f.print_int(Gpr::A0);
//! pb.add_function(f);
//! let program = pb.link("main").expect("link");
//! assert!(program.text_len() > 0);
//! ```

mod func;
mod program;
mod types;

pub use func::FunctionBuilder;
pub use program::{LinkError, Program, ProgramBuilder};
pub use types::{FrameSlot, GlobalRef, Label, Provenance};
