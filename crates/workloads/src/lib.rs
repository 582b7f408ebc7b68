//! # arl-workloads — synthetic SPEC95-analog programs
//!
//! The paper evaluates on eight SPECint95 and four SPECfp95 programs
//! (Table 1). Those binaries (and the EGCS-for-PISA toolchain that built
//! them) are not available, so this crate provides twelve *synthetic
//! analogs* — real programs for the simulated ISA, written through the
//! `arl-asm` builder, each structured to reproduce its namesake's
//! memory-region signature:
//!
//! | analog | modeled after | character |
//! |---|---|---|
//! | `go` | 099.go | global board/pattern arrays + recursive search; no heap |
//! | `m88ksim` | 124.m88ksim | CPU simulator: global register/memory arrays, heap trace log, pointer params hitting multiple regions |
//! | `gcc` | 126.gcc | tokenizer + heap AST + recursive folding; stack-heavy |
//! | `compress` | 129.compress | tight LZW-style loop over global tables; data-dominant |
//! | `li` | 130.li | cons-cell interpreter: heap lists + deep recursion |
//! | `ijpeg` | 132.ijpeg | heap image, stack block buffers, bursty phases |
//! | `perl` | 134.perl | string hashing into heap chains; call-dense |
//! | `vortex` | 147.vortex | object store with validation copies; very stack-heavy |
//! | `tomcatv` | 101.tomcatv | FP mesh relaxation on global arrays + small heap scratch |
//! | `swim` | 102.swim | FP shallow-water stencils; no heap |
//! | `su2cor` | 103.su2cor | FP lattice sweeps; trace of heap |
//! | `mgrid` | 107.mgrid | FP multigrid; data-dominant |
//!
//! The signatures *emerge* from program structure (frames, recursion,
//! `malloc`, global arrays, pointer parameters) exactly as they do in the C
//! originals — no access is ever labelled by fiat.
//!
//! ```
//! use arl_workloads::{suite, Scale};
//!
//! let workloads = suite();
//! assert_eq!(workloads.len(), 12);
//! let program = workloads[0].build(Scale::tiny());
//! assert!(program.inst_at(program.entry_pc()).is_some());
//! ```

mod common;
mod compress;
mod gcc;
mod go;
mod ijpeg;
mod li;
mod m88ksim;
mod mgrid;
mod perl;
mod su2cor;
mod suite;
mod swim;
mod tomcatv;
mod vortex;

pub use suite::{suite, workload, Scale, WorkloadSpec};
