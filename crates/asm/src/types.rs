//! Symbolic handles used while building programs.

use std::fmt;

/// A branch target inside a single function, created by
/// [`FunctionBuilder::new_label`](crate::FunctionBuilder::new_label) and
/// bound with [`FunctionBuilder::bind`](crate::FunctionBuilder::bind).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Label(pub(crate) usize);

/// A slot in the current function's stack frame (a local variable, spill
/// slot, or outgoing-argument area), identified by its byte offset from the
/// frame pointer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FrameSlot {
    pub(crate) offset: i16,
    pub(crate) size: u32,
}

impl FrameSlot {
    /// Byte offset of the slot from the frame pointer.
    pub fn offset(&self) -> i16 {
        self.offset
    }

    /// Size of the slot in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }
}

/// A named object in the data segment, created by
/// [`ProgramBuilder::global_zeroed`](crate::ProgramBuilder::global_zeroed) or
/// [`ProgramBuilder::global_bytes`](crate::ProgramBuilder::global_bytes).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct GlobalRef {
    pub(crate) offset: u64,
    pub(crate) size: u64,
}

impl GlobalRef {
    /// Byte offset of the object from the data-segment base.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Size of the object in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// What the compiler front end knows about the storage a memory instruction
/// touches — the inputs to the paper's Figure 6 `classify_mem` algorithm.
///
/// The program builder records one of these for every load/store it emits.
/// `arl-core::hints` turns it into a stack / non-stack / unknown tag exactly
/// as the paper's compiler algorithm would.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Provenance {
    /// Direct access to a local variable or spill slot (`is_local_var`).
    LocalVar,
    /// Access to a static/global object (`is_static_var`).
    StaticVar,
    /// Dereference of a pointer every definition of which traces to
    /// `malloc` (`point_to_nonstack` on all UD-chain defs).
    HeapBlock,
    /// Dereference of a pointer every definition of which traces to the
    /// address of a stack object (`point_to_stack` on all defs).
    PointsToStack,
    /// Dereference of a function parameter (`is_function_param`) — the
    /// compiler cannot classify it.
    FunctionParam,
    /// The UD chain mixes stack and non-stack definitions, or the analysis
    /// otherwise gives up.
    #[default]
    Mixed,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Provenance::LocalVar => "local",
            Provenance::StaticVar => "static",
            Provenance::HeapBlock => "heap",
            Provenance::PointsToStack => "points-to-stack",
            Provenance::FunctionParam => "param",
            Provenance::Mixed => "mixed",
        };
        f.write_str(s)
    }
}
