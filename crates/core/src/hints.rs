//! Compiler hints (paper Section 3.5.2, Figure 6).
//!
//! "This section studies the effects of augmenting each static memory
//! instruction with a tag that indicates if it is a stack access, a
//! non-stack access, or that the compiler can not distinguish."
//!
//! Two hint sources are provided, matching the paper:
//!
//! * [`HintTable::from_program`] — the Figure 6 static analysis
//!   (`classify_mem`), computed over the storage-class knowledge
//!   ([`Provenance`]) the program builder records (the builder plays the
//!   role of the compiler front end).
//! * [`HintTable::from_profile`] — profile-derived tags, the paper's upper
//!   bound: "we used profiled region information gathered from program
//!   runs... an instruction can be classified by a compiler if it is shown
//!   to access only a single region".

use std::collections::HashMap;

use arl_asm::{Program, Provenance};
use arl_mem::RegionSet;
use arl_sim::RegionProfiler;

/// A per-instruction compiler tag: `MT_STACK`, `MT_NONSTACK`, or
/// `MT_UNKNOWN` in the paper's Figure 6 vocabulary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum MemHint {
    /// The instruction always accesses the stack.
    Stack,
    /// The instruction never accesses the stack.
    NonStack,
    /// The compiler cannot tell; fall through to dynamic prediction.
    Unknown,
}

impl MemHint {
    /// Whether the tag is definite (bypasses the predictor).
    pub(crate) fn is_definite(self) -> bool {
        self != MemHint::Unknown
    }
}

/// The Figure 6 `classify_mem` algorithm over the builder's storage-class
/// knowledge:
///
/// ```text
/// if (is_local_var)            return MT_STACK;
/// if (is_static_var)           return MT_NONSTACK;
/// for defs in UD-chain:        // summarized by Provenance
///   function param → UNKNOWN; mixed → UNKNOWN;
///   all point to stack → STACK; all point to non-stack → NONSTACK.
/// ```
pub(crate) fn classify_mem(prov: Provenance) -> MemHint {
    match prov {
        Provenance::LocalVar | Provenance::PointsToStack => MemHint::Stack,
        Provenance::StaticVar | Provenance::HeapBlock => MemHint::NonStack,
        Provenance::FunctionParam | Provenance::Mixed => MemHint::Unknown,
    }
}

/// Per-pc hint tags from either the static Figure 6 analysis or a profile.
#[derive(Clone, Debug, Default)]
pub struct HintTable {
    tags: HashMap<u64, MemHint>,
}

impl HintTable {
    /// Builds hints by running `classify_mem` over every static memory
    /// instruction of a linked program (the realizable compiler analysis).
    pub fn from_program(program: &Program) -> HintTable {
        let tags = program
            .static_mem_instructions()
            .map(|(pc, _info, prov)| (pc, classify_mem(prov)))
            .collect();
        HintTable { tags }
    }

    /// Builds hints from a finished profiling run (the paper's idealized
    /// upper bound).
    pub fn from_profile(profile: &RegionProfiler) -> HintTable {
        let tags = profile
            .iter()
            .map(|(pc, set, _count)| (pc, Self::tag_for(set)))
            .collect();
        HintTable { tags }
    }

    /// The tag a region set collapses to: definite when the instruction
    /// stayed on one side of the stack / non-stack divide (`D`, `H` and
    /// `D/H` are all non-stack; only sets touching both sides are unknown).
    pub(crate) fn tag_for(set: RegionSet) -> MemHint {
        match (set.touches_stack(), set.touches_non_stack()) {
            (true, false) => MemHint::Stack,
            (false, true) => MemHint::NonStack,
            _ => MemHint::Unknown,
        }
    }

    /// The hint for the instruction at `pc` (`Unknown` when untagged).
    pub(crate) fn hint(&self, pc: u64) -> MemHint {
        self.tags.get(&pc).copied().unwrap_or(MemHint::Unknown)
    }

    /// Number of definite tags.
    pub fn definite_count(&self) -> usize {
        self.tags.values().filter(|t| t.is_definite()).count()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use arl_mem::Region;

    #[test]
    fn figure6_mapping() {
        assert_eq!(classify_mem(Provenance::LocalVar), MemHint::Stack);
        assert_eq!(classify_mem(Provenance::PointsToStack), MemHint::Stack);
        assert_eq!(classify_mem(Provenance::StaticVar), MemHint::NonStack);
        assert_eq!(classify_mem(Provenance::HeapBlock), MemHint::NonStack);
        assert_eq!(classify_mem(Provenance::FunctionParam), MemHint::Unknown);
        assert_eq!(classify_mem(Provenance::Mixed), MemHint::Unknown);
    }

    #[test]
    fn tag_for_region_sets() {
        assert_eq!(
            HintTable::tag_for(RegionSet::only(Region::Stack)),
            MemHint::Stack
        );
        assert_eq!(
            HintTable::tag_for(RegionSet::only(Region::Data)),
            MemHint::NonStack
        );
        // D/H stays non-stack even though it is multi-region.
        let dh: RegionSet = [Region::Data, Region::Heap].into_iter().collect();
        assert_eq!(HintTable::tag_for(dh), MemHint::NonStack);
        // D/S crosses the divide.
        let ds: RegionSet = [Region::Data, Region::Stack].into_iter().collect();
        assert_eq!(HintTable::tag_for(ds), MemHint::Unknown);
        assert_eq!(HintTable::tag_for(RegionSet::EMPTY), MemHint::Unknown);
    }

    #[test]
    fn unseen_pc_is_unknown() {
        let h = HintTable::default();
        assert!(h.tags.is_empty());
        assert_eq!(h.hint(0x40_0000), MemHint::Unknown);
        assert_eq!(h.definite_count(), 0);
    }

    #[test]
    fn from_program_tags_every_mem_instruction() {
        use arl_asm::{FunctionBuilder, ProgramBuilder};
        use arl_isa::Gpr;
        let mut pb = ProgramBuilder::new();
        let g = pb.global_zeroed("g", 8);
        let mut f = FunctionBuilder::new("main");
        let slot = f.local(8);
        f.store_local(Gpr::T0, slot, 0);
        f.load_global(Gpr::T1, g, 0);
        f.load_ptr(Gpr::T2, Gpr::A0, 0, Provenance::FunctionParam);
        pb.add_function(f);
        let p = pb.link("main").unwrap();
        let hints = HintTable::from_program(&p);
        let mem_count = p.static_mem_instructions().count();
        assert_eq!(hints.tags.len(), mem_count);
        // The param deref is the only unknown among the body accesses;
        // prologue/epilogue spills are all definite stack tags.
        assert_eq!(hints.definite_count(), mem_count - 1);
    }
}
