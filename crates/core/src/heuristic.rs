//! Static addressing-mode heuristics (paper Section 3.4.1).

use arl_isa::{Gpr, MemOpInfo};

/// What the addressing mode of a memory instruction reveals, per the
/// paper's "Static Prediction" rules:
///
/// 1. constant addressing (`$zero` base) → non-stack;
/// 2. `$sp` / `$fp` base → stack;
/// 3. `$gp` base → non-stack;
/// 4. any other base register → the region is not revealed
///    ([`StaticHint::Dynamic`]); predict non-stack or consult the ARPT.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum StaticHint {
    /// The addressing mode proves a stack access.
    Stack,
    /// The addressing mode proves a non-stack access.
    NonStack,
    /// The addressing mode reveals nothing; dynamic prediction required.
    Dynamic,
}

/// Applies the paper's four static-prediction rules to a memory
/// instruction's addressing information.
pub fn static_hint(mem: &MemOpInfo) -> StaticHint {
    match mem.base {
        Gpr::ZERO => StaticHint::NonStack, // rule 1: constant addressing
        Gpr::SP | Gpr::FP => StaticHint::Stack, // rule 2
        Gpr::GP => StaticHint::NonStack,   // rule 3
        _ => StaticHint::Dynamic,          // rule 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arl_isa::Width;

    fn mem(base: Gpr) -> MemOpInfo {
        MemOpInfo {
            base,
            offset: 0,
            is_load: true,
            width: Width::Double,
        }
    }

    #[test]
    fn rules_match_paper() {
        assert_eq!(static_hint(&mem(Gpr::ZERO)), StaticHint::NonStack);
        assert_eq!(static_hint(&mem(Gpr::SP)), StaticHint::Stack);
        assert_eq!(static_hint(&mem(Gpr::FP)), StaticHint::Stack);
        assert_eq!(static_hint(&mem(Gpr::GP)), StaticHint::NonStack);
        assert_eq!(static_hint(&mem(Gpr::T0)), StaticHint::Dynamic);
        assert_eq!(static_hint(&mem(Gpr::A0)), StaticHint::Dynamic);
    }
}
