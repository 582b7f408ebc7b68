//! Register names and software roles.

use std::fmt;

/// A general-purpose register, `r0`–`r31`.
///
/// The software roles mirror the MIPS o32 convention that SimpleScalar's PISA
/// inherits. The paper's static region heuristics key off [`Gpr::ZERO`]
/// (constant addressing), [`Gpr::SP`] / [`Gpr::FP`] (stack addressing) and
/// [`Gpr::GP`] (global/data addressing); the caller-identification context
/// reads [`Gpr::RA`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Gpr(u8);

impl Gpr {
    /// Hard-wired zero register; doubles as the "constant addressing" base.
    pub const ZERO: Gpr = Gpr(0);
    /// Assembler temporary.
    pub const AT: Gpr = Gpr(1);
    /// Function result register.
    pub const V0: Gpr = Gpr(2);
    /// Argument registers.
    pub const A0: Gpr = Gpr(4);
    pub const A1: Gpr = Gpr(5);
    pub const A2: Gpr = Gpr(6);
    pub const A3: Gpr = Gpr(7);
    /// Caller-saved temporaries.
    pub const T0: Gpr = Gpr(8);
    pub const T1: Gpr = Gpr(9);
    pub const T2: Gpr = Gpr(10);
    pub const T3: Gpr = Gpr(11);
    pub const T4: Gpr = Gpr(12);
    pub const T5: Gpr = Gpr(13);
    pub const T6: Gpr = Gpr(14);
    pub const T7: Gpr = Gpr(15);
    /// Callee-saved registers.
    pub const S0: Gpr = Gpr(16);
    pub const S1: Gpr = Gpr(17);
    pub const S2: Gpr = Gpr(18);
    pub const S3: Gpr = Gpr(19);
    pub const S4: Gpr = Gpr(20);
    pub const S5: Gpr = Gpr(21);
    pub const S6: Gpr = Gpr(22);
    pub const S7: Gpr = Gpr(23);
    /// More caller-saved temporaries.
    pub const T8: Gpr = Gpr(24);
    pub const T9: Gpr = Gpr(25);
    /// Global pointer: base register for data-segment accesses.
    pub const GP: Gpr = Gpr(28);
    /// Stack pointer.
    pub const SP: Gpr = Gpr(29);
    /// Frame pointer.
    pub const FP: Gpr = Gpr(30);
    /// Return address (link register).
    pub const RA: Gpr = Gpr(31);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub const fn new(index: u8) -> Gpr {
        assert!(index < 32, "GPR index out of range");
        Gpr(index)
    }

    /// The register's index, `0..32`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    const NAMES: [&'static str; 32] = [
        "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3", "t0", "t1", "t2", "t3", "t4", "t5", "t6",
        "t7", "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "t8", "t9", "k0", "k1", "gp", "sp",
        "fp", "ra",
    ];

    /// The conventional assembler name (`"sp"`, `"t0"`, ...).
    pub(crate) const fn name(self) -> &'static str {
        Self::NAMES[self.0 as usize]
    }
}

impl fmt::Debug for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.name())
    }
}

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.name())
    }
}

/// A double-precision floating-point register, `f0`–`f31`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fpr(u8);

impl Fpr {
    /// FP result register.
    pub const F0: Fpr = Fpr(0);
    pub const F1: Fpr = Fpr(1);
    pub const F2: Fpr = Fpr(2);
    pub const F3: Fpr = Fpr(3);
    pub const F4: Fpr = Fpr(4);
    pub const F5: Fpr = Fpr(5);
    pub const F6: Fpr = Fpr(6);
    pub const F7: Fpr = Fpr(7);
    pub const F8: Fpr = Fpr(8);
    pub const F9: Fpr = Fpr(9);
    pub const F10: Fpr = Fpr(10);
    pub const F11: Fpr = Fpr(11);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    pub const fn new(index: u8) -> Fpr {
        assert!(index < 32, "FPR index out of range");
        Fpr(index)
    }

    /// The register's index, `0..32`.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$f{}", self.0)
    }
}

impl fmt::Display for Fpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_have_expected_indices() {
        assert_eq!(Gpr::ZERO.index(), 0);
        assert_eq!(Gpr::GP.index(), 28);
        assert_eq!(Gpr::SP.index(), 29);
        assert_eq!(Gpr::FP.index(), 30);
        assert_eq!(Gpr::RA.index(), 31);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = (0..32).map(|i| Gpr(i).name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 32);
    }

    #[test]
    #[should_panic(expected = "GPR index out of range")]
    fn new_rejects_out_of_range() {
        let _ = Gpr::new(32);
    }

    #[test]
    fn display_matches_convention() {
        assert_eq!(Gpr::SP.to_string(), "$sp");
        assert_eq!(Fpr::F3.to_string(), "$f3");
    }
}
