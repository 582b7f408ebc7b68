//! Instruction definitions.

use std::fmt;

use crate::reg::{Fpr, Gpr};

/// Size of one instruction word in bytes.
///
/// PISA uses 8-byte instructions; the paper's ARPT indexing ("15 bits of PC
/// above least-significant zeros") assumes this.
pub const INST_BYTES: u64 = 8;

/// Integer ALU operations (register-register and register-immediate forms).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Division (quotient); division by zero yields 0, as a trap-free model.
    Div,
    /// Remainder; remainder by zero yields the dividend.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift left (by low 6 bits of the second operand).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set-less-than, signed: `rd = (rs < rt) as i64`.
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
}

impl AluOp {
    pub(crate) const ALL: [AluOp; 13] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
    ];

    /// Mnemonic stem (`"add"`, `"slt"`, ...).
    pub(crate) const fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Floating-point ALU operations (double precision).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FAluOp {
    Add,
    Sub,
    Mul,
    Div,
    /// `fd = -fs` (ft ignored).
    Neg,
    /// `fd = |fs|` (ft ignored).
    Abs,
    /// `fd = sqrt(fs)` (ft ignored).
    Sqrt,
}

impl FAluOp {
    pub(crate) const ALL: [FAluOp; 7] = [
        FAluOp::Add,
        FAluOp::Sub,
        FAluOp::Mul,
        FAluOp::Div,
        FAluOp::Neg,
        FAluOp::Abs,
        FAluOp::Sqrt,
    ];

    /// Mnemonic stem.
    pub(crate) const fn mnemonic(self) -> &'static str {
        match self {
            FAluOp::Add => "add.d",
            FAluOp::Sub => "sub.d",
            FAluOp::Mul => "mul.d",
            FAluOp::Div => "div.d",
            FAluOp::Neg => "neg.d",
            FAluOp::Abs => "abs.d",
            FAluOp::Sqrt => "sqrt.d",
        }
    }
}

/// Floating-point comparisons producing a 0/1 integer result.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FCmpOp {
    Lt,
    Le,
    Eq,
}

impl FCmpOp {
    pub(crate) const ALL: [FCmpOp; 3] = [FCmpOp::Lt, FCmpOp::Le, FCmpOp::Eq];

    /// Mnemonic stem.
    pub(crate) const fn mnemonic(self) -> &'static str {
        match self {
            FCmpOp::Lt => "c.lt.d",
            FCmpOp::Le => "c.le.d",
            FCmpOp::Eq => "c.eq.d",
        }
    }
}

/// Branch conditions comparing two integer registers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Le,
    Gt,
}

impl BranchCond {
    pub(crate) const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Le,
        BranchCond::Gt,
    ];

    /// Mnemonic (`"beq"`, ...).
    pub(crate) const fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
            BranchCond::Le => "ble",
            BranchCond::Gt => "bgt",
        }
    }

    /// Evaluates the condition on two signed operands.
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
            BranchCond::Le => a <= b,
            BranchCond::Gt => a > b,
        }
    }
}

/// Memory access widths.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Width {
    /// 1 byte.
    Byte,
    /// 2 bytes.
    Half,
    /// 4 bytes.
    Word,
    /// 8 bytes.
    Double,
}

impl Width {
    pub(crate) const ALL: [Width; 4] = [Width::Byte, Width::Half, Width::Word, Width::Double];

    /// The width in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            Width::Byte => 1,
            Width::Half => 2,
            Width::Word => 4,
            Width::Double => 8,
        }
    }
}

/// Run-time system calls.
///
/// Arguments are passed in `$a0`..; results return in `$v0`, following the
/// MIPS convention.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Syscall {
    /// Terminate the program; exit code in `$a0`.
    Exit,
    /// Allocate `$a0` bytes on the heap; pointer (or 0) returned in `$v0`.
    Malloc,
    /// Free the heap block at `$a0`.
    Free,
    /// Emit the integer in `$a0` to the simulated output stream.
    PrintInt,
    /// Emit the low byte of `$a0` as a character to the output stream.
    PrintChar,
}

impl Syscall {
    pub(crate) const ALL: [Syscall; 5] = [
        Syscall::Exit,
        Syscall::Malloc,
        Syscall::Free,
        Syscall::PrintInt,
        Syscall::PrintChar,
    ];
}

/// One decoded instruction.
///
/// Branch and jump targets are absolute byte addresses (resolved by the
/// linker in `arl-asm`); they must be `< 2^32` to encode.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `rd = rs op rt`
    Alu {
        op: AluOp,
        rd: Gpr,
        rs: Gpr,
        rt: Gpr,
    },
    /// `rd = rs op imm` (imm is sign-extended from 16 bits)
    AluI {
        op: AluOp,
        rd: Gpr,
        rs: Gpr,
        imm: i16,
    },
    /// `rd = imm << 16`
    Lui { rd: Gpr, imm: u16 },
    /// `rd = mem[rs(base) + offset]`, zero- or sign-extended per `signed`.
    Load {
        width: Width,
        signed: bool,
        rd: Gpr,
        base: Gpr,
        offset: i16,
    },
    /// `mem[base + offset] = rs`
    Store {
        width: Width,
        rs: Gpr,
        base: Gpr,
        offset: i16,
    },
    /// `fd = mem[base + offset]` (8 bytes, f64)
    FLoad { fd: Fpr, base: Gpr, offset: i16 },
    /// `mem[base + offset] = fs` (8 bytes, f64)
    FStore { fs: Fpr, base: Gpr, offset: i16 },
    /// `fd = fs op ft`
    FAlu {
        op: FAluOp,
        fd: Fpr,
        fs: Fpr,
        ft: Fpr,
    },
    /// `rd = (fs cmp ft) as i64`
    FCmp {
        op: FCmpOp,
        rd: Gpr,
        fs: Fpr,
        ft: Fpr,
    },
    /// `fd = rs as f64`
    CvtIf { fd: Fpr, rs: Gpr },
    /// `rd = fs as i64` (truncating)
    CvtFi { rd: Gpr, fs: Fpr },
    /// Conditional branch to absolute `target`.
    Branch {
        cond: BranchCond,
        rs: Gpr,
        rt: Gpr,
        target: u64,
    },
    /// Unconditional jump to absolute `target`.
    Jump { target: u64 },
    /// Call: `$ra = pc + 8; pc = target`.
    Jal { target: u64 },
    /// Indirect jump (function return when `rs == $ra`).
    Jr { rs: Gpr },
    /// Indirect call: `rd = pc + 8; pc = rs`.
    Jalr { rd: Gpr, rs: Gpr },
    /// Run-time system call.
    Sys { call: Syscall },
    /// No operation.
    Nop,
}

/// Addressing information for a memory instruction, as visible to the
/// pre-decode logic (the static heuristics inspect exactly this).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemOpInfo {
    /// Base (index) register of the base+displacement addressing mode.
    pub base: Gpr,
    /// Signed displacement.
    pub offset: i16,
    /// Whether the instruction reads memory (`true`) or writes it (`false`).
    pub is_load: bool,
    /// Access width.
    pub width: Width,
}

impl Inst {
    /// Addressing-mode information if this is a memory instruction.
    #[inline]
    pub fn mem_op(&self) -> Option<MemOpInfo> {
        match *self {
            Inst::Load {
                width,
                rd: _,
                base,
                offset,
                ..
            } => Some(MemOpInfo {
                base,
                offset,
                is_load: true,
                width,
            }),
            Inst::Store {
                width,
                base,
                offset,
                ..
            } => Some(MemOpInfo {
                base,
                offset,
                is_load: false,
                width,
            }),
            Inst::FLoad { base, offset, .. } => Some(MemOpInfo {
                base,
                offset,
                is_load: true,
                width: Width::Double,
            }),
            Inst::FStore { base, offset, .. } => Some(MemOpInfo {
                base,
                offset,
                is_load: false,
                width: Width::Double,
            }),
            _ => None,
        }
    }

    /// Whether this instruction is a load or a store.
    pub fn is_mem(&self) -> bool {
        self.mem_op().is_some()
    }

    /// Whether this instruction is a load.
    pub fn is_load(&self) -> bool {
        self.mem_op().map(|m| m.is_load).unwrap_or(false)
    }

    /// Whether this instruction is a store.
    pub fn is_store(&self) -> bool {
        self.mem_op().map(|m| !m.is_load).unwrap_or(false)
    }

    /// General-purpose registers read by the instruction: writes the (at
    /// most two) source registers into `out` and returns how many, with
    /// `Gpr::ZERO` already filtered out.
    pub fn gpr_sources_into(&self, out: &mut [Gpr; 2]) -> usize {
        let mut n = 0;
        let mut push = |r: Gpr| {
            if r != Gpr::ZERO {
                out[n] = r;
                n += 1;
            }
        };
        match *self {
            Inst::Alu { rs, rt, .. } | Inst::Branch { rs, rt, .. } => {
                push(rs);
                push(rt);
            }
            Inst::AluI { rs, .. } | Inst::CvtIf { rs, .. } => push(rs),
            Inst::Load { base, .. } | Inst::FLoad { base, .. } | Inst::FStore { base, .. } => {
                push(base)
            }
            Inst::Store { rs, base, .. } => {
                push(rs);
                push(base);
            }
            Inst::Jr { rs } | Inst::Jalr { rs, .. } => push(rs),
            Inst::Sys { call } => match call {
                Syscall::Exit
                | Syscall::Malloc
                | Syscall::Free
                | Syscall::PrintInt
                | Syscall::PrintChar => push(Gpr::A0),
            },
            Inst::Lui { .. }
            | Inst::FAlu { .. }
            | Inst::FCmp { .. }
            | Inst::CvtFi { .. }
            | Inst::Jump { .. }
            | Inst::Jal { .. }
            | Inst::Nop => {}
        }
        n
    }

    /// General-purpose register written by the instruction, if any.
    #[inline]
    pub fn gpr_dest(&self) -> Option<Gpr> {
        let rd = match *self {
            Inst::Alu { rd, .. }
            | Inst::AluI { rd, .. }
            | Inst::Lui { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::FCmp { rd, .. }
            | Inst::CvtFi { rd, .. }
            | Inst::Jalr { rd, .. } => rd,
            Inst::Jal { .. } => Gpr::RA,
            Inst::Sys {
                call: Syscall::Malloc,
            } => Gpr::V0,
            _ => return None,
        };
        (rd != Gpr::ZERO).then_some(rd)
    }

    /// Floating-point registers read by the instruction: writes the (at
    /// most two) source registers into `out` and returns how many.
    pub fn fpr_sources_into(&self, out: &mut [Fpr; 2]) -> usize {
        match *self {
            Inst::FStore { fs, .. } | Inst::CvtFi { fs, .. } => {
                out[0] = fs;
                1
            }
            Inst::FAlu { op, fs, ft, .. } => match op {
                FAluOp::Neg | FAluOp::Abs | FAluOp::Sqrt => {
                    out[0] = fs;
                    1
                }
                _ => {
                    out[0] = fs;
                    out[1] = ft;
                    2
                }
            },
            Inst::FCmp { fs, ft, .. } => {
                out[0] = fs;
                out[1] = ft;
                2
            }
            _ => 0,
        }
    }

    /// Floating-point register written by the instruction, if any.
    pub fn fpr_dest(&self) -> Option<Fpr> {
        match *self {
            Inst::FLoad { fd, .. } | Inst::FAlu { fd, .. } | Inst::CvtIf { fd, .. } => Some(fd),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs, rt } => {
                write!(f, "{} {rd}, {rs}, {rt}", op.mnemonic())
            }
            Inst::AluI { op, rd, rs, imm } => {
                write!(f, "{}i {rd}, {rs}, {imm}", op.mnemonic())
            }
            Inst::Lui { rd, imm } => write!(f, "lui {rd}, {imm:#x}"),
            Inst::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                let m = match (width, signed) {
                    (Width::Byte, true) => "lb",
                    (Width::Byte, false) => "lbu",
                    (Width::Half, true) => "lh",
                    (Width::Half, false) => "lhu",
                    (Width::Word, true) => "lw",
                    (Width::Word, false) => "lwu",
                    (Width::Double, _) => "ld",
                };
                write!(f, "{m} {rd}, {offset}({base})")
            }
            Inst::Store {
                width,
                rs,
                base,
                offset,
            } => {
                let m = match width {
                    Width::Byte => "sb",
                    Width::Half => "sh",
                    Width::Word => "sw",
                    Width::Double => "sd",
                };
                write!(f, "{m} {rs}, {offset}({base})")
            }
            Inst::FLoad { fd, base, offset } => write!(f, "l.d {fd}, {offset}({base})"),
            Inst::FStore { fs, base, offset } => write!(f, "s.d {fs}, {offset}({base})"),
            Inst::FAlu { op, fd, fs, ft } => {
                write!(f, "{} {fd}, {fs}, {ft}", op.mnemonic())
            }
            Inst::FCmp { op, rd, fs, ft } => {
                write!(f, "{} {rd}, {fs}, {ft}", op.mnemonic())
            }
            Inst::CvtIf { fd, rs } => write!(f, "cvt.d.l {fd}, {rs}"),
            Inst::CvtFi { rd, fs } => write!(f, "cvt.l.d {rd}, {fs}"),
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => write!(f, "{} {rs}, {rt}, {target:#x}", cond.mnemonic()),
            Inst::Jump { target } => write!(f, "j {target:#x}"),
            Inst::Jal { target } => write!(f, "jal {target:#x}"),
            Inst::Jr { rs } => write!(f, "jr {rs}"),
            Inst::Jalr { rd, rs } => write!(f, "jalr {rd}, {rs}"),
            Inst::Sys { call } => write!(f, "syscall {call:?}"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_op_extraction() {
        let lw = Inst::Load {
            width: Width::Word,
            signed: true,
            rd: Gpr::T0,
            base: Gpr::SP,
            offset: 16,
        };
        let info = lw.mem_op().expect("load has mem op");
        assert!(info.is_load);
        assert_eq!(info.base, Gpr::SP);
        assert_eq!(info.offset, 16);
        assert_eq!(info.width.bytes(), 4);
        assert!(lw.is_load() && !lw.is_store());

        let add = Inst::Alu {
            op: AluOp::Add,
            rd: Gpr::T0,
            rs: Gpr::T1,
            rt: Gpr::T2,
        };
        assert!(add.mem_op().is_none());
        assert!(!add.is_mem());
    }

    #[test]
    fn sources_skip_zero_register() {
        let add = Inst::Alu {
            op: AluOp::Add,
            rd: Gpr::T0,
            rs: Gpr::ZERO,
            rt: Gpr::T2,
        };
        assert_eq!(gprs(add), vec![Gpr::T2]);
    }

    fn gprs(inst: Inst) -> Vec<Gpr> {
        let mut out = [Gpr::ZERO; 2];
        let n = inst.gpr_sources_into(&mut out);
        out[..n].to_vec()
    }

    fn fprs(inst: Inst) -> Vec<Fpr> {
        let mut out = [Fpr::F0; 2];
        let n = inst.fpr_sources_into(&mut out);
        out[..n].to_vec()
    }

    /// Both timing cores take their dependencies from these two calls, so
    /// the event == legacy differential cannot see a wrong source list:
    /// pin every variant's GPR and FPR sources here.
    #[test]
    fn sources_of_every_variant() {
        use Gpr as G;
        let (f1, f2, f3) = (Fpr::F1, Fpr::F2, Fpr::F3);
        let cases: Vec<(Inst, Vec<Gpr>, Vec<Fpr>)> = vec![
            (
                Inst::Alu {
                    op: AluOp::Mul,
                    rd: G::T0,
                    rs: G::T1,
                    rt: G::T2,
                },
                vec![G::T1, G::T2],
                vec![],
            ),
            (
                Inst::AluI {
                    op: AluOp::Add,
                    rd: G::T0,
                    rs: G::SP,
                    imm: -8,
                },
                vec![G::SP],
                vec![],
            ),
            (Inst::Lui { rd: G::T0, imm: 7 }, vec![], vec![]),
            (
                Inst::Load {
                    width: Width::Word,
                    signed: true,
                    rd: G::T0,
                    base: G::GP,
                    offset: 4,
                },
                vec![G::GP],
                vec![],
            ),
            // A store reads its data register before its base.
            (
                Inst::Store {
                    width: Width::Byte,
                    rs: G::T3,
                    base: G::FP,
                    offset: 0,
                },
                vec![G::T3, G::FP],
                vec![],
            ),
            (
                Inst::FLoad {
                    fd: f1,
                    base: G::T4,
                    offset: 8,
                },
                vec![G::T4],
                vec![],
            ),
            (
                Inst::FStore {
                    fs: f3,
                    base: G::SP,
                    offset: 8,
                },
                vec![G::SP],
                vec![f3],
            ),
            (
                Inst::FCmp {
                    op: FCmpOp::Le,
                    rd: G::T0,
                    fs: f1,
                    ft: f2,
                },
                vec![],
                vec![f1, f2],
            ),
            (Inst::CvtIf { fd: f1, rs: G::T5 }, vec![G::T5], vec![]),
            (Inst::CvtFi { rd: G::T0, fs: f2 }, vec![], vec![f2]),
            (
                Inst::Branch {
                    cond: BranchCond::Ne,
                    rs: G::S0,
                    rt: G::S1,
                    target: 0x40,
                },
                vec![G::S0, G::S1],
                vec![],
            ),
            (Inst::Jump { target: 0x40 }, vec![], vec![]),
            (Inst::Jal { target: 0x40 }, vec![], vec![]),
            (Inst::Jr { rs: G::RA }, vec![G::RA], vec![]),
            (
                Inst::Jalr {
                    rd: G::RA,
                    rs: G::T9,
                },
                vec![G::T9],
                vec![],
            ),
            (Inst::Nop, vec![], vec![]),
            // `$zero` is never a dependency, in any operand position.
            (
                Inst::Alu {
                    op: AluOp::Add,
                    rd: G::T0,
                    rs: G::ZERO,
                    rt: G::T2,
                },
                vec![G::T2],
                vec![],
            ),
            (
                Inst::Store {
                    width: Width::Double,
                    rs: G::ZERO,
                    base: G::SP,
                    offset: 0,
                },
                vec![G::SP],
                vec![],
            ),
            (
                Inst::Load {
                    width: Width::Double,
                    signed: false,
                    rd: G::T0,
                    base: G::ZERO,
                    offset: 0,
                },
                vec![],
                vec![],
            ),
            (
                Inst::Branch {
                    cond: BranchCond::Eq,
                    rs: G::ZERO,
                    rt: G::ZERO,
                    target: 0,
                },
                vec![],
                vec![],
            ),
            (Inst::Jr { rs: G::ZERO }, vec![], vec![]),
        ];
        let syscalls = Syscall::ALL
            .iter()
            .map(|&call| (Inst::Sys { call }, vec![G::A0], vec![]));
        let falus = FAluOp::ALL.iter().map(|&op| {
            let unary = matches!(op, FAluOp::Neg | FAluOp::Abs | FAluOp::Sqrt);
            let fpr = if unary { vec![f1] } else { vec![f1, f2] };
            (
                Inst::FAlu {
                    op,
                    fd: Fpr::F0,
                    fs: f1,
                    ft: f2,
                },
                vec![],
                fpr,
            )
        });
        for (inst, gpr, fpr) in cases.into_iter().chain(syscalls).chain(falus) {
            assert_eq!(gprs(inst), gpr, "GPR sources of {inst}");
            assert_eq!(fprs(inst), fpr, "FPR sources of {inst}");
        }
    }

    #[test]
    fn dest_of_zero_register_is_none() {
        let add = Inst::AluI {
            op: AluOp::Add,
            rd: Gpr::ZERO,
            rs: Gpr::T1,
            imm: 1,
        };
        assert_eq!(add.gpr_dest(), None);
    }

    #[test]
    fn jal_writes_ra_and_malloc_writes_v0() {
        assert_eq!(Inst::Jal { target: 0x400000 }.gpr_dest(), Some(Gpr::RA));
        assert_eq!(
            Inst::Sys {
                call: Syscall::Malloc
            }
            .gpr_dest(),
            Some(Gpr::V0)
        );
    }

    #[test]
    fn branch_cond_eval() {
        assert!(BranchCond::Lt.eval(-1, 0));
        assert!(!BranchCond::Gt.eval(-1, 0));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Ge.eval(4, 4));
        assert!(BranchCond::Le.eval(4, 4));
        assert!(BranchCond::Eq.eval(4, 4));
    }

    #[test]
    fn fp_unary_ops_read_one_source() {
        let neg = Inst::FAlu {
            op: FAluOp::Neg,
            fd: Fpr::F0,
            fs: Fpr::F1,
            ft: Fpr::F2,
        };
        assert_eq!(fprs(neg), vec![Fpr::F1]);
        let add = Inst::FAlu {
            op: FAluOp::Add,
            fd: Fpr::F0,
            fs: Fpr::F1,
            ft: Fpr::F2,
        };
        assert_eq!(fprs(add), vec![Fpr::F1, Fpr::F2]);
    }

    #[test]
    fn display_formats() {
        let lw = Inst::Load {
            width: Width::Word,
            signed: true,
            rd: Gpr::T0,
            base: Gpr::SP,
            offset: -8,
        };
        assert_eq!(lw.to_string(), "lw $t0, -8($sp)");
        assert_eq!(Inst::Nop.to_string(), "nop");
    }
}
