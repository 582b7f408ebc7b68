//! Binary encoding of instructions into 64-bit words.
//!
//! The encoding is a fixed-field format:
//!
//! ```text
//!  63      56 55     48 47     40 39     32 31                      0
//! +----------+---------+---------+---------+-------------------------+
//! |  opcode  |    a    |    b    |    c    |          imm            |
//! +----------+---------+---------+---------+-------------------------+
//! ```
//!
//! `a`/`b`/`c` carry register numbers or small sub-op selectors; `imm`
//! carries 16-bit displacements (in its low half) or 32-bit absolute branch
//! targets. Every [`Inst`] round-trips losslessly through
//! [`encode`]/[`decode`], which the property tests verify.

use std::error::Error;
use std::fmt;

use crate::inst::{AluOp, BranchCond, FAluOp, FCmpOp, Inst, Syscall, Width};
use crate::reg::{Fpr, Gpr};

mod op {
    pub(crate) const NOP: u8 = 0;
    pub(super) const ALU: u8 = 1;
    pub(crate) const ALUI: u8 = 2;
    pub(crate) const LUI: u8 = 3;
    pub(crate) const LOAD: u8 = 4;
    pub(crate) const STORE: u8 = 5;
    pub(crate) const FLOAD: u8 = 6;
    pub(crate) const FSTORE: u8 = 7;
    pub(crate) const FALU: u8 = 8;
    pub(crate) const FCMP: u8 = 9;
    pub(crate) const CVT_IF: u8 = 10;
    pub(crate) const CVT_FI: u8 = 11;
    pub(crate) const BRANCH: u8 = 12;
    pub(crate) const JUMP: u8 = 13;
    pub(crate) const JAL: u8 = 14;
    pub(crate) const JR: u8 = 15;
    pub(crate) const JALR: u8 = 16;
    pub(crate) const SYS: u8 = 17;
}

/// An instruction word that could not be decoded.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError {
    word: u64,
    reason: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode {:#018x}: {}", self.word, self.reason)
    }
}

impl Error for DecodeError {}

fn pack(opcode: u8, a: u8, b: u8, c: u8, imm: u32) -> u64 {
    (opcode as u64) << 56 | (a as u64) << 48 | (b as u64) << 40 | (c as u64) << 32 | imm as u64
}

fn imm_i16(imm: i16) -> u32 {
    imm as u16 as u32
}

/// Encodes an instruction into its 64-bit word.
///
/// # Panics
///
/// Panics if a branch/jump target does not fit in 32 bits (the linker in
/// `arl-asm` never produces such a target).
pub fn encode(inst: &Inst) -> u64 {
    let target32 =
        |t: u64| -> u32 { u32::try_from(t).expect("branch/jump target must fit in 32 bits") };
    match *inst {
        Inst::Nop => pack(op::NOP, 0, 0, 0, 0),
        Inst::Alu { op, rd, rs, rt } => pack(
            op::ALU,
            rd.index() as u8,
            rs.index() as u8,
            rt.index() as u8,
            alu_code(op) as u32,
        ),
        Inst::AluI { op, rd, rs, imm } => pack(
            op::ALUI,
            rd.index() as u8,
            rs.index() as u8,
            alu_code(op),
            imm_i16(imm),
        ),
        Inst::Lui { rd, imm } => pack(op::LUI, rd.index() as u8, 0, 0, imm as u32),
        Inst::Load {
            width,
            signed,
            rd,
            base,
            offset,
        } => pack(
            op::LOAD,
            rd.index() as u8,
            base.index() as u8,
            width_code(width) << 1 | signed as u8,
            imm_i16(offset),
        ),
        Inst::Store {
            width,
            rs,
            base,
            offset,
        } => pack(
            op::STORE,
            rs.index() as u8,
            base.index() as u8,
            width_code(width),
            imm_i16(offset),
        ),
        Inst::FLoad { fd, base, offset } => pack(
            op::FLOAD,
            fd.index() as u8,
            base.index() as u8,
            0,
            imm_i16(offset),
        ),
        Inst::FStore { fs, base, offset } => pack(
            op::FSTORE,
            fs.index() as u8,
            base.index() as u8,
            0,
            imm_i16(offset),
        ),
        Inst::FAlu { op, fd, fs, ft } => pack(
            op::FALU,
            fd.index() as u8,
            fs.index() as u8,
            ft.index() as u8,
            falu_code(op) as u32,
        ),
        Inst::FCmp { op, rd, fs, ft } => pack(
            op::FCMP,
            rd.index() as u8,
            fs.index() as u8,
            ft.index() as u8,
            fcmp_code(op) as u32,
        ),
        Inst::CvtIf { fd, rs } => pack(op::CVT_IF, fd.index() as u8, rs.index() as u8, 0, 0),
        Inst::CvtFi { rd, fs } => pack(op::CVT_FI, rd.index() as u8, fs.index() as u8, 0, 0),
        Inst::Branch {
            cond,
            rs,
            rt,
            target,
        } => pack(
            op::BRANCH,
            cond_code(cond),
            rs.index() as u8,
            rt.index() as u8,
            target32(target),
        ),
        Inst::Jump { target } => pack(op::JUMP, 0, 0, 0, target32(target)),
        Inst::Jal { target } => pack(op::JAL, 0, 0, 0, target32(target)),
        Inst::Jr { rs } => pack(op::JR, 0, rs.index() as u8, 0, 0),
        Inst::Jalr { rd, rs } => pack(op::JALR, rd.index() as u8, rs.index() as u8, 0, 0),
        Inst::Sys { call } => pack(op::SYS, sys_code(call), 0, 0, 0),
    }
}

/// Decodes a 64-bit word back into an instruction.
///
/// # Errors
///
/// Returns a [`DecodeError`] if the opcode or any sub-field is not a valid
/// encoding.
pub fn decode(word: u64) -> Result<Inst, DecodeError> {
    let opcode = (word >> 56) as u8;
    let a = (word >> 48) as u8;
    let b = (word >> 40) as u8;
    let c = (word >> 32) as u8;
    let imm = word as u32;
    let err = |reason| DecodeError { word, reason };
    let gpr = |idx: u8| {
        if idx < 32 {
            Ok(Gpr::new(idx))
        } else {
            Err(err("GPR index out of range"))
        }
    };
    let fpr = |idx: u8| {
        if idx < 32 {
            Ok(Fpr::new(idx))
        } else {
            Err(err("FPR index out of range"))
        }
    };
    let off = imm as u16 as i16;
    Ok(match opcode {
        op::NOP => Inst::Nop,
        op::ALU => Inst::Alu {
            op: alu_from(imm as u8).ok_or_else(|| err("bad ALU sub-op"))?,
            rd: gpr(a)?,
            rs: gpr(b)?,
            rt: gpr(c)?,
        },
        op::ALUI => Inst::AluI {
            op: alu_from(c).ok_or_else(|| err("bad ALU sub-op"))?,
            rd: gpr(a)?,
            rs: gpr(b)?,
            imm: off,
        },
        op::LUI => Inst::Lui {
            rd: gpr(a)?,
            imm: imm as u16,
        },
        op::LOAD => Inst::Load {
            width: width_from(c >> 1).ok_or_else(|| err("bad width"))?,
            signed: c & 1 != 0,
            rd: gpr(a)?,
            base: gpr(b)?,
            offset: off,
        },
        op::STORE => Inst::Store {
            width: width_from(c).ok_or_else(|| err("bad width"))?,
            rs: gpr(a)?,
            base: gpr(b)?,
            offset: off,
        },
        op::FLOAD => Inst::FLoad {
            fd: fpr(a)?,
            base: gpr(b)?,
            offset: off,
        },
        op::FSTORE => Inst::FStore {
            fs: fpr(a)?,
            base: gpr(b)?,
            offset: off,
        },
        op::FALU => Inst::FAlu {
            op: falu_from(imm as u8).ok_or_else(|| err("bad FP sub-op"))?,
            fd: fpr(a)?,
            fs: fpr(b)?,
            ft: fpr(c)?,
        },
        op::FCMP => Inst::FCmp {
            op: fcmp_from(imm as u8).ok_or_else(|| err("bad FP compare"))?,
            rd: gpr(a)?,
            fs: fpr(b)?,
            ft: fpr(c)?,
        },
        op::CVT_IF => Inst::CvtIf {
            fd: fpr(a)?,
            rs: gpr(b)?,
        },
        op::CVT_FI => Inst::CvtFi {
            rd: gpr(a)?,
            fs: fpr(b)?,
        },
        op::BRANCH => Inst::Branch {
            cond: cond_from(a).ok_or_else(|| err("bad branch condition"))?,
            rs: gpr(b)?,
            rt: gpr(c)?,
            target: imm as u64,
        },
        op::JUMP => Inst::Jump { target: imm as u64 },
        op::JAL => Inst::Jal { target: imm as u64 },
        op::JR => Inst::Jr { rs: gpr(b)? },
        op::JALR => Inst::Jalr {
            rd: gpr(a)?,
            rs: gpr(b)?,
        },
        op::SYS => Inst::Sys {
            call: sys_from(a).ok_or_else(|| err("bad syscall number"))?,
        },
        _ => return Err(err("unknown opcode")),
    })
}

fn alu_code(op: AluOp) -> u8 {
    AluOp::ALL.iter().position(|&o| o == op).unwrap() as u8
}

fn alu_from(code: u8) -> Option<AluOp> {
    AluOp::ALL.get(code as usize).copied()
}

fn falu_code(op: FAluOp) -> u8 {
    FAluOp::ALL.iter().position(|&o| o == op).unwrap() as u8
}

fn falu_from(code: u8) -> Option<FAluOp> {
    FAluOp::ALL.get(code as usize).copied()
}

fn fcmp_code(op: FCmpOp) -> u8 {
    FCmpOp::ALL.iter().position(|&o| o == op).unwrap() as u8
}

fn fcmp_from(code: u8) -> Option<FCmpOp> {
    FCmpOp::ALL.get(code as usize).copied()
}

fn cond_code(cond: BranchCond) -> u8 {
    BranchCond::ALL.iter().position(|&c| c == cond).unwrap() as u8
}

fn cond_from(code: u8) -> Option<BranchCond> {
    BranchCond::ALL.get(code as usize).copied()
}

fn width_code(width: Width) -> u8 {
    Width::ALL.iter().position(|&w| w == width).unwrap() as u8
}

fn width_from(code: u8) -> Option<Width> {
    Width::ALL.get(code as usize).copied()
}

fn sys_code(call: Syscall) -> u8 {
    Syscall::ALL.iter().position(|&s| s == call).unwrap() as u8
}

fn sys_from(code: u8) -> Option<Syscall> {
    Syscall::ALL.get(code as usize).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_representative_instructions() {
        let insts = [
            Inst::Nop,
            Inst::Alu {
                op: AluOp::Xor,
                rd: Gpr::T3,
                rs: Gpr::S0,
                rt: Gpr::A2,
            },
            Inst::AluI {
                op: AluOp::Add,
                rd: Gpr::SP,
                rs: Gpr::SP,
                imm: -64,
            },
            Inst::Lui {
                rd: Gpr::GP,
                imm: 0x1000,
            },
            Inst::Load {
                width: Width::Byte,
                signed: false,
                rd: Gpr::T0,
                base: Gpr::GP,
                offset: 0x7fff,
            },
            Inst::Store {
                width: Width::Double,
                rs: Gpr::RA,
                base: Gpr::SP,
                offset: -32768,
            },
            Inst::FLoad {
                fd: Fpr::F4,
                base: Gpr::T1,
                offset: 8,
            },
            Inst::FStore {
                fs: Fpr::F5,
                base: Gpr::T2,
                offset: -8,
            },
            Inst::FAlu {
                op: FAluOp::Mul,
                fd: Fpr::F0,
                fs: Fpr::F1,
                ft: Fpr::F2,
            },
            Inst::FCmp {
                op: FCmpOp::Le,
                rd: Gpr::T4,
                fs: Fpr::F6,
                ft: Fpr::F7,
            },
            Inst::CvtIf {
                fd: Fpr::F8,
                rs: Gpr::T5,
            },
            Inst::CvtFi {
                rd: Gpr::T6,
                fs: Fpr::F9,
            },
            Inst::Branch {
                cond: BranchCond::Ge,
                rs: Gpr::T0,
                rt: Gpr::T1,
                target: 0x0040_1238,
            },
            Inst::Jump {
                target: 0x0040_0000,
            },
            Inst::Jal {
                target: 0xffff_fff8,
            },
            Inst::Jr { rs: Gpr::RA },
            Inst::Jalr {
                rd: Gpr::RA,
                rs: Gpr::T9,
            },
            Inst::Sys {
                call: Syscall::Malloc,
            },
        ];
        for inst in insts {
            let word = encode(&inst);
            assert_eq!(decode(word), Ok(inst), "round trip failed for {inst}");
        }
    }

    #[test]
    fn unknown_opcode_is_rejected() {
        let err = decode(0xff00_0000_0000_0000).unwrap_err();
        assert!(err.to_string().contains("unknown opcode"));
        assert_eq!(err.word, 0xff00_0000_0000_0000);
    }

    #[test]
    fn bad_register_index_is_rejected() {
        // ALU with rd = 40.
        let word = pack(op::ALU, 40, 0, 0, 0);
        assert!(decode(word).is_err());
    }

    #[test]
    fn bad_sub_op_is_rejected() {
        let word = pack(op::ALU, 1, 2, 3, 200);
        assert!(decode(word).is_err());
        let word = pack(op::SYS, 99, 0, 0, 0);
        assert!(decode(word).is_err());
    }

    #[test]
    #[should_panic(expected = "target must fit in 32 bits")]
    fn oversized_target_panics() {
        let _ = encode(&Inst::Jump {
            target: 0x1_0000_0000,
        });
    }
}
