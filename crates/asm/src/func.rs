//! Function-level program construction.

use arl_isa::{AluOp, BranchCond, FAluOp, FCmpOp, Fpr, Gpr, Inst, Syscall, Width};
use arl_mem::Layout;

use crate::types::{FrameSlot, GlobalRef, Label, Provenance};

/// An instruction that may still contain symbolic references, resolved at
/// link time. Every entry links to exactly one instruction word, so an
/// entry's pc is its function's base plus its index times the word size.
#[derive(Clone, Debug)]
pub(crate) enum AsmInst {
    /// Fully resolved instruction.
    Inst(Inst),
    /// Conditional branch to a function-local label.
    Branch {
        cond: BranchCond,
        rs: Gpr,
        rt: Gpr,
        label: Label,
    },
    /// Unconditional jump to a function-local label.
    Jump { label: Label },
    /// Call to a named function.
    Call { func: String },
}

/// Builds one function: a straight-line list of instructions with symbolic
/// labels, a stack frame of declared [`FrameSlot`]s, and an automatically
/// generated prologue/epilogue that saves `$ra`, `$fp`, and any requested
/// callee-saved registers.
///
/// Frame layout after the prologue (`$fp == $sp`):
///
/// ```text
/// fp + total-8      saved $ra
/// fp + total-16     saved $fp (caller's)
/// fp + total-24 ...  saved callee-saved registers
/// fp + 0 .. locals   declared frame slots
/// ```
///
/// All prologue/epilogue traffic is tagged [`Provenance::LocalVar`] — these
/// are exactly the register spills and reloads the paper counts as stack
/// accesses.
#[derive(Clone, Debug)]
pub struct FunctionBuilder {
    name: String,
    pub(crate) body: Vec<AsmInst>,
    pub(crate) prov: Vec<Provenance>,
    pub(crate) labels: Vec<Option<usize>>,
    local_bytes: i64,
    saved: Vec<Gpr>,
    exit_label: Label,
    layout: Layout,
    leaf: bool,
    makes_calls: bool,
}

impl FunctionBuilder {
    /// Starts building a function with the given (link-time) name.
    pub fn new(name: &str) -> FunctionBuilder {
        let mut f = FunctionBuilder {
            name: name.to_string(),
            body: Vec::new(),
            prov: Vec::new(),
            labels: Vec::new(),
            local_bytes: 0,
            saved: Vec::new(),
            exit_label: Label(0),
            layout: Layout::default(),
            leaf: false,
            makes_calls: false,
        };
        f.exit_label = f.new_label();
        f
    }

    /// Marks this function as a *leaf*: no frame is built at all (no stack
    /// adjustment, no `$ra`/`$fp` spill) and the epilogue is a bare
    /// `jr $ra` — the code a compiler emits for small leaf routines.
    ///
    /// # Panics
    ///
    /// Panics at link time if the function declared locals, requested
    /// saved registers, or makes calls.
    pub fn set_leaf(&mut self) {
        self.leaf = true;
    }

    /// The function's name.
    pub(crate) fn name(&self) -> &str {
        &self.name
    }

    /// Requests that `regs` be preserved across this function (saved in the
    /// prologue, restored in the epilogue).
    pub fn save(&mut self, regs: &[Gpr]) {
        for &r in regs {
            if !self.saved.contains(&r) {
                self.saved.push(r);
            }
        }
    }

    /// Declares a frame slot of `size` bytes (rounded up to 8) and returns
    /// its handle.
    ///
    /// # Panics
    ///
    /// Panics if the frame would exceed the 16 KiB local-area budget (frame
    /// offsets must stay within the 16-bit displacement of the ISA).
    pub fn local(&mut self, size: u32) -> FrameSlot {
        let size = size.max(1).div_ceil(8) * 8;
        let offset = self.local_bytes;
        self.local_bytes += size as i64;
        assert!(
            self.local_bytes <= 16 * 1024,
            "function `{}`: frame local area exceeds 16 KiB",
            self.name
        );
        FrameSlot {
            offset: offset as i16,
            size,
        }
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(
            self.labels[label.0].is_none(),
            "label bound twice in `{}`",
            self.name
        );
        self.labels[label.0] = Some(self.body.len());
    }

    fn push(&mut self, inst: AsmInst, prov: Provenance) {
        self.body.push(inst);
        self.prov.push(prov);
    }

    fn push_inst(&mut self, inst: Inst) {
        self.push(AsmInst::Inst(inst), Provenance::Mixed);
    }

    /// Emits a raw instruction with an explicit provenance tag (escape
    /// hatch; prefer the typed emitters).
    pub fn raw(&mut self, inst: Inst, prov: Provenance) {
        self.push(AsmInst::Inst(inst), prov);
    }

    // ---- integer ALU -----------------------------------------------------

    fn alu(&mut self, op: AluOp, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.push_inst(Inst::Alu { op, rd, rs, rt });
    }

    fn alui(&mut self, op: AluOp, rd: Gpr, rs: Gpr, imm: i16) {
        self.push_inst(Inst::AluI { op, rd, rs, imm });
    }

    /// `rd = rs + rt`
    pub fn add(&mut self, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.alu(AluOp::Add, rd, rs, rt);
    }

    /// `rd = rs - rt`
    pub fn sub(&mut self, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.alu(AluOp::Sub, rd, rs, rt);
    }

    /// `rd = rs * rt`
    pub fn mul(&mut self, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.alu(AluOp::Mul, rd, rs, rt);
    }

    /// `rd = rs / rt` (0 when `rt == 0`)
    pub fn div(&mut self, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.alu(AluOp::Div, rd, rs, rt);
    }

    /// `rd = rs % rt` (`rs` when `rt == 0`)
    pub fn rem(&mut self, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.alu(AluOp::Rem, rd, rs, rt);
    }

    /// `rd = rs & rt`
    pub fn and(&mut self, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.alu(AluOp::And, rd, rs, rt);
    }

    /// `rd = rs | rt`
    pub fn or(&mut self, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.alu(AluOp::Or, rd, rs, rt);
    }

    /// `rd = rs ^ rt`
    pub fn xor(&mut self, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.alu(AluOp::Xor, rd, rs, rt);
    }

    /// `rd = (rs < rt) as i64` (signed)
    pub fn slt(&mut self, rd: Gpr, rs: Gpr, rt: Gpr) {
        self.alu(AluOp::Slt, rd, rs, rt);
    }

    /// `rd = rs + imm`
    pub fn addi(&mut self, rd: Gpr, rs: Gpr, imm: i16) {
        self.alui(AluOp::Add, rd, rs, imm);
    }

    /// `rd = rs & imm` (imm zero-extended)
    pub fn andi(&mut self, rd: Gpr, rs: Gpr, imm: i16) {
        self.alui(AluOp::And, rd, rs, imm);
    }

    /// `rd = rs | imm` (imm zero-extended)
    pub(crate) fn ori(&mut self, rd: Gpr, rs: Gpr, imm: i16) {
        self.alui(AluOp::Or, rd, rs, imm);
    }

    /// `rd = rs ^ imm` (imm zero-extended)
    pub fn xori(&mut self, rd: Gpr, rs: Gpr, imm: i16) {
        self.alui(AluOp::Xor, rd, rs, imm);
    }

    /// `rd = rs << imm`
    pub fn slli(&mut self, rd: Gpr, rs: Gpr, imm: i16) {
        self.alui(AluOp::Sll, rd, rs, imm);
    }

    /// `rd = rs >> imm` (logical)
    pub fn srli(&mut self, rd: Gpr, rs: Gpr, imm: i16) {
        self.alui(AluOp::Srl, rd, rs, imm);
    }

    /// `rd = rs >> imm` (arithmetic)
    pub fn srai(&mut self, rd: Gpr, rs: Gpr, imm: i16) {
        self.alui(AluOp::Sra, rd, rs, imm);
    }

    /// `rd = rs`
    pub fn mov(&mut self, rd: Gpr, rs: Gpr) {
        self.addi(rd, rs, 0);
    }

    /// Loads a 32-bit constant (sign-extended to 64) into `rd`.
    ///
    /// Expands to `addi` when the value fits 16 bits, else `lui` (+ `ori`).
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in 32 bits.
    pub fn li(&mut self, rd: Gpr, value: i64) {
        if let Ok(imm) = i16::try_from(value) {
            self.addi(rd, Gpr::ZERO, imm);
            return;
        }
        let v = i32::try_from(value).expect("li constant must fit in 32 bits") as u32;
        self.push_inst(Inst::Lui {
            rd,
            imm: (v >> 16) as u16,
        });
        if v & 0xffff != 0 {
            self.ori(rd, rd, (v & 0xffff) as u16 as i16);
        }
    }

    // ---- memory ----------------------------------------------------------

    /// Loads the address of a global into `rd`.
    pub fn la_global(&mut self, rd: Gpr, global: GlobalRef) {
        let addr = self.layout.data_base() + global.offset;
        self.li(rd, addr as i64);
    }

    /// Loads the address of frame slot `slot` (+`extra`) into `rd` —
    /// the "address-taken local" pattern that creates stack-pointer
    /// parameters.
    pub fn addr_of_local(&mut self, rd: Gpr, slot: FrameSlot, extra: i16) {
        self.addi(rd, Gpr::FP, slot.offset + extra);
    }

    fn load(
        &mut self,
        width: Width,
        signed: bool,
        rd: Gpr,
        base: Gpr,
        offset: i16,
        prov: Provenance,
    ) {
        self.push(
            AsmInst::Inst(Inst::Load {
                width,
                signed,
                rd,
                base,
                offset,
            }),
            prov,
        );
    }

    fn store(&mut self, width: Width, rs: Gpr, base: Gpr, offset: i16, prov: Provenance) {
        self.push(
            AsmInst::Inst(Inst::Store {
                width,
                rs,
                base,
                offset,
            }),
            prov,
        );
    }

    /// Loads a 64-bit word from a frame slot (a stack access).
    pub fn load_local(&mut self, rd: Gpr, slot: FrameSlot, off: i16) {
        self.load(
            Width::Double,
            true,
            rd,
            Gpr::FP,
            slot.offset + off,
            Provenance::LocalVar,
        );
    }

    /// Stores a 64-bit word to a frame slot (a stack access).
    pub fn store_local(&mut self, rs: Gpr, slot: FrameSlot, off: i16) {
        self.store(
            Width::Double,
            rs,
            Gpr::FP,
            slot.offset + off,
            Provenance::LocalVar,
        );
    }

    /// Loads a 64-bit word from a global scalar. Uses `$gp`-relative
    /// addressing when the displacement fits, revealing the region to the
    /// static heuristics; falls back to an absolute address in `$at`.
    pub fn load_global(&mut self, rd: Gpr, global: GlobalRef, off: i16) {
        let disp = global.offset as i64 + off as i64;
        if let Ok(disp16) = i16::try_from(disp) {
            self.load(
                Width::Double,
                true,
                rd,
                Gpr::GP,
                disp16,
                Provenance::StaticVar,
            );
        } else {
            self.la_global(Gpr::AT, global);
            self.load(Width::Double, true, rd, Gpr::AT, off, Provenance::StaticVar);
        }
    }

    /// Stores a 64-bit word to a global scalar (see [`Self::load_global`]).
    pub fn store_global(&mut self, rs: Gpr, global: GlobalRef, off: i16) {
        let disp = global.offset as i64 + off as i64;
        if let Ok(disp16) = i16::try_from(disp) {
            self.store(Width::Double, rs, Gpr::GP, disp16, Provenance::StaticVar);
        } else {
            assert_ne!(rs, Gpr::AT, "store_global: value register clashes with $at");
            self.la_global(Gpr::AT, global);
            self.store(Width::Double, rs, Gpr::AT, off, Provenance::StaticVar);
        }
    }

    /// Loads a 64-bit word through a pointer register with an explicit
    /// compiler-knowledge tag (heap block, function parameter, ...).
    pub fn load_ptr(&mut self, rd: Gpr, ptr: Gpr, off: i16, prov: Provenance) {
        self.load(Width::Double, true, rd, ptr, off, prov);
    }

    /// Stores a 64-bit word through a pointer register.
    pub fn store_ptr(&mut self, rs: Gpr, ptr: Gpr, off: i16, prov: Provenance) {
        self.store(Width::Double, rs, ptr, off, prov);
    }

    /// Loads a byte (zero-extended) through a pointer register.
    pub fn load_ptr_b(&mut self, rd: Gpr, ptr: Gpr, off: i16, prov: Provenance) {
        self.load(Width::Byte, false, rd, ptr, off, prov);
    }

    /// Stores a byte through a pointer register.
    pub fn store_ptr_b(&mut self, rs: Gpr, ptr: Gpr, off: i16, prov: Provenance) {
        self.store(Width::Byte, rs, ptr, off, prov);
    }

    // ---- floating point --------------------------------------------------

    /// Loads an `f64` from a frame slot.
    pub fn fload_local(&mut self, fd: Fpr, slot: FrameSlot, off: i16) {
        self.push(
            AsmInst::Inst(Inst::FLoad {
                fd,
                base: Gpr::FP,
                offset: slot.offset + off,
            }),
            Provenance::LocalVar,
        );
    }

    /// Stores an `f64` to a frame slot.
    pub fn fstore_local(&mut self, fs: Fpr, slot: FrameSlot, off: i16) {
        self.push(
            AsmInst::Inst(Inst::FStore {
                fs,
                base: Gpr::FP,
                offset: slot.offset + off,
            }),
            Provenance::LocalVar,
        );
    }

    /// Loads an `f64` through a pointer register.
    pub fn fload_ptr(&mut self, fd: Fpr, ptr: Gpr, off: i16, prov: Provenance) {
        self.push(
            AsmInst::Inst(Inst::FLoad {
                fd,
                base: ptr,
                offset: off,
            }),
            prov,
        );
    }

    /// Stores an `f64` through a pointer register.
    pub fn fstore_ptr(&mut self, fs: Fpr, ptr: Gpr, off: i16, prov: Provenance) {
        self.push(
            AsmInst::Inst(Inst::FStore {
                fs,
                base: ptr,
                offset: off,
            }),
            prov,
        );
    }

    /// `fd = fs op ft`
    pub fn falu(&mut self, op: FAluOp, fd: Fpr, fs: Fpr, ft: Fpr) {
        self.push_inst(Inst::FAlu { op, fd, fs, ft });
    }

    /// `fd = fs + ft`
    pub fn fadd(&mut self, fd: Fpr, fs: Fpr, ft: Fpr) {
        self.falu(FAluOp::Add, fd, fs, ft);
    }

    /// `fd = fs - ft`
    pub fn fsub(&mut self, fd: Fpr, fs: Fpr, ft: Fpr) {
        self.falu(FAluOp::Sub, fd, fs, ft);
    }

    /// `fd = fs * ft`
    pub fn fmul(&mut self, fd: Fpr, fs: Fpr, ft: Fpr) {
        self.falu(FAluOp::Mul, fd, fs, ft);
    }

    /// `fd = fs / ft`
    pub fn fdiv(&mut self, fd: Fpr, fs: Fpr, ft: Fpr) {
        self.falu(FAluOp::Div, fd, fs, ft);
    }

    /// `rd = (fs cmp ft) as i64`
    pub fn fcmp(&mut self, op: FCmpOp, rd: Gpr, fs: Fpr, ft: Fpr) {
        self.push_inst(Inst::FCmp { op, rd, fs, ft });
    }

    /// `fd = rs as f64`
    pub fn cvt_if(&mut self, fd: Fpr, rs: Gpr) {
        self.push_inst(Inst::CvtIf { fd, rs });
    }

    /// `rd = fs as i64`
    pub fn cvt_fi(&mut self, rd: Gpr, fs: Fpr) {
        self.push_inst(Inst::CvtFi { rd, fs });
    }

    // ---- control flow ----------------------------------------------------

    /// Conditional branch to `label`.
    pub fn br(&mut self, cond: BranchCond, rs: Gpr, rt: Gpr, label: Label) {
        self.push(
            AsmInst::Branch {
                cond,
                rs,
                rt,
                label,
            },
            Provenance::Mixed,
        );
    }

    /// Branch to `label` if `rs == 0`.
    pub fn beqz(&mut self, rs: Gpr, label: Label) {
        self.br(BranchCond::Eq, rs, Gpr::ZERO, label);
    }

    /// Branch to `label` if `rs != 0`.
    pub fn bnez(&mut self, rs: Gpr, label: Label) {
        self.br(BranchCond::Ne, rs, Gpr::ZERO, label);
    }

    /// Unconditional jump to `label`.
    pub fn j(&mut self, label: Label) {
        self.push(AsmInst::Jump { label }, Provenance::Mixed);
    }

    /// Calls the named function (`jal` at link time).
    pub fn call(&mut self, func: &str) {
        self.makes_calls = true;
        self.push(
            AsmInst::Call {
                func: func.to_string(),
            },
            Provenance::Mixed,
        );
    }

    /// Returns from the function (jumps to the shared epilogue).
    pub fn ret(&mut self) {
        let exit = self.exit_label;
        self.j(exit);
    }

    // ---- run-time system -------------------------------------------------

    /// Emits a bare syscall.
    pub fn syscall(&mut self, call: Syscall) {
        self.push_inst(Inst::Sys { call });
    }

    /// `$v0 = malloc($a0)`; `$a0` must already hold the size.
    pub(crate) fn malloc(&mut self) {
        self.syscall(Syscall::Malloc);
    }

    /// `$v0 = malloc(bytes)`.
    pub fn malloc_imm(&mut self, bytes: i64) {
        self.li(Gpr::A0, bytes);
        self.malloc();
    }

    /// `free($a0)`; `$a0` must hold the pointer.
    pub fn free(&mut self) {
        self.syscall(Syscall::Free);
    }

    /// Prints the integer in `rs`.
    pub fn print_int(&mut self, rs: Gpr) {
        if rs != Gpr::A0 {
            self.mov(Gpr::A0, rs);
        }
        self.syscall(Syscall::PrintInt);
    }

    // ---- finalization (link time) ------------------------------------------

    /// Total frame size: locals + save area, 16-byte aligned.
    pub(crate) fn frame_total(&self) -> i64 {
        let save = 16 + 8 * self.saved.len() as i64;
        (self.local_bytes + save + 15) / 16 * 16
    }

    /// Expands prologue + body + epilogue into a flat symbolic instruction
    /// list with every label bound. Returns the list, its parallel
    /// provenance list, and the label table as indices into the list.
    pub(crate) fn finalize(&self) -> (Vec<AsmInst>, Vec<Provenance>, Vec<Option<usize>>) {
        if self.leaf {
            assert!(
                self.local_bytes == 0 && self.saved.is_empty() && !self.makes_calls,
                "leaf function `{}` must not use locals, saved registers, or calls",
                self.name
            );
            let mut insts: Vec<AsmInst> = self.body.clone();
            let mut prov = self.prov.clone();
            let epilogue_start = insts.len();
            insts.push(AsmInst::Inst(Inst::Jr { rs: Gpr::RA }));
            prov.push(Provenance::Mixed);
            let mut labels = self.labels.clone();
            labels[self.exit_label.0] = Some(epilogue_start);
            return (insts, prov, labels);
        }
        let total = self.frame_total();
        assert!(total <= i16::MAX as i64, "frame too large");
        let t = total as i16;
        let mut insts: Vec<AsmInst> = Vec::with_capacity(self.body.len() + 16);
        let mut prov: Vec<Provenance> = Vec::with_capacity(self.body.len() + 16);
        let emit =
            |inst: Inst, p: Provenance, insts: &mut Vec<AsmInst>, prov: &mut Vec<Provenance>| {
                insts.push(AsmInst::Inst(inst));
                prov.push(p);
            };
        // Prologue: grow stack, spill ra/fp/saved (SP-relative, the way a
        // compiler spills), establish the frame pointer.
        emit(
            Inst::AluI {
                op: AluOp::Add,
                rd: Gpr::SP,
                rs: Gpr::SP,
                imm: -t,
            },
            Provenance::Mixed,
            &mut insts,
            &mut prov,
        );
        emit(
            Inst::Store {
                width: Width::Double,
                rs: Gpr::RA,
                base: Gpr::SP,
                offset: t - 8,
            },
            Provenance::LocalVar,
            &mut insts,
            &mut prov,
        );
        emit(
            Inst::Store {
                width: Width::Double,
                rs: Gpr::FP,
                base: Gpr::SP,
                offset: t - 16,
            },
            Provenance::LocalVar,
            &mut insts,
            &mut prov,
        );
        for (i, &r) in self.saved.iter().enumerate() {
            emit(
                Inst::Store {
                    width: Width::Double,
                    rs: r,
                    base: Gpr::SP,
                    offset: t - 24 - 8 * i as i16,
                },
                Provenance::LocalVar,
                &mut insts,
                &mut prov,
            );
        }
        emit(
            Inst::AluI {
                op: AluOp::Add,
                rd: Gpr::FP,
                rs: Gpr::SP,
                imm: 0,
            },
            Provenance::Mixed,
            &mut insts,
            &mut prov,
        );
        let prologue_len = insts.len();

        // Body (labels shift by prologue_len).
        insts.extend(self.body.iter().cloned());
        prov.extend(self.prov.iter().copied());

        // Epilogue (exit label binds here).
        let epilogue_start = insts.len();
        for (i, &r) in self.saved.iter().enumerate().rev() {
            emit(
                Inst::Load {
                    width: Width::Double,
                    signed: true,
                    rd: r,
                    base: Gpr::SP,
                    offset: t - 24 - 8 * i as i16,
                },
                Provenance::LocalVar,
                &mut insts,
                &mut prov,
            );
        }
        emit(
            Inst::Load {
                width: Width::Double,
                signed: true,
                rd: Gpr::FP,
                base: Gpr::SP,
                offset: t - 16,
            },
            Provenance::LocalVar,
            &mut insts,
            &mut prov,
        );
        emit(
            Inst::Load {
                width: Width::Double,
                signed: true,
                rd: Gpr::RA,
                base: Gpr::SP,
                offset: t - 8,
            },
            Provenance::LocalVar,
            &mut insts,
            &mut prov,
        );
        emit(
            Inst::AluI {
                op: AluOp::Add,
                rd: Gpr::SP,
                rs: Gpr::SP,
                imm: t,
            },
            Provenance::Mixed,
            &mut insts,
            &mut prov,
        );
        emit(
            Inst::Jr { rs: Gpr::RA },
            Provenance::Mixed,
            &mut insts,
            &mut prov,
        );

        // Shift labels past the prologue; bind the exit label.
        let mut labels: Vec<Option<usize>> = self
            .labels
            .iter()
            .map(|l| l.map(|idx| idx + prologue_len))
            .collect();
        labels[self.exit_label.0] = Some(epilogue_start);
        (insts, prov, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locals_are_disjoint_and_aligned() {
        let mut f = FunctionBuilder::new("f");
        let a = f.local(1);
        let b = f.local(12);
        let c = f.local(8);
        assert_eq!(a.offset(), 0);
        assert_eq!(a.size, 8);
        assert_eq!(b.offset(), 8);
        assert_eq!(b.size, 16);
        assert_eq!(c.offset(), 24);
    }

    #[test]
    fn finalize_wraps_body_with_prologue_epilogue() {
        let mut f = FunctionBuilder::new("f");
        f.push_inst(Inst::Nop);
        let (insts, prov, _) = f.finalize();
        assert_eq!(insts.len(), prov.len());
        // 4 prologue + body(1) + epilogue(ld fp, ld ra, addi sp, jr).
        assert_eq!(insts.len(), 4 + 1 + 4);
        assert!(matches!(insts.last(), Some(AsmInst::Inst(Inst::Jr { rs })) if *rs == Gpr::RA));
    }

    #[test]
    fn ret_targets_epilogue() {
        let mut f = FunctionBuilder::new("f");
        f.ret();
        f.push_inst(Inst::Nop);
        let (insts, _, labels) = f.finalize();
        // Exit label must point at the epilogue start (after prologue+body).
        let epilogue_start = labels[0].expect("exit label bound");
        assert_eq!(epilogue_start, 4 + 2);
        assert!(matches!(
            insts[epilogue_start],
            AsmInst::Inst(Inst::Load { .. })
        ));
    }

    #[test]
    fn saved_registers_spill_and_reload() {
        let mut f = FunctionBuilder::new("f");
        f.save(&[Gpr::S0, Gpr::S1]);
        f.save(&[Gpr::S0]); // idempotent
        let (insts, prov, _) = f.finalize();
        let stores = insts
            .iter()
            .filter(|i| matches!(i, AsmInst::Inst(inst) if inst.is_store()))
            .count();
        let loads = insts
            .iter()
            .filter(|i| matches!(i, AsmInst::Inst(inst) if inst.is_load()))
            .count();
        assert_eq!(stores, 4); // ra, fp, s0, s1
        assert_eq!(loads, 4);
        // All spill traffic is tagged as local-variable (stack) accesses.
        let mem_prov: Vec<Provenance> = insts
            .iter()
            .zip(&prov)
            .filter(|(i, _)| matches!(i, AsmInst::Inst(inst) if inst.is_mem()))
            .map(|(_, &p)| p)
            .collect();
        assert!(mem_prov.iter().all(|&p| p == Provenance::LocalVar));
    }

    #[test]
    fn leaf_function_has_no_frame() {
        let mut f = FunctionBuilder::new("leafy");
        f.set_leaf();
        f.addi(Gpr::V0, Gpr::A0, 1);
        let (insts, prov, labels) = f.finalize();
        assert_eq!(insts.len(), 2); // body + jr ra
        assert_eq!(insts.len(), prov.len());
        assert!(matches!(insts.last(), Some(AsmInst::Inst(Inst::Jr { rs })) if *rs == Gpr::RA));
        // No memory traffic at all.
        assert!(!insts
            .iter()
            .any(|i| matches!(i, AsmInst::Inst(inst) if inst.is_mem())));
        // ret targets the bare jr.
        assert_eq!(labels[0], Some(1));
    }

    #[test]
    #[should_panic(expected = "leaf function")]
    fn leaf_with_calls_panics_at_finalize() {
        let mut f = FunctionBuilder::new("bad");
        f.set_leaf();
        f.call("other");
        let _ = f.finalize();
    }

    #[test]
    #[should_panic(expected = "leaf function")]
    fn leaf_with_locals_panics_at_finalize() {
        let mut f = FunctionBuilder::new("bad");
        f.set_leaf();
        let _ = f.local(8);
        let _ = f.finalize();
    }

    #[test]
    fn li_expansions() {
        let mut f = FunctionBuilder::new("f");
        f.li(Gpr::T0, 7); // addi
        f.li(Gpr::T1, 0x12345); // lui+ori
        f.li(Gpr::T2, 0x10000); // lui only
        f.li(Gpr::T3, -70000); // negative 32-bit
        assert_eq!(f.body.len(), 1 + 2 + 1 + 2);
    }

    #[test]
    #[should_panic(expected = "frame local area exceeds")]
    fn oversized_frame_panics() {
        let mut f = FunctionBuilder::new("f");
        let _ = f.local(20 * 1024);
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut f = FunctionBuilder::new("f");
        let l = f.new_label();
        f.bind(l);
        f.bind(l);
    }
}
