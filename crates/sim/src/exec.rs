//! The functional executor.

use std::error::Error;
use std::fmt;

use arl_asm::Program;
use arl_isa::{AluOp, FAluOp, FCmpOp, Gpr, Inst, Syscall, Width, INST_BYTES};
use arl_mem::{AllocError, HeapAllocator, Layout, MemImage};

use crate::trace::{MemAccess, SourceError, TraceEntry, TraceSource};

/// Errors raised during execution.
#[derive(Debug)]
pub enum ExecError {
    /// The pc left the text segment or became misaligned.
    BadPc {
        /// The offending pc.
        pc: u64,
    },
    /// A heap operation failed (out of memory, bad free).
    Alloc(AllocError),
    /// The stack grew below the stack region.
    StackOverflow {
        /// The stack pointer value that escaped the region.
        sp: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadPc { pc } => write!(f, "pc {pc:#x} is outside the text segment"),
            ExecError::Alloc(e) => write!(f, "heap error: {e}"),
            ExecError::StackOverflow { sp } => write!(f, "stack overflow: sp = {sp:#x}"),
        }
    }
}

impl Error for ExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExecError::Alloc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AllocError> for ExecError {
    fn from(e: AllocError) -> ExecError {
        ExecError::Alloc(e)
    }
}

/// Result of a bounded [`Machine::run`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunOutcome {
    /// Instructions retired during this call.
    pub retired: u64,
    /// Whether the program executed its `Exit` syscall.
    pub exited: bool,
}

/// The functional machine: architectural registers, memory, heap, and the
/// run-time contexts the predictors consume.
///
/// Executes one instruction per `step`, emitting a
/// [`TraceEntry`]. This is the paper's profiling simulator and, because the
/// timing model assumes a perfect front end, also the instruction feed for
/// the cycle-level simulator in `arl-timing`.
#[derive(Clone, Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    layout: Layout,
    gpr: [i64; 32],
    fpr: [f64; 32],
    pc: u64,
    mem: MemImage,
    alloc: HeapAllocator,
    ghr: u64,
    output: Vec<i64>,
    retired: u64,
    exited: bool,
}

impl<'p> Machine<'p> {
    /// Creates a machine with the program's data segment installed and all
    /// registers zero (the `_start` stub initializes `$gp`/`$sp`/`$fp`).
    pub fn new(program: &'p Program) -> Machine<'p> {
        let layout = *program.layout();
        let mut mem = MemImage::new();
        mem.write_bytes(layout.data_base(), program.data_image());
        Machine {
            program,
            layout,
            gpr: [0; 32],
            fpr: [0.0; 32],
            pc: program.entry_pc(),
            mem,
            alloc: HeapAllocator::new(&layout),
            ghr: 0,
            output: Vec::new(),
            retired: 0,
            exited: false,
        }
    }

    /// Values printed by `PrintInt`/`PrintChar` so far.
    pub fn output(&self) -> &[i64] {
        &self.output
    }

    /// Snapshot of the run's counters (see [`crate::Metrics`]).
    pub fn metrics(&self) -> crate::Metrics {
        crate::Metrics::capture(
            self.retired,
            self.mem.resident_pages(),
            self.output.len(),
            self.exited,
        )
    }

    fn write_gpr(&mut self, r: Gpr, v: i64) {
        if r != Gpr::ZERO {
            self.gpr[r.index()] = v;
        }
    }

    fn load_value(&self, addr: u64, width: Width, signed: bool) -> i64 {
        match (width, signed) {
            (Width::Byte, false) => self.mem.read_u8(addr) as i64,
            (Width::Byte, true) => self.mem.read_u8(addr) as i8 as i64,
            (Width::Half, false) => self.mem.read_u16(addr) as i64,
            (Width::Half, true) => self.mem.read_u16(addr) as i16 as i64,
            (Width::Word, false) => self.mem.read_u32(addr) as i64,
            (Width::Word, true) => self.mem.read_u32(addr) as i32 as i64,
            (Width::Double, _) => self.mem.read_u64(addr) as i64,
        }
    }

    fn store_value(&mut self, addr: u64, width: Width, v: i64) {
        match width {
            Width::Byte => self.mem.write_u8(addr, v as u8),
            Width::Half => self.mem.write_u16(addr, v as u16),
            Width::Word => self.mem.write_u32(addr, v as u32),
            Width::Double => self.mem.write_u64(addr, v as u64),
        }
    }

    fn alu(op: AluOp, a: i64, b: i64) -> i64 {
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    a
                } else {
                    a.wrapping_rem(b)
                }
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => ((a as u64) << (b as u64 & 63)) as i64,
            AluOp::Srl => ((a as u64) >> (b as u64 & 63)) as i64,
            AluOp::Sra => a >> (b as u64 & 63),
            AluOp::Slt => (a < b) as i64,
            AluOp::Sltu => ((a as u64) < (b as u64)) as i64,
        }
    }

    /// Immediate operand semantics: logical ops zero-extend, the rest
    /// sign-extend (MIPS convention; `li` relies on `ori` zero-extending).
    fn imm_operand(op: AluOp, imm: i16) -> i64 {
        match op {
            AluOp::And | AluOp::Or | AluOp::Xor => imm as u16 as i64,
            _ => imm as i64,
        }
    }

    fn falu(op: FAluOp, a: f64, b: f64) -> f64 {
        match op {
            FAluOp::Add => a + b,
            FAluOp::Sub => a - b,
            FAluOp::Mul => a * b,
            FAluOp::Div => a / b,
            FAluOp::Neg => -a,
            FAluOp::Abs => a.abs(),
            FAluOp::Sqrt => a.abs().sqrt(),
        }
    }

    /// Executes one instruction.
    ///
    /// Returns `Ok(None)` once the program has exited.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub(crate) fn step(&mut self) -> Result<Option<TraceEntry>, ExecError> {
        if self.exited {
            return Ok(None);
        }
        let pc = self.pc;
        let inst = *self.program.inst_at(pc).ok_or(ExecError::BadPc { pc })?;
        let ghr_before = self.ghr;
        let ra_before = self.gpr[Gpr::RA.index()] as u64;
        let mut mem_access: Option<MemAccess> = None;
        let mut taken = false;
        let mut gpr_write: Option<(Gpr, i64)> = None;
        let mut next_pc = pc + INST_BYTES;

        match inst {
            Inst::Nop => {}
            Inst::Alu { op, rd, rs, rt } => {
                let v = Self::alu(op, self.gpr[rs.index()], self.gpr[rt.index()]);
                self.write_gpr(rd, v);
                if rd != Gpr::ZERO {
                    gpr_write = Some((rd, v));
                }
            }
            Inst::AluI { op, rd, rs, imm } => {
                let v = Self::alu(op, self.gpr[rs.index()], Self::imm_operand(op, imm));
                self.write_gpr(rd, v);
                if rd != Gpr::ZERO {
                    gpr_write = Some((rd, v));
                }
                if rd == Gpr::SP {
                    let sp = v as u64;
                    if sp < self.layout.stack_base() {
                        return Err(ExecError::StackOverflow { sp });
                    }
                }
            }
            Inst::Lui { rd, imm } => {
                let v = ((imm as u32) << 16) as i32 as i64;
                self.write_gpr(rd, v);
                if rd != Gpr::ZERO {
                    gpr_write = Some((rd, v));
                }
            }
            Inst::Load {
                width,
                signed,
                rd,
                base,
                offset,
            } => {
                let addr = (self.gpr[base.index()] as u64).wrapping_add(offset as i64 as u64);
                let v = self.load_value(addr, width, signed);
                self.write_gpr(rd, v);
                if rd != Gpr::ZERO {
                    gpr_write = Some((rd, v));
                }
                mem_access = Some(MemAccess {
                    addr,
                    width,
                    is_load: true,
                    region: self.layout.classify(addr),
                });
            }
            Inst::Store {
                width,
                rs,
                base,
                offset,
            } => {
                let addr = (self.gpr[base.index()] as u64).wrapping_add(offset as i64 as u64);
                self.store_value(addr, width, self.gpr[rs.index()]);
                mem_access = Some(MemAccess {
                    addr,
                    width,
                    is_load: false,
                    region: self.layout.classify(addr),
                });
            }
            Inst::FLoad { fd, base, offset } => {
                let addr = (self.gpr[base.index()] as u64).wrapping_add(offset as i64 as u64);
                self.fpr[fd.index()] = self.mem.read_f64(addr);
                mem_access = Some(MemAccess {
                    addr,
                    width: Width::Double,
                    is_load: true,
                    region: self.layout.classify(addr),
                });
            }
            Inst::FStore { fs, base, offset } => {
                let addr = (self.gpr[base.index()] as u64).wrapping_add(offset as i64 as u64);
                self.mem.write_f64(addr, self.fpr[fs.index()]);
                mem_access = Some(MemAccess {
                    addr,
                    width: Width::Double,
                    is_load: false,
                    region: self.layout.classify(addr),
                });
            }
            Inst::FAlu { op, fd, fs, ft } => {
                self.fpr[fd.index()] = Self::falu(op, self.fpr[fs.index()], self.fpr[ft.index()]);
            }
            Inst::FCmp { op, rd, fs, ft } => {
                let a = self.fpr[fs.index()];
                let b = self.fpr[ft.index()];
                let v = match op {
                    FCmpOp::Lt => a < b,
                    FCmpOp::Le => a <= b,
                    FCmpOp::Eq => a == b,
                } as i64;
                self.write_gpr(rd, v);
                if rd != Gpr::ZERO {
                    gpr_write = Some((rd, v));
                }
            }
            Inst::CvtIf { fd, rs } => {
                self.fpr[fd.index()] = self.gpr[rs.index()] as f64;
            }
            Inst::CvtFi { rd, fs } => {
                let f = self.fpr[fs.index()];
                let v = if f.is_nan() { 0 } else { f as i64 };
                self.write_gpr(rd, v);
                if rd != Gpr::ZERO {
                    gpr_write = Some((rd, v));
                }
            }
            Inst::Branch {
                cond,
                rs,
                rt,
                target,
            } => {
                taken = cond.eval(self.gpr[rs.index()], self.gpr[rt.index()]);
                if taken {
                    next_pc = target;
                }
                self.ghr = (self.ghr << 1) | taken as u64;
            }
            Inst::Jump { target } => {
                next_pc = target;
            }
            Inst::Jal { target } => {
                let link = (pc + INST_BYTES) as i64;
                self.write_gpr(Gpr::RA, link);
                gpr_write = Some((Gpr::RA, link));
                next_pc = target;
            }
            Inst::Jr { rs } => {
                next_pc = self.gpr[rs.index()] as u64;
            }
            Inst::Jalr { rd, rs } => {
                let link = (pc + INST_BYTES) as i64;
                next_pc = self.gpr[rs.index()] as u64;
                self.write_gpr(rd, link);
                if rd != Gpr::ZERO {
                    gpr_write = Some((rd, link));
                }
            }
            Inst::Sys { call } => match call {
                Syscall::Exit => {
                    self.exited = true;
                    next_pc = pc;
                }
                Syscall::Malloc => {
                    let size = self.gpr[Gpr::A0.index()].max(0) as u64;
                    let addr = self.alloc.malloc(size)? as i64;
                    self.write_gpr(Gpr::V0, addr);
                    gpr_write = Some((Gpr::V0, addr));
                }
                Syscall::Free => {
                    let addr = self.gpr[Gpr::A0.index()] as u64;
                    self.alloc.free(addr)?;
                }
                Syscall::PrintInt => {
                    self.output.push(self.gpr[Gpr::A0.index()]);
                }
                Syscall::PrintChar => {
                    self.output.push(self.gpr[Gpr::A0.index()] & 0xff);
                }
            },
        }

        self.pc = next_pc;
        self.retired += 1;
        Ok(Some(TraceEntry {
            pc,
            inst,
            mem: mem_access,
            taken,
            next_pc,
            gpr_write,
            ghr: ghr_before,
            ra: ra_before,
        }))
    }

    /// Runs until exit or until `max_insts` more instructions retire.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecError`].
    pub fn run(&mut self, max_insts: u64) -> Result<RunOutcome, ExecError> {
        self.run_with(max_insts, |_| {})
    }

    /// Runs like [`Machine::run`], passing every [`TraceEntry`] to
    /// `visitor` — the streaming interface the profilers and the timing
    /// simulator use (the trace is never materialized in memory).
    ///
    /// # Errors
    ///
    /// Propagates the first [`ExecError`].
    pub fn run_with<F: FnMut(&TraceEntry)>(
        &mut self,
        max_insts: u64,
        mut visitor: F,
    ) -> Result<RunOutcome, ExecError> {
        let mut retired = 0;
        while retired < max_insts {
            // Borrow the entry inside the step result: moving it out (as
            // `?` does) copies 96 bytes per instruction.
            match self.step() {
                Ok(Some(ref entry)) => {
                    retired += 1;
                    visitor(entry);
                }
                Ok(None) => break,
                Err(e) => return Err(e),
            }
        }
        crate::count_functional_instructions(retired);
        Ok(RunOutcome {
            retired,
            exited: self.exited,
        })
    }
}

/// The live executor is the canonical [`TraceSource`]: each entry costs one
/// step of real functional execution (and bumps the process-wide
/// [`functional_instructions_executed`](crate::functional_instructions_executed)
/// counter the execute-once tests audit).
impl TraceSource for Machine<'_> {
    fn next_entry(&mut self) -> Result<Option<TraceEntry>, SourceError> {
        let entry = self.step()?;
        crate::count_functional_instructions(entry.is_some() as u64);
        Ok(entry)
    }

    fn metrics(&self) -> crate::Metrics {
        Machine::metrics(self)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use arl_asm::{FunctionBuilder, ProgramBuilder, Provenance};
    use arl_isa::BranchCond;
    use arl_mem::Region;

    fn run_program(build: impl FnOnce(&mut ProgramBuilder)) -> (Vec<i64>, Vec<TraceEntry>) {
        let mut pb = ProgramBuilder::new();
        build(&mut pb);
        let p = pb.link("main").expect("link");
        let mut m = Machine::new(&p);
        let mut entries = Vec::new();
        let outcome = m
            .run_with(1_000_000, |e| entries.push(*e))
            .expect("execution");
        assert!(outcome.exited, "program must exit");
        (m.output().to_vec(), entries)
    }

    #[test]
    fn arithmetic_loop_sums_correctly() {
        let (out, _) = run_program(|pb| {
            let mut f = FunctionBuilder::new("main");
            // sum = 0; for i in 1..=10 { sum += i }
            f.li(Gpr::T0, 0);
            f.li(Gpr::T1, 1);
            let top = f.new_label();
            f.bind(top);
            f.add(Gpr::T0, Gpr::T0, Gpr::T1);
            f.addi(Gpr::T1, Gpr::T1, 1);
            f.li(Gpr::T2, 10);
            f.br(BranchCond::Le, Gpr::T1, Gpr::T2, top);
            f.print_int(Gpr::T0);
            pb.add_function(f);
        });
        assert_eq!(out, vec![55]);
    }

    #[test]
    fn regions_are_classified_in_trace() {
        let (_, entries) = run_program(|pb| {
            let g = pb.global_zeroed("g", 8);
            let mut f = FunctionBuilder::new("main");
            let slot = f.local(8);
            f.li(Gpr::T0, 7);
            f.store_local(Gpr::T0, slot, 0); // stack
            f.store_global(Gpr::T0, g, 0); // data
            f.malloc_imm(64); // heap pointer in v0
            f.store_ptr(Gpr::T0, Gpr::V0, 0, Provenance::HeapBlock); // heap
            pb.add_function(f);
        });
        let regions: Vec<Region> = entries
            .iter()
            .filter_map(|e| e.mem)
            .filter(|m| !m.is_load)
            .map(|m| m.region)
            .collect();
        assert!(regions.contains(&Region::Stack));
        assert!(regions.contains(&Region::Data));
        assert!(regions.contains(&Region::Heap));
    }

    #[test]
    fn calls_preserve_callee_saved_and_return() {
        let (out, _) = run_program(|pb| {
            let mut aux = FunctionBuilder::new("square");
            aux.mul(Gpr::V0, Gpr::A0, Gpr::A0);
            pb.add_function(aux);

            let mut f = FunctionBuilder::new("main");
            f.save(&[Gpr::S0]);
            f.li(Gpr::S0, 9);
            f.li(Gpr::A0, 6);
            f.call("square");
            f.add(Gpr::A0, Gpr::V0, Gpr::S0); // 36 + 9
            f.syscall(arl_isa::Syscall::PrintInt);
            pb.add_function(f);
        });
        assert_eq!(out, vec![45]);
    }

    #[test]
    fn ghr_records_branch_outcomes() {
        let (_, entries) = run_program(|pb| {
            let mut f = FunctionBuilder::new("main");
            f.li(Gpr::T0, 3);
            let top = f.new_label();
            f.bind(top);
            f.addi(Gpr::T0, Gpr::T0, -1);
            f.br(BranchCond::Gt, Gpr::T0, Gpr::ZERO, top); // T,T,N
            pb.add_function(f);
        });
        let last = entries.last().unwrap();
        // After two taken and one not-taken branch, ghr(ends) = 0b110.
        assert_eq!(last.ghr & 0b111, 0b110);
    }

    #[test]
    fn heap_round_trip_through_memory() {
        let (out, _) = run_program(|pb| {
            let mut f = FunctionBuilder::new("main");
            f.malloc_imm(16);
            f.mov(Gpr::S0, Gpr::V0);
            f.li(Gpr::T0, 1234);
            f.store_ptr(Gpr::T0, Gpr::S0, 8, Provenance::HeapBlock);
            f.load_ptr(Gpr::A0, Gpr::S0, 8, Provenance::HeapBlock);
            f.syscall(arl_isa::Syscall::PrintInt);
            f.mov(Gpr::A0, Gpr::S0);
            f.free();
            pb.add_function(f);
        });
        assert_eq!(out, vec![1234]);
    }

    #[test]
    fn initialized_globals_are_visible() {
        let (out, _) = run_program(|pb| {
            let g = pb.global_words("tbl", &[10, 20, 30]);
            let mut f = FunctionBuilder::new("main");
            f.load_global(Gpr::A0, g, 16); // third word
            f.syscall(arl_isa::Syscall::PrintInt);
            pb.add_function(f);
        });
        assert_eq!(out, vec![30]);
    }

    #[test]
    fn fp_pipeline_works() {
        let (out, _) = run_program(|pb| {
            let mut f = FunctionBuilder::new("main");
            f.li(Gpr::T0, 3);
            f.cvt_if(arl_isa::Fpr::F0, Gpr::T0);
            f.li(Gpr::T1, 4);
            f.cvt_if(arl_isa::Fpr::F1, Gpr::T1);
            f.fmul(arl_isa::Fpr::F2, arl_isa::Fpr::F0, arl_isa::Fpr::F0);
            f.fmul(arl_isa::Fpr::F3, arl_isa::Fpr::F1, arl_isa::Fpr::F1);
            f.fadd(arl_isa::Fpr::F2, arl_isa::Fpr::F2, arl_isa::Fpr::F3);
            f.falu(
                arl_isa::FAluOp::Sqrt,
                arl_isa::Fpr::F2,
                arl_isa::Fpr::F2,
                arl_isa::Fpr::F2,
            );
            f.cvt_fi(Gpr::A0, arl_isa::Fpr::F2);
            f.syscall(arl_isa::Syscall::PrintInt);
            pb.add_function(f);
        });
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn step_after_exit_returns_none() {
        let mut pb = ProgramBuilder::new();
        let f = FunctionBuilder::new("main");
        pb.add_function(f);
        let p = pb.link("main").unwrap();
        let mut m = Machine::new(&p);
        m.run(1_000).unwrap();
        assert!(m.exited);
        assert!(m.step().unwrap().is_none());
    }

    #[test]
    fn run_respects_instruction_budget() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main");
        let top = f.new_label();
        f.bind(top);
        f.j(top); // infinite loop
        pb.add_function(f);
        let p = pb.link("main").unwrap();
        let mut m = Machine::new(&p);
        let outcome = m.run(100).unwrap();
        assert_eq!(outcome.retired, 100);
        assert!(!outcome.exited);
    }
}
