//! Linking and the executable [`Program`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use arl_isa::{AluOp, Gpr, Inst, MemOpInfo, Syscall, INST_BYTES};
use arl_mem::Layout;

use crate::func::{AsmInst, FunctionBuilder};
use crate::types::{GlobalRef, Provenance};

/// Errors produced while linking a program.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LinkError {
    /// A call or address-of referenced a function that was never added.
    UnknownFunction {
        /// The missing function's name.
        name: String,
    },
    /// Two functions share a name.
    DuplicateFunction {
        /// The duplicated name.
        name: String,
    },
    /// A label was branched to but never bound.
    UnboundLabel {
        /// Function containing the dangling branch.
        func: String,
    },
    /// The requested entry function does not exist.
    MissingEntry {
        /// The entry name that was requested.
        name: String,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::UnknownFunction { name } => write!(f, "call to unknown function `{name}`"),
            LinkError::DuplicateFunction { name } => write!(f, "duplicate function `{name}`"),
            LinkError::UnboundLabel { func } => {
                write!(f, "unbound label in function `{func}`")
            }
            LinkError::MissingEntry { name } => write!(f, "entry function `{name}` not found"),
        }
    }
}

impl Error for LinkError {}

/// Accumulates globals and functions, then links them into a [`Program`].
#[derive(Default, Debug)]
pub struct ProgramBuilder {
    layout: Layout,
    data: Vec<u8>,
    globals: HashMap<String, GlobalRef>,
    functions: Vec<FunctionBuilder>,
}

impl ProgramBuilder {
    /// Creates an empty builder over the default [`Layout`].
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            layout: Layout::default(),
            data: Vec::new(),
            globals: HashMap::new(),
            functions: Vec::new(),
        }
    }

    /// The layout programs will be linked against.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    fn align_data(&mut self, align: usize) {
        while !self.data.len().is_multiple_of(align) {
            self.data.push(0);
        }
    }

    /// Reserves a zero-initialized global of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if a global with the same name exists.
    pub fn global_zeroed(&mut self, name: &str, size: u64) -> GlobalRef {
        self.align_data(8);
        let gref = GlobalRef {
            offset: self.data.len() as u64,
            size,
        };
        self.data.resize(self.data.len() + size as usize, 0);
        let prev = self.globals.insert(name.to_string(), gref);
        assert!(prev.is_none(), "duplicate global `{name}`");
        gref
    }

    /// Installs an initialized global from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if a global with the same name exists.
    pub fn global_bytes(&mut self, name: &str, bytes: &[u8]) -> GlobalRef {
        self.align_data(8);
        let gref = GlobalRef {
            offset: self.data.len() as u64,
            size: bytes.len() as u64,
        };
        self.data.extend_from_slice(bytes);
        let prev = self.globals.insert(name.to_string(), gref);
        assert!(prev.is_none(), "duplicate global `{name}`");
        gref
    }

    /// Installs an initialized global of 64-bit words.
    pub fn global_words(&mut self, name: &str, words: &[i64]) -> GlobalRef {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        self.global_bytes(name, &bytes)
    }

    /// Installs an initialized global of `f64`s.
    pub fn global_f64s(&mut self, name: &str, values: &[f64]) -> GlobalRef {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        self.global_bytes(name, &bytes)
    }

    /// Looks up a previously declared global by name.
    pub fn global(&self, name: &str) -> Option<GlobalRef> {
        self.globals.get(name).copied()
    }

    /// Adds a finished function.
    pub fn add_function(&mut self, func: FunctionBuilder) {
        self.functions.push(func);
    }

    /// Links everything into an executable [`Program`] whose `_start` stub
    /// establishes `$gp`/`$sp`/`$fp`, calls `entry`, and exits.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] for unknown/duplicate functions, unbound
    /// labels, or a missing entry point.
    pub fn link(&self, entry: &str) -> Result<Program, LinkError> {
        // _start stub: li gp; li sp; mov fp, sp; jal entry; li a0,0; exit.
        // li of 32-bit constants is 2 words, so the stub is 2+2+1+1+1+1 = 8.
        const STUB_WORDS: u64 = 8;
        let text_base = self.layout.text_base();

        // Lay out functions after the stub and build the symbol table.
        let mut symbols: HashMap<String, u64> = HashMap::new();
        let mut finalized = Vec::with_capacity(self.functions.len());
        let mut pc = text_base + STUB_WORDS * INST_BYTES;
        for f in &self.functions {
            if symbols.contains_key(f.name()) {
                return Err(LinkError::DuplicateFunction {
                    name: f.name().to_string(),
                });
            }
            symbols.insert(f.name().to_string(), pc);
            let (insts, prov, labels) = f.finalize();
            let words = insts.len() as u64;
            finalized.push((f.name().to_string(), pc, insts, prov, labels));
            pc += words * INST_BYTES;
        }
        let entry_pc = *symbols.get(entry).ok_or_else(|| LinkError::MissingEntry {
            name: entry.to_string(),
        })?;

        let mut insts: Vec<Inst> = Vec::new();
        let mut prov_out: Vec<Provenance> = Vec::new();
        let mut emit = |inst: Inst| {
            insts.push(inst);
        };

        // _start stub.
        let gp = self.layout.data_base() as u32;
        emit(Inst::Lui {
            rd: Gpr::GP,
            imm: (gp >> 16) as u16,
        });
        emit(Inst::AluI {
            op: AluOp::Or,
            rd: Gpr::GP,
            rs: Gpr::GP,
            imm: (gp & 0xffff) as u16 as i16,
        });
        let sp = self.layout.stack_top() as u32;
        emit(Inst::Lui {
            rd: Gpr::SP,
            imm: (sp >> 16) as u16,
        });
        emit(Inst::AluI {
            op: AluOp::Or,
            rd: Gpr::SP,
            rs: Gpr::SP,
            imm: (sp & 0xffff) as u16 as i16,
        });
        emit(Inst::AluI {
            op: AluOp::Add,
            rd: Gpr::FP,
            rs: Gpr::SP,
            imm: 0,
        });
        emit(Inst::Jal { target: entry_pc });
        emit(Inst::AluI {
            op: AluOp::Add,
            rd: Gpr::A0,
            rs: Gpr::ZERO,
            imm: 0,
        });
        emit(Inst::Sys {
            call: Syscall::Exit,
        });
        debug_assert_eq!(insts.len() as u64, STUB_WORDS);
        prov_out.resize(insts.len(), Provenance::Mixed);

        // Functions.
        for (name, base_pc, asm, prov, labels) in &finalized {
            let label_pc = |idx: usize| -> Result<u64, LinkError> {
                let inst_idx = labels
                    .get(idx)
                    .copied()
                    .flatten()
                    .ok_or_else(|| LinkError::UnboundLabel { func: name.clone() })?;
                Ok(base_pc + inst_idx as u64 * INST_BYTES)
            };
            for (a, p) in asm.iter().zip(prov) {
                insts.push(match a {
                    AsmInst::Inst(i) => *i,
                    AsmInst::Branch {
                        cond,
                        rs,
                        rt,
                        label,
                    } => Inst::Branch {
                        cond: *cond,
                        rs: *rs,
                        rt: *rt,
                        target: label_pc(label.0)?,
                    },
                    AsmInst::Jump { label } => Inst::Jump {
                        target: label_pc(label.0)?,
                    },
                    AsmInst::Call { func } => Inst::Jal {
                        target: *symbols
                            .get(func)
                            .ok_or_else(|| LinkError::UnknownFunction { name: func.clone() })?,
                    },
                });
                prov_out.push(*p);
            }
        }

        Ok(Program {
            layout: self.layout,
            insts,
            prov: prov_out,
            data: self.data.clone(),
            entry_pc: text_base,
            symbols,
        })
    }
}

/// A linked, executable program: text, initialized data, symbols, and the
/// per-instruction compiler knowledge.
#[derive(Clone, Debug)]
pub struct Program {
    layout: Layout,
    insts: Vec<Inst>,
    prov: Vec<Provenance>,
    data: Vec<u8>,
    entry_pc: u64,
    symbols: HashMap<String, u64>,
}

impl Program {
    /// The layout the program was linked against.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The symbol table (function name → pc).
    pub fn symbols(&self) -> &HashMap<String, u64> {
        &self.symbols
    }

    /// The pc execution starts at (the `_start` stub).
    pub fn entry_pc(&self) -> u64 {
        self.entry_pc
    }

    /// Number of instructions in the text segment.
    pub fn text_len(&self) -> usize {
        self.insts.len()
    }

    /// The instruction at `pc`, if it lies in text.
    #[inline]
    pub fn inst_at(&self, pc: u64) -> Option<&Inst> {
        let base = self.layout.text_base();
        if pc < base || !(pc - base).is_multiple_of(INST_BYTES) {
            return None;
        }
        self.insts.get(((pc - base) / INST_BYTES) as usize)
    }

    /// The compiler-knowledge tag for the memory instruction at `pc`;
    /// `None` if `pc` is not a memory instruction.
    pub fn provenance_at(&self, pc: u64) -> Option<Provenance> {
        let inst = self.inst_at(pc)?;
        if !inst.is_mem() {
            return None;
        }
        let idx = ((pc - self.layout.text_base()) / INST_BYTES) as usize;
        self.prov.get(idx).copied()
    }

    /// Initial contents of the data segment.
    pub fn data_image(&self) -> &[u8] {
        &self.data
    }

    /// The address of a linked function.
    pub fn symbol(&self, name: &str) -> Option<u64> {
        self.symbols.get(name).copied()
    }

    /// Iterates `(pc, inst)` over the whole text segment.
    pub fn iter_text(&self) -> impl Iterator<Item = (u64, &Inst)> {
        let base = self.layout.text_base();
        self.insts
            .iter()
            .enumerate()
            .map(move |(i, inst)| (base + i as u64 * INST_BYTES, inst))
    }

    /// Iterates the static memory instructions as
    /// `(pc, MemOpInfo, Provenance)` — the population Figures 2, 4, 5 and
    /// Table 3 are computed over.
    pub fn static_mem_instructions(
        &self,
    ) -> impl Iterator<Item = (u64, MemOpInfo, Provenance)> + '_ {
        self.iter_text().filter_map(|(pc, inst)| {
            inst.mem_op().map(|info| {
                let idx = ((pc - self.layout.text_base()) / INST_BYTES) as usize;
                (pc, info, self.prov[idx])
            })
        })
    }

    /// Renders a full disassembly listing.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut addr_to_name: HashMap<u64, &str> = HashMap::new();
        for (name, &pc) in &self.symbols {
            addr_to_name.insert(pc, name);
        }
        for (pc, inst) in self.iter_text() {
            if let Some(name) = addr_to_name.get(&pc) {
                let _ = writeln!(out, "{name}:");
            }
            let _ = writeln!(out, "  {pc:#010x}  {inst}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arl_isa::BranchCond;

    fn trivial_main() -> FunctionBuilder {
        let mut f = FunctionBuilder::new("main");
        f.li(Gpr::V0, 3);
        f
    }

    #[test]
    fn link_produces_stub_and_symbols() {
        let mut pb = ProgramBuilder::new();
        pb.add_function(trivial_main());
        let p = pb.link("main").unwrap();
        assert_eq!(p.entry_pc(), p.layout().text_base());
        let main_pc = p.symbol("main").unwrap();
        assert_eq!(main_pc, p.layout().text_base() + 8 * INST_BYTES);
        // The stub's jal targets main.
        let jal_pc = p.layout().text_base() + 5 * INST_BYTES;
        assert_eq!(p.inst_at(jal_pc), Some(&Inst::Jal { target: main_pc }));
    }

    #[test]
    fn missing_entry_is_an_error() {
        let pb = ProgramBuilder::new();
        assert!(matches!(
            pb.link("main"),
            Err(LinkError::MissingEntry { name }) if name == "main"
        ));
    }

    #[test]
    fn unknown_call_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let mut f = trivial_main();
        f.call("nothere");
        pb.add_function(f);
        assert!(matches!(
            pb.link("main"),
            Err(LinkError::UnknownFunction { name }) if name == "nothere"
        ));
    }

    #[test]
    fn duplicate_function_is_an_error() {
        let mut pb = ProgramBuilder::new();
        pb.add_function(trivial_main());
        pb.add_function(trivial_main());
        assert!(matches!(
            pb.link("main"),
            Err(LinkError::DuplicateFunction { .. })
        ));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut pb = ProgramBuilder::new();
        let mut f = trivial_main();
        let dangling = f.new_label();
        f.br(BranchCond::Eq, Gpr::T0, Gpr::ZERO, dangling);
        pb.add_function(f);
        assert!(matches!(
            pb.link("main"),
            Err(LinkError::UnboundLabel { .. })
        ));
    }

    #[test]
    fn branch_targets_resolve_to_bound_pcs() {
        let mut pb = ProgramBuilder::new();
        let mut f = FunctionBuilder::new("main");
        let top = f.new_label();
        f.li(Gpr::T0, 5);
        f.bind(top);
        f.addi(Gpr::T0, Gpr::T0, -1);
        f.br(BranchCond::Gt, Gpr::T0, Gpr::ZERO, top);
        pb.add_function(f);
        let p = pb.link("main").unwrap();
        // Find the branch and check its target is the addi's pc.
        let (branch_pc, target) = p
            .iter_text()
            .find_map(|(pc, i)| match i {
                Inst::Branch { target, .. } => Some((pc, *target)),
                _ => None,
            })
            .expect("program contains a branch");
        assert!(target < branch_pc, "loop branch targets backwards");
        assert!(matches!(
            p.inst_at(target),
            Some(Inst::AluI { op: AluOp::Add, .. })
        ));
    }

    #[test]
    fn globals_are_laid_out_disjointly() {
        let mut pb = ProgramBuilder::new();
        let a = pb.global_zeroed("a", 100);
        let b = pb.global_words("b", &[1, 2, 3]);
        let c = pb.global_f64s("c", &[1.5]);
        assert!(a.offset() + a.size() <= b.offset());
        assert!(b.offset() + b.size() <= c.offset());
        assert_eq!(pb.global("b"), Some(b));
        pb.add_function(trivial_main());
        let p = pb.link("main").unwrap();
        // Initialized data visible in the image.
        let off = b.offset() as usize;
        assert_eq!(
            i64::from_le_bytes(p.data_image()[off..off + 8].try_into().unwrap()),
            1
        );
    }

    #[test]
    fn provenance_tracks_memory_instructions() {
        let mut pb = ProgramBuilder::new();
        let g = pb.global_zeroed("g", 8);
        let mut f = FunctionBuilder::new("main");
        let slot = f.local(8);
        f.store_local(Gpr::ZERO, slot, 0);
        f.load_global(Gpr::T0, g, 0);
        pb.add_function(f);
        let p = pb.link("main").unwrap();
        let tags: Vec<Provenance> = p
            .static_mem_instructions()
            .map(|(_, _, prov)| prov)
            .collect();
        // Prologue spills (LocalVar), body store (LocalVar), body load
        // (StaticVar), epilogue reloads (LocalVar).
        assert!(tags.contains(&Provenance::StaticVar));
        assert!(tags.iter().filter(|&&t| t == Provenance::LocalVar).count() >= 4);
    }

    #[test]
    fn disassembly_lists_symbols() {
        let mut pb = ProgramBuilder::new();
        pb.add_function(trivial_main());
        let p = pb.link("main").unwrap();
        let d = p.disassemble();
        assert!(d.contains("main:"));
        assert!(d.contains("jal"));
    }
}
