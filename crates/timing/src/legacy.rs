//! The **legacy** cycle-ticking reference core (`ARL_CORE=legacy`).
//!
//! This is the pre-refactor pipeline, preserved verbatim as an escape
//! hatch and as the reference the event-driven SoA core in
//! [`crate::pipeline`] is differentially tested against: one array-of-
//! structs ROB slot per instruction, every stage walking the full ROB,
//! and the clock ticking through every cycle — idle or not. Its outputs
//! (`SimStats`, probe observations, experiment tables) define bit-exact
//! correctness; `tests/core_differential.rs` holds the event core to
//! them on every workload and configuration.
//!
use std::collections::VecDeque;

use arl_core::{static_hint, Arpt, StaticHint};
use arl_sim::{SourceError, TraceEntry, TraceSource};

use crate::cache::{MemSystem, Route};
use crate::config::{MachineConfig, RecoveryMode};
use crate::fault::{FaultKind, TimingFault};
use crate::metrics::SimStats;
use crate::pipeline::{classify, fu_from, Fu, SegmentRun};
use crate::probe::{CycleObs, NullProbe, Probe, StallCause};
use crate::state::{
    corrupt, read_arpt, read_stats, route_from, route_tag, write_arpt, write_stats, MidCycle,
    StateReader, StateWriter, CORE_LEGACY, STATE_MAGIC, STATE_VERSION,
};
use crate::valuepred::StridePredictor;

/// Serialization tag for a [`MemPhase`] (sharded-replay state blobs).
fn phase_tag(phase: MemPhase) -> u8 {
    match phase {
        MemPhase::None => 0,
        MemPhase::WaitAgen => 1,
        MemPhase::Ready => 2,
        MemPhase::Accessed => 3,
    }
}

fn phase_from(tag: u8) -> Result<MemPhase, SourceError> {
    match tag {
        0 => Ok(MemPhase::None),
        1 => Ok(MemPhase::WaitAgen),
        2 => Ok(MemPhase::Ready),
        3 => Ok(MemPhase::Accessed),
        _ => Err(corrupt("memory phase out of range")),
    }
}

const NO_CYCLE: u64 = u64::MAX;
/// Serialized stand-in for `None` in the dependence and renamer fields.
const NO_DEP: u64 = u64::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum MemPhase {
    /// Not a memory instruction.
    None,
    /// Waiting for address generation (i.e. for issue).
    WaitAgen,
    /// Address known; verification done; waiting to start the access
    /// (ordering, ports) or — for stores — waiting for commit.
    Ready,
    /// Access in flight or complete.
    Accessed,
}

struct Slot {
    seq: u64,
    dispatch_cycle: u64,
    /// Producer sequence numbers this instruction waits on to *issue*
    /// (for stores: the address operands only).
    deps: [Option<u64>; 3],
    /// For stores: the producer of the store *data*, tracked separately —
    /// the address is generated as soon as the base register is ready,
    /// exactly so younger loads are not serialized behind store data.
    data_dep: Option<u64>,
    fu: Fu,
    latency: u64,
    issued: bool,
    /// Cycle the result is available to consumers (`NO_CYCLE` until known).
    complete_at: u64,
    /// Whether a confident, *correct* value prediction covers this result.
    value_predicted: bool,
    // Memory fields.
    mem: MemPhase,
    is_load: bool,
    addr: u64,
    is_stack: bool,
    route: Route,
    /// Earliest cycle the memory stage may process it (after redirect).
    mem_ready_at: u64,
    /// Address-generation completion cycle.
    agen_done_at: u64,
    verified: bool,
    /// Whether the ARPT (not a static rule) made the steering decision.
    arpt_predicted: bool,
    /// Whether this reference was wrongly steered, detected, and
    /// re-dispatched on the correct path (counted at commit).
    recovered: bool,
    pc: u64,
    ghr: u64,
    ra: u64,
}

/// The preserved pre-refactor simulator. Only reachable through
/// [`crate::TimingSim`] with [`crate::CoreMode::Legacy`] selected; the
/// public entry points delegate here so callers never name this type.
///
/// The simulator is monomorphized over its [`Probe`] exactly like the
/// event core: the default [`NullProbe`] has `ENABLED == false`, so every
/// observation-gathering expression is statically dead.
pub(crate) struct LegacySim<P: Probe = NullProbe> {
    config: MachineConfig,
    mem: MemSystem,
    arpt: Arpt,
    vpred: Option<StridePredictor>,
    stats: SimStats,

    cycle: u64,
    rob: VecDeque<Slot>,
    head_seq: u64,
    next_seq: u64,
    /// Sequence numbers awaiting issue, in program order.
    waiting_issue: VecDeque<u64>,
    /// In-flight stores per queue, in program order (for ordering checks).
    lsq_stores: VecDeque<u64>,
    lvaq_stores: VecDeque<u64>,
    lsq_count: usize,
    lvaq_count: usize,
    /// Per-register producer tracking (32 GPR + 32 FPR).
    reg_producer: [Option<u64>; 64],
    // Per-cycle FU usage.
    fu_used: [usize; 4],
    /// Committed stores awaiting their background cache write.
    write_buffer: VecDeque<(Route, u64)>,
    /// Pending ARPT soft errors (removed once injected); port-layer faults
    /// live inside [`MemSystem`].
    arpt_faults: Vec<TimingFault>,
    /// Persistent scratch for the memory-stage action list — reused every
    /// cycle so the busy loop performs no per-cycle heap allocation.
    mem_scratch: Vec<u64>,
    probe: P,
}

impl<P: Probe> LegacySim<P> {
    fn new(config: &MachineConfig, probe: P) -> LegacySim<P> {
        LegacySim {
            mem: MemSystem::new(config),
            arpt: Arpt::new(
                arl_core::CounterScheme::OneBit,
                arl_core::Context::HYBRID_8_7,
                arl_core::Capacity::Entries(1 << config.arpt_log2_entries),
            ),
            vpred: config.value_prediction.then(StridePredictor::table4),
            stats: SimStats {
                config_name: config.name.clone(),
                ..SimStats::default()
            },
            cycle: 0,
            rob: VecDeque::with_capacity(config.rob_size),
            head_seq: 0,
            next_seq: 0,
            waiting_issue: VecDeque::new(),
            lsq_stores: VecDeque::new(),
            lvaq_stores: VecDeque::new(),
            lsq_count: 0,
            lvaq_count: 0,
            reg_producer: [None; 64],
            fu_used: [0; 4],
            write_buffer: VecDeque::new(),
            arpt_faults: config
                .faults
                .iter()
                .filter(|f| !f.is_port_fault())
                .copied()
                .collect(),
            mem_scratch: Vec::new(),
            config: config.clone(),
            probe,
        }
    }

    /// Runs one shard segment through the legacy model with an attached
    /// probe — the legacy counterpart of
    /// `TimingSim::run_segment_probed`, with the same mid-cycle cut
    /// semantics (an unsharded run passes `resume: None, final_segment:
    /// true`). The probe is pure observation — `SimStats` are identical
    /// with any probe attached.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SourceError`] from the source, and rejects a
    /// corrupt or mismatched `resume` blob as [`SourceError::Corrupt`].
    pub(crate) fn run_segment_probed<S: TraceSource>(
        source: &mut S,
        config: &MachineConfig,
        resume: Option<&[u8]>,
        final_segment: bool,
        probe: P,
    ) -> Result<SegmentRun<P>, SourceError> {
        let mut sim = LegacySim::new(config, probe);
        let mut carried = match resume {
            Some(blob) => Some(sim.import_state(blob)?),
            None => None,
        };
        let mut pending: Option<TraceEntry> = None;
        let mut exhausted = false;
        loop {
            // A carried mid-cycle resumes *inside* the cycle the previous
            // shard stopped in: commit, memory, stall attribution and
            // issue already ran there, so only the dispatch loop (and
            // everything after it) executes for that cycle.
            let mut mid = match carried.take() {
                Some(m) => m,
                None => {
                    sim.begin_cycle();
                    let committed = sim.commit_stage();
                    sim.memory_stage();
                    // Attribute the stall after the memory stage so
                    // port/MSHR denials reflect this cycle's actual
                    // bandwidth claims, but before issue mutates the
                    // head's issued state.
                    let stall = if P::ENABLED && committed == 0 {
                        Some(sim.stall_cause())
                    } else {
                        None
                    };
                    let issued = sim.issue_stage();
                    MidCycle {
                        committed,
                        issued,
                        dispatched: 0,
                        // The legacy core ticks every cycle; the event
                        // core's fast-forward guard never reads this.
                        mem_active: false,
                        stall,
                        rob_stalls_before: sim.stats.rob_stall_cycles,
                        queue_stalls_before: sim.stats.queue_stall_cycles,
                    }
                }
            };
            // Dispatch stage: pull from the source.
            while mid.dispatched < sim.config.issue_width {
                let entry = match pending.take() {
                    Some(e) => e,
                    None => match source.next_entry()? {
                        Some(e) => e,
                        None => {
                            exhausted = true;
                            break;
                        }
                    },
                };
                if sim.try_dispatch(&entry) {
                    mid.dispatched += 1;
                } else {
                    pending = Some(entry);
                    break;
                }
            }
            if exhausted && !final_segment {
                // The segment's span is spent: stop mid-cycle and hand the
                // machine to the next shard, which resumes inside this
                // very cycle with the next span's entries.
                debug_assert!(pending.is_none(), "a dry source cannot leave an entry");
                let state = sim.export_state(&mid);
                let mut stats = sim.stats_view();
                stats.peak_rss_bytes = source.metrics().peak_rss_bytes;
                return Ok(SegmentRun {
                    stats,
                    state: Some(state),
                    probe: sim.probe,
                });
            }
            if P::ENABLED {
                let (dcache_claims, lvc_claims) = sim.mem.claims_this_cycle();
                sim.probe.record(&CycleObs {
                    rob_occupancy: sim.rob.len(),
                    issued: mid.issued,
                    committed: mid.committed,
                    lsq_depth: sim.lsq_count,
                    lvaq_depth: sim.lvaq_count,
                    dcache_claims,
                    lvc_claims,
                    stall: mid.stall,
                });
            }
            if exhausted && pending.is_none() && sim.rob.is_empty() && sim.write_buffer.is_empty() {
                break;
            }
            debug_assert!(
                sim.cycle < 100 * sim.stats.instructions.max(1_000_000),
                "timing simulation is not making progress"
            );
        }
        let (mut stats, probe) = sim.finish();
        stats.peak_rss_bytes = source.metrics().peak_rss_bytes;
        Ok(SegmentRun {
            stats,
            state: None,
            probe,
        })
    }

    /// The statistics as they stand right now, presented finish-style
    /// (see `TimingSim::stats_view`).
    fn stats_view(&self) -> SimStats {
        let mut stats = self.stats.clone();
        stats.cycles = self.cycle;
        stats.dcache = self.mem.dcache_stats();
        stats.lvc = self.mem.lvc_stats();
        stats.l2 = self.mem.l2_stats();
        stats.stacked = self.mem.stacked_stats();
        stats.steer_fallbacks = self.mem.steer_fallbacks();
        if let Some(vp) = &self.vpred {
            stats.value_predictions = vp.predictions();
            stats.value_pred_correct = (vp.accuracy() * vp.predictions() as f64).round() as u64;
        }
        stats
            .faults_applied
            .extend_from_slice(self.mem.faults_triggered());
        stats.faults_applied.sort_unstable();
        stats.faults_applied.dedup();
        stats
    }

    fn finish(self) -> (SimStats, P) {
        (self.stats_view(), self.probe)
    }

    // ---- segment-boundary state (sharded replay) ----------------------------

    /// Serializes the complete legacy-core machine state at a mid-cycle
    /// segment boundary. The shared section mirrors the event core's blob
    /// field for field; the core-specific section is the array-of-structs
    /// ROB plus the waiting-issue queue.
    fn export_state(&self, mid: &MidCycle) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.bytes(&STATE_MAGIC);
        w.u8(STATE_VERSION);
        w.u8(CORE_LEGACY);
        let name = self.config.name.as_bytes();
        w.u32(name.len() as u32);
        w.bytes(name);
        mid.write(&mut w);
        // Shared section (same order in both cores).
        w.u64(self.cycle);
        write_stats(&mut w, &self.stats);
        for &p in &self.reg_producer {
            w.u64(p.unwrap_or(NO_DEP));
        }
        for &n in &self.fu_used {
            w.usize(n);
        }
        w.usize(self.lsq_count);
        w.usize(self.lvaq_count);
        w.u64_list(&self.lsq_stores.iter().copied().collect::<Vec<_>>());
        w.u64_list(&self.lvaq_stores.iter().copied().collect::<Vec<_>>());
        w.u32(self.write_buffer.len() as u32);
        for &(route, addr) in &self.write_buffer {
            w.u8(route_tag(route));
            w.u64(addr);
        }
        w.u32(self.arpt_faults.len() as u32);
        for f in &self.arpt_faults {
            w.u32(f.id);
        }
        match &self.vpred {
            Some(vp) => {
                w.u8(1);
                vp.write_state(&mut w);
            }
            None => w.u8(0),
        }
        write_arpt(&mut w, &self.arpt);
        self.mem.write_state(&mut w);
        // Legacy-core section: the ROB in order (slot seq is derived from
        // `head_seq` on import) and the issue wait queue.
        w.u64(self.head_seq);
        w.u64(self.next_seq);
        w.u32(self.rob.len() as u32);
        for s in &self.rob {
            w.u64(s.dispatch_cycle);
            for &d in &s.deps {
                w.u64(d.unwrap_or(NO_DEP));
            }
            w.u64(s.data_dep.unwrap_or(NO_DEP));
            w.u8(s.fu as u8);
            w.u64(s.latency);
            w.bool(s.issued);
            w.u64(s.complete_at);
            w.bool(s.value_predicted);
            w.u8(phase_tag(s.mem));
            w.bool(s.is_load);
            w.u64(s.addr);
            w.bool(s.is_stack);
            w.u8(route_tag(s.route));
            w.u64(s.mem_ready_at);
            w.u64(s.agen_done_at);
            w.bool(s.verified);
            w.bool(s.arpt_predicted);
            w.bool(s.recovered);
            w.u64(s.pc);
            w.u64(s.ghr);
            w.u64(s.ra);
        }
        w.u64_list(&self.waiting_issue.iter().copied().collect::<Vec<_>>());
        w.seal()
    }

    /// Restores a blob produced by [`LegacySim::export_state`] into this
    /// freshly constructed simulator; strict like the event core's import.
    fn import_state(&mut self, blob: &[u8]) -> Result<MidCycle, SourceError> {
        let mut r = StateReader::open(blob)?;
        if r.bytes(4)? != STATE_MAGIC {
            return Err(corrupt("bad magic"));
        }
        if r.u8()? != STATE_VERSION {
            return Err(corrupt("unsupported version"));
        }
        if r.u8()? != CORE_LEGACY {
            return Err(corrupt("state was captured by a different core"));
        }
        let name_len = r.len32()?;
        if r.bytes(name_len)? != self.config.name.as_bytes() {
            return Err(corrupt("configuration mismatch"));
        }
        let mid = MidCycle::read(&mut r)?;
        // Shared section.
        self.cycle = r.u64()?;
        read_stats(&mut r, &mut self.stats)?;
        for p in &mut self.reg_producer {
            let v = r.u64()?;
            *p = (v != NO_DEP).then_some(v);
        }
        for n in &mut self.fu_used {
            *n = r.usize()?;
        }
        self.lsq_count = r.usize()?;
        self.lvaq_count = r.usize()?;
        self.lsq_stores = r.u64_list()?.into();
        self.lvaq_stores = r.u64_list()?.into();
        self.write_buffer.clear();
        for _ in 0..r.len32()? {
            let route = route_from(r.u8()?)?;
            let addr = r.u64()?;
            self.write_buffer.push_back((route, addr));
        }
        // Pending ARPT faults are stored as ids and rebuilt from the
        // configuration's fault plan, preserving its order.
        let n_faults = r.len32()?;
        let mut fault_ids = Vec::with_capacity(n_faults.min(1024));
        for _ in 0..n_faults {
            fault_ids.push(r.u32()?);
        }
        self.arpt_faults = self
            .config
            .faults
            .iter()
            .filter(|f| !f.is_port_fault() && fault_ids.contains(&f.id))
            .copied()
            .collect();
        if self.arpt_faults.len() != n_faults {
            return Err(corrupt("pending fault not in the configuration"));
        }
        if r.bool()? != self.vpred.is_some() {
            return Err(corrupt("value-predictor presence mismatch"));
        }
        if let Some(vp) = &mut self.vpred {
            vp.read_state(&mut r)?;
        }
        read_arpt(&mut r, &mut self.arpt)?;
        self.mem.read_state(&mut r)?;
        // Legacy-core section.
        let head_seq = r.u64()?;
        let next_seq = r.u64()?;
        let rob_len = r.len32()?;
        if rob_len > self.config.rob_size {
            return Err(corrupt("ROB length exceeds capacity"));
        }
        let expect_next = head_seq
            .checked_add(rob_len as u64)
            .ok_or_else(|| corrupt("sequence overflow"))?;
        if next_seq != expect_next {
            return Err(corrupt("sequence numbering is inconsistent"));
        }
        self.head_seq = head_seq;
        self.next_seq = next_seq;
        self.rob.clear();
        for k in 0..rob_len {
            let dispatch_cycle = r.u64()?;
            let mut deps = [None; 3];
            for d in &mut deps {
                let v = r.u64()?;
                *d = (v != NO_DEP).then_some(v);
            }
            let data_dep = {
                let v = r.u64()?;
                (v != NO_DEP).then_some(v)
            };
            self.rob.push_back(Slot {
                seq: head_seq + k as u64,
                dispatch_cycle,
                deps,
                data_dep,
                fu: fu_from(r.u8()?)?,
                latency: r.u64()?,
                issued: r.bool()?,
                complete_at: r.u64()?,
                value_predicted: r.bool()?,
                mem: phase_from(r.u8()?)?,
                is_load: r.bool()?,
                addr: r.u64()?,
                is_stack: r.bool()?,
                route: route_from(r.u8()?)?,
                mem_ready_at: r.u64()?,
                agen_done_at: r.u64()?,
                verified: r.bool()?,
                arpt_predicted: r.bool()?,
                recovered: r.bool()?,
                pc: r.u64()?,
                ghr: r.u64()?,
                ra: r.u64()?,
            });
        }
        self.waiting_issue.clear();
        for seq in r.u64_list()? {
            if seq < head_seq || seq >= next_seq {
                return Err(corrupt("waiting-issue entry not in flight"));
            }
            self.waiting_issue.push_back(seq);
        }
        r.finish()?;
        Ok(mid)
    }

    fn begin_cycle(&mut self) {
        self.cycle += 1;
        self.mem.new_cycle();
        self.fu_used = [0; 4];
    }

    fn slot(&self, seq: u64) -> &Slot {
        &self.rob[(seq - self.head_seq) as usize]
    }

    fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        let idx = (seq - self.head_seq) as usize;
        &mut self.rob[idx]
    }

    /// When (if ever yet known) the value produced by `seq` is usable.
    fn producer_ready_at(&self, seq: u64) -> u64 {
        if seq < self.head_seq {
            return 0; // already committed
        }
        let s = self.slot(seq);
        if s.value_predicted {
            // Consumers may use the predicted value the cycle after the
            // producer dispatched.
            return s.dispatch_cycle + 1;
        }
        s.complete_at // NO_CYCLE until issued
    }

    fn deps_ready(&self, slot: &Slot) -> bool {
        slot.deps.iter().flatten().all(|&dep| {
            let ready = self.producer_ready_at(dep);
            ready != NO_CYCLE && ready <= self.cycle
        })
    }

    // ---- dispatch ---------------------------------------------------------

    fn try_dispatch(&mut self, entry: &TraceEntry) -> bool {
        if self.rob.len() >= self.config.rob_size {
            self.stats.rob_stall_cycles += 1;
            return false;
        }
        // Memory instructions need a queue entry; pick the queue now (the
        // paper's dispatch-stage steering).
        let mut route = Route::DataCache;
        let mut predicted_stack = false;
        let mut arpt_predicted = false;
        let is_mem = entry.mem.is_some();
        if is_mem {
            if self.config.is_decoupled() {
                let Some(info) = entry.inst.mem_op() else {
                    unreachable!("memory entry carries no mem_op");
                };
                predicted_stack = match static_hint(&info) {
                    StaticHint::Stack => true,
                    StaticHint::NonStack => false,
                    StaticHint::Dynamic => {
                        arpt_predicted = true;
                        if !self.arpt_faults.is_empty() {
                            self.apply_arpt_faults();
                        }
                        self.arpt.predict_counted(entry.pc, entry.ghr, entry.ra)
                    }
                };
                route = if predicted_stack {
                    Route::Lvc
                } else {
                    Route::DataCache
                };
                let (count, cap) = match route {
                    Route::Lvc => (self.lvaq_count, self.config.lvaq_size),
                    Route::DataCache => (self.lsq_count, self.config.lsq_size),
                };
                if count >= cap {
                    self.stats.queue_stall_cycles += 1;
                    return false;
                }
            } else if self.lsq_count >= self.config.lsq_size {
                self.stats.queue_stall_cycles += 1;
                return false;
            }
        }

        let seq = self.next_seq;
        self.next_seq += 1;

        // Resolve sources against the renamer state. Store-data operands
        // are tracked separately from address operands.
        let mut deps: [Option<u64>; 3] = [None; 3];
        let mut data_dep: Option<u64> = None;
        let mut n = 0;
        match entry.inst {
            arl_isa::Inst::Store { rs, base, .. } => {
                if base != arl_isa::Gpr::ZERO {
                    deps[0] = self.reg_producer[base.index()];
                }
                if rs != arl_isa::Gpr::ZERO {
                    data_dep = self.reg_producer[rs.index()];
                }
            }
            arl_isa::Inst::FStore { fs, base, .. } => {
                if base != arl_isa::Gpr::ZERO {
                    deps[0] = self.reg_producer[base.index()];
                }
                data_dep = self.reg_producer[32 + fs.index()];
            }
            _ => {
                let mut gprs = [arl_isa::Gpr::ZERO; 2];
                let ng = entry.inst.gpr_sources_into(&mut gprs);
                for &r in &gprs[..ng] {
                    deps[n] = self.reg_producer[r.index()];
                    n += 1;
                }
                let mut fprs = [arl_isa::Fpr::F0; 2];
                let nf = entry.inst.fpr_sources_into(&mut fprs);
                for &r in &fprs[..nf] {
                    if n < 3 {
                        deps[n] = self.reg_producer[32 + r.index()];
                        n += 1;
                    }
                }
            }
        }

        // Value prediction on the destination register.
        let mut value_predicted = false;
        if let (Some(vp), Some((_, actual))) = (self.vpred.as_mut(), entry.gpr_write) {
            value_predicted = vp.update(entry.pc, actual);
        }

        // Claim the renamer for the destination.
        if let Some((rd, _)) = entry.gpr_write {
            self.reg_producer[rd.index()] = Some(seq);
        }
        if let Some(fd) = entry.inst.fpr_dest() {
            self.reg_producer[32 + fd.index()] = Some(seq);
        }

        let (fu, latency) = classify(&entry.inst);
        let (is_load, addr, is_stack) = match entry.mem {
            Some(m) => (m.is_load, m.addr, m.is_stack()),
            None => (false, 0, false),
        };
        if is_mem {
            match route {
                Route::Lvc => {
                    self.lvaq_count += 1;
                    self.stats.lvaq_refs += 1;
                    if !is_load {
                        self.lvaq_stores.push_back(seq);
                    }
                }
                Route::DataCache => {
                    self.lsq_count += 1;
                    if !is_load {
                        self.lsq_stores.push_back(seq);
                    }
                }
            }
            self.stats.mem_refs += 1;
        }
        self.stats.instructions += 1;

        self.rob.push_back(Slot {
            seq,
            dispatch_cycle: self.cycle,
            deps,
            data_dep,
            fu,
            latency,
            issued: false,
            complete_at: NO_CYCLE,
            value_predicted,
            mem: if is_mem {
                MemPhase::WaitAgen
            } else {
                MemPhase::None
            },
            is_load,
            addr,
            is_stack,
            route,
            mem_ready_at: 0,
            agen_done_at: NO_CYCLE,
            verified: false,
            arpt_predicted,
            recovered: false,
            pc: entry.pc,
            ghr: entry.ghr,
            ra: entry.ra,
        });
        self.waiting_issue.push_back(seq);
        let _ = predicted_stack;
        true
    }

    /// Injects any pending ARPT soft errors whose trigger lookup has been
    /// reached (called just before a counted lookup, so `at_lookup == n`
    /// corrupts the table the `n`-th lookup reads).
    fn apply_arpt_faults(&mut self) {
        let next_lookup = self.arpt.lookups() + 1;
        let mut i = 0;
        while i < self.arpt_faults.len() {
            let fault = self.arpt_faults[i];
            match fault.kind {
                FaultKind::ArptSoftError {
                    slot,
                    mask,
                    at_lookup,
                } if at_lookup <= next_lookup => {
                    self.arpt.inject_soft_error(slot, mask);
                    self.stats.faults_applied.push(fault.id);
                    self.arpt_faults.remove(i);
                }
                _ => i += 1,
            }
        }
    }

    // ---- issue ------------------------------------------------------------

    fn issue_stage(&mut self) -> usize {
        let mut issued = 0;
        let width = self.config.issue_width;
        let mut i = 0;
        while i < self.waiting_issue.len() && issued < width {
            let seq = self.waiting_issue[i];
            let (ready, fu) = {
                let s = self.slot(seq);
                (s.dispatch_cycle < self.cycle && self.deps_ready(s), s.fu)
            };
            let fu_idx = fu as usize;
            let fu_cap = match fu {
                Fu::IntAlu => self.config.int_alus,
                Fu::FpAlu => self.config.fp_alus,
                Fu::IntMulDiv => self.config.int_mul_div,
                Fu::FpMulDiv => self.config.fp_mul_div,
            };
            if ready && self.fu_used[fu_idx] < fu_cap {
                self.fu_used[fu_idx] += 1;
                issued += 1;
                let now = self.cycle;
                let s = self.slot_mut(seq);
                s.issued = true;
                if s.mem == MemPhase::WaitAgen {
                    // Address generation completes next cycle; the memory
                    // stage takes over.
                    s.agen_done_at = now + s.latency;
                    s.complete_at = NO_CYCLE;
                } else {
                    s.complete_at = now + s.latency;
                }
                self.waiting_issue.remove(i);
                continue;
            }
            i += 1;
        }
        issued
    }

    // ---- memory stage -------------------------------------------------------

    fn memory_stage(&mut self) {
        // Drain the write buffer: committed stores write the cache in the
        // background as bandwidth allows.
        while let Some(&(route, addr)) = self.write_buffer.front() {
            if !self.mem.port_available(route, addr) {
                break;
            }
            if self.mem.access(route, addr).is_none() {
                break; // no MSHR for the write miss; retry next cycle
            }
            self.write_buffer.pop_front();
        }
        // Walk the ROB oldest-first; handle verification, redirects, and
        // load access starts. (Stores access the cache at commit.) The
        // action list lives in a persistent scratch buffer: once warmed it
        // never reallocates, and its capacity stays bounded by the window
        // (it holds at most one entry per in-flight slot).
        let mut actions = std::mem::take(&mut self.mem_scratch);
        actions.clear();
        for s in &self.rob {
            let actionable = (s.mem == MemPhase::WaitAgen && s.agen_done_at <= self.cycle)
                || (s.mem == MemPhase::Ready && s.mem_ready_at <= self.cycle);
            if actionable {
                actions.push(s.seq);
            }
        }
        debug_assert!(
            actions.capacity() <= self.config.rob_size.max(1).next_power_of_two(),
            "memory-stage scratch must stay bounded by the in-flight window"
        );
        for &seq in &actions {
            // 1. Verification (TLB stack-bit check) the cycle address
            //    generation finishes.
            let needs_verify = {
                let s = self.slot(seq);
                // (A squash may have reset a later action candidate back to
                // pre-agen state mid-walk; re-check the agen time.)
                s.mem == MemPhase::WaitAgen
                    && !s.verified
                    && s.agen_done_at != NO_CYCLE
                    && s.agen_done_at <= self.cycle
            };
            if needs_verify {
                self.verify_region(seq);
                continue; // access may start next cycle at the earliest
            }
            let (is_load, ready_at, complete, phase) = {
                let s = self.slot(seq);
                (s.is_load, s.mem_ready_at, s.complete_at, s.mem)
            };
            // A squash earlier in this same pass may have reset this
            // action candidate; only Ready slots proceed.
            if phase != MemPhase::Ready || ready_at > self.cycle {
                continue;
            }
            if is_load {
                self.try_start_load(seq);
            } else if complete == NO_CYCLE {
                // Store: becomes commit-eligible once its data arrives.
                let data_ready = match self.slot(seq).data_dep {
                    None => 0,
                    Some(dep) => self.producer_ready_at(dep),
                };
                if data_ready != NO_CYCLE && data_ready <= self.cycle {
                    let now = self.cycle;
                    self.slot_mut(seq).complete_at = now;
                }
            }
        }
        self.mem_scratch = actions;
    }

    /// The TLB region check: reroute and retrain on a wrong prediction.
    fn verify_region(&mut self, seq: u64) {
        let (route, is_stack, is_load, arpt_predicted, pc, ghr, ra) = {
            let s = self.slot(seq);
            (
                s.route,
                s.is_stack,
                s.is_load,
                s.arpt_predicted,
                s.pc,
                s.ghr,
                s.ra,
            )
        };
        let decoupled = self.config.is_decoupled();
        let correct_route = if decoupled && is_stack {
            Route::Lvc
        } else {
            Route::DataCache
        };
        let penalty = self.config.region_mispredict_penalty;
        let now = self.cycle;
        if decoupled && route != correct_route {
            // Misprediction: move the entry to the right queue (space
            // permitting — if the target queue is full we retry by staying
            // in WaitAgen with verified=false? Instead: wait for space).
            let space = match correct_route {
                Route::Lvc => self.lvaq_count < self.config.lvaq_size,
                Route::DataCache => self.lsq_count < self.config.lsq_size,
            };
            if !space {
                // Target queue full; retry verification next cycle.
                return;
            }
            self.stats.region_checks += 1;
            self.stats.region_mispredicts += 1;
            match route {
                Route::Lvc => self.lvaq_count -= 1,
                Route::DataCache => self.lsq_count -= 1,
            }
            match correct_route {
                Route::Lvc => self.lvaq_count += 1,
                Route::DataCache => self.lsq_count += 1,
            }
            if !is_load {
                // Move the store between the ordering queues.
                let (from, to) = match route {
                    Route::Lvc => (&mut self.lvaq_stores, &mut self.lsq_stores),
                    Route::DataCache => (&mut self.lsq_stores, &mut self.lvaq_stores),
                };
                if let Some(pos) = from.iter().position(|&s| s == seq) {
                    from.remove(pos);
                }
                let insert_at = to.iter().position(|&s| s > seq).unwrap_or(to.len());
                to.insert(insert_at, seq);
            }
            let s = self.slot_mut(seq);
            s.route = correct_route;
            s.verified = true;
            s.mem = MemPhase::Ready;
            // Detected and re-dispatched on the correct path; commit
            // counts the completed recovery.
            s.recovered = true;
            // Detection this cycle; re-issue `penalty` cycles later.
            s.mem_ready_at = now + 1 + penalty;
            if self.config.recovery == RecoveryMode::Squash {
                self.squash_younger(seq, now + 1 + penalty);
            }
        } else {
            if decoupled {
                self.stats.region_checks += 1;
            }
            let s = self.slot_mut(seq);
            s.verified = true;
            s.mem = MemPhase::Ready;
            s.mem_ready_at = now;
        }
        // Train the ARPT on dynamic (unrevealed) instructions only; the
        // statically revealed ones are never recorded in it.
        if decoupled && arpt_predicted {
            self.arpt.update(pc, ghr, ra, is_stack);
        }
    }

    /// Attempts to begin a load's cache access (ordering + forwarding +
    /// ports).
    fn try_start_load(&mut self, seq: u64) {
        let (route, addr, _now) = {
            let s = self.slot(seq);
            (s.route, s.addr, self.cycle)
        };
        let block = addr & !7;
        // Ordering against older stores in the same queue.
        let stores = match route {
            Route::Lvc => &self.lvaq_stores,
            Route::DataCache => &self.lsq_stores,
        };
        let mut forward_ready: Option<u64> = None;
        for &st_seq in stores.iter() {
            if st_seq >= seq {
                break;
            }
            let st = self.slot(st_seq);
            let addr_known = st.agen_done_at != NO_CYCLE && st.agen_done_at <= self.cycle;
            let data_ready = st.complete_at != NO_CYCLE && st.complete_at <= self.cycle;
            match route {
                Route::DataCache => {
                    // Conservative LSQ: every older store's address must be
                    // known before a load may proceed.
                    if !addr_known {
                        return;
                    }
                    if st.addr & !7 == block {
                        if !data_ready {
                            return; // matching store's data not produced yet
                        }
                        forward_ready = Some(st.complete_at);
                    }
                }
                Route::Lvc => {
                    // Fast forwarding: frame offsets identify the match
                    // before address generation; unknown stores do not
                    // block unless they match.
                    if st.addr & !7 == block {
                        if !data_ready {
                            return; // matching store's data not ready yet
                        }
                        forward_ready = Some(st.complete_at);
                    }
                }
            }
        }
        if let Some(_ready) = forward_ready {
            // Store-to-load forwarding: 1 cycle, no cache port.
            match route {
                Route::Lvc => self.stats.lvaq_forwards += 1,
                Route::DataCache => self.stats.lsq_forwards += 1,
            }
            let now = self.cycle;
            let s = self.slot_mut(seq);
            s.mem = MemPhase::Accessed;
            s.complete_at = now + 1;
            return;
        }
        if !self.mem.port_available(route, addr) {
            return; // bandwidth contention — retry next cycle
        }
        let Some(latency) = self.mem.access(route, addr) else {
            return; // miss with no free MSHR — retry next cycle
        };
        let now = self.cycle;
        let s = self.slot_mut(seq);
        s.mem = MemPhase::Accessed;
        s.complete_at = now + latency;
    }

    /// Branch-style recovery: every instruction younger than `seq` loses
    /// its issue and replays no earlier than `reissue_at` (its memory
    /// access, if any, restarts from address generation).
    fn squash_younger(&mut self, seq: u64, reissue_at: u64) {
        let mut requeue: Vec<u64> = Vec::new();
        for s in self.rob.iter_mut().filter(|s| s.seq > seq) {
            // Model the replay by pushing the apparent dispatch time out:
            // issue requires dispatch_cycle < cycle.
            s.dispatch_cycle = s.dispatch_cycle.max(reissue_at);
            if s.issued {
                s.issued = false;
                requeue.push(s.seq);
            }
            s.complete_at = NO_CYCLE;
            if s.mem != MemPhase::None {
                s.mem = MemPhase::WaitAgen;
                s.agen_done_at = NO_CYCLE;
                s.verified = false;
                s.mem_ready_at = 0;
            }
        }
        if !requeue.is_empty() {
            self.waiting_issue.extend(requeue);
            self.waiting_issue.make_contiguous().sort_unstable();
        }
    }

    // ---- commit -------------------------------------------------------------

    fn commit_stage(&mut self) -> usize {
        let mut committed = 0;
        while committed < self.config.issue_width {
            let Some(head) = self.rob.front() else { break };
            let is_mem = head.mem != MemPhase::None;
            let is_load = head.is_load;
            let route = head.route;
            let addr = head.addr;
            let seq = head.seq;
            let recovered = head.recovered;
            let done = match head.mem {
                MemPhase::None | MemPhase::Accessed => {
                    head.complete_at != NO_CYCLE && head.complete_at <= self.cycle
                }
                MemPhase::Ready if !is_load => {
                    head.complete_at != NO_CYCLE && head.complete_at <= self.cycle
                }
                _ => false,
            };
            if !done {
                break;
            }
            if is_mem && !is_load {
                // Stores write the cache at commit: into the write buffer
                // when one is configured and has space, else directly
                // through a port (stalling commit if none is free).
                if self.write_buffer.len() < self.config.write_buffer {
                    self.write_buffer.push_back((route, addr));
                } else {
                    if !self.mem.port_available(route, addr) {
                        break;
                    }
                    if self.mem.access(route, addr).is_none() {
                        break; // write miss with no MSHR
                    }
                }
            }
            // Release queue entries and renamer claims.
            if is_mem {
                match route {
                    Route::Lvc => {
                        self.lvaq_count -= 1;
                        if !is_load && self.lvaq_stores.front() == Some(&seq) {
                            self.lvaq_stores.pop_front();
                        }
                    }
                    Route::DataCache => {
                        self.lsq_count -= 1;
                        if !is_load && self.lsq_stores.front() == Some(&seq) {
                            self.lsq_stores.pop_front();
                        }
                    }
                }
            }
            for r in self.reg_producer.iter_mut() {
                if *r == Some(seq) {
                    *r = None;
                }
            }
            if recovered {
                self.stats.recoveries += 1;
            }
            self.rob.pop_front();
            self.head_seq += 1;
            committed += 1;
        }
        committed
    }

    // ---- stall attribution (probe support) ----------------------------------

    /// Attributes a commit-blocked cycle to exactly one [`StallCause`] by
    /// inspecting the ROB head — the unique instruction every later commit
    /// waits on. Called after [`Self::memory_stage`] (so bandwidth denials
    /// reflect this cycle's claims) and before [`Self::issue_stage`];
    /// purely observational.
    fn stall_cause(&self) -> StallCause {
        let Some(head) = self.rob.front() else {
            // Nothing in flight at all: the source ran dry (end of program
            // drain, or the first cycle before anything dispatched).
            return StallCause::FetchDry;
        };
        match head.mem {
            MemPhase::None | MemPhase::WaitAgen => {
                if head.issued {
                    // Result (or address generation) still in the FU
                    // pipeline.
                    StallCause::ExecLatency
                } else if self.rob.len() >= self.config.rob_size {
                    StallCause::RobFull
                } else {
                    // The head's deps are committed by construction, so an
                    // unissued head lost FU arbitration (or just
                    // dispatched).
                    StallCause::FuFull
                }
            }
            MemPhase::Accessed => StallCause::MemLatency,
            MemPhase::Ready => {
                if head.mem_ready_at > self.cycle {
                    // Serving the region-misprediction redirect penalty.
                    StallCause::ArptRedirect
                } else if head.is_load {
                    self.load_block_cause(head)
                } else if head.complete_at != NO_CYCLE && head.complete_at <= self.cycle {
                    // Store is done but commit_stage broke on it: the write
                    // buffer is full and the cache denied the write (port
                    // or MSHR).
                    StallCause::MemPort
                } else {
                    // Store waiting for its data operand.
                    StallCause::StoreOrdering
                }
            }
        }
    }

    /// Why a Ready head load has not started its access: mirrors the
    /// checks of [`Self::try_start_load`] read-only, in the same order.
    fn load_block_cause(&self, head: &Slot) -> StallCause {
        let block = head.addr & !7;
        let stores = match head.route {
            Route::Lvc => &self.lvaq_stores,
            Route::DataCache => &self.lsq_stores,
        };
        let mut forwards = false;
        for &st_seq in stores.iter() {
            if st_seq >= head.seq {
                break;
            }
            let st = self.slot(st_seq);
            let addr_known = st.agen_done_at != NO_CYCLE && st.agen_done_at <= self.cycle;
            let data_ready = st.complete_at != NO_CYCLE && st.complete_at <= self.cycle;
            if head.route == Route::DataCache && !addr_known {
                return StallCause::StoreOrdering;
            }
            if st.addr & !7 == block {
                if !data_ready {
                    return StallCause::StoreOrdering;
                }
                forwards = true;
            }
        }
        if forwards {
            // Forwarding needs no port; the load completes next cycle.
            return StallCause::MemLatency;
        }
        if !self.mem.port_available(head.route, head.addr)
            || self.mem.mshr_would_block(head.route, head.addr)
        {
            return StallCause::MemPort;
        }
        // The access starts this cycle; what remains is pure latency.
        StallCause::MemLatency
    }
}
