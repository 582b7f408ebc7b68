//! The **legacy** cycle-ticking reference core, reachable only through
//! [`crate::reference::run_probed`].
//!
//! This is the pre-refactor pipeline, preserved verbatim as the oracle the
//! event-driven core in [`crate::pipeline`] is differentially tested
//! against: a `VecDeque` of wide per-instruction slots, every stage
//! walking the full ROB, and the clock ticking through every cycle — idle
//! or not. Its outputs (`SimStats`, probe observations) define bit-exact
//! correctness; `tests/core_differential.rs` holds the event core to them
//! on every workload and configuration, and `bench_speed` times it as the
//! speedup denominator. It runs whole traces only: sharded replay is a
//! property of the production core.

use std::collections::VecDeque;

use arl_core::{static_hint, Arpt, StaticHint};
use arl_sim::{SourceError, TraceEntry, TraceSource};

use crate::cache::{MemSystem, Route};
use crate::config::{MachineConfig, RecoveryMode};
use crate::fault::{FaultKind, TimingFault};
use crate::metrics::SimStats;
use crate::pipeline::{classify, Fu};
use crate::probe::{CycleObs, Probe, StallCause};
use crate::valuepred::StridePredictor;

const NO_CYCLE: u64 = u64::MAX;

/// Runs `source` to completion through the legacy core with an attached
/// probe and returns the statistics alongside it. The probe is pure
/// observation: `SimStats` are identical with any probe attached.
///
/// # Errors
///
/// Propagates the first [`SourceError`] from the source.
pub fn run_probed<S: TraceSource, P: Probe>(
    source: &mut S,
    config: &MachineConfig,
    probe: P,
) -> Result<(SimStats, P), SourceError> {
    let mut sim = LegacySim::new(config, probe);
    let mut pending: Option<TraceEntry> = None;
    let mut exhausted = false;
    loop {
        sim.begin_cycle();
        let committed = sim.commit_stage();
        sim.memory_stage();
        // Attribute the stall after the memory stage so port/MSHR denials
        // reflect this cycle's actual bandwidth claims, but before issue
        // mutates the head's issued state.
        let stall = if P::ENABLED && committed == 0 {
            Some(sim.stall_cause())
        } else {
            None
        };
        let issued = sim.issue_stage();
        // Dispatch stage: pull from the source.
        let mut dispatched = 0;
        while dispatched < sim.config.issue_width {
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
                dispatched += 1;
            } else {
                pending = Some(entry);
                break;
            }
        }
        if P::ENABLED {
            let (dcache_claims, lvc_claims) = sim.mem.claims_this_cycle();
            sim.probe.record(&CycleObs {
                rob_occupancy: sim.rob.len(),
                issued,
                committed,
                lsq_depth: sim.lsq_count,
                lvaq_depth: sim.lvaq_count,
                dcache_claims,
                lvc_claims,
                stall,
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
    Ok((stats, probe))
}

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

/// The preserved pre-refactor simulator, monomorphized over its
/// [`Probe`] exactly like the event core: a probe with `ENABLED == false`
/// makes every observation-gathering expression statically dead.
struct LegacySim<P: Probe> {
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

    fn finish(self) -> (SimStats, P) {
        let mut stats = self.stats;
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
        (stats, self.probe)
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
