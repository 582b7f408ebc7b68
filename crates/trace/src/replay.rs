//! Trace capture and the replaying [`TraceSource`].

use arl_asm::Program;
use arl_isa::{Gpr, Inst};
use arl_mem::{Layout, Region};
use arl_sim::{ExecError, Machine, MemAccess, Metrics, SourceError, TraceEntry, TraceSource};

use crate::format::{decode_event, DeltaState, Trace, TraceWriter};

/// Captures a workload's full dynamic trace by executing it functionally
/// once (bounded by `max_insts`).
///
/// # Errors
///
/// Propagates the first [`ExecError`] from execution.
pub fn capture(program: &Program, max_insts: u64) -> Result<Trace, ExecError> {
    capture_snapshotted_with(program, max_insts, 0, |_| {})
}

/// Like [`capture`], additionally embedding a snapshot record every
/// `interval` retired instructions (0 disables snapshots), so the trace
/// can later be replayed in independent segments via
/// [`Replayer::open_span`], and passing every retired instruction to
/// `visitor` — so profilers can ride along on the single functional
/// execution instead of forcing a second one.
///
/// # Errors
///
/// Propagates the first [`ExecError`] from execution.
pub fn capture_snapshotted_with<F: FnMut(&TraceEntry)>(
    program: &Program,
    max_insts: u64,
    interval: u64,
    mut visitor: F,
) -> Result<Trace, ExecError> {
    let mut machine = Machine::new(program);
    let mut writer = TraceWriter::with_snapshots(program.entry_pc(), interval);
    machine.run_with(max_insts, |e| {
        writer.record(e);
        visitor(e);
    })?;
    Ok(writer.finish(&machine.metrics()))
}

/// A [`TraceSource`] that reconstructs the full [`TraceEntry`] stream from
/// a captured [`Trace`] plus the program image — without re-executing
/// anything.
///
/// Reconstruction mirrors the functional executor's bookkeeping: the
/// instruction is looked up at the decoded pc, width/direction come from
/// the instruction, the region is re-classified from the address, and the
/// sampled contexts (`ghr`, `ra`) are rebuilt by replaying branch outcomes
/// and link-register writes in order. A replayed stream is therefore
/// bit-identical to the live one — the differential suite holds this to
/// `==` on every workload.
pub struct Replayer<'a> {
    program: &'a Program,
    layout: Layout,
    body: &'a [u8],
    pos: usize,
    state: DeltaState,
    remaining: u64,
    metrics: Metrics,
    ghr: u64,
    ra: u64,
}

impl<'a> Replayer<'a> {
    /// Builds a replayer over `trace` for the program it was captured
    /// from.
    ///
    /// # Errors
    ///
    /// [`SourceError::Corrupt`] when the trace's entry pc does not match
    /// the program's (the trace belongs to a different program).
    pub fn new(trace: &'a Trace, program: &'a Program) -> Result<Replayer<'a>, SourceError> {
        Replayer::open_span(trace, program, 0, trace.snapshot_count() + 1)
    }

    /// Builds a replayer over one contiguous *segment* of `trace`.
    ///
    /// A trace with `S` snapshots has `S + 1` segments separated by
    /// boundaries `0..=S+1`: boundary 0 is the start of the trace,
    /// boundary `b` in `1..=S` is snapshot `b - 1`, and boundary `S + 1`
    /// is the end. The replayer delivers exactly the entries in
    /// `[start, end)` boundaries, resuming mid-trace from the snapshot's
    /// checkpointed decode cursor, delta state, and replayed contexts —
    /// concatenating every segment's stream reproduces the full replay
    /// bit-identically (the shard differential suite holds this to `==`).
    ///
    /// # Errors
    ///
    /// [`SourceError::Corrupt`] when the trace does not belong to
    /// `program`, the boundaries are out of range or inverted, or a
    /// snapshot record fails its O(1) validation.
    pub fn open_span(
        trace: &'a Trace,
        program: &'a Program,
        start: u64,
        end: u64,
    ) -> Result<Replayer<'a>, SourceError> {
        if trace.entry_pc() != program.entry_pc() {
            return Err(SourceError::Corrupt(format!(
                "trace entry pc {:#x} does not match program entry pc {:#x}",
                trace.entry_pc(),
                program.entry_pc()
            )));
        }
        // Every event costs at least one body byte; a count beyond that is
        // a forged footer, however plausible the checksum looks.
        let count = trace.event_count();
        if count > trace.body().len() as u64 {
            return Err(SourceError::Corrupt(format!(
                "event count {count} exceeds the {}-byte body",
                trace.body().len()
            )));
        }
        let boundaries = trace.snapshot_count() + 1;
        if start >= end || end > boundaries {
            return Err(SourceError::Corrupt(format!(
                "segment [{start}, {end}) invalid for {boundaries} boundaries"
            )));
        }
        let (pos, state, ghr, ra, start_idx) = if start == 0 {
            (0, DeltaState::new(trace.entry_pc()), 0, 0, 0)
        } else {
            let s = trace.snapshot(start - 1)?;
            (
                s.body_pos as usize,
                DeltaState {
                    prev_next_pc: s.prev_next_pc,
                    prev_addr: s.prev_addr,
                    prev_value: s.prev_value,
                },
                s.ghr,
                s.ra,
                s.inst_index,
            )
        };
        let end_idx = if end == boundaries {
            count
        } else {
            trace.snapshot(end - 1)?.inst_index
        };
        if start_idx > end_idx {
            return Err(SourceError::Corrupt(format!(
                "segment [{start}, {end}) spans inverted indices {start_idx}..{end_idx}"
            )));
        }
        Ok(Replayer {
            program,
            layout: *program.layout(),
            body: trace.body(),
            pos,
            state,
            remaining: end_idx - start_idx,
            metrics: trace.metrics(),
            ghr,
            ra,
        })
    }
}

impl TraceSource for Replayer<'_> {
    // Always inlined, so the caller builds the entry in place: returned
    // through memory, the caller's wide reloads of its field-by-field
    // stores miss store forwarding and stall on every entry.
    #[inline(always)]
    fn next_entry(&mut self) -> Result<Option<TraceEntry>, SourceError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let event = decode_event(self.body, &mut self.pos, &mut self.state)
            .ok_or_else(|| SourceError::Corrupt("malformed event record".into()))?;
        let inst = *self.program.inst_at(event.pc).ok_or_else(|| {
            SourceError::Corrupt(format!("pc {:#x} is outside the text segment", event.pc))
        })?;
        // The flags must agree with the instruction the pc resolves to —
        // a mismatch means the trace was captured from a different build
        // of the program.
        let mem = match (inst.mem_op(), event.mem_addr) {
            (Some(info), Some(addr)) => {
                let region = self.layout.classify(addr);
                // Data accesses never target the text segment; a decoded
                // address landing there means the trace body is corrupt.
                // Reject here so downstream profilers see only well-formed
                // entries instead of aborting a sweep mid-run.
                if region == Region::Text {
                    return Err(SourceError::Corrupt(format!(
                        "data access at pc {:#x} decodes to text address {addr:#x}",
                        event.pc
                    )));
                }
                Some(MemAccess {
                    addr,
                    width: info.width,
                    is_load: info.is_load,
                    region,
                })
            }
            (None, None) => None,
            _ => {
                return Err(SourceError::Corrupt(format!(
                    "memory flag disagrees with instruction at pc {:#x}",
                    event.pc
                )))
            }
        };
        let gpr_write = match (inst.gpr_dest(), event.value) {
            (Some(rd), Some(v)) => Some((rd, v)),
            (None, None) => None,
            _ => {
                return Err(SourceError::Corrupt(format!(
                    "value flag disagrees with instruction at pc {:#x}",
                    event.pc
                )))
            }
        };
        if event.taken && !matches!(inst, Inst::Branch { .. }) {
            return Err(SourceError::Corrupt(format!(
                "taken flag on non-branch at pc {:#x}",
                event.pc
            )));
        }
        let entry = TraceEntry {
            pc: event.pc,
            inst,
            mem,
            taken: event.taken,
            next_pc: event.next_pc,
            gpr_write,
            ghr: self.ghr,
            ra: self.ra,
        };
        // Advance the replayed contexts exactly as the executor does.
        if matches!(inst, Inst::Branch { .. }) {
            self.ghr = (self.ghr << 1) | event.taken as u64;
        }
        if let Some((Gpr::RA, v)) = gpr_write {
            self.ra = v as u64;
        }
        self.remaining -= 1;
        Ok(Some(entry))
    }

    fn metrics(&self) -> Metrics {
        self.metrics
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::format::TraceEvent;
    use arl_workloads::workload;

    fn flag_bytes() -> (Trace, Program) {
        let spec = workload("go").expect("go workload");
        let program = spec.build(arl_workloads::Scale::tiny());
        let trace = capture(&program, 10_000).expect("capture");
        (trace, program)
    }

    #[test]
    fn replay_is_bit_identical_to_live_execution() {
        let spec = workload("compress").expect("compress workload");
        let program = spec.build(arl_workloads::Scale::tiny());

        let mut live = Vec::new();
        let mut machine = Machine::new(&program);
        machine.run_with(50_000, |e| live.push(*e)).expect("run");

        let trace = capture(&program, 50_000).expect("capture");
        let mut replayer = Replayer::new(&trace, &program).expect("replayer");
        let mut replayed = Vec::new();
        while let Some(e) = replayer.next_entry().expect("replay") {
            replayed.push(e);
        }
        assert_eq!(replayed.len(), live.len());
        assert_eq!(replayed, live);
        assert_eq!(replayer.metrics(), machine.metrics());
        assert!(replayer.next_entry().unwrap().is_none(), "stays exhausted");
    }

    #[test]
    fn replayer_rejects_wrong_program() {
        let (trace, _program) = flag_bytes();
        let other = workload("compress")
            .unwrap()
            .build(arl_workloads::Scale::tiny());
        // Either the entry pcs differ (rejected at construction) or some
        // decoded record disagrees with the other program's text.
        match Replayer::new(&trace, &other) {
            Err(_) => {}
            Ok(mut r) => {
                let mut err = None;
                loop {
                    match r.next_entry() {
                        Ok(Some(_)) => continue,
                        Ok(None) => break,
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                assert!(err.is_some(), "foreign trace replayed cleanly");
            }
        }
    }

    #[test]
    fn segment_replay_concatenates_to_the_full_stream() {
        let spec = workload("compress").expect("compress workload");
        let program = spec.build(arl_workloads::Scale::tiny());
        let trace = capture_snapshotted_with(&program, 50_000, 1_000, |_| {}).expect("capture");
        assert!(trace.snapshot_count() >= 2, "workload too short to shard");
        assert_eq!(trace.snapshot_interval(), 1_000);

        let mut full = Vec::new();
        let mut replayer = Replayer::new(&trace, &program).expect("replayer");
        while let Some(e) = replayer.next_entry().expect("replay") {
            full.push(e);
        }

        let boundaries = trace.snapshot_count() + 1;
        let mut stitched = Vec::new();
        for b in 0..boundaries {
            let mut seg = Replayer::open_span(&trace, &program, b, b + 1).expect("segment");
            let mut n = 0u64;
            while let Some(e) = seg.next_entry().expect("segment replay") {
                stitched.push(e);
                n += 1;
            }
            if b + 1 < boundaries {
                assert_eq!(n, 1_000, "interior segment {b} has the interval length");
            }
        }
        assert_eq!(stitched, full);

        // Boundary misuse is rejected, not mis-replayed.
        assert!(Replayer::open_span(&trace, &program, 1, 1).is_err());
        assert!(Replayer::open_span(&trace, &program, 0, boundaries + 1).is_err());
    }

    #[test]
    fn capture_with_feeds_the_visitor_once_per_instruction() {
        let spec = workload("go").expect("go workload");
        let program = spec.build(arl_workloads::Scale::tiny());
        let mut seen = 0u64;
        let trace = capture_snapshotted_with(&program, 10_000, 0, |_| seen += 1).expect("capture");
        assert_eq!(seen, trace.event_count());
        assert!(seen > 0);
    }

    #[test]
    fn tampered_flag_byte_is_caught_even_with_a_fixed_checksum() {
        // Forge a structurally valid trace whose flags disagree with the
        // program text: the replayer's cross-checks must catch it.
        let (_trace, program) = flag_bytes();
        let entry_pc = program.entry_pc();
        let bogus = TraceEvent {
            pc: entry_pc,
            next_pc: entry_pc + 8,
            taken: true,
            mem_addr: Some(0x1234),
            value: Some(1),
        };
        let forged = Trace::from_events(entry_pc, &[bogus], &Metrics::default());
        let mut r = Replayer::new(&forged, &program).expect("entry pc matches");
        // No instruction is simultaneously a taken branch, a memory
        // access, and a GPR writer, so a cross-check must fire whatever
        // `_start` begins with.
        assert!(r.next_entry().is_err());
    }

    /// Seals `body` as a container of `count` events for `program`.
    fn raw_trace(program: &Program, body: &[u8], count: u64) -> Trace {
        let mut bytes = crate::format::MAGIC.to_vec();
        bytes.push(crate::VERSION);
        bytes.extend_from_slice(&program.entry_pc().to_le_bytes());
        bytes.extend_from_slice(body);
        bytes.extend_from_slice(&[0; 16]); // no snapshots
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&[0; 17]); // pages, values, exited
        let checksum = crate::container_checksum(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        Trace::from_bytes(bytes).expect("structurally valid container")
    }

    fn first_error(trace: &Trace, program: &Program) -> SourceError {
        let mut r = Replayer::new(trace, program).expect("entry pc matches");
        loop {
            match r.next_entry() {
                Ok(Some(_)) => {}
                Ok(None) => panic!("malformed body replayed cleanly"),
                Err(e) => break e,
            }
        }
    }

    #[test]
    fn malformed_varints_are_refused_as_corrupt() {
        let (_trace, program) = flag_bytes();
        let pc_break = crate::format::FLAG_PC_BREAK;
        // A pc delta cut right after its continuation byte.
        let cut = raw_trace(&program, &[pc_break, 0x80], 1);
        // A 10-byte pc delta carrying more than 64 payload bits, with a
        // well-formed record after it.
        let mut overlong = vec![pc_break];
        overlong.extend_from_slice(&[0xff; 9]);
        overlong.extend_from_slice(&[0x02, 0x00]);
        let overlong = raw_trace(&program, &overlong, 2);
        for trace in [cut, overlong] {
            match first_error(&trace, &program) {
                SourceError::Corrupt(msg) => assert_eq!(msg, "malformed event record"),
                other => panic!("wrong error variant: {other}"),
            }
        }
    }

    #[test]
    fn load_decoding_to_a_text_address_is_rejected() {
        // The genuine stream up to the program's first load, with that
        // load's address moved into the text segment: every flag still
        // agrees with the instruction, so only the region check can fire.
        let (_trace, program) = flag_bytes();
        let text = program.layout().text_base();
        let mut writer = TraceWriter::new(program.entry_pc());
        let mut load_pc = None;
        Machine::new(&program)
            .run_with(10_000, |e| {
                if load_pc.is_some() {
                    return;
                }
                let mut event = TraceEvent::from_entry(e);
                if e.is_load() {
                    event.mem_addr = Some(text);
                    load_pc = Some(e.pc);
                }
                writer.push(&event);
            })
            .expect("run");
        let load_pc = load_pc.expect("go loads within 10,000 instructions");
        let forged = writer.finish(&Metrics::default());
        let err = first_error(&forged, &program);
        match err {
            SourceError::Corrupt(msg) => assert_eq!(
                msg,
                format!("data access at pc {load_pc:#x} decodes to text address {text:#x}")
            ),
            other => panic!("wrong error variant: {other}"),
        }
    }
}
