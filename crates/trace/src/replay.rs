//! Trace capture and the replaying [`TraceSource`].

use arl_asm::Program;
use arl_isa::{Gpr, Inst};
use arl_mem::{Layout, Region};
use arl_sim::{ExecError, Machine, MemAccess, Metrics, SourceError, TraceEntry, TraceSource};

use crate::format::{decode_event, DeltaState, SnapshotRecord, Trace, TraceWriter};

/// Captures a workload's full dynamic trace by executing it functionally
/// once (bounded by `max_insts`).
///
/// # Errors
///
/// Propagates the first [`ExecError`] from execution.
pub fn capture(program: &Program, max_insts: u64) -> Result<Trace, ExecError> {
    capture_with(program, max_insts, |_| {})
}

/// Like [`capture`], additionally passing every retired instruction to
/// `visitor` — so profilers can ride along on the single functional
/// execution instead of forcing a second one.
///
/// # Errors
///
/// Propagates the first [`ExecError`] from execution.
pub fn capture_with<F: FnMut(&TraceEntry)>(
    program: &Program,
    max_insts: u64,
    mut visitor: F,
) -> Result<Trace, ExecError> {
    let mut machine = Machine::new(program);
    let mut writer = TraceWriter::new(program.entry_pc());
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
    /// Index of the event after this replayer's last.
    end: u64,
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
        Replayer::open_span(trace, program, None, trace.event_count())
    }

    /// Builds a replayer over the events `[start, end)` of `trace`, where
    /// `start` is `resume`'s `inst_index`, or 0 without a resume point.
    /// It resumes from the record's decode cursor, delta state and
    /// replayed contexts, so replayers chained through
    /// [`Replayer::snapshot`] deliver the full replay bit-identically (the
    /// shard differential suite holds this to `==`).
    ///
    /// A resume point may come from a checkpoint ledger, outside this
    /// process, so it is checked in O(1) before anything decodes.
    ///
    /// # Errors
    ///
    /// [`SourceError::Corrupt`] when the trace does not belong to
    /// `program`, `start > end`, `end` exceeds the event count, or the
    /// resume cursor lies past the event stream.
    pub fn open_span(
        trace: &'a Trace,
        program: &'a Program,
        resume: Option<&SnapshotRecord>,
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
        let body = trace.body();
        if count > body.len() as u64 {
            return Err(SourceError::Corrupt(format!(
                "event count {count} exceeds the {}-byte body",
                body.len()
            )));
        }
        let start = match resume {
            Some(record) => *record,
            None => SnapshotRecord {
                inst_index: 0,
                body_pos: 0,
                prev_next_pc: trace.entry_pc(),
                prev_addr: 0,
                prev_value: 0,
                ghr: 0,
                ra: 0,
            },
        };
        if start.inst_index > end || end > count {
            return Err(SourceError::Corrupt(format!(
                "span [{}, {end}) invalid for {count} events",
                start.inst_index
            )));
        }
        if start.body_pos > body.len() as u64 {
            return Err(SourceError::Corrupt(format!(
                "resume cursor {} exceeds the {}-byte body",
                start.body_pos,
                body.len()
            )));
        }
        Ok(Replayer {
            program,
            layout: *program.layout(),
            body,
            pos: start.body_pos as usize,
            state: DeltaState {
                prev_next_pc: start.prev_next_pc,
                prev_addr: start.prev_addr,
                prev_value: start.prev_value,
            },
            remaining: end - start.inst_index,
            end,
            metrics: trace.metrics(),
            ghr: start.ghr,
            ra: start.ra,
        })
    }

    /// The resume point this replayer has reached: its state about to
    /// deliver its next event. Once a span is drained, this is exactly
    /// where the next span starts ([`Replayer::open_span`]).
    pub fn snapshot(&self) -> SnapshotRecord {
        SnapshotRecord {
            inst_index: self.end - self.remaining,
            body_pos: self.pos as u64,
            prev_next_pc: self.state.prev_next_pc,
            prev_addr: self.state.prev_addr,
            prev_value: self.state.prev_value,
            ghr: self.ghr,
            ra: self.ra,
        }
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
        let trace = capture(&program, 50_000).expect("capture");
        let count = trace.event_count();
        assert!(count > 2_000, "workload too short to shard");

        let mut full = Vec::new();
        let mut replayer = Replayer::new(&trace, &program).expect("replayer");
        while let Some(e) = replayer.next_entry().expect("replay") {
            full.push(e);
        }

        let mut stitched = Vec::new();
        let mut resume: Option<SnapshotRecord> = None;
        let mut start = 0;
        while start < count {
            let end = (start + 1_000).min(count);
            let mut seg =
                Replayer::open_span(&trace, &program, resume.as_ref(), end).expect("segment");
            let mut n = 0u64;
            while let Some(e) = seg.next_entry().expect("segment replay") {
                stitched.push(e);
                n += 1;
            }
            assert_eq!(n, end - start, "segment [{start}, {end}) has its length");
            let point = seg.snapshot();
            assert_eq!(point.inst_index, end);
            resume = Some(point);
            start = end;
        }
        assert_eq!(stitched, full);

        // Span misuse is rejected, not mis-replayed.
        let past = resume.expect("at least one segment");
        assert!(Replayer::open_span(&trace, &program, Some(&past), count - 1).is_err());
        assert!(Replayer::open_span(&trace, &program, None, count + 1).is_err());
    }

    /// Builds a genuine resume point `at` events into `trace`.
    fn resume_point(trace: &Trace, program: &Program, at: u64) -> SnapshotRecord {
        let mut head = Replayer::open_span(trace, program, None, at).expect("head span");
        while head.next_entry().expect("head replay").is_some() {}
        head.snapshot()
    }

    #[test]
    fn forged_resume_points_are_refused_as_corrupt() {
        let (trace, program) = flag_bytes();
        let count = trace.event_count();
        let body_len = trace.body().len() as u64;
        let genuine = resume_point(&trace, &program, count / 2);
        assert!(Replayer::open_span(&trace, &program, Some(&genuine), count).is_ok());

        let mut cursor_past_body = genuine;
        cursor_past_body.body_pos = body_len + 1;
        let mut index_past_end = genuine;
        index_past_end.inst_index = count / 2 + 10;
        let mut index_past_count = genuine;
        index_past_count.inst_index = count + 1;
        let cases = [
            (cursor_past_body, count, "cursor past the body"),
            (index_past_end, count / 2 + 9, "inst_index past the end"),
            (index_past_count, count, "inst_index past the event count"),
            (genuine, count + 1, "end past the event count"),
        ];
        for (record, end, what) in cases {
            match Replayer::open_span(&trace, &program, Some(&record), end) {
                Err(SourceError::Corrupt(_)) => {}
                Err(other) => panic!("{what}: wrong error variant: {other}"),
                Ok(_) => panic!("{what}: forged resume point was accepted"),
            }
        }
    }

    #[test]
    fn capture_with_feeds_the_visitor_once_per_instruction() {
        let spec = workload("go").expect("go workload");
        let program = spec.build(arl_workloads::Scale::tiny());
        let mut seen = 0u64;
        let trace = capture_with(&program, 10_000, |_| seen += 1).expect("capture");
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
