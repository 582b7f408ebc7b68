//! The `.arltrace` container: header, delta+varint event stream, footer,
//! trailing word-wise FNV-1a checksum.
//!
//! # Layout (version 5)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "ARLT"
//! 4       1     format version (5)
//! 5       8     program entry pc, u64 LE
//! 13      …     event stream (one record per retired instruction)
//! len-33  8     event count, u64 LE
//! len-25  8     resident pages at end of run, u64 LE
//! len-17  8     values printed by the program, u64 LE
//! len-9   1     exited flag (0 or 1)
//! len-8   8     container checksum of bytes[0..len-8], u64 LE
//! ```
//!
//! The container checksum is FNV-1a 64 over `bytes[0..len-8]` read as
//! little-endian `u64` words from offset 0, `h = (h ^ word) * PRIME`
//! with the FNV-1a 64 offset basis and prime; the final 0–7 bytes are
//! folded in one at a time, `h = (h ^ byte) * PRIME`. Like bytewise
//! FNV-1a it detects any single-byte corruption with certainty (the
//! argument is in `codec.rs`), at one multiply per eight bytes. Versions 2
//! and 4 also stored snapshot records and a 16-byte snapshot trailer
//! between the event stream and the footer (version 2 sealed them with
//! bytewise FNV-1a), and version 3 was a retired compiled-model format.
//! Every version but 5, 1–4 included, is refused with an error naming it.
//!
//! # Resume points
//!
//! A [`SnapshotRecord`] is the complete decoder-side state of a
//! [`Replayer`](crate::Replayer) *about to deliver* event `inst_index`:
//! the byte cursor into the event stream, the three delta-predictor
//! registers, and the two replayed contexts (global history, link
//! register). It is not stored in the container: a shard job takes it from
//! the replayer that stopped there (`Replayer::snapshot`) and hands it to
//! the next job beside the timing model's machine-state blob, which is
//! configuration-dependent and so cannot live in the trace either (see
//! DESIGN.md). Its 64-byte wire form, for the checkpoint ledger, carries
//! its own checksum so a record can be validated in O(1):
//!
//! ```text
//! offset  field
//! 0       inst_index u64   — events delivered before this point
//! 8       body_pos u64     — byte offset into the event stream
//! 16      prev_next_pc u64 — delta state
//! 24      prev_addr u64    — delta state
//! 32      prev_value i64   — delta state
//! 40      ghr u64          — replayed branch history
//! 48      ra u64           — replayed link register
//! 56      FNV-1a 64 of bytes 0..56
//! ```
//!
//! # Event records
//!
//! Each record is one flags byte followed by up to four zigzag varints.
//! Everything else a [`TraceEntry`](arl_sim::TraceEntry) carries — the
//! decoded instruction, access width/direction, region, branch history,
//! link register — is *re-derived* during replay from the program image
//! and the replayer's own running state, so it costs zero trace bytes.
//!
//! | bit | meaning                         | varint that follows        |
//! |-----|---------------------------------|----------------------------|
//! | 0   | has a memory access             | `addr - prev_addr`         |
//! | 1   | writes a GPR                    | `value - prev_value`       |
//! | 2   | conditional branch taken        | —                          |
//! | 3   | pc breaks from prior `next_pc`  | `pc - prev_next_pc`        |
//! | 4   | `next_pc != pc + INST_BYTES`    | `next_pc - (pc + 8)`       |
//!
//! Varints appear in bit order 3, 4, 0, 1 (control flow first, then data).
//! In straight-line code every record is a single zero byte.

use std::io::Read;

use arl_isa::INST_BYTES;
use arl_mem::PAGE_SIZE;
use arl_sim::{Metrics, SourceError, TraceEntry};

use crate::codec::{container_checksum, fnv1a64, read_varint, unzigzag, write_varint, zigzag};

/// `"ARLT"`.
pub(crate) const MAGIC: [u8; 4] = *b"ARLT";
/// The format version written and accepted; any other version is refused.
pub const VERSION: u8 = 5;

pub(crate) const HEADER_LEN: usize = 13;
pub(crate) const FOOTER_LEN: usize = 25;
pub(crate) const CHECKSUM_LEN: usize = 8;
/// Smallest possible container (empty body).
pub(crate) const MIN_LEN: usize = HEADER_LEN + FOOTER_LEN + CHECKSUM_LEN;

/// Smallest buffer [`Trace::read_from`] reads into. Untouched pages cost
/// no memory, and a block this large is mapped directly by the allocator
/// (glibc maps anything from 32 MiB up), so dropping the trace returns its
/// memory at once. An exact-size buffer comes from the heap instead,
/// where reads of different sizes leave freed holes that stay resident:
/// capturing, writing and reading the 12-workload suite a dozen times over
/// grew peak RSS from 64 to 115 MB that way. The price is that every read
/// faults in fresh pages.
const READ_RESERVE: usize = 64 << 20;

pub(crate) const FLAG_MEM: u8 = 1 << 0;
pub(crate) const FLAG_VALUE: u8 = 1 << 1;
pub(crate) const FLAG_TAKEN: u8 = 1 << 2;
pub(crate) const FLAG_PC_BREAK: u8 = 1 << 3;
pub(crate) const FLAG_NEXT_BREAK: u8 = 1 << 4;
pub(crate) const FLAG_RESERVED: u8 = !0x1f;

/// The codec-level view of one retired instruction: exactly the fields
/// that are *encoded* (everything else is derived at replay).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// The instruction's address.
    pub pc: u64,
    /// Address of the next retired instruction.
    pub next_pc: u64,
    /// Conditional-branch outcome (`false` for everything else).
    pub taken: bool,
    /// Effective address of the memory access, if any.
    pub mem_addr: Option<u64>,
    /// Value written to the destination GPR, if any.
    pub value: Option<i64>,
}

impl TraceEvent {
    /// Projects a full [`TraceEntry`] down to its encoded fields.
    #[inline]
    pub(crate) fn from_entry(e: &TraceEntry) -> TraceEvent {
        TraceEvent {
            pc: e.pc,
            next_pc: e.next_pc,
            taken: e.taken,
            mem_addr: e.mem.map(|m| m.addr),
            value: e.gpr_write.map(|(_, v)| v),
        }
    }
}

/// Delta state shared by the encoder and both decoders.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeltaState {
    pub prev_next_pc: u64,
    pub prev_addr: u64,
    pub prev_value: i64,
}

impl DeltaState {
    pub(crate) fn new(entry_pc: u64) -> DeltaState {
        DeltaState {
            prev_next_pc: entry_pc,
            prev_addr: 0,
            prev_value: 0,
        }
    }
}

/// A replayer's resume point: its full state between two events (see the
/// module docs for the 64-byte wire layout).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SnapshotRecord {
    /// Events delivered before this point.
    pub inst_index: u64,
    /// Byte offset into the event stream where decoding resumes.
    pub body_pos: u64,
    /// Delta predictor: next-pc register.
    pub prev_next_pc: u64,
    /// Delta predictor: address register.
    pub prev_addr: u64,
    /// Delta predictor: value register.
    pub prev_value: i64,
    /// Replayed global branch history at this point.
    pub ghr: u64,
    /// Replayed link register at this point.
    pub ra: u64,
}

impl SnapshotRecord {
    /// Wire size of one record, checksum included.
    pub const LEN: usize = 64;

    /// Serializes the record, sealing its own FNV-1a checksum.
    pub fn to_bytes(&self) -> [u8; SnapshotRecord::LEN] {
        let mut b = [0u8; SnapshotRecord::LEN];
        b[0..8].copy_from_slice(&self.inst_index.to_le_bytes());
        b[8..16].copy_from_slice(&self.body_pos.to_le_bytes());
        b[16..24].copy_from_slice(&self.prev_next_pc.to_le_bytes());
        b[24..32].copy_from_slice(&self.prev_addr.to_le_bytes());
        b[32..40].copy_from_slice(&self.prev_value.to_le_bytes());
        b[40..48].copy_from_slice(&self.ghr.to_le_bytes());
        b[48..56].copy_from_slice(&self.ra.to_le_bytes());
        let checksum = fnv1a64(&b[..56]);
        b[56..64].copy_from_slice(&checksum.to_le_bytes());
        b
    }

    /// Deserializes and checksum-verifies one record in O(1).
    ///
    /// # Errors
    ///
    /// [`SourceError::Corrupt`] when the record checksum does not match.
    pub fn from_bytes(b: &[u8; SnapshotRecord::LEN]) -> Result<SnapshotRecord, SourceError> {
        let stored = read_u64_le(b, 56);
        let computed = fnv1a64(&b[..56]);
        if stored != computed {
            return Err(SourceError::Corrupt(format!(
                "snapshot record checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        Ok(SnapshotRecord {
            inst_index: read_u64_le(b, 0),
            body_pos: read_u64_le(b, 8),
            prev_next_pc: read_u64_le(b, 16),
            prev_addr: read_u64_le(b, 24),
            prev_value: read_u64_le(b, 32) as i64,
            ghr: read_u64_le(b, 40),
            ra: read_u64_le(b, 48),
        })
    }
}

/// Decodes one event record, advancing `pos` and the delta state.
///
/// Returns `None` on malformed bytes (truncated/overlong varint, reserved
/// flag bits) — callers wrap that into [`SourceError::Corrupt`]. Always
/// inlined into the replayer's per-entry path, for the reason given at
/// `Replayer::next_entry`.
#[inline(always)]
pub(crate) fn decode_event(
    bytes: &[u8],
    pos: &mut usize,
    state: &mut DeltaState,
) -> Option<TraceEvent> {
    let &flags = bytes.get(*pos)?;
    *pos += 1;
    if flags & FLAG_RESERVED != 0 {
        return None;
    }
    let pc = if flags & FLAG_PC_BREAK != 0 {
        let d = unzigzag(read_varint(bytes, pos)?);
        state.prev_next_pc.wrapping_add(d as u64)
    } else {
        state.prev_next_pc
    };
    let fallthrough = pc.wrapping_add(INST_BYTES);
    let next_pc = if flags & FLAG_NEXT_BREAK != 0 {
        let d = unzigzag(read_varint(bytes, pos)?);
        fallthrough.wrapping_add(d as u64)
    } else {
        fallthrough
    };
    let mem_addr = if flags & FLAG_MEM != 0 {
        let d = unzigzag(read_varint(bytes, pos)?);
        let addr = state.prev_addr.wrapping_add(d as u64);
        state.prev_addr = addr;
        Some(addr)
    } else {
        None
    };
    let value = if flags & FLAG_VALUE != 0 {
        let d = unzigzag(read_varint(bytes, pos)?);
        let v = state.prev_value.wrapping_add(d);
        state.prev_value = v;
        Some(v)
    } else {
        None
    };
    state.prev_next_pc = next_pc;
    Some(TraceEvent {
        pc,
        next_pc,
        taken: flags & FLAG_TAKEN != 0,
        mem_addr,
        value,
    })
}

/// Incremental trace encoder. Feed it every retired instruction in order,
/// then [`finish`](TraceWriter::finish) with the run's final [`Metrics`].
#[derive(Clone, Debug)]
pub(crate) struct TraceWriter {
    buf: Vec<u8>,
    state: DeltaState,
    count: u64,
}

impl TraceWriter {
    /// Starts a trace for a program whose first retired pc is `entry_pc`.
    pub(crate) fn new(entry_pc: u64) -> TraceWriter {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.push(VERSION);
        buf.extend_from_slice(&entry_pc.to_le_bytes());
        TraceWriter {
            buf,
            state: DeltaState::new(entry_pc),
            count: 0,
        }
    }

    /// Appends one event. Always inlined, so [`record`](TraceWriter::record)
    /// encodes straight from the entry without staging a [`TraceEvent`].
    #[inline(always)]
    pub(crate) fn push(&mut self, e: &TraceEvent) {
        let mut flags = 0u8;
        if e.mem_addr.is_some() {
            flags |= FLAG_MEM;
        }
        if e.value.is_some() {
            flags |= FLAG_VALUE;
        }
        if e.taken {
            flags |= FLAG_TAKEN;
        }
        let pc_break = e.pc != self.state.prev_next_pc;
        if pc_break {
            flags |= FLAG_PC_BREAK;
        }
        let fallthrough = e.pc.wrapping_add(INST_BYTES);
        let next_break = e.next_pc != fallthrough;
        if next_break {
            flags |= FLAG_NEXT_BREAK;
        }
        self.buf.push(flags);
        if pc_break {
            let d = e.pc.wrapping_sub(self.state.prev_next_pc) as i64;
            write_varint(&mut self.buf, zigzag(d));
        }
        if next_break {
            let d = e.next_pc.wrapping_sub(fallthrough) as i64;
            write_varint(&mut self.buf, zigzag(d));
        }
        if let Some(addr) = e.mem_addr {
            let d = addr.wrapping_sub(self.state.prev_addr) as i64;
            write_varint(&mut self.buf, zigzag(d));
            self.state.prev_addr = addr;
        }
        if let Some(v) = e.value {
            let d = v.wrapping_sub(self.state.prev_value);
            write_varint(&mut self.buf, zigzag(d));
            self.state.prev_value = v;
        }
        self.state.prev_next_pc = e.next_pc;
        self.count += 1;
    }

    /// Appends one retired instruction (convenience over
    /// [`TraceEvent::from_entry`] + [`push`](TraceWriter::push)).
    pub(crate) fn record(&mut self, e: &TraceEntry) {
        self.push(&TraceEvent::from_entry(e));
    }

    /// Seals the trace: footer, checksum.
    pub(crate) fn finish(mut self, metrics: &Metrics) -> Trace {
        self.buf.extend_from_slice(&self.count.to_le_bytes());
        self.buf
            .extend_from_slice(&(metrics.resident_pages as u64).to_le_bytes());
        self.buf
            .extend_from_slice(&(metrics.output_values as u64).to_le_bytes());
        self.buf.push(metrics.exited as u8);
        let checksum = container_checksum(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        Trace { bytes: self.buf }
    }
}

fn read_u64_le(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// A validated captured trace: owns the raw container bytes.
///
/// Construction goes through [`Trace::from_bytes`] (which verifies the
/// checksum, so any single-byte corruption in transit or on disk is
/// rejected) or through capture/encoding, which seal a fresh checksum.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Trace {
    bytes: Vec<u8>,
}

impl Trace {
    /// Encodes an event sequence directly (tests and tools; workload
    /// capture goes through [`capture`](crate::capture)).
    pub fn from_events(entry_pc: u64, events: &[TraceEvent], metrics: &Metrics) -> Trace {
        let mut w = TraceWriter::new(entry_pc);
        for e in events {
            w.push(e);
        }
        w.finish(metrics)
    }

    /// Validates and adopts serialized trace bytes.
    ///
    /// Validation runs cheapest-first: length, magic/version, then the
    /// O(1) structural invariants of the footer — the exited flag is a
    /// real boolean, and the event count fits the body, since every event
    /// costs at least one byte — and only then the O(n) checksum. The
    /// order matters for robustness *and* speed: a truncated container
    /// lands its footer window on arbitrary event-stream bytes, which in
    /// practice usually trips a structural check, so most truncations are
    /// rejected in O(1) instead of a full re-hash — and a checksum-re-sealed
    /// forgery of a footer field is refused at adoption, before any decode
    /// loop can trust it.
    ///
    /// # Errors
    ///
    /// [`SourceError::Corrupt`] when the container is too short, the
    /// magic is wrong, the version is not [`VERSION`] (the error names
    /// it), a footer field is structurally invalid, or the checksum does
    /// not match.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Trace, SourceError> {
        if bytes.len() < MIN_LEN {
            return Err(SourceError::Corrupt(format!(
                "trace too short: {} bytes, need at least {MIN_LEN}",
                bytes.len()
            )));
        }
        if bytes[..4] != MAGIC {
            return Err(SourceError::Corrupt("bad magic (not an ARLT trace)".into()));
        }
        let version = bytes[4];
        if version != VERSION {
            return Err(SourceError::Corrupt(format!(
                "unsupported trace version {version} (expected {VERSION})"
            )));
        }
        let footer = bytes.len() - CHECKSUM_LEN - FOOTER_LEN;
        let exited = bytes[footer + 24];
        if exited > 1 {
            return Err(SourceError::Corrupt(format!(
                "exited flag is {exited}, not a boolean"
            )));
        }
        let count = read_u64_le(&bytes, footer);
        let body_bytes = (footer - HEADER_LEN) as u64;
        if count > body_bytes {
            return Err(SourceError::Corrupt(format!(
                "event count {count} exceeds the {body_bytes}-byte body"
            )));
        }
        let body_len = bytes.len() - CHECKSUM_LEN;
        let stored = read_u64_le(&bytes, body_len);
        let computed = container_checksum(&bytes[..body_len]);
        if stored != computed {
            return Err(SourceError::Corrupt(format!(
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        Ok(Trace { bytes })
    }

    /// The serialized container.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Durably publishes the container at `path` via the crash-consistent
    /// sink ([`arl_sink::durable_write`]): temp file + `sync_all` +
    /// rename, so a crash mid-write can never clobber a good capture
    /// with a torn one.
    ///
    /// # Errors
    ///
    /// I/O errors from the sink (including injected chaos faults).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        arl_sink::durable_write(path, &self.bytes)
    }

    /// Reads and validates a serialized container from `path`.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file; a [`SourceError::Corrupt`] container
    /// is surfaced as [`std::io::ErrorKind::InvalidData`].
    pub fn read_from(path: &std::path::Path) -> std::io::Result<Trace> {
        let mut file = std::fs::File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
        let mut bytes = Vec::new();
        bytes
            .try_reserve_exact(len.max(READ_RESERVE))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::OutOfMemory, e))?;
        file.read_to_end(&mut bytes)?;
        Trace::from_bytes(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The pc of the first retired instruction.
    pub fn entry_pc(&self) -> u64 {
        read_u64_le(&self.bytes, 5)
    }

    /// Number of encoded events (= instructions retired during capture).
    pub fn event_count(&self) -> u64 {
        read_u64_le(&self.bytes, self.bytes.len() - CHECKSUM_LEN - FOOTER_LEN)
    }

    /// The sealed container checksum.
    pub fn checksum(&self) -> u64 {
        read_u64_le(&self.bytes, self.bytes.len() - CHECKSUM_LEN)
    }

    /// Reconstructs the functional [`Metrics`] the capture run ended with.
    pub fn metrics(&self) -> Metrics {
        let footer = self.bytes.len() - CHECKSUM_LEN - FOOTER_LEN;
        let resident_pages = read_u64_le(&self.bytes, footer + 8) as usize;
        Metrics {
            instructions: self.event_count(),
            resident_pages,
            peak_rss_bytes: resident_pages as u64 * PAGE_SIZE,
            output_values: read_u64_le(&self.bytes, footer + 16) as usize,
            exited: self.bytes[footer + 24] != 0,
        }
    }

    /// The container format version (always [`VERSION`] once adopted).
    pub fn version(&self) -> u8 {
        self.bytes[4]
    }

    /// The encoded event stream (between header and footer).
    pub(crate) fn body(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..self.bytes.len() - CHECKSUM_LEN - FOOTER_LEN]
    }

    /// Decodes the full event sequence (codec tests and tools; simulation
    /// replays incrementally via [`Replayer`](crate::Replayer) instead).
    ///
    /// # Errors
    ///
    /// [`SourceError::Corrupt`] when the stream is malformed or its length
    /// disagrees with the footer's event count.
    pub fn events(&self) -> Result<Vec<TraceEvent>, SourceError> {
        let body = self.body();
        let mut state = DeltaState::new(self.entry_pc());
        let mut pos = 0;
        let count = self.event_count();
        // The count is a footer field under the container checksum, but a
        // re-sealed forgery could still carry an absurd value; every event
        // costs at least one body byte, so bound the decode loop (and the
        // preallocation) by the payload actually present.
        if count > body.len() as u64 {
            return Err(SourceError::Corrupt(format!(
                "event count {count} exceeds the {}-byte body",
                body.len()
            )));
        }
        let mut events = Vec::with_capacity(count.min(1 << 20) as usize);
        for i in 0..count {
            let event = decode_event(body, &mut pos, &mut state)
                .ok_or_else(|| SourceError::Corrupt(format!("malformed event {i}")))?;
            events.push(event);
        }
        if pos != body.len() {
            return Err(SourceError::Corrupt(format!(
                "{} trailing bytes after {count} events",
                body.len() - pos
            )));
        }
        Ok(events)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn ev(pc: u64, next_pc: u64) -> TraceEvent {
        TraceEvent {
            pc,
            next_pc,
            taken: false,
            mem_addr: None,
            value: None,
        }
    }

    #[test]
    fn straight_line_events_cost_one_byte_each() {
        let events: Vec<TraceEvent> = (0..100).map(|i| ev(8 * i, 8 * (i + 1))).collect();
        let t = Trace::from_events(0, &events, &Metrics::default());
        assert_eq!(t.as_bytes().len(), MIN_LEN + events.len());
        assert_eq!(t.events().unwrap(), events);
        assert_eq!(t.version(), VERSION);
    }

    #[test]
    fn one_and_two_byte_varint_boundaries_round_trip_through_decode_event() {
        // Address and value deltas of +64 and −64 zigzag to the varints
        // 0x80 (two bytes, the first multi-byte value) and 0x7f (one byte,
        // the last single-byte value).
        let at = |addr: u64, value: i64| TraceEvent {
            pc: 0,
            next_pc: 8,
            taken: false,
            mem_addr: Some(addr),
            value: Some(value),
        };
        let events = [at(64, 64), at(0, 0)];
        let mut w = TraceWriter::new(0);
        for e in &events {
            w.push(e);
        }
        let t = w.finish(&Metrics::default());
        let body = t.body();
        let flags = FLAG_MEM | FLAG_VALUE;
        // The second record breaks from the first's next_pc back to 0.
        let back = zigzag(-8) as u8;
        assert_eq!(
            body,
            [
                flags,
                0x80,
                0x01,
                0x80,
                0x01,
                flags | FLAG_PC_BREAK,
                back,
                0x7f,
                0x7f
            ]
        );
        let mut state = DeltaState::new(0);
        let mut pos = 0;
        for e in &events {
            assert_eq!(decode_event(body, &mut pos, &mut state), Some(*e));
        }
        assert_eq!(pos, body.len());
    }

    #[test]
    fn snapshot_record_round_trips_and_rejects_flips() {
        let record = SnapshotRecord {
            inst_index: 1 << 40,
            body_pos: 12_345,
            prev_next_pc: 0xdead_beef_0000,
            prev_addr: 0x7fff_1234,
            prev_value: -17,
            ghr: u64::MAX,
            ra: 0x4000_0008,
        };
        let bytes = record.to_bytes();
        assert_eq!(SnapshotRecord::from_bytes(&bytes).unwrap(), record);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes;
                bad[i] ^= 1 << bit;
                assert!(
                    SnapshotRecord::from_bytes(&bad).is_err(),
                    "flip of byte {i} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn round_trip_preserves_all_fields() {
        let events = vec![
            TraceEvent {
                pc: 0x10000,
                next_pc: 0x10008,
                taken: false,
                mem_addr: Some(0x7fff_0000),
                value: Some(-5),
            },
            TraceEvent {
                pc: 0x10008,
                next_pc: 0x10000,
                taken: true,
                mem_addr: None,
                value: None,
            },
            TraceEvent {
                pc: 0x10000,
                next_pc: 0x10008,
                taken: false,
                mem_addr: Some(0x7fff_0008),
                value: Some(i64::MIN),
            },
        ];
        let metrics = Metrics {
            instructions: 3,
            resident_pages: 7,
            peak_rss_bytes: 7 * PAGE_SIZE,
            output_values: 2,
            exited: true,
        };
        let t = Trace::from_events(0x10000, &events, &metrics);
        assert_eq!(t.events().unwrap(), events);
        assert_eq!(t.entry_pc(), 0x10000);
        assert_eq!(t.event_count(), 3);
        assert_eq!(t.metrics(), metrics);

        let reparsed = Trace::from_bytes(t.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed, t);
    }

    #[test]
    fn every_single_byte_corruption_is_rejected() {
        let events: Vec<TraceEvent> = (0..8)
            .map(|i| TraceEvent {
                pc: 8 * i,
                next_pc: 8 * (i + 1),
                taken: i % 2 == 0,
                mem_addr: (i % 3 == 0).then_some(0x1000 + i),
                value: (i % 2 == 1).then_some(i as i64),
            })
            .collect();
        let t = Trace::from_events(0, &events, &Metrics::default());
        let good = t.as_bytes().to_vec();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x41;
            assert!(
                Trace::from_bytes(bad).is_err(),
                "corruption at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn short_buffers_are_rejected() {
        assert!(Trace::from_bytes(Vec::new()).is_err());
        assert!(Trace::from_bytes(vec![0u8; MIN_LEN - 1]).is_err());
    }
}
