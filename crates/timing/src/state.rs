//! Binary serialization of mid-run machine state for snapshot-sharded
//! replay.
//!
//! A shard job replays one `[snapshot_k, snapshot_k+1)` span of a trace.
//! Machine-model state is *configuration-dependent* (cache geometry, ROB
//! size, predictor capacity), so it cannot live inside the
//! configuration-independent `.arltrace` container; instead the timing
//! cores export their complete state at the segment boundary as an opaque
//! checksummed byte blob, and the next shard imports it and resumes
//! *inside* the boundary cycle (see `TimingSim::run_segment_probed`).
//! DESIGN.md documents the layout and the bit-identity argument.
//!
//! The blob is little-endian, framed by a 4-byte magic, a version byte and
//! a core tag, and sealed with a trailing FNV-1a-64 checksum (the same
//! function the `.arltrace` footer uses). Decoding is strict: a wrong
//! magic/version/core/config, a truncated field, a stale appointment, or a
//! checksum mismatch all surface as `SourceError::Corrupt`.

use arl_core::Arpt;
use arl_sim::SourceError;

use crate::cache::Route;
use crate::metrics::SimStats;
use crate::probe::StallCause;

/// Blob magic: "ARLS" (ARL machine State).
pub(crate) const STATE_MAGIC: [u8; 4] = *b"ARLS";
/// Blob format version. v2 added the memory-backend identity tag and
/// per-backend device state to the `MemSystem` section; v3 replaced the
/// event core's per-slot `pc`/`ghr`/`ra` columns with the single folded
/// ARPT key dispatch now computes.
pub(crate) const STATE_VERSION: u8 = 3;
/// Core tag for state captured by the event-driven SoA core.
pub(crate) const CORE_EVENT: u8 = 0;
/// Core tag for state captured by the legacy cycle-ticking core.
pub(crate) const CORE_LEGACY: u8 = 1;

/// FNV-1a 64-bit (same parameters as the `.arltrace` footer checksum).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A `SourceError::Corrupt` tagged as a machine-state decode failure.
pub(crate) fn corrupt(msg: &str) -> SourceError {
    SourceError::Corrupt(format!("machine state: {msg}"))
}

/// Append-only little-endian byte sink; `seal` appends the checksum.
pub(crate) struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    pub(crate) fn new() -> StateWriter {
        StateWriter { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// `u32` count followed by the items.
    pub(crate) fn u64_list(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }

    /// Appends the FNV-1a-64 checksum and returns the finished blob.
    pub(crate) fn seal(mut self) -> Vec<u8> {
        let checksum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

/// Strict cursor over a sealed blob; `open` verifies the checksum first.
pub(crate) struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Verifies the trailing checksum and positions the cursor at byte 0.
    pub(crate) fn open(blob: &'a [u8]) -> Result<StateReader<'a>, SourceError> {
        if blob.len() < 8 {
            return Err(corrupt("blob shorter than its checksum"));
        }
        let (body, tail) = blob.split_at(blob.len() - 8);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(tail);
        if fnv1a64(body) != u64::from_le_bytes(stored) {
            return Err(corrupt("checksum mismatch"));
        }
        Ok(StateReader {
            bytes: body,
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SourceError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt("field length overflow"))?;
        if end > self.bytes.len() {
            return Err(corrupt("truncated field"));
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], SourceError> {
        self.take(n)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SourceError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, SourceError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("boolean out of range")),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SourceError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SourceError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    pub(crate) fn i64(&mut self) -> Result<i64, SourceError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(i64::from_le_bytes(b))
    }

    pub(crate) fn usize(&mut self) -> Result<usize, SourceError> {
        Ok(self.u64()? as usize)
    }

    /// A `u32` element count (for a list that follows).
    pub(crate) fn len32(&mut self) -> Result<usize, SourceError> {
        Ok(self.u32()? as usize)
    }

    pub(crate) fn u64_list(&mut self) -> Result<Vec<u64>, SourceError> {
        let n = self.len32()?;
        // Bound the allocation by the bytes actually present.
        let need = n
            .checked_mul(8)
            .ok_or_else(|| corrupt("list length overflow"))?;
        if need > self.bytes.len() - self.pos {
            return Err(corrupt("truncated list"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    /// Every byte before the checksum must have been consumed.
    pub(crate) fn finish(self) -> Result<(), SourceError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt("trailing bytes after state"));
        }
        Ok(())
    }
}

/// The per-cycle locals of a segment-boundary cut. A shard stops when its
/// entry span dries *inside* the dispatch loop — commit, memory, stall
/// attribution and issue have already run for that cycle — so the next
/// shard must resume inside the same cycle with these values carried over
/// rather than re-running the earlier stages.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MidCycle {
    pub(crate) committed: usize,
    pub(crate) issued: usize,
    pub(crate) dispatched: usize,
    /// Whether the memory stage mutated state this cycle (event core's
    /// fast-forward guard; always `false` under the legacy core).
    pub(crate) mem_active: bool,
    /// The stall attribution computed before issue ran (probe runs only).
    pub(crate) stall: Option<StallCause>,
    /// Dispatch-stall counters as they stood before the dispatch loop.
    pub(crate) rob_stalls_before: u64,
    pub(crate) queue_stalls_before: u64,
}

impl MidCycle {
    pub(crate) fn write(&self, w: &mut StateWriter) {
        w.usize(self.committed);
        w.usize(self.issued);
        w.usize(self.dispatched);
        w.bool(self.mem_active);
        w.u8(match self.stall {
            None => 0,
            Some(cause) => cause.index() as u8 + 1,
        });
        w.u64(self.rob_stalls_before);
        w.u64(self.queue_stalls_before);
    }

    pub(crate) fn read(r: &mut StateReader) -> Result<MidCycle, SourceError> {
        let committed = r.usize()?;
        let issued = r.usize()?;
        let dispatched = r.usize()?;
        let mem_active = r.bool()?;
        let stall = match r.u8()? {
            0 => None,
            tag => Some(
                StallCause::ALL
                    .get(tag as usize - 1)
                    .copied()
                    .ok_or_else(|| corrupt("stall cause out of range"))?,
            ),
        };
        Ok(MidCycle {
            committed,
            issued,
            dispatched,
            mem_active,
            stall,
            rob_stalls_before: r.u64()?,
            queue_stalls_before: r.u64()?,
        })
    }
}

pub(crate) fn route_tag(r: Route) -> u8 {
    match r {
        Route::DataCache => 0,
        Route::Lvc => 1,
    }
}

pub(crate) fn route_from(tag: u8) -> Result<Route, SourceError> {
    match tag {
        0 => Ok(Route::DataCache),
        1 => Ok(Route::Lvc),
        _ => Err(corrupt("route out of range")),
    }
}

/// Serializes the *live* statistics counters. Fields derived at finish
/// time (`cycles`, cache stats, value-prediction totals, `steer_fallbacks`,
/// `peak_rss_bytes`) are reconstructed from the imported machine state, so
/// they are not stored; `config_name` is checked via the blob header.
pub(crate) fn write_stats(w: &mut StateWriter, stats: &SimStats) {
    w.u64(stats.instructions);
    w.u64(stats.mem_refs);
    w.u64(stats.lvaq_refs);
    w.u64(stats.region_checks);
    w.u64(stats.region_mispredicts);
    w.u64(stats.recoveries);
    w.u64(stats.lsq_forwards);
    w.u64(stats.lvaq_forwards);
    w.u64(stats.rob_stall_cycles);
    w.u64(stats.queue_stall_cycles);
    w.u32(stats.faults_applied.len() as u32);
    for &id in &stats.faults_applied {
        w.u32(id);
    }
}

pub(crate) fn read_stats(r: &mut StateReader, stats: &mut SimStats) -> Result<(), SourceError> {
    stats.instructions = r.u64()?;
    stats.mem_refs = r.u64()?;
    stats.lvaq_refs = r.u64()?;
    stats.region_checks = r.u64()?;
    stats.region_mispredicts = r.u64()?;
    stats.recoveries = r.u64()?;
    stats.lsq_forwards = r.u64()?;
    stats.lvaq_forwards = r.u64()?;
    stats.rob_stall_cycles = r.u64()?;
    stats.queue_stall_cycles = r.u64()?;
    let n = r.len32()?;
    stats.faults_applied.clear();
    for _ in 0..n {
        stats.faults_applied.push(r.u32()?);
    }
    Ok(())
}

/// Serializes the ARPT: lookup/update counters plus — for the bounded
/// table every machine config uses — the table bytes, touch map and
/// occupancy.
pub(crate) fn write_arpt(w: &mut StateWriter, arpt: &Arpt) {
    w.u64(arpt.lookups());
    w.u64(arpt.updates());
    match arpt.export_limited() {
        Some((table, touched, occupied)) => {
            w.u8(1);
            w.u32(table.len() as u32);
            w.bytes(table);
            w.u32(touched.len() as u32);
            for &t in touched {
                w.bool(t);
            }
            w.usize(occupied);
        }
        None => w.u8(0),
    }
}

pub(crate) fn read_arpt(r: &mut StateReader, arpt: &mut Arpt) -> Result<(), SourceError> {
    let lookups = r.u64()?;
    let updates = r.u64()?;
    arpt.set_counters(lookups, updates);
    let has_table = r.bool()?;
    if has_table != arpt.export_limited().is_some() {
        return Err(corrupt("ARPT capacity kind mismatch"));
    }
    if has_table {
        let table_len = r.len32()?;
        let table = r.bytes(table_len)?.to_vec();
        let touched_len = r.len32()?;
        let mut touched = Vec::with_capacity(touched_len.min(table_len.max(1)));
        for _ in 0..touched_len {
            touched.push(r.bool()?);
        }
        let occupied = r.usize()?;
        if !arpt.import_limited(&table, &touched, occupied) {
            return Err(corrupt("ARPT geometry mismatch"));
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = StateWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.usize(123);
        w.u64_list(&[1, 2, 3]);
        let blob = w.seal();
        let mut r = StateReader::open(&blob).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123);
        assert_eq!(r.u64_list().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let mut w = StateWriter::new();
        w.u64(0x0123_4567_89ab_cdef);
        w.u64_list(&[9, 8, 7]);
        let blob = w.seal();
        for i in 0..blob.len() {
            let mut forged = blob.clone();
            forged[i] ^= 0x10;
            assert!(
                StateReader::open(&forged).is_err(),
                "flip at byte {i} must be caught by the checksum"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let mut w = StateWriter::new();
        w.u64(5);
        let blob = w.seal();
        // Any prefix shorter than the full blob fails: either the checksum
        // no longer matches or the body is too short.
        for cut in 0..blob.len() {
            assert!(StateReader::open(&blob[..cut]).is_err());
        }
        // A reader that stops early is told about the leftovers.
        let r = StateReader::open(&blob).unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn mid_cycle_round_trips() {
        for stall in [None, Some(StallCause::MemPort)] {
            let mid = MidCycle {
                committed: 3,
                issued: 5,
                dispatched: 2,
                mem_active: true,
                stall,
                rob_stalls_before: 11,
                queue_stalls_before: 13,
            };
            let mut w = StateWriter::new();
            mid.write(&mut w);
            let blob = w.seal();
            let mut r = StateReader::open(&blob).unwrap();
            let back = MidCycle::read(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(back.committed, mid.committed);
            assert_eq!(back.issued, mid.issued);
            assert_eq!(back.dispatched, mid.dispatched);
            assert_eq!(back.mem_active, mid.mem_active);
            assert_eq!(back.stall, mid.stall);
            assert_eq!(back.rob_stalls_before, mid.rob_stalls_before);
            assert_eq!(back.queue_stalls_before, mid.queue_stalls_before);
        }
    }
}
