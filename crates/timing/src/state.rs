//! Binary serialization of mid-run machine state for snapshot-sharded
//! replay.
//!
//! A shard job replays one `[snapshot_k, snapshot_k+1)` span of a trace.
//! Machine-model state is *configuration-dependent* (cache geometry, ROB
//! size, predictor capacity), so it cannot live inside the
//! configuration-independent `.arltrace` container; instead the timing
//! core exports its complete state at the segment boundary as an opaque
//! checksummed byte blob, and the next shard imports it and resumes
//! *inside* the boundary cycle (see `TimingSim::run_segment_probed`).
//! DESIGN.md documents the layout and the bit-identity argument.
//!
//! The blob is little-endian, framed by a 4-byte magic, a version byte and
//! a core tag, and sealed with a trailing bytewise FNV-1a-64 checksum (the
//! same function as `arl_trace::fnv1a64`). Decoding is strict: a wrong
//! magic/version/core/config, a truncated field, a stale appointment, or a
//! checksum mismatch all surface as `SourceError::Corrupt`.
//!
//! Every state-carrying type names its fields once, in a `sync` walk over
//! the [`StateIo`] seam: the writer serializes each field, the reader
//! overwrites it, and must-match fields (geometry, presence, identity) are
//! compared on the way. Checks that only make sense on import (stale
//! appointments, sequence consistency, the fault plan) run after the walk.

use arl_core::Arpt;
use arl_sim::SourceError;

use crate::cache::Route;
use crate::metrics::SimStats;
use crate::probe::StallCause;

/// Blob magic: "ARLS" (ARL machine State).
pub(crate) const STATE_MAGIC: [u8; 4] = *b"ARLS";
/// Blob format version. v2 added the memory-backend identity tag and
/// per-backend device state to the `MemSystem` section; v3 replaced the
/// event core's per-slot `pc`/`ghr`/`ra` fields with the single folded
/// ARPT key dispatch now computes.
pub(crate) const STATE_VERSION: u8 = 3;
/// Core tag for state captured by the event-driven core, the only core
/// that exports state. Import refuses any other tag, such as the 1 that
/// legacy-core checkpoints carried.
pub(crate) const CORE_EVENT: u8 = 0;

/// Bytewise FNV-1a 64-bit (the same function as `arl_trace::fnv1a64`).
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

/// A fixed-width little-endian field of the blob.
pub(crate) trait Scalar: Copy + Default + PartialEq {
    /// Encoded width in bytes (bounds a counted list's allocation).
    const BYTES: usize;
    fn put(self, buf: &mut Vec<u8>);
    fn get(r: &mut StateReader) -> Result<Self, SourceError>;
}

macro_rules! le_scalar {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            fn put(self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut StateReader) -> Result<Self, SourceError> {
                let mut b = [0u8; std::mem::size_of::<$t>()];
                b.copy_from_slice(r.take(Self::BYTES)?);
                Ok(<$t>::from_le_bytes(b))
            }
        }
    )*};
}

le_scalar!(u8, u32, u64, i64);

impl Scalar for bool {
    const BYTES: usize = 1;
    fn put(self, buf: &mut Vec<u8>) {
        buf.push(self as u8);
    }
    fn get(r: &mut StateReader) -> Result<bool, SourceError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(corrupt("boolean out of range")),
        }
    }
}

/// Stored as a `u64`.
impl Scalar for usize {
    const BYTES: usize = 8;
    fn put(self, buf: &mut Vec<u8>) {
        (self as u64).put(buf);
    }
    fn get(r: &mut StateReader) -> Result<usize, SourceError> {
        Ok(u64::get(r)? as usize)
    }
}

/// The one seam every state-carrying type walks its fields through, in
/// blob order, in a single `sync`: [`StateWriter`] appends each field's
/// current value, [`StateReader`] overwrites it with the decoded one. A
/// field added to the walk is therefore exported and imported alike.
pub(crate) trait StateIo {
    /// Writes `*v`, or replaces it with the next field.
    fn val<T: Scalar>(&mut self, v: &mut T) -> Result<(), SourceError>;

    /// A `u32` element count: writes `n`, or reads a count whose elements
    /// of at least `elem_bytes` each fit in the bytes left, so a corrupt
    /// count cannot drive a huge allocation.
    fn count(&mut self, n: usize, elem_bytes: usize) -> Result<usize, SourceError>;

    /// Every element of a fixed-length slice, in order.
    fn vals<T: Scalar>(&mut self, v: &mut [T]) -> Result<(), SourceError> {
        v.iter_mut().try_for_each(|x| self.val(x))
    }

    /// A counted list; the reader resizes `v` to the stored count.
    fn list<T: Scalar>(&mut self, v: &mut Vec<T>) -> Result<(), SourceError> {
        let n = self.count(v.len(), T::BYTES)?;
        v.resize(n, T::default());
        self.vals(v)
    }

    /// A field that must equal this machine's `v` (geometry, presence,
    /// identity): written as is, refused with `msg` when it reads back
    /// different.
    fn same<T: Scalar>(&mut self, v: T, msg: &str) -> Result<(), SourceError> {
        let mut stored = v;
        self.val(&mut stored)?;
        if stored == v {
            Ok(())
        } else {
            Err(corrupt(msg))
        }
    }

    /// An enum stored as its one-byte tag.
    fn tag<T: Copy>(
        &mut self,
        v: &mut T,
        tag: fn(T) -> u8,
        from: fn(u8) -> Result<T, SourceError>,
    ) -> Result<(), SourceError> {
        let mut t = tag(*v);
        self.val(&mut t)?;
        *v = from(t)?;
        Ok(())
    }
}

/// Append-only little-endian byte sink; `seal` appends the checksum.
pub(crate) struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    pub(crate) fn new() -> StateWriter {
        StateWriter { buf: Vec::new() }
    }

    /// Appends the FNV-1a-64 checksum and returns the finished blob.
    pub(crate) fn seal(mut self) -> Vec<u8> {
        let checksum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

impl StateIo for StateWriter {
    fn val<T: Scalar>(&mut self, v: &mut T) -> Result<(), SourceError> {
        v.put(&mut self.buf);
        Ok(())
    }

    fn count(&mut self, n: usize, _elem_bytes: usize) -> Result<usize, SourceError> {
        (n as u32).put(&mut self.buf);
        Ok(n)
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

    /// Every byte before the checksum must have been consumed.
    pub(crate) fn finish(self) -> Result<(), SourceError> {
        if self.pos != self.bytes.len() {
            return Err(corrupt("trailing bytes after state"));
        }
        Ok(())
    }
}

impl StateIo for StateReader<'_> {
    fn val<T: Scalar>(&mut self, v: &mut T) -> Result<(), SourceError> {
        *v = T::get(self)?;
        Ok(())
    }

    fn count(&mut self, _n: usize, elem_bytes: usize) -> Result<usize, SourceError> {
        let n = u32::get(self)? as usize;
        let need = n
            .checked_mul(elem_bytes)
            .ok_or_else(|| corrupt("list length overflow"))?;
        if need > self.bytes.len() - self.pos {
            return Err(corrupt("truncated list"));
        }
        Ok(n)
    }
}

/// The per-cycle locals of a segment-boundary cut. A shard stops when its
/// entry span dries *inside* the dispatch loop — commit, memory, stall
/// attribution and issue have already run for that cycle — so the next
/// shard must resume inside the same cycle with these values carried over
/// rather than re-running the earlier stages.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct MidCycle {
    pub(crate) committed: usize,
    pub(crate) issued: usize,
    pub(crate) dispatched: usize,
    /// Whether the memory stage mutated state this cycle (the
    /// fast-forward guard).
    pub(crate) mem_active: bool,
    /// The stall attribution computed before issue ran (probe runs only).
    pub(crate) stall: Option<StallCause>,
    /// Dispatch-stall counters as they stood before the dispatch loop.
    pub(crate) rob_stalls_before: u64,
    pub(crate) queue_stalls_before: u64,
}

impl MidCycle {
    pub(crate) fn sync(&mut self, io: &mut impl StateIo) -> Result<(), SourceError> {
        io.val(&mut self.committed)?;
        io.val(&mut self.issued)?;
        io.val(&mut self.dispatched)?;
        io.val(&mut self.mem_active)?;
        io.tag(&mut self.stall, stall_tag, stall_from)?;
        io.val(&mut self.rob_stalls_before)?;
        io.val(&mut self.queue_stalls_before)
    }
}

fn stall_tag(stall: Option<StallCause>) -> u8 {
    match stall {
        None => 0,
        Some(cause) => cause.index() as u8 + 1,
    }
}

fn stall_from(tag: u8) -> Result<Option<StallCause>, SourceError> {
    match tag {
        0 => Ok(None),
        tag => StallCause::ALL
            .get(tag as usize - 1)
            .map(|&cause| Some(cause))
            .ok_or_else(|| corrupt("stall cause out of range")),
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

/// Walks the *live* statistics counters. Fields derived at finish time
/// (`cycles`, cache stats, value-prediction totals, `steer_fallbacks`,
/// `peak_rss_bytes`) are reconstructed from the imported machine state, so
/// they are not stored; `config_name` is checked via the blob header.
pub(crate) fn sync_stats(io: &mut impl StateIo, stats: &mut SimStats) -> Result<(), SourceError> {
    io.val(&mut stats.instructions)?;
    io.val(&mut stats.mem_refs)?;
    io.val(&mut stats.lvaq_refs)?;
    io.val(&mut stats.region_checks)?;
    io.val(&mut stats.region_mispredicts)?;
    io.val(&mut stats.recoveries)?;
    io.val(&mut stats.lsq_forwards)?;
    io.val(&mut stats.lvaq_forwards)?;
    io.val(&mut stats.rob_stall_cycles)?;
    io.val(&mut stats.queue_stall_cycles)?;
    io.list(&mut stats.faults_applied)
}

/// Walks the ARPT: lookup/update counters plus — for the bounded table
/// every machine config uses — the table bytes, touch map and occupancy.
pub(crate) fn sync_arpt(io: &mut impl StateIo, arpt: &mut Arpt) -> Result<(), SourceError> {
    let (mut lookups, mut updates) = (arpt.lookups(), arpt.updates());
    io.val(&mut lookups)?;
    io.val(&mut updates)?;
    arpt.set_counters(lookups, updates);
    let limited = arpt.limited_mut();
    io.same(limited.is_some(), "ARPT capacity kind mismatch")?;
    if let Some((table, touched, occupied)) = limited {
        io.same(table.len() as u32, "ARPT geometry mismatch")?;
        io.vals(table)?;
        io.same(touched.len() as u32, "ARPT geometry mismatch")?;
        io.vals(touched)?;
        io.val(occupied)?;
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// One field of each scalar kind plus a list, in a fixed order.
    fn walk(
        io: &mut impl StateIo,
        fields: &mut (u8, bool, u32, u64, i64, usize, Vec<u64>),
    ) -> Result<(), SourceError> {
        io.val(&mut fields.0)?;
        io.val(&mut fields.1)?;
        io.val(&mut fields.2)?;
        io.val(&mut fields.3)?;
        io.val(&mut fields.4)?;
        io.val(&mut fields.5)?;
        io.list(&mut fields.6)
    }

    fn sealed(mut v: u64, list: &[u64]) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.val(&mut v).unwrap();
        w.list(&mut list.to_vec()).unwrap();
        w.seal()
    }

    #[test]
    fn writer_reader_round_trip() {
        let mut written = (7, true, 0xdead_beef, u64::MAX - 1, -42, 123, vec![1, 2, 3]);
        let mut w = StateWriter::new();
        walk(&mut w, &mut written).unwrap();
        let blob = w.seal();
        let mut read = Default::default();
        let mut r = StateReader::open(&blob).unwrap();
        walk(&mut r, &mut read).unwrap();
        r.finish().unwrap();
        assert_eq!(read, written);
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let blob = sealed(0x0123_4567_89ab_cdef, &[9, 8, 7]);
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
        let blob = sealed(5, &[]);
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
            let mut mid = MidCycle {
                committed: 3,
                issued: 5,
                dispatched: 2,
                mem_active: true,
                stall,
                rob_stalls_before: 11,
                queue_stalls_before: 13,
            };
            let mut w = StateWriter::new();
            mid.sync(&mut w).unwrap();
            let blob = w.seal();
            let mut r = StateReader::open(&blob).unwrap();
            let mut back = MidCycle::default();
            back.sync(&mut r).unwrap();
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
