//! The cycle-level out-of-order pipeline.
//!
//! Six stages as in the paper (Section 4.3): fetch, dispatch (decode +
//! rename), issue, execute, write-back, commit. Because the front end is
//! perfect (Table 4), fetch+dispatch collapse into pulling decoded
//! instructions from the functional trace; renaming collapses into
//! producer-sequence dependence tracking (WAR/WAW vanish exactly as a
//! renamer would make them).
//!
//! ## Hot-loop layout and the event-driven core
//!
//! In-flight state lives in a ring buffer of packed per-instruction
//! records ([`Rob`] of [`Slot`]s): each stage visit touches one record,
//! and no per-cycle allocation happens once the window is built.
//!
//! The main loop is event-driven: after executing a cycle on which
//! provably nothing happened (no commit, no issue, no dispatch, no
//! memory-stage mutation, no pending ARPT fault), the core jumps straight
//! to the cycle before the next scheduled wake-up — the minimum over the
//! [`crate::EventWheel`] (FU completions, address-generation finishes,
//! memory returns, redirect re-issues) and [`MemSystem::next_event_after`]
//! (MSHR releases, fault-window boundaries). The skipped span is replayed
//! in bulk: per-cycle dispatch-stall counters are multiplied out and the
//! probe receives one [`Probe::record_span`] with the (provably constant)
//! cycle observation, so `useful + Σstalls == cycles` still holds exactly.
//!
//! Within a visited cycle, each stage examines only its candidates: due
//! appointment-book entries plus an every-cycle retry list for work denied
//! bandwidth. The memory stage does not poll ordering-blocked loads at
//! all: such a load parks until one of the three events that can unblock
//! it (an unknown store address resolving, a blocking store completing, or
//! that store re-routing out of the load's block chain) wakes it.
//!
//! The pre-event-wheel core that ticks every cycle survives only as the
//! full-run test oracle [`crate::reference::run_probed`]: both produce
//! bit-identical [`SimStats`] and probe output, `tests/core_differential.rs`
//! pins this across the full workload suite, and DESIGN.md spells out the
//! invariant argument (why every state-changing threshold is a scheduled
//! event).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use arl_asm::Program;
use arl_core::{static_hint, Arpt, StaticHint};
use arl_isa::{AluOp, FAluOp, Inst};
use arl_sim::{EntrySliceSource, Machine, SourceError, TraceEntry, TraceSource};

use crate::cache::{MemSystem, Route};
use crate::config::{MachineConfig, RecoveryMode};
use crate::fault::{FaultKind, TimingFault};
use crate::metrics::SimStats;
use crate::probe::{CycleObs, NullProbe, Probe, StallCause};
use crate::state::{
    corrupt, read_arpt, read_stats, route_from, route_tag, write_arpt, write_stats, MidCycle,
    StateReader, StateWriter, CORE_EVENT, STATE_MAGIC, STATE_VERSION,
};
use crate::valuepred::StridePredictor;
use crate::wheel::EventWheel;

/// Functional-unit classes (Table 4: 16 int ALUs, 16 FP ALUs, 4 int
/// mul/div, 4 FP mul/div). The discriminants are the state-blob tags.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Fu {
    IntAlu,
    FpAlu,
    IntMulDiv,
    FpMulDiv,
}

/// Execution latency and FU class per instruction (MIPS R10000-flavoured),
/// shared with the reference core. Loads and stores use an integer ALU
/// for address generation (1 cycle); the memory stage charges the memory
/// latency.
pub(crate) fn classify(inst: &Inst) -> (Fu, u64) {
    match inst {
        Inst::Alu { op, .. } | Inst::AluI { op, .. } => match op {
            AluOp::Mul => (Fu::IntMulDiv, 5),
            AluOp::Div | AluOp::Rem => (Fu::IntMulDiv, 20),
            _ => (Fu::IntAlu, 1),
        },
        Inst::FAlu { op, .. } => match op {
            FAluOp::Mul => (Fu::FpMulDiv, 3),
            FAluOp::Div => (Fu::FpMulDiv, 12),
            FAluOp::Sqrt => (Fu::FpMulDiv, 18),
            _ => (Fu::FpAlu, 2),
        },
        Inst::FCmp { .. } | Inst::CvtIf { .. } | Inst::CvtFi { .. } => (Fu::FpAlu, 2),
        _ => (Fu::IntAlu, 1),
    }
}

/// Decodes a [`Fu`] state-blob tag (sharded-replay state blobs).
pub(crate) fn fu_from(tag: u8) -> Result<Fu, SourceError> {
    match tag {
        0 => Ok(Fu::IntAlu),
        1 => Ok(Fu::FpAlu),
        2 => Ok(Fu::IntMulDiv),
        3 => Ok(Fu::FpMulDiv),
        _ => Err(corrupt("functional-unit class out of range")),
    }
}

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
/// Sentinel for "no producer" in the dependence arrays and renamer map.
const NO_SEQ: u64 = u64::MAX;
/// Sentinel for "no renamer claim" in [`Rob::claimed`].
const NO_REG: u8 = u8::MAX;
/// [`Rob::issue_q`]/[`Rob::mem_q`] value: not appointed anywhere.
const QUEUE_NONE: u64 = u64::MAX;
/// [`Rob::issue_q`]/[`Rob::mem_q`] value: on the every-cycle retry
/// list (blocked on bandwidth, or a stale-early wake bound).
const QUEUE_RETRY: u64 = u64::MAX - 1;
/// [`Rob::mem_q`] value: an ordering-blocked load parked until a store
/// event wakes it (see [`TimingSim::memory_stage`]). Exported as
/// [`QUEUE_RETRY`], which is what a polling core holds for the same load.
const QUEUE_PARKED: u64 = u64::MAX - 2;

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

// Per-slot boolean fields, packed into one byte per slot.
const F_ISSUED: u8 = 1 << 0;
/// A confident, *correct* value prediction covers this result.
const F_VALUE_PRED: u8 = 1 << 1;
const F_IS_LOAD: u8 = 1 << 2;
const F_IS_STACK: u8 = 1 << 3;
const F_VERIFIED: u8 = 1 << 4;
/// The ARPT (not a static rule) made the steering decision.
const F_ARPT_PRED: u8 = 1 << 5;
/// Wrongly steered, detected, and re-dispatched on the correct path
/// (counted at commit).
const F_RECOVERED: u8 = 1 << 6;
/// A store with a live registration (`dep_index` 3) on its data
/// producer's wake list; prevents double-registration after a squash.
const F_DATA_WAKE: u8 = 1 << 7;

/// One in-flight instruction's cycle-level state, packed so a slot spans
/// 2–3 cache lines instead of scattering across ~25 column arrays — each
/// stage visit touches one record, not two dozen lines. Field groups are
/// ordered by the stage that reads them (issue path, memory path, wake
/// lists, packed small fields).
#[derive(Clone, Copy)]
struct Slot {
    dispatch_cycle: u64,
    /// Cycle the result is available to consumers (`NO_CYCLE` until known).
    complete_at: u64,
    /// Provable lower bound on the first cycle the slot could pass the
    /// authoritative issue check.
    earliest_try: u64,
    /// Where the slot currently sits in the issue stage's appointment
    /// book: a future bucket key, [`QUEUE_RETRY`], or [`QUEUE_NONE`]
    /// (parked on wake lists, issued, or not dispatched). Stale bucket
    /// copies are dropped when this no longer matches their key.
    issue_q: u64,
    /// Producer sequence numbers this instruction waits on to *issue*
    /// (for stores: the address operands only); `NO_SEQ` = no dependence.
    deps: [u64; 3],
    /// For stores: the producer of the store *data*, tracked separately —
    /// the address is generated as soon as the base register is ready,
    /// exactly so younger loads are not serialized behind store data.
    data_dep: u64,
    addr: u64,
    /// Address-generation completion cycle.
    agen_done_at: u64,
    /// Earliest cycle the memory stage may process it (after redirect).
    mem_ready_at: u64,
    /// Same as `issue_q`, for the memory stage's appointment book.
    mem_q: u64,
    /// The folded-before-capacity ARPT training key (`Arpt::key`) for
    /// [`F_ARPT_PRED`] slots, 0 otherwise. Replaces carrying `pc`/`ghr`/`ra`
    /// per slot: dispatch computes it once and region verification trains
    /// through `Arpt::update_key`.
    arpt_key: u64,
    /// Intrusive next-pointer (an older store's seq, or `NO_SEQ`) chaining
    /// in-flight stores that share a `(block, route)` key — the store
    /// index's per-block list (see [`TimingSim::store_blocks`]). Not
    /// serialized; import rebuilds the chains from the slot records.
    store_next: u64,
    // Ordering-wait support, none of it serialized (a parked load is
    // exported as on the retry list, so import starts with no links). A
    // load blocked on an older store's missing data links itself onto
    // that store's `park_head` list through `park_next`, and
    // `park_linked` marks the link live.
    /// For stores: the most recently parked load waiting on this store.
    park_head: u64,
    /// For parked loads: the next waiter on the same store.
    park_next: u64,
    /// For loads: the [`TimingSim::reroute_epoch`] at which the load last
    /// passed its ordering checks; 0 = never. While it is current, a
    /// port or MSHR retry skips straight to the port check.
    order_epoch: u64,
    latency: u64,
    // Issue wake-up support: the slot enters the issue appointment book at
    // `earliest_try` once `unknown_deps` (producers whose completion cycle
    // is not yet known) reaches zero. Producers keep an intrusive list of
    // waiting consumers: `wake_head` holds a packed
    // `(consumer_seq << 2) | dep_index` handle and the consumer's
    // `wake_next[dep_index]` chains it, so firing a completed producer's
    // list touches exactly its consumers. `dep_index` 3 is the store-data
    // dependence (guarded by [`F_DATA_WAKE`]), which wakes the memory
    // stage rather than issue.
    wake_head: u64,
    wake_next: [u64; 4],
    fu: Fu,
    mem: MemPhase,
    route: Route,
    flags: u8,
    unknown_deps: u8,
    /// Whether the slot's issue preconditions must be re-verified: set by a
    /// squash (which revokes completions and pushes dispatch times out) and
    /// conservatively on state import. Non-stale slots reaching their
    /// booked issue cycle provably satisfy `dispatch_cycle < cycle` and
    /// `deps_ready` (consumers of a squashed producer are younger than it,
    /// hence themselves squash-marked), so the issue stage skips both
    /// checks. Not serialized.
    stale: bool,
    /// A load linked on some store's `park_head` list. The store has then
    /// neither completed nor left the load's block chain (either one fires
    /// the list), so the load is provably still ordering-blocked.
    park_linked: bool,
    /// Registers whose renamer claim this slot holds (`NO_REG` = none):
    /// commit releases exactly these instead of scanning all 64.
    claimed: [u8; 2],
}

impl Slot {
    const EMPTY: Slot = Slot {
        dispatch_cycle: 0,
        complete_at: NO_CYCLE,
        earliest_try: 0,
        issue_q: QUEUE_NONE,
        deps: [NO_SEQ; 3],
        data_dep: NO_SEQ,
        addr: 0,
        agen_done_at: NO_CYCLE,
        mem_ready_at: 0,
        mem_q: QUEUE_NONE,
        arpt_key: 0,
        store_next: NO_SEQ,
        park_head: NO_SEQ,
        park_next: NO_SEQ,
        order_epoch: 0,
        latency: 0,
        wake_head: NO_SEQ,
        wake_next: [NO_SEQ; 4],
        fu: Fu::IntAlu,
        mem: MemPhase::None,
        route: Route::DataCache,
        flags: 0,
        unknown_deps: 0,
        stale: false,
        park_linked: false,
        claimed: [NO_REG; 2],
    };
}

/// The in-flight window as a ring buffer of packed [`Slot`] records: slot
/// `seq` lives at physical index `(head + (seq - head_seq)) & mask`.
/// Capacity is the ROB size rounded up to a power of two and never grows,
/// so no per-cycle allocation happens on the hot path.
struct Rob {
    mask: usize,
    head: usize,
    len: usize,
    head_seq: u64,
    slot: Vec<Slot>,
    /// Length of the maximal head-contiguous run of slots with a known
    /// completion (`complete_at != NO_CYCLE`) — exactly the commit-eligible
    /// phases, so the commit stage scans only this prefix instead of
    /// probing the head every cycle. Maintained at the four `complete_at`
    /// write sites, clamped on squash, decremented on retire.
    done_prefix: usize,
}

impl Rob {
    fn new(rob_size: usize) -> Rob {
        let cap = rob_size.max(1).next_power_of_two();
        Rob {
            mask: cap - 1,
            head: 0,
            len: 0,
            head_seq: 0,
            slot: vec![Slot::EMPTY; cap],
            done_prefix: 0,
        }
    }

    /// Physical index of the in-flight slot `seq`.
    #[inline]
    fn idx(&self, seq: u64) -> usize {
        debug_assert!(
            seq >= self.head_seq && seq - self.head_seq < self.len as u64,
            "sequence {seq} is not in flight"
        );
        (self.head + (seq - self.head_seq) as usize) & self.mask
    }

    /// Physical index of the slot `offset` entries behind the head.
    #[inline]
    fn phys(&self, offset: usize) -> usize {
        (self.head + offset) & self.mask
    }

    /// Claims the tail slot; the caller fills every array at the returned
    /// physical index.
    #[inline]
    fn push_back(&mut self) -> usize {
        let i = self.phys(self.len);
        self.len += 1;
        i
    }

    /// Retires the head slot (only ever a done one, so the done prefix
    /// shortens by exactly the retired slot).
    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        debug_assert!(self.done_prefix > 0, "commit retires only done heads");
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        self.head_seq += 1;
        self.done_prefix -= 1;
    }

    #[inline]
    fn has(&self, i: usize, flag: u8) -> bool {
        self.slot[i].flags & flag != 0
    }

    #[inline]
    fn set(&mut self, i: usize, flag: u8) {
        self.slot[i].flags |= flag;
    }

    #[inline]
    fn clear(&mut self, i: usize, flag: u8) {
        self.slot[i].flags &= !flag;
    }
}

/// Appointment-book ring capacity (power of two). Larger than any common
/// pipeline or memory latency, so the overflow heap stays cold.
const BOOK_WINDOW: usize = 256;

/// An O(1) appointment book: `(cycle, seq)` bookings within
/// [`BOOK_WINDOW`] cycles go to a timing ring (one slot of seqs per
/// cycle), farther ones to a small min-heap.
///
/// The ring stores no keys: a slot is drained *in full* at its cycle, so
/// everything in slot `c & (BOOK_WINDOW - 1)` at cycle `c` was booked for
/// exactly `c`. That only holds because the run loop visits every booked
/// cycle — each booking either coincides with an event-wheel wake-up
/// (producer completions, redirect penalties, squash floors are all
/// `sched`-ed at their source) or directly follows an active cycle, and
/// the fast-forward never skips either kind. A visited slot is drained
/// even when every entry in it has gone stale (the stage validates each
/// against `issue_q`/`mem_q`), so slots cannot alias `BOOK_WINDOW` cycles
/// later.
struct Book {
    ring: Vec<Vec<u64>>,
    overflow: BinaryHeap<Reverse<(u64, u64)>>,
    /// Entries physically stored (stale ones included) — a fast
    /// emptiness check for quiet cycles.
    pending: usize,
}

impl Book {
    fn new() -> Book {
        Book {
            ring: (0..BOOK_WINDOW).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            pending: 0,
        }
    }

    #[inline]
    fn insert(&mut self, at: u64, now: u64, seq: u64) {
        debug_assert!(at > now, "appointments must be future");
        if at - now <= BOOK_WINDOW as u64 {
            self.ring[at as usize & (BOOK_WINDOW - 1)].push(seq);
        } else {
            self.overflow.push(Reverse((at, seq)));
        }
        self.pending += 1;
    }

    /// Whether any booking is due at `now` (assuming every earlier cycle's
    /// slot was already drained).
    #[inline]
    fn has_due(&self, now: u64) -> bool {
        self.pending != 0
            && (!self.ring[now as usize & (BOOK_WINDOW - 1)].is_empty()
                || matches!(self.overflow.peek(), Some(&Reverse((at, _))) if at <= now))
    }

    /// Removes every booking due at `now`, handing each to `visit` as
    /// `(booked_at, seq)` (ring entries are due exactly at `now` by the
    /// slot invariant).
    #[inline]
    fn drain_due(&mut self, now: u64, mut visit: impl FnMut(u64, u64)) {
        let slot = &mut self.ring[now as usize & (BOOK_WINDOW - 1)];
        self.pending -= slot.len();
        for seq in slot.drain(..) {
            visit(now, seq);
        }
        while let Some(&Reverse((at, seq))) = self.overflow.peek() {
            if at > now {
                break;
            }
            self.overflow.pop();
            self.pending -= 1;
            visit(at, seq);
        }
    }
}

/// One stage pass's candidate set: a bitmap over ROB offsets from
/// `head_seq`, which neither the issue nor the memory stage moves.
/// Ascending bits are program order and duplicates collapse, so gathering
/// needs no sort or dedup; a same-pass wake sets a bit ahead of the pass
/// cursor and is visited in order. Every pass leaves the set empty.
struct Cands {
    words: Vec<u64>,
}

impl Cands {
    fn new(capacity: usize) -> Cands {
        Cands {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, offset: usize) {
        self.words[offset >> 6] |= 1 << (offset & 63);
    }

    /// Removes and returns the lowest member. `cursor` is the word the
    /// pass has reached; no member may lie below it.
    #[inline]
    fn pop(&mut self, cursor: &mut usize) -> Option<usize> {
        while let Some(w) = self.words.get_mut(*cursor) {
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(*cursor * 64 + bit);
            }
            *cursor += 1;
        }
        None
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Why [`TimingSim::try_start_load`] could not start a load.
enum LoadBlock {
    /// An older DataCache store's address is unknown.
    AddrUnknown,
    /// An older store in the load's block chain (this seq) has no data yet.
    DataPending(u64),
    /// Ordering passed, but no port or MSHR is free this cycle.
    Bandwidth,
}

/// Hasher for the store index's block map. Keys are cache-block addresses
/// (tagged with the route bit), already well mixed by a single Fibonacci
/// multiply; SipHash would dominate the lookup cost on the memory-stage
/// hot path.
#[derive(Clone, Copy, Default)]
struct BlockHash(u64);

impl std::hash::Hasher for BlockHash {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

#[derive(Clone, Copy, Default)]
struct BlockHashBuilder;

impl std::hash::BuildHasher for BlockHashBuilder {
    type Hasher = BlockHash;

    #[inline]
    fn build_hasher(&self) -> BlockHash {
        BlockHash(0)
    }
}

/// The store index's map key: the 8-byte-aligned block address with the
/// route packed into the (always-zero) low bit, so the two ordering
/// domains never alias.
#[inline]
fn store_block_key(addr: u64, route: Route) -> u64 {
    (addr & !7)
        | match route {
            Route::DataCache => 0,
            Route::Lvc => 1,
        }
}

/// The outcome of replaying one shard segment through the machine model
/// (see [`TimingSim::run_segment_probed`]).
pub struct SegmentRun<P: Probe = NullProbe> {
    /// Cumulative statistics from run start through the end of this
    /// segment, presented finish-style (derived fields filled in). Because
    /// every counter is carried across the shard boundary, the *final*
    /// segment's stats are the whole run's stats — bit-identical to an
    /// unsharded replay.
    pub stats: SimStats,
    /// Serialized machine state at the segment boundary, to be passed as
    /// `resume` to the next shard; `None` on a final segment (the pipeline
    /// drained and finished instead of stopping).
    pub state: Option<Vec<u8>>,
    /// The probe, which observed only this segment's cycles; merging the
    /// per-segment recorders in shard order reproduces the serial run's
    /// probe output exactly.
    pub probe: P,
}

/// The timing simulator. Construct via [`TimingSim::run_program`] (the
/// usual entry point) or drive [`TimingSim::run_trace`] with a
/// pre-collected trace.
///
/// The simulator is monomorphized over its [`Probe`]: the default
/// [`NullProbe`] has `ENABLED == false`, so every observation-gathering
/// expression is statically dead and the un-instrumented pipeline compiles
/// to exactly the code it had before the probe layer existed. The
/// `*_probed` entry points thread any other probe (usually a
/// [`crate::Recorder`]) through the run and hand it back with the stats.
pub struct TimingSim<P: Probe = NullProbe> {
    config: MachineConfig,
    mem: MemSystem,
    arpt: Arpt,
    vpred: Option<StridePredictor>,
    stats: SimStats,

    cycle: u64,
    rob: Rob,
    next_seq: u64,
    /// Issue appointment book: `(cycle, seq)` pairs drained when due. A
    /// pair is live only while `rob.issue_q[seq]` still equals its cycle.
    issue_book: Book,
    /// Slots re-examined every cycle: issue-ready but starved of width or
    /// a functional unit, or holding a stale-early wake bound (squash).
    issue_retry: Vec<u64>,
    /// The running stage pass's candidates (issue, then memory).
    cands: Cands,
    /// In-flight stores per queue, in program order (for ordering checks).
    lsq_stores: VecDeque<u64>,
    lvaq_stores: VecDeque<u64>,
    /// Store index, half one: DataCache-routed in-flight stores whose
    /// address generation has not finished, sorted by sequence. The
    /// conservative-LSQ check ("every older store's address is known")
    /// becomes a peek at the first element instead of a queue walk.
    dc_unknown: Vec<u64>,
    /// Store index, half two: youngest in-flight store per
    /// `(block, route)` key, chained older-ward through
    /// [`Rob::store_next`]. A load's match/forwarding scan touches only
    /// the stores that share its block instead of every older store.
    /// Rebuilt (not serialized) on state import; [`Self::load_block_cause`]
    /// keeps the original full scan as the probe-side living spec.
    store_blocks: HashMap<u64, u64, BlockHashBuilder>,
    lsq_count: usize,
    lvaq_count: usize,
    /// Per-register producer tracking (32 GPR + 32 FPR); `NO_SEQ` = none.
    reg_producer: [u64; 64],
    // Per-cycle FU usage.
    fu_used: [usize; 4],
    /// Committed stores awaiting their background cache write.
    write_buffer: VecDeque<(Route, u64)>,
    /// Pending ARPT soft errors (removed once injected); port-layer faults
    /// live inside [`MemSystem`]. While any are pending the event core
    /// falls back to cycle ticking, because injection triggers on ARPT
    /// *lookup counts* and skipped dispatch retries would desynchronize
    /// them.
    arpt_faults: Vec<TimingFault>,
    /// Future wake-up cycles.
    wheel: EventWheel,
    /// Memory-stage appointment book: `(cycle, seq)` pairs for scheduled
    /// wake-ups (address generation done, redirect penalty served, store
    /// data arrival). Live only while `rob.mem_q[seq]` matches.
    mem_book: Book,
    /// Memory slots re-examined every cycle: loads denied a port or MSHR,
    /// slots whose redirect target queue is full, and loads woken from
    /// [`Self::addr_parked`].
    mem_retry: Vec<u64>,
    /// Loads parked behind an unknown-address DataCache store, as a
    /// min-heap of seqs. Only the issue stage's removal of the oldest
    /// unknown store unblocks any of them, and it unblocks exactly those
    /// older than the new oldest one: the heap's smallest seqs. A copy is
    /// live only while the load's `mem_q` is [`QUEUE_PARKED`].
    addr_parked: BinaryHeap<Reverse<u64>>,
    /// Bumped whenever region verification re-links a store into another
    /// block chain — besides a squash, the only event that can put an
    /// unfinished older store in front of a load that already passed its
    /// ordering checks (see [`Slot::order_epoch`]).
    reroute_epoch: u64,
    probe: P,
}

impl TimingSim {
    /// Runs a linked program end-to-end on this machine model and returns
    /// the statistics. The functional simulator supplies the (perfect
    /// front end) instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if the program fails functionally — workloads are
    /// deterministic, so that is a harness bug, not a timing condition.
    pub fn run_program(program: &Program, config: &MachineConfig) -> SimStats {
        TimingSim::run_program_probed(program, config, NullProbe).0
    }

    /// Runs any [`TraceSource`] — a live [`Machine`] or a trace replayer —
    /// through this machine model. The cycle-level behavior depends only on
    /// the entry stream, so a faithful replayer produces statistics
    /// bit-identical to live execution.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SourceError`] from the source.
    pub fn run_source<S: TraceSource>(
        source: &mut S,
        config: &MachineConfig,
    ) -> Result<SimStats, SourceError> {
        TimingSim::run_source_probed(source, config, NullProbe).map(|(stats, _)| stats)
    }

    /// Runs a pre-collected trace slice (useful for tests).
    pub fn run_trace(entries: &[TraceEntry], config: &MachineConfig) -> SimStats {
        TimingSim::run_trace_probed(entries, config, NullProbe).0
    }

    /// Replays one shard segment without a probe; see
    /// [`TimingSim::run_segment_probed`].
    ///
    /// # Errors
    ///
    /// Propagates source errors and rejects corrupt or mismatched resume
    /// state as [`SourceError::Corrupt`].
    pub fn run_segment<S: TraceSource>(
        source: &mut S,
        config: &MachineConfig,
        resume: Option<&[u8]>,
        final_segment: bool,
    ) -> Result<SegmentRun, SourceError> {
        TimingSim::run_segment_probed(source, config, resume, final_segment, NullProbe)
    }
}

impl<P: Probe> TimingSim<P> {
    fn new(config: &MachineConfig, probe: P) -> TimingSim<P> {
        TimingSim {
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
            rob: Rob::new(config.rob_size),
            next_seq: 0,
            issue_book: Book::new(),
            issue_retry: Vec::new(),
            cands: Cands::new(config.rob_size),
            lsq_stores: VecDeque::new(),
            lvaq_stores: VecDeque::new(),
            dc_unknown: Vec::new(),
            store_blocks: HashMap::with_hasher(BlockHashBuilder),
            lsq_count: 0,
            lvaq_count: 0,
            reg_producer: [NO_SEQ; 64],
            fu_used: [0; 4],
            write_buffer: VecDeque::new(),
            arpt_faults: config
                .faults
                .iter()
                .filter(|f| !f.is_port_fault())
                .copied()
                .collect(),
            wheel: EventWheel::new(),
            mem_book: Book::new(),
            mem_retry: Vec::new(),
            addr_parked: BinaryHeap::new(),
            reroute_epoch: 1,
            config: config.clone(),
            probe,
        }
    }

    /// [`TimingSim::run_program`] with an attached probe; returns the probe
    /// alongside the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the program fails functionally — workloads are
    /// deterministic, so that is a harness bug, not a timing condition.
    pub fn run_program_probed(
        program: &Program,
        config: &MachineConfig,
        probe: P,
    ) -> (SimStats, P) {
        let mut machine = Machine::new(program);
        TimingSim::run_source_probed(&mut machine, config, probe)
            .unwrap_or_else(|e| panic!("functional execution failed: {e}"))
    }

    /// [`TimingSim::run_source`] with an attached probe: the probe observes
    /// every simulated cycle and is returned alongside the statistics. The
    /// probe is pure observation — `SimStats` are identical with any probe
    /// attached.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SourceError`] from the source.
    pub fn run_source_probed<S: TraceSource>(
        source: &mut S,
        config: &MachineConfig,
        probe: P,
    ) -> Result<(SimStats, P), SourceError> {
        let run = TimingSim::run_segment_probed(source, config, None, true, probe)?;
        debug_assert!(run.state.is_none(), "a final segment leaves no state");
        Ok((run.stats, run.probe))
    }

    /// Replays one shard segment of a sharded run. `resume` is the state
    /// blob exported by the previous shard (`None` for the first); when
    /// `final_segment` is false, the run stops as soon as the source dries
    /// and returns the machine state for the next shard instead of
    /// draining the pipeline.
    ///
    /// The cut is *mid-cycle*: a segment's span runs out inside the
    /// dispatch loop, after commit, memory, stall attribution and issue
    /// already ran for that cycle. The exported state therefore carries
    /// those per-cycle locals (`MidCycle`) and the next shard resumes
    /// inside the very same cycle, continuing dispatch where its
    /// predecessor stopped. Chaining segments this way is bit-identical to
    /// one unsharded run — `tests/shard_differential.rs` pins this across
    /// the full workload suite. An unsharded run is simply
    /// `run_segment_probed(source, config, None, true, probe)`.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SourceError`] from the source, and rejects a
    /// corrupt, truncated, or configuration-mismatched `resume` blob as
    /// [`SourceError::Corrupt`].
    pub fn run_segment_probed<S: TraceSource>(
        source: &mut S,
        config: &MachineConfig,
        resume: Option<&[u8]>,
        final_segment: bool,
        probe: P,
    ) -> Result<SegmentRun<P>, SourceError> {
        let mut sim = TimingSim::new(config, probe);
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
                    let mem_active = sim.memory_stage();
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
                        mem_active,
                        stall,
                        // A failed dispatch bumps exactly one stall
                        // counter; the deltas are what a fast-forwarded
                        // span multiplies out.
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
            let obs = if P::ENABLED {
                let (dcache_claims, lvc_claims) = sim.mem.claims_this_cycle();
                let o = CycleObs {
                    rob_occupancy: sim.rob.len,
                    issued: mid.issued,
                    committed: mid.committed,
                    lsq_depth: sim.lsq_count,
                    lvaq_depth: sim.lvaq_count,
                    dcache_claims,
                    lvc_claims,
                    stall: mid.stall,
                };
                sim.probe.record(&o);
                Some(o)
            } else {
                None
            };
            if exhausted && pending.is_none() && sim.rob.len == 0 && sim.write_buffer.is_empty() {
                break;
            }
            // Event core: this cycle changed nothing (and the replays of
            // it during the span cannot either), so jump to the eve of the
            // next scheduled wake-up, replaying the span's constant
            // per-cycle effects in bulk.
            if mid.committed == 0
                && mid.issued == 0
                && mid.dispatched == 0
                && !mid.mem_active
                && sim.arpt_faults.is_empty()
            {
                let rob_stall = sim.stats.rob_stall_cycles - mid.rob_stalls_before;
                let queue_stall = sim.stats.queue_stall_cycles - mid.queue_stalls_before;
                sim.fast_forward_idle(rob_stall, queue_stall, obs.as_ref());
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

    /// [`TimingSim::run_trace`] with an attached probe (useful for tests).
    pub fn run_trace_probed(
        entries: &[TraceEntry],
        config: &MachineConfig,
        probe: P,
    ) -> (SimStats, P) {
        let mut source = EntrySliceSource::new(entries);
        TimingSim::run_source_probed(&mut source, config, probe)
            .unwrap_or_else(|e| panic!("slice sources cannot fail: {e}"))
    }

    /// The statistics as they stand right now, presented finish-style:
    /// live counters plus every derived field (cycle count, cache stats,
    /// value-prediction totals, triggered faults). `finish` is exactly this
    /// view at drain time; a segment boundary uses it mid-run.
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

    /// Serializes the complete machine state at a mid-cycle segment
    /// boundary into a sealed blob (see `crate::state` for the framing).
    /// Everything a resumed [`TimingSim::run_segment_probed`] loop can
    /// observe is captured: the ROB (every slot record), renamer, ordering
    /// queues, write buffer, predictors, memory system, event wheel, the
    /// appointment-book bookings (via each slot's `issue_q`/`mem_q` key),
    /// and the [`MidCycle`] locals of the cut cycle itself.
    fn export_state(&self, mid: &MidCycle) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.bytes(&STATE_MAGIC);
        w.u8(STATE_VERSION);
        w.u8(CORE_EVENT);
        let name = self.config.name.as_bytes();
        w.u32(name.len() as u32);
        w.bytes(name);
        mid.write(&mut w);
        // Machine section: everything outside the ROB.
        w.u64(self.cycle);
        write_stats(&mut w, &self.stats);
        for &p in &self.reg_producer {
            w.u64(p);
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
        // ROB section: the slot records in sequence order plus the
        // wheel's pending wake-ups. The appointment books are *not* stored
        // — each slot's `issue_q`/`mem_q` key is the authoritative copy
        // (stale book entries are dropped on drain anyway), so import
        // re-books from the keys.
        w.u64(self.rob.head_seq);
        w.u64(self.next_seq);
        w.u32(self.rob.len as u32);
        for k in 0..self.rob.len {
            let i = self.rob.phys(k);
            w.u64(self.rob.slot[i].dispatch_cycle);
            for &d in &self.rob.slot[i].deps {
                w.u64(d);
            }
            w.u64(self.rob.slot[i].data_dep);
            w.u8(self.rob.slot[i].fu as u8);
            w.u64(self.rob.slot[i].latency);
            w.u64(self.rob.slot[i].complete_at);
            w.u8(phase_tag(self.rob.slot[i].mem));
            w.u64(self.rob.slot[i].addr);
            w.u8(route_tag(self.rob.slot[i].route));
            w.u64(self.rob.slot[i].mem_ready_at);
            w.u64(self.rob.slot[i].agen_done_at);
            w.u8(self.rob.slot[i].flags);
            w.u64(self.rob.slot[i].arpt_key);
            w.u64(self.rob.slot[i].earliest_try);
            w.u8(self.rob.slot[i].unknown_deps);
            w.u64(self.rob.slot[i].wake_head);
            for &x in &self.rob.slot[i].wake_next {
                w.u64(x);
            }
            for &r in &self.rob.slot[i].claimed {
                w.u8(r);
            }
            w.u64(self.rob.slot[i].issue_q);
            // A parked load is exported as on the retry list: the blob
            // stays what a polling core writes, and the resumed core
            // re-examines it next cycle (an early wake) and re-parks it.
            w.u64(match self.rob.slot[i].mem_q {
                QUEUE_PARKED => QUEUE_RETRY,
                q => q,
            });
        }
        w.u64_list(&self.wheel.pending());
        w.seal()
    }

    /// Restores a blob produced by [`TimingSim::export_state`] into this
    /// freshly constructed simulator and returns the carried [`MidCycle`].
    /// Decoding is strict: any mismatch against this simulator's
    /// configuration (name, core, ROB capacity, predictor presence, cache
    /// geometry, fault plan) or any internally inconsistent field (stale
    /// appointment, sequence-count mismatch, trailing bytes) is a
    /// [`SourceError::Corrupt`].
    fn import_state(&mut self, blob: &[u8]) -> Result<MidCycle, SourceError> {
        let mut r = StateReader::open(blob)?;
        if r.bytes(4)? != STATE_MAGIC {
            return Err(corrupt("bad magic"));
        }
        if r.u8()? != STATE_VERSION {
            return Err(corrupt("unsupported version"));
        }
        if r.u8()? != CORE_EVENT {
            return Err(corrupt("state was captured by a different core"));
        }
        let name_len = r.len32()?;
        if r.bytes(name_len)? != self.config.name.as_bytes() {
            return Err(corrupt("configuration mismatch"));
        }
        let mid = MidCycle::read(&mut r)?;
        // Machine section.
        self.cycle = r.u64()?;
        read_stats(&mut r, &mut self.stats)?;
        for p in &mut self.reg_producer {
            *p = r.u64()?;
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
        // Event-core section.
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
        self.rob.head_seq = head_seq;
        self.next_seq = next_seq;
        for _ in 0..rob_len {
            let i = self.rob.push_back();
            self.rob.slot[i].dispatch_cycle = r.u64()?;
            for d in &mut self.rob.slot[i].deps {
                *d = r.u64()?;
            }
            self.rob.slot[i].data_dep = r.u64()?;
            self.rob.slot[i].fu = fu_from(r.u8()?)?;
            self.rob.slot[i].latency = r.u64()?;
            self.rob.slot[i].complete_at = r.u64()?;
            self.rob.slot[i].mem = phase_from(r.u8()?)?;
            self.rob.slot[i].addr = r.u64()?;
            self.rob.slot[i].route = route_from(r.u8()?)?;
            self.rob.slot[i].mem_ready_at = r.u64()?;
            self.rob.slot[i].agen_done_at = r.u64()?;
            self.rob.slot[i].flags = r.u8()?;
            self.rob.slot[i].arpt_key = r.u64()?;
            self.rob.slot[i].earliest_try = r.u64()?;
            self.rob.slot[i].unknown_deps = r.u8()?;
            self.rob.slot[i].wake_head = r.u64()?;
            for x in &mut self.rob.slot[i].wake_next {
                *x = r.u64()?;
            }
            for c in &mut self.rob.slot[i].claimed {
                *c = r.u8()?;
            }
            self.rob.slot[i].issue_q = r.u64()?;
            self.rob.slot[i].mem_q = r.u64()?;
        }
        // Re-book the appointment books from each slot's authoritative
        // queue key. Every live booking is strictly future at a cut (every
        // insert site books at `cycle + 1` or later, and due bookings were
        // drained at their cycle), so a stale one means corruption. Retry
        // lists rebuild in sequence order; a stage pass visits its
        // candidates in sequence order whatever order they were gathered in.
        for k in 0..self.rob.len {
            let seq = self.rob.head_seq + k as u64;
            let i = self.rob.phys(k);
            // The derived structures are not serialized; rebuild them.
            // `stale` is conservatively true (the issue fast path re-proves
            // its invariant on first touch), the done prefix recomputes
            // from the completion field, and the store index re-links from
            // the slot records (oldest-first push-head leaves the youngest
            // store at each chain head, exactly as incremental maintenance
            // does).
            self.rob.slot[i].stale = true;
            if self.rob.done_prefix == k && self.rob.slot[i].complete_at != NO_CYCLE {
                self.rob.done_prefix = k + 1;
            }
            if self.rob.slot[i].mem != MemPhase::None && !self.rob.has(i, F_IS_LOAD) {
                let route = self.rob.slot[i].route;
                self.link_store_block(seq, route, self.rob.slot[i].addr);
                if route == Route::DataCache && self.rob.slot[i].agen_done_at == NO_CYCLE {
                    self.dc_unknown.push(seq);
                }
            }
            match self.rob.slot[i].issue_q {
                QUEUE_NONE => {}
                QUEUE_RETRY => self.issue_retry.push(seq),
                at if at > self.cycle => self.issue_book.insert(at, self.cycle, seq),
                _ => return Err(corrupt("stale issue appointment")),
            }
            match self.rob.slot[i].mem_q {
                QUEUE_NONE => {}
                QUEUE_RETRY => self.mem_retry.push(seq),
                QUEUE_PARKED => return Err(corrupt("parked memory appointment")),
                at if at > self.cycle => self.mem_book.insert(at, self.cycle, seq),
                _ => return Err(corrupt("stale memory appointment")),
            }
        }
        self.wheel.advance_to(self.cycle);
        for at in r.u64_list()? {
            if at <= self.cycle {
                return Err(corrupt("stale wheel event"));
            }
            self.wheel.schedule(at);
        }
        r.finish()?;
        Ok(mid)
    }

    fn begin_cycle(&mut self) {
        self.cycle += 1;
        self.mem.new_cycle();
        self.fu_used = [0; 4];
        self.wheel.advance_to(self.cycle);
    }

    /// Schedules a future wake-up on the event wheel. Called on every
    /// write of a cycle threshold that can turn a blocked machine state
    /// back into an actionable one.
    #[inline]
    fn sched(&mut self, at: u64) {
        self.wheel.schedule(at);
    }

    /// Jumps from an executed no-op cycle to the eve of the next scheduled
    /// event, replaying the span's constant per-cycle effects in bulk:
    /// dispatch-stall counters multiply out, and the probe receives the
    /// no-op cycle's observation once per skipped cycle (exactly, via
    /// [`Probe::record_span`]).
    fn fast_forward_idle(&mut self, rob_stall: u64, queue_stall: u64, obs: Option<&CycleObs>) {
        let next = match (self.wheel.upcoming(), self.mem.next_event_after(self.cycle)) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return,
        };
        debug_assert!(next > self.cycle, "events behind the clock must retire");
        let span = next - self.cycle - 1;
        if span == 0 {
            return;
        }
        self.stats.rob_stall_cycles += rob_stall * span;
        self.stats.queue_stall_cycles += queue_stall * span;
        if P::ENABLED {
            if let Some(obs) = obs {
                self.probe.record_span(obs, span);
            }
        }
        self.cycle += span;
        self.mem.fast_forward(self.cycle);
        self.wheel.advance_to(self.cycle);
    }

    /// When (if ever yet known) the value produced by `seq` is usable.
    fn producer_ready_at(&self, seq: u64) -> u64 {
        if seq < self.rob.head_seq {
            return 0; // already committed
        }
        let i = self.rob.idx(seq);
        if self.rob.has(i, F_VALUE_PRED) {
            // Consumers may use the predicted value the cycle after the
            // producer dispatched.
            return self.rob.slot[i].dispatch_cycle + 1;
        }
        self.rob.slot[i].complete_at // NO_CYCLE until issued
    }

    fn deps_ready(&self, i: usize) -> bool {
        self.rob.slot[i].deps.iter().all(|&dep| {
            dep == NO_SEQ || {
                let ready = self.producer_ready_at(dep);
                ready != NO_CYCLE && ready <= self.cycle
            }
        })
    }

    /// Books an issue-stage appointment for `seq` at cycle `at`.
    ///
    /// Neither book schedules a wheel event of its own: every booked cycle
    /// is already covered — `cycle + 1` bookings follow an active cycle
    /// (never fast-forwarded from), and every future component of a booked
    /// time (a producer's `done_at`, a redirect penalty's served cycle, a
    /// squash floor) is `sched`-ed where it is computed. The [`Book`] ring
    /// invariant rests on this coverage.
    #[inline]
    fn queue_issue(&mut self, seq: u64, at: u64) {
        let i = self.rob.idx(seq);
        self.rob.slot[i].issue_q = at;
        self.issue_book.insert(at, self.cycle, seq);
    }

    /// Books a memory-stage appointment for `seq` at cycle `at`. See
    /// [`TimingSim::queue_issue`] for why no wheel event is scheduled.
    #[inline]
    fn queue_mem(&mut self, seq: u64, at: u64) {
        let i = self.rob.idx(seq);
        self.rob.slot[i].mem_q = at;
        self.mem_book.insert(at, self.cycle, seq);
    }

    /// Pushes store `seq` at the head of its `(block, route)` chain.
    fn link_store_block(&mut self, seq: u64, route: Route, addr: u64) {
        let key = store_block_key(addr, route);
        let i = self.rob.idx(seq);
        match self.store_blocks.insert(key, seq) {
            Some(prev) => self.rob.slot[i].store_next = prev,
            None => self.rob.slot[i].store_next = NO_SEQ,
        }
    }

    /// Unlinks store `seq` from its `(block, route)` chain (route change at
    /// verification, or retirement at commit). Chains hold only the stores
    /// of one block, so the predecessor walk is a handful of hops at most.
    fn unlink_store_block(&mut self, seq: u64, route: Route, addr: u64) {
        let key = store_block_key(addr, route);
        let next = self.rob.slot[self.rob.idx(seq)].store_next;
        let Some(&head) = self.store_blocks.get(&key) else {
            debug_assert!(false, "store {seq} missing from its block chain");
            return;
        };
        if head == seq {
            if next == NO_SEQ {
                self.store_blocks.remove(&key);
            } else {
                self.store_blocks.insert(key, next);
            }
            return;
        }
        let mut cur = head;
        loop {
            let ci = self.rob.idx(cur);
            let n = self.rob.slot[ci].store_next;
            debug_assert_ne!(n, NO_SEQ, "store {seq} missing from its block chain");
            if n == seq {
                self.rob.slot[ci].store_next = next;
                return;
            }
            cur = n;
        }
    }

    /// Slot `seq` just gained a known completion cycle: extend the done
    /// prefix if it is the next slot in line (and absorb any already-done
    /// run behind it). Each slot enters the prefix once per completion, so
    /// the total extension work is bounded by the completions themselves.
    #[inline]
    fn note_complete(&mut self, seq: u64) {
        let rob = &mut self.rob;
        if seq != rob.head_seq + rob.done_prefix as u64 {
            return;
        }
        let mut p = rob.done_prefix;
        while p < rob.len && rob.slot[rob.phys(p)].complete_at != NO_CYCLE {
            p += 1;
        }
        rob.done_prefix = p;
    }

    /// Producer slot `i` just learned its completion cycle: wake every
    /// consumer registered on its list. Register consumers (`dep_index`
    /// 0–2) drop their unknown-producer count, raise their issue bound to
    /// `ready_at`, and enter the issue book once no unknowns remain;
    /// store-data consumers (`dep_index` 3) re-enter the memory book.
    /// Fired registrations are consumed; a squash that later revokes this
    /// completion leaves the consumers' bounds stale-early, which only
    /// costs re-checks (the authoritative checks still gate).
    #[inline]
    fn fire_wakes(&mut self, i: usize, ready_at: u64) {
        let mut h = self.rob.slot[i].wake_head;
        if h == NO_SEQ {
            return;
        }
        self.rob.slot[i].wake_head = NO_SEQ;
        while h != NO_SEQ {
            let seq = h >> 2;
            let k = (h & 3) as usize;
            let c = self.rob.idx(seq);
            h = self.rob.slot[c].wake_next[k];
            if k == 3 {
                // Store data arrival: the memory stage completes the store
                // once it is both redirect-served and data-ready.
                self.rob.clear(c, F_DATA_WAKE);
                if self.rob.slot[c].mem == MemPhase::Ready
                    && self.rob.slot[c].complete_at == NO_CYCLE
                {
                    let at = ready_at.max(self.rob.slot[c].mem_ready_at);
                    self.queue_mem(seq, at);
                }
                continue;
            }
            self.rob.slot[c].unknown_deps -= 1;
            if ready_at > self.rob.slot[c].earliest_try {
                self.rob.slot[c].earliest_try = ready_at;
            }
            if self.rob.slot[c].unknown_deps == 0 {
                let at = self.rob.slot[c].earliest_try;
                self.queue_issue(seq, at);
            }
        }
    }

    // ---- dispatch ---------------------------------------------------------

    fn try_dispatch(&mut self, entry: &TraceEntry) -> bool {
        if self.rob.len >= self.config.rob_size {
            self.stats.rob_stall_cycles += 1;
            return false;
        }
        // Memory instructions need a queue entry; pick the queue now (the
        // paper's dispatch-stage steering).
        let mut route = Route::DataCache;
        let mut arpt_predicted = false;
        let mut arpt_key = 0u64;
        let is_mem = entry.mem.is_some();
        if is_mem {
            if self.config.is_decoupled() {
                let Some(info) = entry.inst.mem_op() else {
                    unreachable!("memory entry carries no mem_op");
                };
                let predicted_stack = match static_hint(&info) {
                    StaticHint::Stack => true,
                    StaticHint::NonStack => false,
                    StaticHint::Dynamic => {
                        arpt_predicted = true;
                        arpt_key = self.arpt.key(entry.pc, entry.ghr, entry.ra);
                        if !self.arpt_faults.is_empty() {
                            self.apply_arpt_faults();
                        }
                        self.arpt.predict_counted_key(arpt_key)
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
        let mut deps: [u64; 3] = [NO_SEQ; 3];
        let mut data_dep: u64 = NO_SEQ;
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
                let mut fprs = [arl_isa::Fpr::new(0); 2];
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

        // Claim the renamer for the destination, remembering the claims so
        // commit can release exactly them.
        let mut claimed = [NO_REG; 2];
        if let Some((rd, _)) = entry.gpr_write {
            self.reg_producer[rd.index()] = seq;
            claimed[0] = rd.index() as u8;
        }
        if let Some(fd) = entry.inst.fpr_dest() {
            let r = 32 + fd.index();
            self.reg_producer[r] = seq;
            claimed[1] = r as u8;
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

        let i = self.rob.push_back();
        self.rob.slot[i].dispatch_cycle = self.cycle;
        self.rob.slot[i].deps = deps;
        self.rob.slot[i].data_dep = data_dep;
        self.rob.slot[i].fu = fu;
        self.rob.slot[i].latency = latency;
        self.rob.slot[i].complete_at = NO_CYCLE;
        self.rob.slot[i].mem = if is_mem {
            MemPhase::WaitAgen
        } else {
            MemPhase::None
        };
        self.rob.slot[i].addr = addr;
        self.rob.slot[i].route = route;
        self.rob.slot[i].mem_ready_at = 0;
        self.rob.slot[i].agen_done_at = NO_CYCLE;
        let mut flags = 0u8;
        if value_predicted {
            flags |= F_VALUE_PRED;
        }
        if is_load {
            flags |= F_IS_LOAD;
        }
        if is_stack {
            flags |= F_IS_STACK;
        }
        if arpt_predicted {
            flags |= F_ARPT_PRED;
        }
        self.rob.slot[i].flags = flags;
        self.rob.slot[i].arpt_key = arpt_key;
        self.rob.slot[i].stale = false;
        self.rob.slot[i].claimed = claimed;
        self.rob.slot[i].mem_q = QUEUE_NONE; // agen issue books the appointment
        self.rob.slot[i].park_head = NO_SEQ;
        self.rob.slot[i].park_next = NO_SEQ;
        self.rob.slot[i].park_linked = false;
        self.rob.slot[i].order_epoch = 0;
        if is_mem && !is_load {
            // Store-index maintenance: link into the (block, route) chain;
            // a DataCache store's address is unknown until its agen issues.
            self.link_store_block(seq, route, addr);
            if route == Route::DataCache {
                debug_assert!(self.dc_unknown.last().is_none_or(|&s| s < seq));
                self.dc_unknown.push(seq);
            }
        }
        // Issue-wakeup bookkeeping: compute a provable lower bound on the
        // first cycle the issue check could pass, and register on any
        // producer whose completion cycle is not yet known. The slot's own
        // wake list must be empty here — producers fire (complete) before
        // they commit, so a reused slot's list was drained.
        self.rob.slot[i].wake_head = NO_SEQ;
        self.rob.slot[i].wake_next = [NO_SEQ; 4];
        let mut earliest = self.cycle + 1; // issue needs dispatch_cycle < cycle
        let mut unknown = 0u8;
        for (k, &dep) in deps.iter().enumerate() {
            if dep == NO_SEQ || dep < self.rob.head_seq {
                continue; // no producer, or already committed (ready at 0)
            }
            let j = self.rob.idx(dep);
            if self.rob.has(j, F_VALUE_PRED) {
                earliest = earliest.max(self.rob.slot[j].dispatch_cycle + 1);
            } else if self.rob.slot[j].complete_at != NO_CYCLE {
                earliest = earliest.max(self.rob.slot[j].complete_at);
            } else {
                self.rob.slot[i].wake_next[k] = self.rob.slot[j].wake_head;
                self.rob.slot[j].wake_head = (seq << 2) | k as u64;
                unknown += 1;
            }
        }
        self.rob.slot[i].earliest_try = earliest;
        self.rob.slot[i].unknown_deps = unknown;
        if unknown == 0 {
            self.queue_issue(seq, earliest);
        } else {
            self.rob.slot[i].issue_q = QUEUE_NONE; // parked until the last wake
        }
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
        // Gather this cycle's candidates: due appointments plus the
        // every-cycle retry list. Stale book copies (the slot was
        // re-appointed by a squash, issued, or committed) drop out here.
        let cycle = self.cycle;
        if self.issue_retry.is_empty() && !self.issue_book.has_due(cycle) {
            return 0;
        }
        let head = self.rob.head_seq;
        let (rob, cands) = (&self.rob, &mut self.cands);
        self.issue_book.drain_due(cycle, |at, seq| {
            if seq >= head && rob.slot[rob.idx(seq)].issue_q == at {
                cands.insert((seq - head) as usize);
            }
        });
        for n in 0..self.issue_retry.len() {
            let seq = self.issue_retry[n];
            if seq >= head && self.rob.slot[self.rob.idx(seq)].issue_q == QUEUE_RETRY {
                self.cands.insert((seq - head) as usize);
            }
        }
        self.issue_retry.clear();
        // The authoritative walk is in program order, exactly the order
        // the legacy core examines ready entries in.
        let mut issued = 0;
        let width = self.config.issue_width;
        let mut cursor = 0;
        while let Some(offset) = self.cands.pop(&mut cursor) {
            let seq = head + offset as u64;
            let i = self.rob.idx(seq);
            debug_assert_eq!(self.rob.slot[i].unknown_deps, 0);
            debug_assert!(self.rob.slot[i].earliest_try <= cycle);
            if issued < width {
                let fu = self.rob.slot[i].fu;
                // Ready re-verification is only needed on slots a squash
                // has touched (or freshly imported state): everywhere else
                // the booked cycle's bound is a proof — completions are
                // only ever revoked by squashing the producer, and a
                // consumer is younger than its producer, so it was
                // squash-marked too. Clear the mark once re-proven.
                let ready = if self.rob.slot[i].stale {
                    let ok = self.rob.slot[i].dispatch_cycle < cycle && self.deps_ready(i);
                    if ok {
                        self.rob.slot[i].stale = false;
                    }
                    ok
                } else {
                    debug_assert!(self.rob.slot[i].dispatch_cycle < cycle);
                    debug_assert!(self.deps_ready(i));
                    true
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
                    let done_at = cycle + self.rob.slot[i].latency;
                    self.rob.set(i, F_ISSUED);
                    self.rob.slot[i].issue_q = QUEUE_NONE;
                    if self.rob.slot[i].mem == MemPhase::WaitAgen {
                        // Address generation completes next cycle; the
                        // memory stage takes over. Completion is still
                        // unknown — consumers stay registered until the
                        // access starts.
                        self.rob.slot[i].agen_done_at = done_at;
                        self.rob.slot[i].complete_at = NO_CYCLE;
                        if !self.rob.has(i, F_IS_LOAD) && self.rob.slot[i].route == Route::DataCache
                        {
                            // The store's address is now (as of `done_at`,
                            // observed next memory stage) known.
                            if let Ok(p) = self.dc_unknown.binary_search(&seq) {
                                self.dc_unknown.remove(p);
                                if p == 0 {
                                    self.wake_addr_parked();
                                }
                            } else {
                                debug_assert!(false, "issuing DataCache store {seq} untracked");
                            }
                        }
                        self.queue_mem(seq, done_at);
                    } else {
                        self.rob.slot[i].complete_at = done_at;
                        self.note_complete(seq);
                        self.fire_wakes(i, done_at);
                    }
                    self.sched(done_at);
                    continue;
                }
            }
            // Starved of width or a functional unit, or the wake bound was
            // stale-early (a squash revoked a producer's completion):
            // re-examine every cycle, as the legacy walk does.
            self.rob.slot[i].issue_q = QUEUE_RETRY;
            self.issue_retry.push(seq);
        }
        debug_assert!(self.cands.is_empty());
        issued
    }

    /// The oldest unknown-address DataCache store just left `dc_unknown`
    /// (its address generation issued). Every parked load older than the
    /// new oldest unknown store passes that check from next cycle's memory
    /// stage on, so it goes on the retry list: examined exactly at
    /// `cycle + 1`, which follows this active cycle (the [`Book`] coverage
    /// rule), and exported as [`QUEUE_RETRY`] just as a polling core would.
    fn wake_addr_parked(&mut self) {
        let oldest = self.dc_unknown.first().copied().unwrap_or(NO_SEQ);
        while let Some(&Reverse(seq)) = self.addr_parked.peek() {
            if seq > oldest {
                break;
            }
            self.addr_parked.pop();
            // Stale copies (the load committed, or a squash or an earlier
            // wake moved it on) fail the `mem_q` check.
            if seq >= self.rob.head_seq {
                let i = self.rob.idx(seq);
                if self.rob.slot[i].mem_q == QUEUE_PARKED {
                    self.rob.slot[i].mem_q = QUEUE_RETRY;
                    self.mem_retry.push(seq);
                }
            }
        }
    }

    // ---- memory stage -------------------------------------------------------

    /// Runs the memory stage; returns whether it changed any machine state
    /// (the event core may only fast-forward cycles where it did not).
    fn memory_stage(&mut self) -> bool {
        let mut active = false;
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
            active = true;
        }
        let cycle = self.cycle;
        if self.mem_retry.is_empty() && !self.mem_book.has_due(cycle) {
            return active; // no appointment due this cycle
        }
        // Gather this cycle's work: due appointments (address generation
        // done, redirect penalty served, store data arrived) plus the
        // every-cycle retry list (port/MSHR blocked). Stale book copies
        // drop out; the survivors are processed oldest-first, exactly the
        // program-order walk the legacy core does. (Stores access the
        // cache at commit.)
        //
        // Ordering-blocked loads are not polled: they park (`QUEUE_PARKED`)
        // until one of the only three events that can unblock them — the
        // issue stage resolving the oldest unknown DataCache store address
        // (`wake_addr_parked`), or the blocking store completing or being
        // re-routed out of the load's block chain, both in this stage
        // (`wake_order_waiters`). The last two wake the waiters into this
        // very pass: they are younger than the store, so still ahead of
        // the cursor, and the polling walk would see the store's new state
        // on reaching them. A wake may come early (the check re-runs and
        // re-parks), never late.
        let head = self.rob.head_seq;
        let (rob, cands) = (&self.rob, &mut self.cands);
        self.mem_book.drain_due(cycle, |at, seq| {
            if seq >= head && rob.slot[rob.idx(seq)].mem_q == at {
                cands.insert((seq - head) as usize);
            }
        });
        for n in 0..self.mem_retry.len() {
            let seq = self.mem_retry[n];
            if seq >= head && self.rob.slot[self.rob.idx(seq)].mem_q == QUEUE_RETRY {
                self.cands.insert((seq - head) as usize);
            }
        }
        self.mem_retry.clear();
        let mut cursor = 0;
        while let Some(offset) = self.cands.pop(&mut cursor) {
            let seq = head + offset as u64;
            let i = self.rob.idx(seq);
            // 1. Verification (TLB stack-bit check) the cycle address
            //    generation finishes. (A squash may have reset a later
            //    action candidate back to pre-agen state mid-pass — its
            //    appointment book slot was rewritten, so leave it alone.)
            if self.rob.slot[i].mem == MemPhase::WaitAgen {
                let needs_verify = !self.rob.has(i, F_VERIFIED)
                    && self.rob.slot[i].agen_done_at != NO_CYCLE
                    && self.rob.slot[i].agen_done_at <= cycle;
                if needs_verify {
                    if self.verify_region(seq) {
                        active = true;
                        // Now Ready; access may start the next cycle at
                        // the earliest (later after a redirect penalty).
                        let at = self.rob.slot[i].mem_ready_at.max(cycle + 1);
                        self.queue_mem(seq, at);
                    } else {
                        // Redirect target queue full: retry every cycle.
                        self.rob.slot[i].mem_q = QUEUE_RETRY;
                        self.mem_retry.push(seq);
                    }
                }
                continue;
            }
            // A squash earlier in this same pass may have reset this
            // action candidate; only due Ready slots proceed.
            if self.rob.slot[i].mem != MemPhase::Ready || self.rob.slot[i].mem_ready_at > cycle {
                continue;
            }
            if self.rob.has(i, F_IS_LOAD) {
                if self.rob.slot[i].park_linked {
                    // Woken early while still linked on a store that has
                    // not fired: provably still blocked.
                    self.rob.slot[i].mem_q = QUEUE_PARKED;
                    continue;
                }
                match self.try_start_load(seq) {
                    Ok(()) => {
                        active = true;
                        self.rob.slot[i].mem_q = QUEUE_NONE; // access in flight
                    }
                    Err(LoadBlock::Bandwidth) => {
                        // Port or MSHR denied: retry every cycle.
                        self.rob.slot[i].mem_q = QUEUE_RETRY;
                        self.mem_retry.push(seq);
                    }
                    Err(LoadBlock::AddrUnknown) => {
                        self.rob.slot[i].mem_q = QUEUE_PARKED;
                        self.addr_parked.push(Reverse(seq));
                    }
                    Err(LoadBlock::DataPending(store)) => {
                        let j = self.rob.idx(store);
                        self.rob.slot[i].park_next = self.rob.slot[j].park_head;
                        self.rob.slot[j].park_head = seq;
                        self.rob.slot[i].park_linked = true;
                        self.rob.slot[i].mem_q = QUEUE_PARKED;
                    }
                }
            } else if self.rob.slot[i].complete_at == NO_CYCLE {
                // Store: becomes commit-eligible once its data arrives.
                let data_ready = match self.rob.slot[i].data_dep {
                    NO_SEQ => 0,
                    dep => self.producer_ready_at(dep),
                };
                if data_ready != NO_CYCLE && data_ready <= cycle {
                    self.rob.slot[i].complete_at = cycle;
                    self.note_complete(seq);
                    self.wake_order_waiters(i);
                    active = true;
                    self.rob.slot[i].mem_q = QUEUE_NONE; // commit takes over
                } else if data_ready != NO_CYCLE {
                    // Arrival cycle already known: book it.
                    self.queue_mem(seq, data_ready);
                } else {
                    // Unknown: park on the data producer's wake list. The
                    // F_DATA_WAKE guard keeps one live registration across
                    // squash-and-replay.
                    self.rob.slot[i].mem_q = QUEUE_NONE;
                    if !self.rob.has(i, F_DATA_WAKE) {
                        let p = self.rob.idx(self.rob.slot[i].data_dep);
                        self.rob.slot[i].wake_next[3] = self.rob.slot[p].wake_head;
                        self.rob.slot[p].wake_head = (seq << 2) | 3;
                        self.rob.set(i, F_DATA_WAKE);
                    }
                }
            } else {
                self.rob.slot[i].mem_q = QUEUE_NONE; // completed store
            }
        }
        debug_assert!(self.cands.is_empty());
        active
    }

    /// Store slot `j` just completed, or left its block chain: every load
    /// parked on its list joins the running memory pass (the waiters are
    /// younger than the store, so their bits land ahead of the cursor).
    /// Registrations whose load has since moved on (a squash reset it, or
    /// it was woken early onto the retry list) are just unlinked.
    fn wake_order_waiters(&mut self, j: usize) {
        let head = self.rob.head_seq;
        let mut seq = std::mem::replace(&mut self.rob.slot[j].park_head, NO_SEQ);
        while seq != NO_SEQ {
            let i = self.rob.idx(seq);
            let next = std::mem::replace(&mut self.rob.slot[i].park_next, NO_SEQ);
            self.rob.slot[i].park_linked = false;
            if self.rob.slot[i].mem_q == QUEUE_PARKED {
                self.rob.slot[i].mem_q = QUEUE_NONE; // in this pass
                self.cands.insert((seq - head) as usize);
            }
            seq = next;
        }
    }

    /// The TLB region check: reroute and retrain on a wrong prediction.
    /// Returns whether any state changed (false only when the correct
    /// target queue is full and verification must retry next cycle).
    fn verify_region(&mut self, seq: u64) -> bool {
        let i = self.rob.idx(seq);
        let route = self.rob.slot[i].route;
        let is_stack = self.rob.has(i, F_IS_STACK);
        let is_load = self.rob.has(i, F_IS_LOAD);
        let arpt_predicted = self.rob.has(i, F_ARPT_PRED);
        let decoupled = self.config.is_decoupled();
        let correct_route = if decoupled && is_stack {
            Route::Lvc
        } else {
            Route::DataCache
        };
        let penalty = self.config.region_mispredict_penalty;
        let now = self.cycle;
        if decoupled && route != correct_route {
            // Misprediction: move the entry to the right queue. If that
            // queue is full, the slot stays unverified in WaitAgen and the
            // memory stage retries verification every cycle.
            let space = match correct_route {
                Route::Lvc => self.lvaq_count < self.config.lvaq_size,
                Route::DataCache => self.lsq_count < self.config.lsq_size,
            };
            if !space {
                // Target queue full; retry verification next cycle.
                return false;
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
                // Re-key the store index under the corrected route. Its
                // address generation is done (verification follows agen),
                // so the DataCache unknown-address list is not involved in
                // either direction.
                let addr = self.rob.slot[i].addr;
                self.unlink_store_block(seq, route, addr);
                self.link_store_block(seq, correct_route, addr);
                // The store may now stand in front of loads that already
                // proved their ordering, and it no longer blocks the loads
                // parked on it in its old chain.
                self.reroute_epoch += 1;
                self.wake_order_waiters(i);
            }
            self.rob.slot[i].route = correct_route;
            self.rob.set(i, F_VERIFIED);
            self.rob.slot[i].mem = MemPhase::Ready;
            // Detected and re-dispatched on the correct path; commit
            // counts the completed recovery.
            self.rob.set(i, F_RECOVERED);
            // Detection this cycle; re-issue `penalty` cycles later.
            self.rob.slot[i].mem_ready_at = now + 1 + penalty;
            self.sched(now + 1 + penalty);
            if self.config.recovery == RecoveryMode::Squash {
                self.squash_younger(seq, now + 1 + penalty);
            }
        } else {
            if decoupled {
                self.stats.region_checks += 1;
            }
            self.rob.set(i, F_VERIFIED);
            self.rob.slot[i].mem = MemPhase::Ready;
            self.rob.slot[i].mem_ready_at = now;
        }
        // Train the ARPT on dynamic (unrevealed) instructions only; the
        // statically revealed ones are never recorded in it. The key was
        // computed once at dispatch.
        if decoupled && arpt_predicted {
            self.arpt.update_key(self.rob.slot[i].arpt_key, is_stack);
        }
        true
    }

    /// Attempts to begin a load's cache access (ordering + forwarding +
    /// ports); `Ok` when the access (or forwarding) started, else why not.
    fn try_start_load(&mut self, seq: u64) -> Result<(), LoadBlock> {
        let i = self.rob.idx(seq);
        let route = self.rob.slot[i].route;
        let addr = self.rob.slot[i].addr;
        if self.rob.slot[i].order_epoch != self.reroute_epoch {
            if self.check_load_order(seq, i)? {
                return Ok(()); // forwarded
            }
            // Proven: no older store shares the load's block chain and no
            // older DataCache address is unknown. Only a squash (which
            // clears the stamp) or a store re-linked into the chain (which
            // bumps the epoch) can undo that, so port retries skip here.
            self.rob.slot[i].order_epoch = self.reroute_epoch;
        }
        if !self.mem.port_available(route, addr) {
            return Err(LoadBlock::Bandwidth); // bandwidth contention — retry next cycle
        }
        let Some(latency) = self.mem.access(route, addr) else {
            return Err(LoadBlock::Bandwidth); // miss with no free MSHR — retry next cycle
        };
        let done_at = self.cycle + latency;
        self.rob.slot[i].mem = MemPhase::Accessed;
        self.rob.slot[i].complete_at = done_at;
        self.note_complete(seq);
        self.fire_wakes(i, done_at);
        self.sched(done_at);
        Ok(())
    }

    /// The ordering half of [`Self::try_start_load`]: fails with the
    /// blocking cause, or forwards from the matching older stores
    /// (`Ok(true)`), or passes with the cache access still to start
    /// (`Ok(false)`).
    fn check_load_order(&mut self, seq: u64, i: usize) -> Result<bool, LoadBlock> {
        let route = self.rob.slot[i].route;
        let addr = self.rob.slot[i].addr;
        // Ordering against older stores in the same queue, answered by the
        // store index instead of a walk over the whole ordering queue
        // ([`Self::load_block_cause`] keeps the original scan as the
        // probe-side living spec; the property suite pins the equivalence
        // against a brute-force model). Two probes:
        //
        // 1. Conservative LSQ: every older DataCache store's address must
        //    be known — i.e. no older entry in the sorted unknown-agen
        //    list. (At memory-stage time `agen_done_at != NO_CYCLE`
        //    implies `agen_done_at <= cycle`: store agen issues with a
        //    +1-cycle latency and issue runs after this stage.)
        // 2. Match/forwarding: only the stores sharing the load's block
        //    and route — the slots chained under its index key. For a
        //    store, a known completion (`complete_at != NO_CYCLE`) is set
        //    in this very stage at the current cycle, so it implies
        //    `complete_at <= cycle`: exactly the scan's data-ready check.
        if route == Route::DataCache {
            if let Some(&first) = self.dc_unknown.first() {
                if first < seq {
                    return Err(LoadBlock::AddrUnknown);
                }
            }
        }
        let mut forward_ready = false;
        let mut st_seq = self
            .store_blocks
            .get(&store_block_key(addr, route))
            .copied()
            .unwrap_or(NO_SEQ);
        while st_seq != NO_SEQ {
            let j = self.rob.idx(st_seq);
            if st_seq < seq {
                let complete = self.rob.slot[j].complete_at;
                debug_assert!(complete == NO_CYCLE || complete <= self.cycle);
                if complete == NO_CYCLE {
                    return Err(LoadBlock::DataPending(st_seq));
                }
                forward_ready = true;
            }
            st_seq = self.rob.slot[j].store_next;
        }
        if forward_ready {
            // Store-to-load forwarding: 1 cycle, no cache port.
            match route {
                Route::Lvc => self.stats.lvaq_forwards += 1,
                Route::DataCache => self.stats.lsq_forwards += 1,
            }
            let done_at = self.cycle + 1;
            self.rob.slot[i].mem = MemPhase::Accessed;
            self.rob.slot[i].complete_at = done_at;
            self.note_complete(seq);
            self.fire_wakes(i, done_at);
            self.sched(done_at);
        }
        Ok(forward_ready)
    }

    /// Branch-style recovery: every instruction younger than `seq` loses
    /// its issue and replays no earlier than `reissue_at` (its memory
    /// access, if any, restarts from address generation).
    fn squash_younger(&mut self, seq: u64, reissue_at: u64) {
        let floor = reissue_at.saturating_add(1);
        // Every slot younger than `seq` loses its completion, so the done
        // prefix cannot reach past `seq` itself.
        let keep = (seq + 1 - self.rob.head_seq) as usize;
        if self.rob.done_prefix > keep {
            self.rob.done_prefix = keep;
        }
        for k in 0..self.rob.len {
            let s_seq = self.rob.head_seq + k as u64;
            if s_seq <= seq {
                continue;
            }
            let i = self.rob.phys(k);
            // The slot's cached issue proof (booked bound, known producer
            // completions) no longer holds; the issue stage re-verifies.
            self.rob.slot[i].stale = true;
            // Model the replay by pushing the apparent dispatch time out:
            // issue requires dispatch_cycle < cycle.
            self.rob.slot[i].dispatch_cycle = self.rob.slot[i].dispatch_cycle.max(reissue_at);
            // The cached issue bound is invalid in *both* directions after
            // a squash: revoked completions make it stale-early (harmless),
            // but a replayed producer may also re-complete *earlier* than
            // the completion this slot cached at dispatch, so keeping the
            // old maximum could delay issue past the legacy core. Reset to
            // the reissue horizon — the one bound squash itself guarantees
            // (issue needs cycle > dispatch_cycle >= reissue_at).
            self.rob.slot[i].earliest_try = floor;
            self.rob.clear(i, F_ISSUED);
            self.rob.slot[i].complete_at = NO_CYCLE;
            // Re-book the issue appointment at the horizon; from there the
            // retry path re-examines it every cycle exactly as the legacy
            // walk would. Slots still awaiting a producer wake stay parked
            // (their registrations survive the squash — the producer must
            // still complete before it can commit).
            if self.rob.slot[i].unknown_deps == 0 {
                self.queue_issue(s_seq, floor);
            } else {
                self.rob.slot[i].issue_q = QUEUE_NONE;
            }
            if self.rob.slot[i].mem != MemPhase::None {
                // Memory references restart from address generation; the
                // replayed issue books the next memory appointment. A
                // DataCache store whose address *was* generated rejoins
                // the unknown-address list (one never issued is still on
                // it); its block chain membership is untouched.
                if !self.rob.has(i, F_IS_LOAD)
                    && self.rob.slot[i].route == Route::DataCache
                    && self.rob.slot[i].agen_done_at != NO_CYCLE
                {
                    match self.dc_unknown.binary_search(&s_seq) {
                        Err(p) => self.dc_unknown.insert(p, s_seq),
                        Ok(_) => debug_assert!(false, "store {s_seq} already unknown"),
                    }
                }
                self.rob.slot[i].mem = MemPhase::WaitAgen;
                self.rob.slot[i].agen_done_at = NO_CYCLE;
                self.rob.clear(i, F_VERIFIED);
                self.rob.slot[i].mem_ready_at = 0;
                self.rob.slot[i].mem_q = QUEUE_NONE;
                // A load's ordering proof is void; a parked load keeps its
                // store link, which still proves it blocked (see
                // `Slot::park_linked`).
                self.rob.slot[i].order_epoch = 0;
            }
        }
        // Squashed slots become issue-eligible again the cycle after their
        // pushed-out dispatch time.
        self.sched(floor);
    }

    // ---- commit -------------------------------------------------------------

    fn commit_stage(&mut self) -> usize {
        let mut committed = 0;
        while committed < self.config.issue_width {
            // Pruned scan: a head is commit-phase-eligible exactly when its
            // completion cycle is known (None/Accessed always set it at
            // issue/access; a Ready store sets it when its data arrives; a
            // Ready load and WaitAgen never have one), and the done prefix
            // counts precisely the head-contiguous known completions. A
            // zero prefix — the common busy-cycle case — answers without
            // touching the per-slot arrays at all.
            if self.rob.done_prefix == 0 {
                break;
            }
            let i = self.rob.head;
            let complete = self.rob.slot[i].complete_at;
            debug_assert_ne!(complete, NO_CYCLE, "done prefix covers a live head");
            if complete > self.cycle {
                break;
            }
            let phase = self.rob.slot[i].mem;
            let is_mem = phase != MemPhase::None;
            let is_load = self.rob.has(i, F_IS_LOAD);
            debug_assert!(
                matches!(phase, MemPhase::None | MemPhase::Accessed)
                    || (phase == MemPhase::Ready && !is_load),
                "a known completion implies a commit-eligible phase"
            );
            let route = self.rob.slot[i].route;
            let addr = self.rob.slot[i].addr;
            let seq = self.rob.head_seq;
            let recovered = self.rob.has(i, F_RECOVERED);
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
                if !is_load {
                    // Retire from the store index (a committing store's
                    // address was generated, so the unknown list cannot
                    // hold it).
                    self.unlink_store_block(seq, route, addr);
                }
                // A store committing straight out of Ready leaves the
                // memory stage lazily (any appointment-book copy is
                // dropped once `seq` falls behind `head_seq`).
            }
            for &r in &self.rob.slot[i].claimed {
                if r != NO_REG && self.reg_producer[r as usize] == seq {
                    self.reg_producer[r as usize] = NO_SEQ;
                }
            }
            if recovered {
                self.stats.recoveries += 1;
            }
            self.rob.pop_front();
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
    ///
    /// Every branch below compares a per-slot threshold (or port/MSHR
    /// state) against the current cycle, and all such flip points are
    /// scheduled events — which is why the cause is constant across a
    /// fast-forwarded span and can be bulk-replayed.
    fn stall_cause(&self) -> StallCause {
        if self.rob.len == 0 {
            // Nothing in flight at all: the source ran dry (end of program
            // drain, or the first cycle before anything dispatched).
            return StallCause::FetchDry;
        }
        let i = self.rob.head;
        match self.rob.slot[i].mem {
            MemPhase::None | MemPhase::WaitAgen => {
                if self.rob.has(i, F_ISSUED) {
                    // Result (or address generation) still in the FU
                    // pipeline.
                    StallCause::ExecLatency
                } else if self.rob.len >= self.config.rob_size {
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
                if self.rob.slot[i].mem_ready_at > self.cycle {
                    // Serving the region-misprediction redirect penalty.
                    StallCause::ArptRedirect
                } else if self.rob.has(i, F_IS_LOAD) {
                    self.load_block_cause(i)
                } else if self.rob.slot[i].complete_at != NO_CYCLE
                    && self.rob.slot[i].complete_at <= self.cycle
                {
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
    /// `i` is the head's physical index.
    fn load_block_cause(&self, i: usize) -> StallCause {
        let seq = self.rob.head_seq;
        let addr = self.rob.slot[i].addr;
        let route = self.rob.slot[i].route;
        let block = addr & !7;
        let stores = match route {
            Route::Lvc => &self.lvaq_stores,
            Route::DataCache => &self.lsq_stores,
        };
        let mut forwards = false;
        for &st_seq in stores.iter() {
            if st_seq >= seq {
                break;
            }
            let j = self.rob.idx(st_seq);
            let agen = self.rob.slot[j].agen_done_at;
            let complete = self.rob.slot[j].complete_at;
            let addr_known = agen != NO_CYCLE && agen <= self.cycle;
            let data_ready = complete != NO_CYCLE && complete <= self.cycle;
            if route == Route::DataCache && !addr_known {
                return StallCause::StoreOrdering;
            }
            if self.rob.slot[j].addr & !7 == block {
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
        if !self.mem.port_available(route, addr) || self.mem.mshr_would_block(route, addr) {
            return StallCause::MemPort;
        }
        // The access starts this cycle; what remains is pure latency.
        StallCause::MemLatency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arl_isa::{FCmpOp, Fpr, Gpr};

    #[test]
    fn classify_matches_latency_table() {
        let alu = |op| Inst::Alu {
            op,
            rd: Gpr::T0,
            rs: Gpr::T1,
            rt: Gpr::T2,
        };
        assert_eq!(classify(&alu(AluOp::Add)), (Fu::IntAlu, 1));
        assert_eq!(classify(&alu(AluOp::Mul)), (Fu::IntMulDiv, 5));
        assert_eq!(classify(&alu(AluOp::Div)), (Fu::IntMulDiv, 20));
        assert_eq!(classify(&alu(AluOp::Rem)), (Fu::IntMulDiv, 20));
        let falu = |op| Inst::FAlu {
            op,
            fd: Fpr::new(0),
            fs: Fpr::new(1),
            ft: Fpr::new(2),
        };
        assert_eq!(classify(&falu(FAluOp::Add)), (Fu::FpAlu, 2));
        assert_eq!(classify(&falu(FAluOp::Mul)), (Fu::FpMulDiv, 3));
        assert_eq!(classify(&falu(FAluOp::Div)), (Fu::FpMulDiv, 12));
        assert_eq!(classify(&falu(FAluOp::Sqrt)), (Fu::FpMulDiv, 18));
        assert_eq!(
            classify(&Inst::FCmp {
                op: FCmpOp::Lt,
                rd: Gpr::T0,
                fs: Fpr::new(1),
                ft: Fpr::new(2),
            }),
            (Fu::FpAlu, 2)
        );
        assert_eq!(classify(&Inst::Nop), (Fu::IntAlu, 1));
        assert_eq!(classify(&Inst::Jal { target: 0x40_0000 }), (Fu::IntAlu, 1));
    }

    #[test]
    fn fu_tags_round_trip() {
        for fu in [Fu::IntAlu, Fu::FpAlu, Fu::IntMulDiv, Fu::FpMulDiv] {
            assert_eq!(fu_from(fu as u8).ok(), Some(fu));
        }
        assert!(fu_from(4).is_err());
    }
}
