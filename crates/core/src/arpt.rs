//! The Access Region Prediction Table.

use std::collections::HashMap;

use arl_isa::INST_BYTES;

use crate::context::Context;

/// Per-entry state machine of the ARPT.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CounterScheme {
    /// One history bit: predict the last observed region (the paper's best
    /// performer).
    OneBit,
    /// Two-bit saturating counter adding hysteresis (the paper's footnote 8
    /// ablation: "consistently lower than 1-bit").
    TwoBit,
}

/// Table capacity: the paper evaluates an unlimited table (Figure 4,
/// Table 3) and limited tables of 8K–64K entries (Figure 5).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Capacity {
    /// One entry per distinct index — no interference.
    Unlimited,
    /// A direct-indexed table of `2^k` entries, no tags or valid bits
    /// (colliding instructions share an entry).
    Entries(usize),
}

/// The Access Region Prediction Table: tagless, indexed by the
/// instruction's word-pc XOR-folded with optional run-time [`Context`]
/// (Figure 3). Predicts whether a memory instruction will access the stack.
///
/// Cold entries predict **non-stack**, matching static rule 4's default for
/// unrevealed addressing modes. The table is meant to hold only the
/// instructions the static heuristics could not classify (the paper stores
/// nothing for revealed instructions "in order to save space").
#[derive(Clone, Debug)]
pub struct Arpt {
    scheme: CounterScheme,
    context: Context,
    storage: Storage,
    lookups: u64,
    updates: u64,
}

#[derive(Clone, Debug)]
enum Storage {
    Unlimited(HashMap<u64, u8>),
    Limited {
        table: Vec<u8>,
        touched: Vec<bool>,
        occupied: usize,
    },
}

impl Arpt {
    /// Creates an ARPT.
    ///
    /// # Panics
    ///
    /// Panics if a limited capacity is not a power of two.
    pub fn new(scheme: CounterScheme, context: Context, capacity: Capacity) -> Arpt {
        let storage = match capacity {
            Capacity::Unlimited => Storage::Unlimited(HashMap::new()),
            Capacity::Entries(n) => {
                assert!(n.is_power_of_two(), "ARPT capacity must be a power of two");
                Storage::Limited {
                    table: vec![0; n],
                    touched: vec![false; n],
                    occupied: 0,
                }
            }
        };
        Arpt {
            scheme,
            context,
            storage,
            lookups: 0,
            updates: 0,
        }
    }

    /// The paper's Table 4 configuration: 32K 1-bit entries, 8-bit GBH + 7-bit
    /// CID hybrid context.
    pub fn table4() -> Arpt {
        Arpt::new(
            CounterScheme::OneBit,
            Context::HYBRID_8_7,
            Capacity::Entries(1 << 15),
        )
    }

    /// The table key for the instruction at `pc` under run-time context
    /// `(ghr, ra)`: the word-pc XOR the configured [`Context`] value. This is
    /// the pure, capacity-independent part of the index computation, so a
    /// caller can compute it once at prediction time and feed it back
    /// through [`Arpt::predict_counted_key`]/[`Arpt::update_key`].
    pub fn key(&self, pc: u64, ghr: u64, ra: u64) -> u64 {
        (pc / INST_BYTES) ^ self.context.value(ghr, ra)
    }

    fn index(&self, pc: u64, ghr: u64, ra: u64) -> u64 {
        self.fold(self.key(pc, ghr, ra))
    }

    fn fold(&self, key: u64) -> u64 {
        match &self.storage {
            Storage::Unlimited(_) => key,
            Storage::Limited { table, .. } => {
                // XOR-fold the key into the index width so context bits
                // above the table's log2 size still participate (the paper
                // XORs the context *into* the (log N)-bit pc index; plain
                // truncation would discard the GBH field of a wide hybrid
                // context entirely).
                let bits = table.len().trailing_zeros() as u64;
                let mut k = key;
                k ^= k >> bits;
                k ^= k >> (2 * bits);
                k & (table.len() as u64 - 1)
            }
        }
    }

    fn counter(&self, idx: u64) -> u8 {
        match &self.storage {
            Storage::Unlimited(map) => map.get(&idx).copied().unwrap_or(0),
            Storage::Limited { table, .. } => table[idx as usize],
        }
    }

    fn predict_from(&self, counter: u8) -> bool {
        match self.scheme {
            CounterScheme::OneBit => counter != 0,
            CounterScheme::TwoBit => counter >= 2,
        }
    }

    /// Predicts whether the memory instruction at `pc` (with run-time
    /// context `ghr`, `ra`) will access the stack.
    pub fn predict(&self, pc: u64, ghr: u64, ra: u64) -> bool {
        let idx = self.index(pc, ghr, ra);
        self.predict_from(self.counter(idx))
    }

    /// Like [`Arpt::predict`], but counts the lookup (the fetch-stage port).
    pub fn predict_counted(&mut self, pc: u64, ghr: u64, ra: u64) -> bool {
        self.lookups += 1;
        self.predict(pc, ghr, ra)
    }

    /// Like [`Arpt::predict_counted`], but takes a key precomputed with
    /// [`Arpt::key`] instead of rederiving it
    /// from `(pc, ghr, ra)`. Counts the lookup identically.
    pub fn predict_counted_key(&mut self, key: u64) -> bool {
        self.lookups += 1;
        self.predict_from(self.counter(self.fold(key)))
    }

    /// Trains the entry with the observed region.
    pub fn update(&mut self, pc: u64, ghr: u64, ra: u64, is_stack: bool) {
        let idx = self.index(pc, ghr, ra);
        self.update_idx(idx, is_stack);
    }

    /// Like [`Arpt::update`], but takes a key precomputed with [`Arpt::key`].
    pub fn update_key(&mut self, key: u64, is_stack: bool) {
        let idx = self.fold(key);
        self.update_idx(idx, is_stack);
    }

    fn update_idx(&mut self, idx: u64, is_stack: bool) {
        self.updates += 1;
        let next = |cur: u8| match self.scheme {
            CounterScheme::OneBit => is_stack as u8,
            CounterScheme::TwoBit => {
                if is_stack {
                    (cur + 1).min(3)
                } else {
                    cur.saturating_sub(1)
                }
            }
        };
        match &mut self.storage {
            Storage::Unlimited(map) => {
                let cur = map.entry(idx).or_insert(0);
                *cur = next(*cur);
            }
            Storage::Limited {
                table,
                touched,
                occupied,
            } => {
                let i = idx as usize;
                table[i] = next(table[i]);
                if !touched[i] {
                    touched[i] = true;
                    *occupied += 1;
                }
            }
        }
    }

    /// Injects a soft error: XORs `mask` (clamped to the counter's two
    /// state bits) into the entry selected by `slot`. The ARPT is tagless,
    /// so a particle strike on either the state bits or the index path is
    /// indistinguishable from corrupting an arbitrary entry — `slot` picks
    /// that entry deterministically (modulo the table size for limited
    /// tables). Used by the fault-injection campaign; never called during
    /// normal simulation.
    pub fn inject_soft_error(&mut self, slot: u64, mask: u8) {
        let mask = mask & 0b11;
        if mask == 0 {
            return;
        }
        match &mut self.storage {
            Storage::Unlimited(map) => {
                let cur = map.entry(slot).or_insert(0);
                *cur ^= mask;
            }
            Storage::Limited {
                table,
                touched,
                occupied,
            } => {
                let i = (slot % table.len() as u64) as usize;
                table[i] ^= mask;
                if !touched[i] {
                    touched[i] = true;
                    *occupied += 1;
                }
            }
        }
    }

    /// Number of entries ever written — Table 3's "entries occupied".
    pub fn occupied_entries(&self) -> usize {
        match &self.storage {
            Storage::Unlimited(map) => map.len(),
            Storage::Limited { occupied, .. } => *occupied,
        }
    }

    /// Table capacity in entries (`None` when unlimited).
    pub fn capacity(&self) -> Option<usize> {
        match &self.storage {
            Storage::Unlimited(_) => None,
            Storage::Limited { table, .. } => Some(table.len()),
        }
    }

    /// Counted fetch-stage lookups.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Training updates performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Overwrites the lookup/update counters (checkpoint restore).
    pub fn set_counters(&mut self, lookups: u64, updates: u64) {
        self.lookups = lookups;
        self.updates = updates;
    }

    /// Snapshot of a limited table's storage for checkpointing:
    /// `(counters, touched flags, occupied count)`. `None` for unlimited
    /// storage.
    pub fn export_limited(&self) -> Option<(&[u8], &[bool], usize)> {
        match &self.storage {
            Storage::Unlimited(_) => None,
            Storage::Limited {
                table,
                touched,
                occupied,
            } => Some((table, touched, *occupied)),
        }
    }

    /// Restores a limited table from a checkpoint taken with
    /// [`Arpt::export_limited`]. Returns `false` (leaving the table
    /// untouched) when the storage is unlimited or the lengths do not
    /// match this table's capacity.
    pub fn import_limited(&mut self, table: &[u8], touched: &[bool], occupied: usize) -> bool {
        match &mut self.storage {
            Storage::Unlimited(_) => false,
            Storage::Limited {
                table: cur,
                touched: cur_touched,
                occupied: cur_occupied,
            } => {
                if table.len() != cur.len() || touched.len() != cur_touched.len() {
                    return false;
                }
                cur.copy_from_slice(table);
                cur_touched.copy_from_slice(touched);
                *cur_occupied = occupied;
                true
            }
        }
    }

    /// The configured context scheme.
    pub fn context(&self) -> Context {
        self.context
    }

    /// The configured counter scheme.
    pub fn scheme(&self) -> CounterScheme {
        self.scheme
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PC: u64 = 0x40_0100;

    #[test]
    fn one_bit_tracks_last_region() {
        let mut a = Arpt::new(CounterScheme::OneBit, Context::None, Capacity::Unlimited);
        assert!(!a.predict(PC, 0, 0), "cold entries predict non-stack");
        a.update(PC, 0, 0, true);
        assert!(a.predict(PC, 0, 0));
        a.update(PC, 0, 0, false);
        assert!(!a.predict(PC, 0, 0));
    }

    #[test]
    fn two_bit_has_hysteresis() {
        let mut a = Arpt::new(CounterScheme::TwoBit, Context::None, Capacity::Unlimited);
        a.update(PC, 0, 0, true);
        assert!(!a.predict(PC, 0, 0), "one stack observation is not enough");
        a.update(PC, 0, 0, true);
        assert!(a.predict(PC, 0, 0));
        a.update(PC, 0, 0, true); // saturate at strongly-stack
        a.update(PC, 0, 0, false);
        assert!(a.predict(PC, 0, 0), "hysteresis survives one non-stack");
        a.update(PC, 0, 0, false);
        assert!(!a.predict(PC, 0, 0));
    }

    #[test]
    fn context_separates_aliasing_behaviors() {
        // One instruction alternates region by caller; pc-only indexing
        // mispredicts half the time, CID context learns both.
        let mut plain = Arpt::new(CounterScheme::OneBit, Context::None, Capacity::Unlimited);
        let mut cid = Arpt::new(
            CounterScheme::OneBit,
            Context::Cid { bits: 24 },
            Capacity::Unlimited,
        );
        let callers = [0x40_0200u64, 0x40_0300u64];
        let mut plain_correct = 0;
        let mut cid_correct = 0;
        for round in 0..100 {
            let caller = callers[round % 2];
            let is_stack = round % 2 == 0;
            plain_correct += (plain.predict(PC, 0, caller) == is_stack) as u32;
            cid_correct += (cid.predict(PC, 0, caller) == is_stack) as u32;
            plain.update(PC, 0, caller, is_stack);
            cid.update(PC, 0, caller, is_stack);
        }
        assert!(
            cid_correct >= 98,
            "cid context should nail this: {cid_correct}"
        );
        assert!(plain_correct <= 2, "pc-only must thrash: {plain_correct}");
        assert_eq!(plain.occupied_entries(), 1);
        assert_eq!(cid.occupied_entries(), 2);
    }

    #[test]
    fn limited_table_aliases_by_pigeonhole() {
        let mut a = Arpt::new(CounterScheme::OneBit, Context::None, Capacity::Entries(4));
        // More distinct instructions than entries must share state.
        for i in 0..16u64 {
            a.update(0x40_0000 + i * INST_BYTES, 0, 0, true);
        }
        assert!(a.occupied_entries() <= 4, "at most `capacity` entries");
        assert_eq!(a.capacity(), Some(4));
        // Every one of the 16 pcs now predicts stack through shared entries.
        for i in 0..16u64 {
            assert!(a.predict(0x40_0000 + i * INST_BYTES, 0, 0));
        }
    }

    #[test]
    fn limited_table_keeps_high_context_bits() {
        // The hybrid context's GBH field sits above bit 24; folding must
        // keep it relevant even in a tiny table.
        let mut a = Arpt::new(
            CounterScheme::OneBit,
            Context::HYBRID_8_24,
            Capacity::Entries(1 << 10),
        );
        // Same pc/ra, differing only in branch history: train opposite
        // outcomes; both must be recalled (distinct indices).
        a.update(PC, 0b0000_0001, 0x40_0200, true);
        a.update(PC, 0b0000_0010, 0x40_0200, false);
        assert!(a.predict(PC, 0b0000_0001, 0x40_0200));
        assert!(!a.predict(PC, 0b0000_0010, 0x40_0200));
    }

    #[test]
    fn occupied_counts_distinct_indices() {
        let mut a = Arpt::new(
            CounterScheme::OneBit,
            Context::None,
            Capacity::Entries(1 << 10),
        );
        for i in 0..100u64 {
            a.update(0x40_0000 + i * INST_BYTES, 0, 0, i % 2 == 0);
        }
        assert_eq!(a.occupied_entries(), 100);
        // Re-updating does not double count.
        a.update(0x40_0000, 0, 0, true);
        assert_eq!(a.occupied_entries(), 100);
    }

    #[test]
    fn soft_errors_flip_counter_state() {
        // Unlimited storage with no context: the slot IS the word pc.
        let mut a = Arpt::new(CounterScheme::OneBit, Context::None, Capacity::Unlimited);
        a.update(PC, 0, 0, true);
        assert!(a.predict(PC, 0, 0));
        a.inject_soft_error(PC / INST_BYTES, 0b01);
        assert!(!a.predict(PC, 0, 0), "flipped bit inverts the prediction");
        a.inject_soft_error(PC / INST_BYTES, 0b01);
        assert!(a.predict(PC, 0, 0), "second flip restores it");
        // A zero mask is a no-op.
        a.inject_soft_error(PC / INST_BYTES, 0);
        assert!(a.predict(PC, 0, 0));
    }

    #[test]
    fn soft_errors_wrap_limited_tables() {
        let mut a = Arpt::new(CounterScheme::OneBit, Context::None, Capacity::Entries(4));
        // Slot 5 wraps to entry 1; the strike creates an occupied entry.
        a.inject_soft_error(5, 0b01);
        assert_eq!(a.occupied_entries(), 1);
        // Mask is clamped to the two counter bits (no byte-wide garbage).
        a.inject_soft_error(6, 0xFC);
        assert_eq!(a.occupied_entries(), 1, "clamped-to-zero mask is a no-op");
    }

    #[test]
    fn keyed_api_matches_positional_api() {
        // The event core computes the key once at dispatch and trains
        // through it at verification; that must be indistinguishable from
        // the positional API, counters included.
        let mut a = Arpt::new(
            CounterScheme::OneBit,
            Context::HYBRID_8_7,
            Capacity::Entries(1 << 10),
        );
        let mut b = a.clone();
        for round in 0..200u64 {
            let pc = 0x40_0000 + (round % 37) * INST_BYTES;
            let ghr = round.wrapping_mul(0x9E37);
            let ra = 0x40_0200 + (round % 5) * INST_BYTES;
            let key = a.key(pc, ghr, ra);
            assert_eq!(a.predict_counted(pc, ghr, ra), b.predict_counted_key(key));
            let is_stack = round % 3 == 0;
            a.update(pc, ghr, ra, is_stack);
            b.update_key(key, is_stack);
        }
        assert_eq!(a.lookups(), b.lookups());
        assert_eq!(a.updates(), b.updates());
        assert_eq!(a.occupied_entries(), b.occupied_entries());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_capacity_panics() {
        let _ = Arpt::new(CounterScheme::OneBit, Context::None, Capacity::Entries(100));
    }

    #[test]
    fn table4_configuration() {
        let a = Arpt::table4();
        assert_eq!(a.capacity(), Some(1 << 15));
        assert_eq!(a.scheme(), CounterScheme::OneBit);
        assert_eq!(a.context(), Context::HYBRID_8_7);
    }
}
