//! Stride-based register value predictor (Table 4: 16K entries).

use arl_sim::SourceError;

use crate::state::StateIo;

/// One predictor entry.
#[derive(Clone, Copy, Default, Debug)]
struct Entry {
    last: i64,
    stride: i64,
    /// 2-bit confidence counter; predictions are used at ≥ 2.
    confidence: u8,
}

/// Classic last-value + stride predictor with 2-bit confidence, indexed by
/// pc. Only confident predictions are acted upon (the paper follows
/// Lipasti et al.'s confidence/prediction/verification structure).
#[derive(Clone, Debug)]
pub(crate) struct StridePredictor {
    entries: Vec<Entry>,
    mask: u64,
    predictions: u64,
    correct: u64,
}

impl StridePredictor {
    /// Creates a predictor with `2^log2_entries` entries.
    pub(crate) fn new(log2_entries: u32) -> StridePredictor {
        let n = 1usize << log2_entries;
        StridePredictor {
            entries: vec![Entry::default(); n],
            mask: n as u64 - 1,
            predictions: 0,
            correct: 0,
        }
    }

    /// The Table 4 configuration: 16K entries.
    pub(crate) fn table4() -> StridePredictor {
        StridePredictor::new(14)
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 3) & self.mask) as usize
    }

    /// Verifies a prior prediction against the actual value and trains the
    /// entry; returns whether a confident prediction was made *and* correct.
    pub(crate) fn update(&mut self, pc: u64, actual: i64) -> bool {
        let idx = self.index(pc);
        let e = &mut self.entries[idx];
        let predicted = (e.confidence >= 2).then(|| e.last.wrapping_add(e.stride));
        let new_stride = actual.wrapping_sub(e.last);
        if new_stride == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.confidence = e.confidence.saturating_sub(1);
            e.stride = new_stride;
        }
        e.last = actual;
        match predicted {
            Some(p) => {
                self.predictions += 1;
                let hit = p == actual;
                self.correct += hit as u64;
                hit
            }
            None => false,
        }
    }

    /// Confident predictions made so far.
    pub(crate) fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Fraction of confident predictions that were correct.
    pub(crate) fn accuracy(&self) -> f64 {
        if self.predictions == 0 {
            1.0
        } else {
            self.correct as f64 / self.predictions as f64
        }
    }

    /// Walks counters and every table entry (sharded-replay support); the
    /// table size must match.
    pub(crate) fn sync(&mut self, io: &mut impl StateIo) -> Result<(), SourceError> {
        io.val(&mut self.predictions)?;
        io.val(&mut self.correct)?;
        io.same(
            self.entries.len() as u32,
            "value-predictor table size mismatch",
        )?;
        for e in &mut self.entries {
            io.val(&mut e.last)?;
            io.val(&mut e.stride)?;
            io.val(&mut e.confidence)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl StridePredictor {
        /// The value `update` would verify against, if the entry is confident.
        fn predict(&self, pc: u64) -> Option<i64> {
            let e = &self.entries[self.index(pc)];
            (e.confidence >= 2).then(|| e.last.wrapping_add(e.stride))
        }
    }

    #[test]
    fn learns_a_stride() {
        let mut p = StridePredictor::new(4);
        let pc = 0x40_0000;
        // Values 10, 20, 30... — stride 10 locks in after 2 observations.
        for (i, v) in (1..=10).map(|i| (i, i * 10)).collect::<Vec<_>>() {
            let predicted = p.predict(pc);
            p.update(pc, v);
            if i >= 4 {
                assert_eq!(predicted, Some(v), "step {i} should be predicted");
            }
        }
        assert!(p.accuracy() > 0.99);
    }

    #[test]
    fn constant_values_are_a_zero_stride() {
        let mut p = StridePredictor::new(4);
        for _ in 0..5 {
            p.update(8, 42);
        }
        assert_eq!(p.predict(8), Some(42));
    }

    #[test]
    fn random_walk_is_not_confident() {
        let mut p = StridePredictor::new(4);
        let values = [3, 17, 2, 90, 41, 7, 66, 13];
        let mut confident = 0;
        for v in values {
            if p.predict(8).is_some() {
                confident += 1;
            }
            p.update(8, v);
        }
        assert_eq!(confident, 0, "no confidence without a stable stride");
    }

    #[test]
    fn aliasing_entries_share_state() {
        let mut p = StridePredictor::new(1); // 2 entries
        for i in 0..5 {
            p.update(0, i * 4);
        }
        // pc 16 aliases pc 0 (2 entries, pc>>3 masked by 1).
        assert_eq!(p.predict(16), p.predict(0));
    }
}
