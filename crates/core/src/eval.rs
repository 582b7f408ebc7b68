//! Offline evaluation of the prediction pipeline over a functional trace
//! (the measurement behind Figures 4 and 5 and Table 3).

use arl_mem::Region;
use arl_sim::{SourceError, TraceEntry, TraceSource};

use crate::arpt::{Arpt, Capacity, CounterScheme};
use crate::context::Context;
use crate::heuristic::{static_hint, StaticHint};
use crate::hints::{HintTable, MemHint};

/// Which mechanism classified a given dynamic reference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Source {
    /// A definite compiler hint bypassed prediction.
    Hint,
    /// The addressing mode revealed the region (static rules 1–3).
    Static,
    /// The ARPT predicted it.
    Arpt,
    /// Rule 4's default (predict non-stack) with no ARPT configured.
    Default,
}

impl Source {
    /// All sources, in pipeline priority order.
    pub const ALL: [Source; 4] = [Source::Hint, Source::Static, Source::Arpt, Source::Default];

    fn index(self) -> usize {
        match self {
            Source::Hint => 0,
            Source::Static => 1,
            Source::Arpt => 2,
            Source::Default => 3,
        }
    }
}

/// The dynamic predictor variant being evaluated.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PredictorKind {
    /// Addressing-mode rules only; rule 4 predicts non-stack
    /// (Figure 4's "STATIC" bars).
    StaticOnly,
    /// Static rules backed by a 1-bit ARPT.
    OneBit,
    /// Static rules backed by a 2-bit ARPT (footnote 8 ablation).
    TwoBit,
}

/// Full configuration of one evaluation run.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Predictor variant.
    pub kind: PredictorKind,
    /// ARPT index context (ignored for [`PredictorKind::StaticOnly`]).
    pub context: Context,
    /// ARPT capacity (ignored for [`PredictorKind::StaticOnly`]).
    pub capacity: Capacity,
    /// Compiler hints, if enabled.
    pub hints: Option<HintTable>,
}

impl EvalConfig {
    /// The paper's five Figure 4 schemes over an unlimited table, in
    /// presentation order: STATIC, 1BIT, 1BIT-GBH, 1BIT-CID, 1BIT-HYBRID.
    pub fn figure4_schemes() -> Vec<(&'static str, EvalConfig)> {
        let unlimited = |kind, context| EvalConfig {
            kind,
            context,
            capacity: Capacity::Unlimited,
            hints: None,
        };
        vec![
            (
                "STATIC",
                unlimited(PredictorKind::StaticOnly, Context::None),
            ),
            ("1BIT", unlimited(PredictorKind::OneBit, Context::None)),
            (
                "1BIT-GBH",
                unlimited(PredictorKind::OneBit, Context::Gbh { bits: 8 }),
            ),
            (
                "1BIT-CID",
                unlimited(PredictorKind::OneBit, Context::Cid { bits: 24 }),
            ),
            (
                "1BIT-HYBRID",
                unlimited(PredictorKind::OneBit, Context::HYBRID_8_24),
            ),
        ]
    }
}

/// Per-source tallies.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct SourceStats {
    /// References classified by this source.
    pub total: u64,
    /// Of those, correctly.
    pub correct: u64,
}

/// Aggregate results of one evaluation run.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct PredictionStats {
    /// Dynamic memory references observed.
    pub total: u64,
    /// Correctly classified references.
    pub(crate) correct: u64,
    per_source: [SourceStats; 4],
}

impl PredictionStats {
    /// Overall classification accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Tallies for one source.
    pub fn source(&self, source: Source) -> SourceStats {
        self.per_source[source.index()]
    }

    /// Fraction of references classified by `source`.
    pub fn coverage(&self, source: Source) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.source(source).total as f64 / self.total as f64
        }
    }
}

/// Streams a functional trace through the hint → static-heuristic → ARPT
/// pipeline and tallies classification accuracy.
#[derive(Clone, Debug)]
pub struct Evaluator {
    config: EvalConfig,
    arpt: Option<Arpt>,
    stats: PredictionStats,
}

impl Evaluator {
    /// Creates an evaluator for one configuration.
    pub fn new(config: EvalConfig) -> Evaluator {
        let arpt = match config.kind {
            PredictorKind::StaticOnly => None,
            PredictorKind::OneBit => Some(Arpt::new(
                CounterScheme::OneBit,
                config.context,
                config.capacity,
            )),
            PredictorKind::TwoBit => Some(Arpt::new(
                CounterScheme::TwoBit,
                config.context,
                config.capacity,
            )),
        };
        Evaluator {
            config,
            arpt,
            stats: PredictionStats::default(),
        }
    }

    /// Feeds one trace entry; non-memory entries are ignored.
    pub fn observe(&mut self, entry: &TraceEntry) {
        let Some(mem) = entry.mem else { return };
        let actual_stack = mem.region == Region::Stack;
        let (predicted_stack, source) = self.classify(entry, actual_stack);
        self.stats.total += 1;
        self.stats.per_source[source.index()].total += 1;
        if predicted_stack == actual_stack {
            self.stats.correct += 1;
            self.stats.per_source[source.index()].correct += 1;
        }
    }

    fn classify(&mut self, entry: &TraceEntry, actual_stack: bool) -> (bool, Source) {
        // 1. Compiler hints bypass everything.
        if let Some(hints) = &self.config.hints {
            match hints.hint(entry.pc) {
                MemHint::Stack => return (true, Source::Hint),
                MemHint::NonStack => return (false, Source::Hint),
                MemHint::Unknown => {}
            }
        }
        // 2. Addressing-mode rules 1–3.
        let Some(info) = entry.inst.mem_op() else {
            unreachable!("classify called on a non-memory entry");
        };
        match static_hint(&info) {
            StaticHint::Stack => return (true, Source::Static),
            StaticHint::NonStack => return (false, Source::Static),
            StaticHint::Dynamic => {}
        }
        // 3. ARPT (trained on the outcome), or rule 4's default.
        match &mut self.arpt {
            Some(arpt) => {
                let p = arpt.predict_counted(entry.pc, entry.ghr, entry.ra);
                arpt.update(entry.pc, entry.ghr, entry.ra, actual_stack);
                (p, Source::Arpt)
            }
            None => (false, Source::Default),
        }
    }

    /// Drains a [`TraceSource`] — live executor or trace replayer — feeding
    /// every entry through [`Evaluator::observe`].
    ///
    /// # Errors
    ///
    /// Propagates the first [`SourceError`] from the source.
    pub fn consume<S: TraceSource>(&mut self, source: &mut S) -> Result<(), SourceError> {
        while let Some(entry) = source.next_entry()? {
            self.observe(&entry);
        }
        Ok(())
    }

    /// Results so far.
    pub fn stats(&self) -> &PredictionStats {
        &self.stats
    }

    /// Entries occupied in the ARPT (Table 3), when one is configured.
    pub fn arpt_occupied(&self) -> Option<usize> {
        self.arpt.as_ref().map(Arpt::occupied_entries)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use arl_isa::{Gpr, Inst, Width};
    use arl_sim::MemAccess;

    fn mem_entry(pc: u64, base: Gpr, region: Region, ghr: u64, ra: u64) -> TraceEntry {
        TraceEntry {
            pc,
            inst: Inst::Load {
                width: Width::Double,
                signed: true,
                rd: Gpr::T0,
                base,
                offset: 0,
            },
            mem: Some(MemAccess {
                addr: 0,
                width: Width::Double,
                is_load: true,
                region,
            }),
            taken: false,
            next_pc: pc + 8,
            gpr_write: None,
            ghr,
            ra,
        }
    }

    fn cfg(kind: PredictorKind) -> EvalConfig {
        EvalConfig {
            kind,
            context: Context::None,
            capacity: Capacity::Unlimited,
            hints: None,
        }
    }

    #[test]
    fn static_rules_classify_revealed_bases() {
        let mut e = Evaluator::new(cfg(PredictorKind::StaticOnly));
        e.observe(&mem_entry(8, Gpr::SP, Region::Stack, 0, 0));
        e.observe(&mem_entry(16, Gpr::GP, Region::Data, 0, 0));
        e.observe(&mem_entry(24, Gpr::T0, Region::Heap, 0, 0)); // rule 4: correct
        e.observe(&mem_entry(32, Gpr::T0, Region::Stack, 0, 0)); // rule 4: wrong
        let s = e.stats();
        assert_eq!(s.total, 4);
        assert_eq!(s.correct, 3);
        assert_eq!(s.source(Source::Static).total, 2);
        assert_eq!(s.source(Source::Static).correct, 2);
        assert_eq!(s.source(Source::Default).total, 2);
        assert_eq!(s.source(Source::Default).correct, 1);
        assert_eq!(e.arpt_occupied(), None);
    }

    #[test]
    fn one_bit_learns_stable_instructions() {
        let mut e = Evaluator::new(cfg(PredictorKind::OneBit));
        // Pointer-based instruction that always hits the stack: first
        // prediction cold-misses, the rest are right.
        for _ in 0..100 {
            e.observe(&mem_entry(8, Gpr::A0, Region::Stack, 0, 0));
        }
        let s = e.stats();
        assert_eq!(s.total, 100);
        assert_eq!(s.correct, 99);
        assert_eq!(s.source(Source::Arpt).total, 100);
        assert_eq!(e.arpt_occupied(), Some(1));
    }

    #[test]
    fn hints_bypass_the_arpt() {
        // A profile that saw pc 8 touch only the stack tags it Stack.
        let mut profile = arl_sim::RegionProfiler::new();
        profile.observe(&mem_entry(8, Gpr::A0, Region::Stack, 0, 0));
        let mut config = cfg(PredictorKind::OneBit);
        config.hints = Some(HintTable::from_profile(&profile));
        let mut e = Evaluator::new(config);
        for _ in 0..10 {
            e.observe(&mem_entry(8, Gpr::A0, Region::Stack, 0, 0));
        }
        let s = e.stats();
        assert_eq!(s.correct, 10, "hinted instruction never cold-misses");
        assert_eq!(s.source(Source::Hint).total, 10);
        assert_eq!(
            e.arpt_occupied(),
            Some(0),
            "hinted pcs stay out of the ARPT"
        );
    }

    #[test]
    fn non_mem_entries_are_ignored() {
        let mut e = Evaluator::new(cfg(PredictorKind::OneBit));
        e.observe(&TraceEntry {
            pc: 8,
            inst: Inst::Nop,
            mem: None,
            taken: false,
            next_pc: 16,
            gpr_write: None,
            ghr: 0,
            ra: 0,
        });
        assert_eq!(e.stats().total, 0);
        assert_eq!(e.stats().accuracy(), 1.0);
    }

    #[test]
    fn figure4_schemes_are_complete() {
        let schemes = EvalConfig::figure4_schemes();
        let names: Vec<&str> = schemes.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            vec!["STATIC", "1BIT", "1BIT-GBH", "1BIT-CID", "1BIT-HYBRID"]
        );
    }

    #[test]
    fn two_bit_loses_to_one_bit_on_alternation() {
        // Region alternates every iteration: 1-bit is always wrong after
        // the first, 2-bit stays at the hysteresis boundary — both do
        // poorly, but on a *mostly*-stable stream with rare flips the 1-bit
        // recovers faster. Pattern: 9 stack, 1 non-stack, repeated.
        let run = |kind| {
            let mut e = Evaluator::new(cfg(kind));
            for _ in 0..50 {
                for _ in 0..9 {
                    e.observe(&mem_entry(8, Gpr::A0, Region::Stack, 0, 0));
                }
                e.observe(&mem_entry(8, Gpr::A0, Region::Data, 0, 0));
            }
            e.stats().accuracy()
        };
        let one = run(PredictorKind::OneBit);
        let two = run(PredictorKind::TwoBit);
        // 1-bit: 2 misses per period of 10 (the flip and the flip-back).
        // 2-bit: 1 miss per period (hysteresis absorbs the single flip).
        assert!(two > one, "hysteresis wins on this pattern: {two} vs {one}");
    }
}
