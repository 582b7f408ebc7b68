//! # arl-core — access region locality and prediction
//!
//! The reproduced paper's contribution (Sections 3.4–3.5): predicting, per
//! static memory instruction, whether it will access the **stack** or a
//! **non-stack** (data/heap) region, before its effective address is known —
//! so the dispatcher of a data-decoupled processor can steer it to the right
//! memory pipeline.
//!
//! The prediction pipeline, in the paper's priority order:
//!
//! 1. **Compiler hints** ([`hints`]) — when available, a stack/non-stack tag
//!    derived from the Figure 6 `classify_mem` analysis (or from a profile)
//!    bypasses prediction entirely.
//! 2. **Static addressing-mode heuristics** ([`static_hint`]) — `$zero`
//!    (constant) and `$gp` bases reveal non-stack; `$sp`/`$fp` reveal stack.
//!    These instructions never occupy ARPT entries.
//! 3. **The ARPT** ([`Arpt`]) — a tagless branch-predictor-like table
//!    indexed by pc (optionally XOR-folded with run-time [`Context`]: global
//!    branch history and/or the caller-identifying link register), holding
//!    1-bit last-region or 2-bit hysteresis state.
//!
//! [`Evaluator`] measures the pipeline's classification accuracy over a
//! functional trace (Figures 4 and 5, Table 3). The timing simulator
//! (`arl-timing`) steers each access by its prediction and verifies it
//! against the access's own region once its address is known.
//!
//! ```
//! use arl_core::{Arpt, Capacity, Context, CounterScheme};
//!
//! let mut arpt = Arpt::new(CounterScheme::OneBit, Context::None, Capacity::Entries(1 << 15));
//! // Cold entries predict non-stack (heuristic rule 4)...
//! assert!(!arpt.predict(0x40_0000, 0, 0));
//! // ...and learn the observed region.
//! arpt.update(0x40_0000, 0, 0, true);
//! assert!(arpt.predict(0x40_0000, 0, 0));
//! ```

mod arpt;
mod context;
mod eval;
mod heuristic;
pub mod hints;

pub use arpt::{Arpt, Capacity, CounterScheme};
pub use context::Context;
pub use eval::{EvalConfig, Evaluator, PredictionStats, PredictorKind, Source};
pub use heuristic::{static_hint, StaticHint};
pub use hints::{classify_mem, HintTable, MemHint};
