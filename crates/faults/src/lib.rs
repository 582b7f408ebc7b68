//! # arl-faults — seeded deterministic fault planning and classification
//!
//! The fault-injection campaign (`arl-bench`'s `fault_campaign` binary)
//! needs three things this crate provides:
//!
//! 1. **Planning**: turn a `(layer, seed, index)` triple into one concrete
//!    fault — a trace-byte corruption/truncation ([`TraceFault`]) or a
//!    materialized timing-layer fault ([`arl_timing::TimingFault`]:
//!    ARPT soft errors, port blackouts, latency spikes). Planning is a
//!    pure function of its inputs (a `SplitMix64` stream seeded from
//!    them); no wall clock, no global RNG — the same seed always yields
//!    the same campaign.
//! 2. **Plan syntax**: the `ARL_FAULT` environment variable
//!    (`<layer>:<seed>[:<count>]`, comma-separated; `all` expands to
//!    every layer) parsed by [`parse_plan`].
//! 3. **Classification**: each injected fault's observed effect mapped to
//!    a [`FaultOutcome`] — masked, detected, recovered, fatal, or silent.
//!    *Silent* (the run completed with a functionally different result
//!    and nothing noticed) is the outcome the campaign exists to prove
//!    impossible; the CI gate fails on any non-zero silent count.

use arl_timing::{FaultKind, Route, TimingFault};

/// Sebastiano Vigna's SplitMix64: a tiny, high-quality, seedable stream.
/// Deterministic by construction — the only entropy is the caller's seed.
#[derive(Clone, Debug)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next 64 uniform bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)` (`0` when `n == 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// The per-fault planning stream: independent of other indices under the
/// same seed, so adding faults never re-rolls existing ones.
fn fault_rng(seed: u64, index: u32) -> SplitMix64 {
    let mut mix = SplitMix64::new(seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(index as u64 + 1));
    // Discard one output so adjacent indices decorrelate fully.
    mix.next_u64();
    mix
}

/// Plans the `index`-th I/O fault of a chaos campaign against a
/// calibrated durable-operation sequence (see [`arl_sink::parse_io_trace`]).
///
/// The fault kind rotates `kill → short → enospc → rename` so any four
/// consecutive points cover every failure mode, and within each kind the
/// target operation and the torn-prefix length are drawn from the seeded
/// per-index stream (the layer planners' seeding scheme, applied to I/O) — the same seed always
/// aims the same faults at the same ops. Returns `None` when `ops` holds
/// no operation the rotation's kind can target.
pub fn plan_io_fault(
    seed: u64,
    index: u32,
    ops: &[arl_sink::IoOp],
) -> Option<arl_sink::PlannedIoFault> {
    use arl_sink::{IoFault, OpKind, PlannedIoFault};
    // Offset the stream domain from the trace/arpt/port planners so a
    // shared seed never correlates I/O faults with simulator faults.
    let mut rng = fault_rng(seed ^ 0x010F_A417, index);
    let data_ops: Vec<&arl_sink::IoOp> = ops
        .iter()
        .filter(|o| o.kind != OpKind::Rename && o.bytes > 0)
        .collect();
    let rename_ops: Vec<&arl_sink::IoOp> =
        ops.iter().filter(|o| o.kind == OpKind::Rename).collect();
    let pick = |rng: &mut SplitMix64, pool: &[&arl_sink::IoOp]| -> Option<(u64, u64)> {
        if pool.is_empty() {
            return None;
        }
        let op = pool[rng.below(pool.len() as u64) as usize];
        Some((op.op, op.bytes))
    };
    match index % 4 {
        // A SIGKILL mid-write: any durable op can host it.
        0 => {
            let all: Vec<&arl_sink::IoOp> = ops.iter().collect();
            let (op, bytes) = pick(&mut rng, &all)?;
            let keep = rng.below(bytes); // 0 for rename ops (no payload)
            Some(PlannedIoFault {
                op,
                fault: IoFault::Kill { keep },
            })
        }
        1 => {
            let (op, bytes) = pick(&mut rng, &data_ops)?;
            let keep = rng.below(bytes);
            Some(PlannedIoFault {
                op,
                fault: IoFault::ShortWrite { keep },
            })
        }
        2 => {
            let (op, bytes) = pick(&mut rng, &data_ops)?;
            let keep = rng.below(bytes);
            Some(PlannedIoFault {
                op,
                fault: IoFault::Enospc { keep },
            })
        }
        _ => {
            let (op, _) = pick(&mut rng, &rename_ops)?;
            Some(PlannedIoFault {
                op,
                fault: IoFault::InterruptedRename,
            })
        }
    }
}

/// The layer a fault is injected into.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// Byte corruption / truncation of a captured `.arltrace` container.
    Trace,
    /// Soft errors in the ARPT array.
    Arpt,
    /// First-level memory-port blackouts and latency spikes.
    Port,
}

impl Layer {
    /// Every layer, in campaign order.
    pub const ALL: [Layer; 3] = [Layer::Trace, Layer::Arpt, Layer::Port];

    /// Stable lowercase label (plan syntax, JSON).
    pub fn label(self) -> &'static str {
        match self {
            Layer::Trace => "trace",
            Layer::Arpt => "arpt",
            Layer::Port => "port",
        }
    }
}

/// One parsed `ARL_FAULT` clause: inject `count` seeded faults into
/// `layer`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LayerPlan {
    /// Target layer.
    pub layer: Layer,
    /// Base seed for the layer's fault stream.
    pub seed: u64,
    /// Faults to inject (indices `0..count`).
    pub count: u32,
}

/// Seed used when `ARL_FAULT` is unset.
pub const DEFAULT_SEED: u64 = 42;

/// Per-layer fault count used when a clause omits `:<count>`.
pub const DEFAULT_COUNT: u32 = 2;

/// A malformed `ARL_FAULT` value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PlanError {
    /// A clause was not `<layer>:<seed>[:<count>]`.
    Syntax(String),
    /// The layer name is not `trace`, `arpt`, `port`, or `all`.
    UnknownLayer(String),
    /// The seed or count did not parse as an unsigned integer.
    Number(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Syntax(clause) => {
                write!(f, "expected <layer>:<seed>[:<count>], got {clause:?}")
            }
            PlanError::UnknownLayer(layer) => {
                write!(f, "unknown fault layer {layer:?} (trace|arpt|port|all)")
            }
            PlanError::Number(value) => write!(f, "invalid number {value:?} in fault plan"),
        }
    }
}

impl std::error::Error for PlanError {}

/// Parses an `ARL_FAULT` value: comma-separated
/// `<layer>:<seed>[:<count>]` clauses, where `<layer>` is `trace`,
/// `arpt`, `port`, or `all` (which expands to the three layers with the
/// same seed and count, in [`Layer::ALL`] order).
///
/// # Errors
///
/// Returns a [`PlanError`] describing the first malformed clause.
pub fn parse_plan(value: &str) -> Result<Vec<LayerPlan>, PlanError> {
    let mut plans = Vec::new();
    for clause in value.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let mut parts = clause.split(':');
        let layer = parts.next().unwrap_or_default().trim();
        let seed = parts
            .next()
            .ok_or_else(|| PlanError::Syntax(clause.to_string()))?
            .trim();
        let count = parts.next().map(str::trim);
        if parts.next().is_some() {
            return Err(PlanError::Syntax(clause.to_string()));
        }
        let seed: u64 = seed
            .parse()
            .map_err(|_| PlanError::Number(seed.to_string()))?;
        let count: u32 = match count {
            Some(c) => c.parse().map_err(|_| PlanError::Number(c.to_string()))?,
            None => DEFAULT_COUNT,
        };
        let layers: &[Layer] = match layer {
            "trace" => &[Layer::Trace],
            "arpt" => &[Layer::Arpt],
            "port" => &[Layer::Port],
            "all" => &Layer::ALL,
            other => return Err(PlanError::UnknownLayer(other.to_string())),
        };
        plans.extend(layers.iter().map(|&layer| LayerPlan { layer, seed, count }));
    }
    Ok(plans)
}

// ---- trace-layer faults -----------------------------------------------------

/// One planned corruption of a serialized trace container.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceFault {
    /// XOR `mask` (never zero) into the byte at `offset`.
    FlipByte {
        /// Byte offset into the container.
        offset: usize,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// Truncate the container to `len` bytes (always shorter than the
    /// original).
    Truncate {
        /// Bytes to keep.
        len: usize,
    },
}

impl TraceFault {
    /// Stable human-readable description for fault records.
    pub fn describe(&self) -> String {
        match *self {
            TraceFault::FlipByte { offset, mask } => {
                format!("flip byte {offset} mask {mask:#04x}")
            }
            TraceFault::Truncate { len } => format!("truncate to {len} bytes"),
        }
    }
}

/// Plans the `index`-th trace fault under `seed` for a container of
/// `trace_len` bytes. Even indices flip a byte anywhere in the container;
/// odd indices truncate it at an arbitrary offset — together they cover
/// both corruption modes the decoder must reject.
pub fn plan_trace_fault(seed: u64, index: u32, trace_len: usize) -> TraceFault {
    let mut rng = fault_rng(seed, index);
    if index.is_multiple_of(2) {
        let offset = rng.below(trace_len as u64) as usize;
        // 1..=255: a zero mask would be a no-op, not a fault.
        let mask = (rng.below(255) + 1) as u8;
        TraceFault::FlipByte { offset, mask }
    } else {
        TraceFault::Truncate {
            len: rng.below(trace_len as u64) as usize,
        }
    }
}

/// Applies a planned trace fault to a copy of `bytes`.
pub fn apply_trace_fault(bytes: &[u8], fault: &TraceFault) -> Vec<u8> {
    match *fault {
        TraceFault::FlipByte { offset, mask } => {
            let mut out = bytes.to_vec();
            if let Some(b) = out.get_mut(offset) {
                *b ^= mask;
            }
            out
        }
        TraceFault::Truncate { len } => bytes[..len.min(bytes.len())].to_vec(),
    }
}

// ---- timing-layer faults ----------------------------------------------------

/// Materializes the `index`-th ARPT soft error under `seed`. The trigger
/// lookup is drawn from `[1, lookup_horizon]` (a zero horizon — a run
/// that never consults the ARPT — plans a fault that can never fire,
/// which the campaign reports as trivially masked).
pub fn plan_arpt_fault(id: u32, seed: u64, index: u32, lookup_horizon: u64) -> TimingFault {
    let mut rng = fault_rng(seed, index);
    let slot = rng.next_u64();
    let mask = (rng.below(3) + 1) as u8; // 1..=3: never a no-op
    let at_lookup = rng.below(lookup_horizon) + 1;
    TimingFault {
        id,
        kind: FaultKind::ArptSoftError {
            slot,
            mask,
            at_lookup,
        },
    }
}

/// Materializes the `index`-th port fault under `seed`. Even indices plan
/// a blackout, odd indices a latency spike; the target alternates between
/// the data cache and the LVC when `has_lvc` (LVC faults on conventional
/// machines degrade to the data cache inside the timing model). The start
/// cycle is drawn from `[1, cycle_horizon]`.
pub fn plan_port_fault(
    id: u32,
    seed: u64,
    index: u32,
    cycle_horizon: u64,
    has_lvc: bool,
) -> TimingFault {
    let mut rng = fault_rng(seed, index);
    let route = if has_lvc && rng.next_u64() % 2 == 1 {
        Route::Lvc
    } else {
        Route::DataCache
    };
    let start_cycle = rng.below(cycle_horizon) + 1;
    let cycles = rng.below(128) + 1;
    let kind = if index.is_multiple_of(2) {
        FaultKind::PortBlackout {
            route,
            start_cycle,
            cycles,
        }
    } else {
        FaultKind::LatencySpike {
            route,
            start_cycle,
            cycles,
            extra: rng.below(50) + 1,
        }
    };
    TimingFault { id, kind }
}

/// Stable description of a materialized timing fault for fault records.
pub fn describe_timing_fault(fault: &TimingFault) -> String {
    match fault.kind {
        FaultKind::ArptSoftError {
            slot,
            mask,
            at_lookup,
        } => format!("arpt soft error slot {slot:#x} mask {mask:#04b} at lookup {at_lookup}"),
        FaultKind::PortBlackout {
            route,
            start_cycle,
            cycles,
        } => format!("{route:?} blackout cycles {start_cycle}..+{cycles}"),
        FaultKind::LatencySpike {
            route,
            start_cycle,
            cycles,
            extra,
        } => format!("{route:?} +{extra}-cycle latency spike cycles {start_cycle}..+{cycles}"),
    }
}

// ---- outcome classification -------------------------------------------------

/// The observed effect of one injected fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultOutcome {
    /// The run completed with a functionally identical result and no
    /// recovery activity beyond the fault-free baseline.
    Masked,
    /// A checking layer (trace checksum, typed error) rejected the
    /// corruption before it could affect results.
    Detected,
    /// The pipeline detected the wrong steer and re-dispatched the
    /// reference on the correct path (recoveries above baseline),
    /// finishing with a functionally identical result.
    Recovered,
    /// The run panicked or was otherwise aborted (caught by the
    /// supervisor; never takes the campaign down).
    Fatal,
    /// The run completed, nothing complained, and the functional result
    /// differs — a silent corruption. Always a test/CI failure.
    Silent,
}

impl FaultOutcome {
    /// Every outcome, in severity order.
    pub const ALL: [FaultOutcome; 5] = [
        FaultOutcome::Masked,
        FaultOutcome::Detected,
        FaultOutcome::Recovered,
        FaultOutcome::Fatal,
        FaultOutcome::Silent,
    ];

    /// Stable snake_case label (JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            FaultOutcome::Masked => "masked",
            FaultOutcome::Detected => "detected",
            FaultOutcome::Recovered => "recovered",
            FaultOutcome::Fatal => "fatal",
            FaultOutcome::Silent => "silent",
        }
    }
}

/// The functional fingerprint of one timing run — every field is
/// invariant under pure timing faults, so any mismatch against the
/// fault-free baseline is a (would-be silent) corruption.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunSignature {
    /// Committed instructions.
    pub instructions: u64,
    /// Committed memory references.
    pub mem_refs: u64,
    /// Peak-RSS proxy of the simulated program.
    pub peak_rss_bytes: u64,
}

/// What one faulty timing run reported.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimingObservation {
    /// Functional fingerprint.
    pub signature: RunSignature,
    /// Completed misprediction recoveries.
    pub recoveries: u64,
}

/// Classifies a timing-layer fault: `faulty == None` means the run
/// panicked (fatal); a signature mismatch is silent; recoveries above
/// the baseline mean the pipeline's recovery path absorbed the fault;
/// anything else was masked.
pub fn classify_timing(
    baseline: &TimingObservation,
    faulty: Option<&TimingObservation>,
) -> FaultOutcome {
    match faulty {
        None => FaultOutcome::Fatal,
        Some(obs) if obs.signature != baseline.signature => FaultOutcome::Silent,
        Some(obs) if obs.recoveries > baseline.recoveries => FaultOutcome::Recovered,
        Some(_) => FaultOutcome::Masked,
    }
}

/// Classifies a trace-layer fault from the decode attempt:
/// `decode_result == None` means the decoder returned a typed error
/// (detected); `Some(true)` means it decoded to a byte-identical replay
/// of the baseline (masked — only possible when the corruption missed
/// live bytes); `Some(false)` means it decoded but replayed differently
/// (silent).
pub fn classify_trace(decode_result: Option<bool>) -> FaultOutcome {
    match decode_result {
        None => FaultOutcome::Detected,
        Some(true) => FaultOutcome::Masked,
        Some(false) => FaultOutcome::Silent,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_non_trivial() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = SplitMix64::new(8);
        assert_ne!(c.next_u64(), xs[0]);
        assert_eq!(SplitMix64::new(1).below(0), 0);
    }

    #[test]
    fn io_fault_planning_is_seeded_rotating_and_in_bounds() {
        use arl_sink::{IoFault, IoOp, OpKind};
        let ops = vec![
            IoOp {
                op: 0,
                kind: OpKind::Append,
                bytes: 120,
                file: "ledger".into(),
            },
            IoOp {
                op: 1,
                kind: OpKind::Write,
                bytes: 4096,
                file: "BENCH_faults.json".into(),
            },
            IoOp {
                op: 2,
                kind: OpKind::Rename,
                bytes: 0,
                file: "BENCH_faults.json".into(),
            },
        ];
        for index in 0..16u32 {
            let planned = plan_io_fault(42, index, &ops).expect("plannable");
            assert_eq!(planned, plan_io_fault(42, index, &ops).unwrap());
            let host = ops.iter().find(|o| o.op == planned.op).unwrap();
            match (index % 4, planned.fault) {
                (0, IoFault::Kill { keep }) => assert!(keep <= host.bytes),
                (1, IoFault::ShortWrite { keep }) | (2, IoFault::Enospc { keep }) => {
                    assert!(host.kind != OpKind::Rename && keep < host.bytes);
                }
                (3, IoFault::InterruptedRename) => assert_eq!(host.kind, OpKind::Rename),
                other => panic!("index {index} planned the wrong kind: {other:?}"),
            }
        }
        // Different seeds must eventually aim differently.
        assert!((0..16).any(|i| plan_io_fault(1, i, &ops) != plan_io_fault(2, i, &ops)));
        // No rename ops → the rename rotation slot yields None.
        assert_eq!(plan_io_fault(42, 3, &ops[..2]), None);
        assert_eq!(plan_io_fault(42, 0, &[]), None);
    }

    #[test]
    fn parse_plan_accepts_the_documented_syntax() {
        assert_eq!(
            parse_plan("trace:7").unwrap(),
            vec![LayerPlan {
                layer: Layer::Trace,
                seed: 7,
                count: DEFAULT_COUNT
            }]
        );
        assert_eq!(
            parse_plan("arpt:1:5, port:2:3").unwrap(),
            vec![
                LayerPlan {
                    layer: Layer::Arpt,
                    seed: 1,
                    count: 5
                },
                LayerPlan {
                    layer: Layer::Port,
                    seed: 2,
                    count: 3
                },
            ]
        );
        let all = parse_plan("all:9:1").unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(
            all.iter().map(|p| p.layer).collect::<Vec<_>>(),
            Layer::ALL.to_vec()
        );
        assert!(all.iter().all(|p| p.seed == 9 && p.count == 1));
        assert_eq!(parse_plan("").unwrap(), vec![]);
    }

    #[test]
    fn parse_plan_rejects_garbage() {
        assert!(matches!(parse_plan("trace"), Err(PlanError::Syntax(_))));
        assert!(matches!(
            parse_plan("cache:1"),
            Err(PlanError::UnknownLayer(_))
        ));
        assert!(matches!(parse_plan("trace:x"), Err(PlanError::Number(_))));
        assert!(matches!(
            parse_plan("trace:1:2:3"),
            Err(PlanError::Syntax(_))
        ));
        // Errors render something useful.
        assert!(parse_plan("trace")
            .unwrap_err()
            .to_string()
            .contains("trace"));
    }

    #[test]
    fn trace_faults_are_deterministic_and_in_range() {
        let len = 1000;
        for index in 0..10 {
            let a = plan_trace_fault(3, index, len);
            let b = plan_trace_fault(3, index, len);
            assert_eq!(a, b);
            match a {
                TraceFault::FlipByte { offset, mask } => {
                    assert_eq!(index % 2, 0);
                    assert!(offset < len);
                    assert_ne!(mask, 0);
                }
                TraceFault::Truncate { len: keep } => {
                    assert_eq!(index % 2, 1);
                    assert!(keep < len);
                }
            }
            assert!(!a.describe().is_empty());
        }
        assert_ne!(plan_trace_fault(3, 0, len), plan_trace_fault(4, 0, len));
    }

    #[test]
    fn apply_trace_fault_mutates_as_planned() {
        let bytes: Vec<u8> = (0..32).collect();
        let flipped = apply_trace_fault(
            &bytes,
            &TraceFault::FlipByte {
                offset: 5,
                mask: 0xFF,
            },
        );
        assert_eq!(flipped.len(), 32);
        assert_eq!(flipped[5], 5 ^ 0xFF);
        assert_eq!(&flipped[..5], &bytes[..5]);
        let cut = apply_trace_fault(&bytes, &TraceFault::Truncate { len: 10 });
        assert_eq!(cut, &bytes[..10]);
        // Out-of-range plans degrade gracefully (trace shrank since
        // planning): no panic.
        let same = apply_trace_fault(
            &bytes,
            &TraceFault::FlipByte {
                offset: 999,
                mask: 1,
            },
        );
        assert_eq!(same, bytes);
    }

    #[test]
    fn timing_faults_materialize_deterministically() {
        let a = plan_arpt_fault(1, 5, 0, 100);
        assert_eq!(a, plan_arpt_fault(1, 5, 0, 100));
        match a.kind {
            FaultKind::ArptSoftError {
                mask, at_lookup, ..
            } => {
                assert!((1..=3).contains(&mask));
                assert!((1..=100).contains(&at_lookup));
            }
            _ => panic!("arpt plan must be a soft error"),
        }
        let blackout = plan_port_fault(2, 5, 0, 1000, true);
        assert!(matches!(blackout.kind, FaultKind::PortBlackout { .. }));
        let spike = plan_port_fault(3, 5, 1, 1000, true);
        assert!(matches!(spike.kind, FaultKind::LatencySpike { .. }));
        for f in [a, blackout, spike] {
            assert!(!describe_timing_fault(&f).is_empty());
        }
        // Conventional machines only ever target the data cache.
        for index in 0..8 {
            let f = plan_port_fault(9, 77, index, 500, false);
            match f.kind {
                FaultKind::PortBlackout { route, .. } | FaultKind::LatencySpike { route, .. } => {
                    assert_eq!(route, Route::DataCache);
                }
                FaultKind::ArptSoftError { .. } => panic!("port plan"),
            }
        }
    }

    #[test]
    fn zero_horizons_still_plan_firable_or_inert_faults() {
        // A zero lookup horizon plans at_lookup == 1 (fires on the first
        // lookup if one ever happens; inert otherwise) — never a panic.
        let f = plan_arpt_fault(1, 2, 0, 0);
        match f.kind {
            FaultKind::ArptSoftError { at_lookup, .. } => assert_eq!(at_lookup, 1),
            _ => panic!("arpt plan"),
        }
    }

    #[test]
    fn classification_matrix() {
        let base = TimingObservation {
            signature: RunSignature {
                instructions: 100,
                mem_refs: 40,
                peak_rss_bytes: 4096,
            },
            recoveries: 2,
        };
        assert_eq!(classify_timing(&base, None), FaultOutcome::Fatal);
        assert_eq!(classify_timing(&base, Some(&base)), FaultOutcome::Masked);
        let recovered = TimingObservation {
            recoveries: 3,
            ..base
        };
        assert_eq!(
            classify_timing(&base, Some(&recovered)),
            FaultOutcome::Recovered
        );
        let silent = TimingObservation {
            signature: RunSignature {
                instructions: 99,
                ..base.signature
            },
            ..base
        };
        assert_eq!(classify_timing(&base, Some(&silent)), FaultOutcome::Silent);

        assert_eq!(classify_trace(None), FaultOutcome::Detected);
        assert_eq!(classify_trace(Some(true)), FaultOutcome::Masked);
        assert_eq!(classify_trace(Some(false)), FaultOutcome::Silent);

        let labels: Vec<&str> = FaultOutcome::ALL.iter().map(|o| o.label()).collect();
        assert_eq!(
            labels,
            vec!["masked", "detected", "recovered", "fatal", "silent"]
        );
    }

    #[test]
    fn layer_labels_are_stable() {
        assert_eq!(Layer::Trace.label(), "trace");
        assert_eq!(Layer::Arpt.label(), "arpt");
        assert_eq!(Layer::Port.label(), "port");
    }
}
