//! Machine configuration (the paper's Table 4).

use crate::fault::TimingFault;

/// How a cache provides its per-cycle access bandwidth.
///
/// The paper's evaluation assumes ideal multi-porting ("the studied models
/// in this paper assume perfect multi-porting") and explicitly flags the
/// cost question; the related work it builds on proposes the cheaper
/// alternatives modeled here:
///
/// * [`PortModel::TruePorts`] — ideal N-ported arrays (the paper's model).
/// * [`PortModel::Banked`] — Sohi & Franklin's interleaved banks: up to N
///   accesses per cycle, but two accesses to the same bank conflict.
/// * [`PortModel::LineBuffered`] — Wilson, Olukotun & Rosenblum's
///   single-ported array with a line buffer: an access to the
///   most-recently-touched line is served by the buffer without using the
///   array port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortModel {
    /// Ideal multi-porting: any `n` accesses per cycle.
    TruePorts(usize),
    /// `banks` single-ported banks, line-interleaved: one access per bank
    /// per cycle.
    Banked {
        /// Number of banks (power of two).
        banks: usize,
    },
    /// One array port plus a line buffer holding the last line touched.
    LineBuffered,
}

/// Geometry and timing of one cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (1 = direct-mapped).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// How the bandwidth is implemented, including the port count of
    /// [`PortModel::TruePorts`].
    pub port_model: PortModel,
}

impl CacheConfig {
    /// Table 4's L1 data cache: 64 KB, 2-way, 32 B lines, 2-cycle hit,
    /// ideal multi-porting (the paper's assumption).
    pub(crate) fn l1_data(ports: usize, hit_latency: u64) -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            line_bytes: 32,
            hit_latency,
            port_model: PortModel::TruePorts(ports),
        }
    }

    /// Table 4's L2 cache: 512 KB, 4-way, 12-cycle access.
    pub(crate) fn l2() -> CacheConfig {
        CacheConfig {
            size_bytes: 512 * 1024,
            assoc: 4,
            line_bytes: 32,
            hit_latency: 12,
            port_model: PortModel::TruePorts(usize::MAX),
        }
    }

    /// Table 4's Local Variable Cache: 4 KB direct-mapped, 1-cycle hit.
    pub fn lvc(ports: usize) -> CacheConfig {
        CacheConfig {
            size_bytes: 4 * 1024,
            assoc: 1,
            line_bytes: 32,
            hit_latency: 1,
            port_model: PortModel::TruePorts(ports),
        }
    }

    /// Switches this cache to Sohi & Franklin-style interleaved banks.
    pub fn with_banks(mut self, banks: usize) -> CacheConfig {
        assert!(banks.is_power_of_two(), "bank count must be a power of two");
        self.port_model = PortModel::Banked { banks };
        self
    }

    /// Returns this geometry with out-of-range port/bank counts clamped to
    /// values the bandwidth model can represent, warning on stderr like the
    /// `ARL_SCALE` fallback does. The bank mask is a `u64` and banks are
    /// selected by `line % banks`, so a bank count that is zero, above 64,
    /// or not a power of two would silently alias banks; a zero port count
    /// would deny every access forever. Every constructor in this module
    /// produces valid values, so sanitizing them is a no-op.
    pub(crate) fn sanitized(mut self, what: &str) -> CacheConfig {
        if let PortModel::Banked { banks } = self.port_model {
            let clamped = if banks == 0 {
                1
            } else if banks > 64 {
                64
            } else if banks.is_power_of_two() {
                banks
            } else {
                banks.next_power_of_two() / 2
            };
            if clamped != banks {
                eprintln!(
                    "[arl-timing] clamping {what} bank count {banks} to {clamped} \
                     (must be a power of two, at most 64)"
                );
                self.port_model = PortModel::Banked { banks: clamped };
            }
        }
        if self.port_model == PortModel::TruePorts(0) {
            eprintln!("[arl-timing] clamping {what} port count 0 to 1");
            self.port_model = PortModel::TruePorts(1);
        }
        self
    }

    /// Switches this cache to a single array port plus a line buffer
    /// (Wilson et al.).
    pub fn with_line_buffer(mut self) -> CacheConfig {
        self.port_model = PortModel::LineBuffered;
        self
    }
}

/// How the pipeline recovers from an access-region misprediction
/// (Section 4.3 describes both options).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryMode {
    /// "only the dependent instructions begin to re-issue 1 cycle after
    /// the misprediction is detected" — the paper's assumed mode.
    SelectiveReissue,
    /// "the instructions from the mispredicted memory instruction in the
    /// program order should be squashed and re-issued", as on a branch
    /// misprediction: every younger in-flight instruction loses its issue
    /// and replays after the penalty.
    Squash,
}

/// What serves references beyond the first-level structures (L1 + LVC).
///
/// The paper evaluates one fixed chain — a shared L2 backed by flat
/// off-chip memory. `BackendConfig` turns that chain into plain data a
/// sweep can iterate: the same front end (ports, queues, ARPT steering)
/// can be driven against die-stacked DRAM used as memory, as a giant
/// cache, or as a memcache hybrid (Bakhshalipour et al.), or against a
/// burst-friendly device whose latency falls with the run length of
/// same-row accesses within a region stream (Ferry et al.). Every
/// variant keeps the shared L2; they differ in what an L2 miss costs.
///
/// [`BackendConfig::Baseline`] is **bit-identical** to the pre-backend
/// hierarchy — the differential and golden suites pin this down.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BackendConfig {
    /// The paper's chain: L2 misses pay the flat off-chip latency.
    #[default]
    Baseline,
    /// Die-stacked DRAM as part of flat memory: a static page-interleaved
    /// split maps half the address space on-stack at a fraction of the
    /// off-chip latency (hit-predictor-free, the v1 simplification).
    StackedMemory,
    /// Die-stacked DRAM as a giant memory-side cache behind the L2.
    StackedCache,
    /// MemCache hybrid: half the pages are flat stacked memory, the rest
    /// go through a half-capacity stacked cache.
    StackedMemCache,
    /// Burst-friendly device: an L2 miss that stays in the open row of its
    /// region stream (LSQ and LVAQ stream separately) gets cheaper the
    /// longer the run; switching rows pays the full open cost.
    Burst,
}

impl BackendConfig {
    /// Every backend, in report order.
    pub const ALL: [BackendConfig; 5] = [
        BackendConfig::Baseline,
        BackendConfig::StackedMemory,
        BackendConfig::StackedCache,
        BackendConfig::StackedMemCache,
        BackendConfig::Burst,
    ];

    /// Stable kebab-case label (`ARL_BACKEND` values, JSON rows, config
    /// name suffixes).
    pub fn label(self) -> &'static str {
        match self {
            BackendConfig::Baseline => "baseline",
            BackendConfig::StackedMemory => "stacked-memory",
            BackendConfig::StackedCache => "stacked-cache",
            BackendConfig::StackedMemCache => "stacked-memcache",
            BackendConfig::Burst => "burst",
        }
    }

    /// Parses a [`Self::label`] (case-insensitive); `None` on anything
    /// else.
    pub fn from_label(value: &str) -> Option<BackendConfig> {
        BackendConfig::ALL
            .into_iter()
            .find(|b| value.eq_ignore_ascii_case(b.label()))
    }

    /// The byte tag stored in the `"ARLS"` machine-state blob.
    pub(crate) fn tag(self) -> u8 {
        match self {
            BackendConfig::Baseline => 0,
            BackendConfig::StackedMemory => 1,
            BackendConfig::StackedCache => 2,
            BackendConfig::StackedMemCache => 3,
            BackendConfig::Burst => 4,
        }
    }

    /// Inverse of [`Self::tag`].
    pub(crate) fn from_tag(tag: u8) -> Option<BackendConfig> {
        BackendConfig::ALL.into_iter().find(|b| b.tag() == tag)
    }
}

/// The full machine model. [`MachineConfig::baseline_2_0`] reproduces Table 4;
/// the preset constructors produce the Figure 8 configurations.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// A human-readable tag, e.g. `"(3+3)"`.
    pub name: String,
    /// Issue (= decode = commit) width.
    pub issue_width: usize,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Load Store Queue entries.
    pub lsq_size: usize,
    /// Local Variable Access Queue entries (used when `lvc` is set).
    pub(crate) lvaq_size: usize,
    /// Integer ALUs.
    pub int_alus: usize,
    /// FP ALUs.
    pub fp_alus: usize,
    /// Integer multiply/divide units.
    pub int_mul_div: usize,
    /// FP multiply/divide units.
    pub fp_mul_div: usize,
    /// L1 data cache.
    pub dcache: CacheConfig,
    /// L2 cache (shared by D-cache and LVC misses).
    pub l2: CacheConfig,
    /// Main-memory access latency in cycles.
    pub memory_latency: u64,
    /// The Local Variable Cache; `None` = conventional memory design.
    pub lvc: Option<CacheConfig>,
    /// ARPT entries (log2), used when `lvc` is set. 15 → 32K 1-bit entries.
    pub arpt_log2_entries: u32,
    /// Enable the 16K-entry stride value predictor.
    pub value_prediction: bool,
    /// Cycles between region-misprediction detection and dependent
    /// re-issue.
    pub region_mispredict_penalty: u64,
    /// Recovery policy on a region misprediction.
    pub recovery: RecoveryMode,
    /// Faults to inject during the run (empty for normal simulation; the
    /// fault campaign materializes seeded plans into this list).
    pub faults: Vec<TimingFault>,
    /// What serves references beyond the first-level structures.
    pub(crate) backend: BackendConfig,
}

impl MachineConfig {
    /// Table 4's base machine with an `n`-ported data cache of the given
    /// hit latency and no LVC.
    pub fn conventional(ports: usize, hit_latency: u64) -> MachineConfig {
        MachineConfig {
            name: format!("({ports}+0)"),
            issue_width: 16,
            rob_size: 256,
            lsq_size: 128,
            lvaq_size: 0,
            int_alus: 16,
            fp_alus: 16,
            int_mul_div: 4,
            fp_mul_div: 4,
            dcache: CacheConfig::l1_data(ports, hit_latency),
            l2: CacheConfig::l2(),
            memory_latency: 50,
            lvc: None,
            arpt_log2_entries: 15,
            value_prediction: true,
            region_mispredict_penalty: 1,
            recovery: RecoveryMode::SelectiveReissue,
            faults: Vec::new(),
            backend: BackendConfig::Baseline,
        }
    }

    /// Returns this machine with the given memory backend. A non-baseline
    /// backend is appended to the name (`"(3+3)@stacked-cache"`) so swept
    /// cells stay distinguishable; [`BackendConfig::Baseline`] is a no-op,
    /// keeping every existing preset byte-identical.
    pub fn with_backend(mut self, backend: BackendConfig) -> MachineConfig {
        if backend != BackendConfig::Baseline {
            self.name = format!("{}@{}", self.name, backend.label());
        }
        self.backend = backend;
        self
    }

    /// The Figure 8 baseline: a 2-ported, 2-cycle data cache.
    pub fn baseline_2_0() -> MachineConfig {
        MachineConfig::conventional(2, 2)
    }

    /// A data-decoupled `(d+s)` configuration: `d` data-cache ports and `s`
    /// LVC ports, with the Table 4 split queues (LSQ/LVAQ 96/96).
    pub fn decoupled(dcache_ports: usize, lvc_ports: usize) -> MachineConfig {
        let mut c = MachineConfig::conventional(dcache_ports, 2);
        c.name = format!("({dcache_ports}+{lvc_ports})");
        c.lsq_size = 96;
        c.lvaq_size = 96;
        c.lvc = Some(CacheConfig::lvc(lvc_ports));
        c
    }

    /// The eight Figure 8 configurations, in the paper's presentation
    /// order: (2+0), (3+0) 2-cycle, (3+0) 3-cycle, (4+0) 3-cycle, (2+2),
    /// (2+3), (3+3), and the (16+0) bandwidth upper bound.
    pub fn figure8_suite() -> Vec<MachineConfig> {
        let mut three_slow = MachineConfig::conventional(3, 3);
        three_slow.name = "(3+0)3c".into();
        let mut four = MachineConfig::conventional(4, 3);
        four.name = "(4+0)3c".into();
        vec![
            MachineConfig::baseline_2_0(),
            MachineConfig::conventional(3, 2),
            three_slow,
            four,
            MachineConfig::decoupled(2, 2),
            MachineConfig::decoupled(2, 3),
            MachineConfig::decoupled(3, 3),
            MachineConfig::conventional(16, 2),
        ]
    }

    /// Whether this machine splits stack references into the LVAQ/LVC.
    pub fn is_decoupled(&self) -> bool {
        self.lvc.is_some()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn table4_base_values() {
        let c = MachineConfig::baseline_2_0();
        assert_eq!(c.issue_width, 16);
        assert_eq!(c.rob_size, 256);
        assert_eq!(c.lsq_size, 128);
        assert_eq!(c.dcache.size_bytes, 64 * 1024);
        assert_eq!(c.dcache.assoc, 2);
        assert_eq!(c.dcache.hit_latency, 2);
        assert_eq!(c.l2.hit_latency, 12);
        assert_eq!(c.memory_latency, 50);
        assert!(!c.is_decoupled());
    }

    #[test]
    fn decoupled_preset() {
        let c = MachineConfig::decoupled(3, 3);
        assert_eq!(c.name, "(3+3)");
        assert_eq!(c.lsq_size, 96);
        assert_eq!(c.lvaq_size, 96);
        let lvc = c.lvc.unwrap();
        assert_eq!(lvc.size_bytes, 4 * 1024);
        assert_eq!(lvc.assoc, 1);
        assert_eq!(lvc.hit_latency, 1);
        assert!(c.is_decoupled());
    }

    #[test]
    fn backend_labels_round_trip() {
        for backend in BackendConfig::ALL {
            assert_eq!(BackendConfig::from_label(backend.label()), Some(backend));
            assert_eq!(BackendConfig::from_tag(backend.tag()), Some(backend));
        }
        assert_eq!(
            BackendConfig::from_label("STACKED-CACHE"),
            Some(BackendConfig::StackedCache)
        );
        assert_eq!(BackendConfig::from_label("hbm"), None);
        assert_eq!(BackendConfig::from_tag(200), None);
    }

    #[test]
    fn with_backend_tags_the_name_except_baseline() {
        let base = MachineConfig::baseline_2_0();
        assert_eq!(base.backend, BackendConfig::Baseline);
        let same = base.clone().with_backend(BackendConfig::Baseline);
        assert_eq!(same.name, "(2+0)");
        let stacked = base.with_backend(BackendConfig::StackedCache);
        assert_eq!(stacked.name, "(2+0)@stacked-cache");
        assert_eq!(stacked.backend, BackendConfig::StackedCache);
    }

    #[test]
    fn sanitized_clamps_degenerate_port_geometry() {
        let valid = CacheConfig::l1_data(2, 2).with_banks(4);
        assert_eq!(
            valid.sanitized("dcache"),
            valid,
            "valid configs pass through"
        );

        let mut aliasing = CacheConfig::l1_data(2, 2);
        aliasing.port_model = PortModel::Banked { banks: 6 };
        let fixed = aliasing.sanitized("dcache");
        assert_eq!(fixed.port_model, PortModel::Banked { banks: 4 });

        let mut wide = CacheConfig::l1_data(2, 2);
        wide.port_model = PortModel::Banked { banks: 128 };
        assert_eq!(
            wide.sanitized("dcache").port_model,
            PortModel::Banked { banks: 64 }
        );

        let mut zero_banks = CacheConfig::l1_data(2, 2);
        zero_banks.port_model = PortModel::Banked { banks: 0 };
        let fixed = zero_banks.sanitized("lvc");
        assert_eq!(fixed.port_model, PortModel::Banked { banks: 1 });

        let portless = CacheConfig::l1_data(0, 2);
        let fixed = portless.sanitized("dcache");
        assert_eq!(fixed.port_model, PortModel::TruePorts(1));
    }

    #[test]
    fn figure8_suite_has_eight_configs() {
        let suite = MachineConfig::figure8_suite();
        assert_eq!(suite.len(), 8);
        assert_eq!(suite[0].name, "(2+0)");
        assert_eq!(suite[7].name, "(16+0)");
        assert_eq!(suite[3].dcache.hit_latency, 3);
    }
}
