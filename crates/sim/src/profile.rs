//! Region profilers: Figure 2 (static breakdown) and Table 1
//! (workload characterization).

use std::collections::HashMap;

use arl_mem::{Region, RegionSet};

use crate::trace::TraceEntry;

/// Per-class static/dynamic totals for one workload — the data behind the
/// paper's Figure 2.
#[derive(Clone, Debug, Default)]
pub struct RegionBreakdown {
    /// Static instruction count per class, indexed like
    /// [`RegionSet::CLASS_LABELS`] (`D, H, S, D/H, D/S, H/S, D/H/S`).
    pub static_counts: [u64; 7],
    /// Dynamic reference count per class (same indexing).
    pub dynamic_counts: [u64; 7],
}

impl RegionBreakdown {
    /// Total static memory instructions observed.
    pub fn static_total(&self) -> u64 {
        self.static_counts.iter().sum()
    }

    /// Total dynamic memory references observed.
    pub fn dynamic_total(&self) -> u64 {
        self.dynamic_counts.iter().sum()
    }

    /// Fraction of *static* instructions that access more than one region
    /// (the paper reports 1.8% / 1.9% averages).
    pub fn static_multi_region_fraction(&self) -> f64 {
        let multi: u64 = self.static_counts[3..].iter().sum();
        let total = self.static_total();
        if total == 0 {
            0.0
        } else {
            multi as f64 / total as f64
        }
    }

    /// Fraction of *dynamic* references issued by multi-region instructions
    /// (the paper reports 0%–9.6%).
    pub fn dynamic_multi_region_fraction(&self) -> f64 {
        let multi: u64 = self.dynamic_counts[3..].iter().sum();
        let total = self.dynamic_total();
        if total == 0 {
            0.0
        } else {
            multi as f64 / total as f64
        }
    }

    /// Static fraction for one class label (`"S"`, `"D/H"`, ...).
    ///
    /// # Panics
    ///
    /// Panics if `label` is not one of [`RegionSet::CLASS_LABELS`].
    pub fn static_fraction(&self, label: &str) -> f64 {
        let Some(idx) = RegionSet::CLASS_LABELS.iter().position(|&l| l == label) else {
            panic!("unknown class label {label:?}");
        };
        let total = self.static_total();
        if total == 0 {
            0.0
        } else {
            self.static_counts[idx] as f64 / total as f64
        }
    }
}

/// Observes a trace and accumulates, per static memory instruction (pc),
/// the set of regions it touches and its dynamic reference count; then
/// collapses them into a [`RegionBreakdown`].
#[derive(Clone, Debug, Default)]
pub struct RegionProfiler {
    per_pc: HashMap<u64, (RegionSet, u64)>,
}

impl RegionProfiler {
    /// Creates an empty profiler.
    pub fn new() -> RegionProfiler {
        RegionProfiler::default()
    }

    /// Feeds one trace entry.
    pub fn observe(&mut self, entry: &TraceEntry) {
        if let Some(mem) = entry.mem {
            let slot = self.per_pc.entry(entry.pc).or_default();
            slot.0.insert(mem.region);
            slot.1 += 1;
        }
    }

    /// Number of distinct static memory instructions seen.
    pub fn static_instructions(&self) -> usize {
        self.per_pc.len()
    }

    /// Iterates `(pc, region-set, dynamic-count)` for every static memory
    /// instruction — the per-instruction ground truth the compiler-hint
    /// evaluation uses as its profile input.
    pub fn iter(&self) -> impl Iterator<Item = (u64, RegionSet, u64)> + '_ {
        self.per_pc.iter().map(|(&pc, &(set, n))| (pc, set, n))
    }

    /// Collapses the per-pc data into Figure 2's class breakdown.
    ///
    /// A dynamic reference is attributed to the class its instruction ends
    /// the run in (matching the paper's post-hoc classification).
    pub fn breakdown(&self) -> RegionBreakdown {
        let mut b = RegionBreakdown::default();
        for &(set, dyn_count) in self.per_pc.values() {
            if let Some(idx) = set.class_index() {
                b.static_counts[idx] += 1;
                b.dynamic_counts[idx] += dyn_count;
            }
        }
        b
    }
}

/// Table 1's per-workload characterization columns.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkloadCharacter {
    /// Total dynamic instructions retired.
    pub instructions: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic references per region `[data, heap, stack]`.
    pub per_region: [u64; 3],
}

impl WorkloadCharacter {
    /// Feeds one trace entry.
    pub fn observe(&mut self, entry: &TraceEntry) {
        self.instructions += 1;
        if let Some(mem) = entry.mem {
            if mem.is_load {
                self.loads += 1;
            } else {
                self.stores += 1;
            }
            let idx = match mem.region {
                Region::Data => 0,
                Region::Heap => 1,
                Region::Stack => 2,
                Region::Text => return,
            };
            self.per_region[idx] += 1;
        }
    }

    /// Percentage of instructions that are loads.
    pub fn load_pct(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            100.0 * self.loads as f64 / self.instructions as f64
        }
    }

    /// Percentage of instructions that are stores.
    pub fn store_pct(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            100.0 * self.stores as f64 / self.instructions as f64
        }
    }

    /// Total dynamic memory references.
    pub fn references(&self) -> u64 {
        self.loads + self.stores
    }
}

/// One-shot characterization of a trace stream (Table 1 columns).
pub fn characterize<'a, I: IntoIterator<Item = &'a TraceEntry>>(entries: I) -> WorkloadCharacter {
    let mut c = WorkloadCharacter::default();
    for e in entries {
        c.observe(e);
    }
    c
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::trace::MemAccess;
    use arl_isa::{Gpr, Inst, Width};

    fn entry(pc: u64, region: Option<Region>, is_load: bool) -> TraceEntry {
        TraceEntry {
            pc,
            inst: if region.is_some() {
                Inst::Load {
                    width: Width::Double,
                    signed: true,
                    rd: Gpr::T0,
                    base: Gpr::T1,
                    offset: 0,
                }
            } else {
                Inst::Nop
            },
            mem: region.map(|r| MemAccess {
                addr: 0x1000_0000,
                width: Width::Double,
                is_load,
                region: r,
            }),
            taken: false,
            next_pc: pc + 8,
            gpr_write: None,
            ghr: 0,
            ra: 0,
        }
    }

    #[test]
    fn breakdown_classifies_single_and_multi_region() {
        let mut p = RegionProfiler::new();
        // pc 8: always stack (3 refs). pc 16: data then heap (2 refs).
        p.observe(&entry(8, Some(Region::Stack), true));
        p.observe(&entry(8, Some(Region::Stack), true));
        p.observe(&entry(8, Some(Region::Stack), false));
        p.observe(&entry(16, Some(Region::Data), true));
        p.observe(&entry(16, Some(Region::Heap), true));
        p.observe(&entry(24, None, false)); // non-mem, ignored
        let b = p.breakdown();
        assert_eq!(p.static_instructions(), 2);
        assert_eq!(b.static_counts[2], 1); // "S"
        assert_eq!(b.static_counts[3], 1); // "D/H"
        assert_eq!(b.dynamic_counts[2], 3);
        assert_eq!(b.dynamic_counts[3], 2);
        assert!((b.static_multi_region_fraction() - 0.5).abs() < 1e-12);
        assert!((b.dynamic_multi_region_fraction() - 0.4).abs() < 1e-12);
        assert!((b.static_fraction("S") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn characterize_counts_mix() {
        let entries = vec![
            entry(8, Some(Region::Data), true),
            entry(16, Some(Region::Stack), false),
            entry(24, None, false),
            entry(32, Some(Region::Heap), true),
        ];
        let c = characterize(&entries);
        assert_eq!(c.instructions, 4);
        assert_eq!(c.loads, 2);
        assert_eq!(c.stores, 1);
        assert_eq!(c.per_region, [1, 1, 1]);
        assert!((c.load_pct() - 50.0).abs() < 1e-12);
        assert!((c.store_pct() - 25.0).abs() < 1e-12);
        assert_eq!(c.references(), 3);
    }

    #[test]
    fn profiler_accumulates_each_pcs_region_set() {
        let mut p = RegionProfiler::new();
        p.observe(&entry(8, Some(Region::Data), true));
        p.observe(&entry(8, Some(Region::Stack), true));
        let seen: Vec<(u64, &str, u64)> =
            p.iter().map(|(pc, set, n)| (pc, set.label(), n)).collect();
        assert_eq!(seen, vec![(8, "D/S", 2)]);
    }
}
