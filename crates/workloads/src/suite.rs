//! The workload suite.

use arl_asm::Program;

/// Iteration-count multiplier controlling how many dynamic instructions a
/// workload retires.
///
/// [`Scale::default`] targets roughly 0.5–2 M instructions per workload —
/// large enough for stable Table 2 / Figure 4 statistics, small enough that
/// the full 12-workload × 8-configuration Figure 8 sweep runs in minutes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Scale(u32);

impl Scale {
    /// Creates a scale with an explicit multiplier (≥ 1).
    pub fn new(factor: u32) -> Scale {
        Scale(factor.max(1))
    }

    /// A very small scale for unit tests (~tens of thousands of
    /// instructions).
    pub fn tiny() -> Scale {
        Scale(0) // sentinel: builders divide their defaults by 8
    }

    /// The multiplier.
    pub fn factor(&self) -> u32 {
        self.0.max(1)
    }

    /// Scales a default iteration count: multiplied by the factor, or
    /// divided by 8 (min 1) for [`Scale::tiny`].
    pub(crate) fn apply(&self, default_iters: i64) -> i64 {
        if self.0 == 0 {
            (default_iters / 8).max(1)
        } else {
            default_iters * self.0 as i64
        }
    }

    /// Whether this is the tiny test scale.
    pub fn is_tiny(&self) -> bool {
        self.0 == 0
    }
}

impl Default for Scale {
    fn default() -> Scale {
        Scale(1)
    }
}

/// One workload: a named program generator.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// Short name (`"go"`, `"tomcatv"`, ...).
    pub name: &'static str,
    /// The SPEC95 benchmark this analog models (`"099.go"`, ...).
    pub spec_name: &'static str,
    /// Whether the modeled benchmark is floating-point.
    pub is_fp: bool,
    builder: fn(Scale) -> Program,
}

impl WorkloadSpec {
    /// Builds the workload's program at the given scale.
    pub fn build(&self, scale: Scale) -> Program {
        (self.builder)(scale)
    }
}

/// The full 12-workload suite in the paper's Table 1 order (integer first,
/// then floating-point).
pub fn suite() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "go",
            spec_name: "099.go",
            is_fp: false,
            builder: crate::go::build,
        },
        WorkloadSpec {
            name: "m88ksim",
            spec_name: "124.m88ksim",
            is_fp: false,
            builder: crate::m88ksim::build,
        },
        WorkloadSpec {
            name: "gcc",
            spec_name: "126.gcc",
            is_fp: false,
            builder: crate::gcc::build,
        },
        WorkloadSpec {
            name: "compress",
            spec_name: "129.compress",
            is_fp: false,
            builder: crate::compress::build,
        },
        WorkloadSpec {
            name: "li",
            spec_name: "130.li",
            is_fp: false,
            builder: crate::li::build,
        },
        WorkloadSpec {
            name: "ijpeg",
            spec_name: "132.ijpeg",
            is_fp: false,
            builder: crate::ijpeg::build,
        },
        WorkloadSpec {
            name: "perl",
            spec_name: "134.perl",
            is_fp: false,
            builder: crate::perl::build,
        },
        WorkloadSpec {
            name: "vortex",
            spec_name: "147.vortex",
            is_fp: false,
            builder: crate::vortex::build,
        },
        WorkloadSpec {
            name: "tomcatv",
            spec_name: "101.tomcatv",
            is_fp: true,
            builder: crate::tomcatv::build,
        },
        WorkloadSpec {
            name: "swim",
            spec_name: "102.swim",
            is_fp: true,
            builder: crate::swim::build,
        },
        WorkloadSpec {
            name: "su2cor",
            spec_name: "103.su2cor",
            is_fp: true,
            builder: crate::su2cor::build,
        },
        WorkloadSpec {
            name: "mgrid",
            spec_name: "107.mgrid",
            is_fp: true,
            builder: crate::mgrid::build,
        },
    ]
}

/// Looks up a workload by short name.
pub fn workload(name: &str) -> Option<WorkloadSpec> {
    suite().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table1_roster() {
        let s = suite();
        assert_eq!(s.len(), 12);
        assert_eq!(s.iter().filter(|w| w.is_fp).count(), 4);
        assert_eq!(workload("li").unwrap().spec_name, "130.li");
        assert!(workload("nope").is_none());
    }

    #[test]
    fn scale_application() {
        assert_eq!(Scale::default().apply(1000), 1000);
        assert_eq!(Scale::new(3).apply(1000), 3000);
        assert_eq!(Scale::tiny().apply(1000), 125);
        assert_eq!(Scale::tiny().apply(4), 1);
        assert!(Scale::tiny().is_tiny());
        assert_eq!(Scale::new(0).factor(), 1);
    }
}
