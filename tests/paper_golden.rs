//! Golden experiment output: the rendered text of all eight paper
//! experiments, the ablations, the Figure 8 stall companion and the `gcc`
//! probe at `Scale::tiny()` must hash to the FNV-1a digests pinned in
//! `tests/fixtures/paper_tiny.digests`.
//!
//! Every other suite compares two runs of the current code with each other
//! (serial vs parallel, live vs replay); this one compares against bytes
//! produced by an earlier build, so an orchestration change that moves a
//! single character of any table fails here even when both modes agree.
//!
//! Regenerate the fixture after an *intentional* output change with:
//!
//! ```text
//! cargo test --release --test paper_golden -- --ignored regenerate
//! ```

use arl::trace::fnv1a64;
use arl::workloads::Scale;
use arl_bench::{ExperimentOptions, ExperimentRun};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/paper_tiny.digests"
);

type Experiment = fn(&ExperimentOptions) -> ExperimentRun;

/// Every experiment entry point, in fixture order: the paper's eight
/// artifacts first, then the ablations and diagnostics.
const PAPER: [(&str, Experiment); 15] = [
    ("table1", arl_bench::table1),
    ("table2", arl_bench::table2),
    ("figure2", arl_bench::figure2),
    ("figure4", arl_bench::figure4),
    ("table3", arl_bench::table3),
    ("table4", arl_bench::table4),
    ("figure5", arl_bench::figure5),
    ("figure8", arl_bench::figure8),
    ("ablation_l1size", arl_bench::ablation_l1size),
    ("ablation_lvc", arl_bench::ablation_lvc),
    ("ablation_ports", arl_bench::ablation_ports),
    ("ablation_recovery", arl_bench::ablation_recovery),
    ("ablation_twobit", arl_bench::ablation_twobit),
    ("figure8_stalls", arl_bench::figure8_stalls),
    ("probe_gcc", |opts| arl_bench::probe(opts, "gcc")),
];

/// `name digest` lines, one per experiment.
fn digests() -> String {
    let opts = ExperimentOptions::new(Scale::tiny(), 2);
    PAPER
        .iter()
        .map(|(name, f)| format!("{name} {:016x}\n", fnv1a64(f(&opts).text.as_bytes())))
        .collect()
}

#[test]
fn paper_text_matches_the_pinned_digests() {
    let pinned =
        std::fs::read_to_string(FIXTURE).expect("read fixture (regenerate with --ignored)");
    let actual = digests();
    for (want, got) in pinned.lines().zip(actual.lines()) {
        assert_eq!(got, want, "experiment text drifted from the golden digest");
    }
    assert_eq!(
        pinned.lines().count(),
        PAPER.len(),
        "fixture lists every experiment"
    );
}

#[test]
#[ignore = "rewrites the golden fixture"]
fn regenerate() {
    std::fs::write(FIXTURE, digests()).expect("write fixture");
}
