//! Cross-crate integration of the cycle-level model: Figure 8's structural
//! invariants on real workloads at test scale.

use arl::sim::Machine;
use arl::timing::{MachineConfig, TimingSim};
use arl::workloads::{workload, Scale};

/// A mixed set: stack-heavy, data-heavy, heap-heavy, and FP.
const REPRESENTATIVES: [&str; 4] = ["vortex", "compress", "li", "swim"];

#[test]
fn committed_instructions_match_the_functional_run() {
    for name in REPRESENTATIVES {
        let program = workload(name).unwrap().build(Scale::tiny());
        let mut m = Machine::new(&program);
        let outcome = m.run(100_000_000).unwrap();
        assert!(outcome.exited);
        for config in [
            MachineConfig::baseline_2_0(),
            MachineConfig::decoupled(3, 3),
        ] {
            let stats = TimingSim::run_program(&program, &config);
            assert_eq!(
                stats.instructions,
                m.metrics().instructions,
                "{name} on {}: timing commits exactly the functional stream",
                config.name
            );
        }
    }
}

#[test]
fn bandwidth_upper_bound_dominates_the_baseline() {
    for name in REPRESENTATIVES {
        let program = workload(name).unwrap().build(Scale::tiny());
        let base = TimingSim::run_program(&program, &MachineConfig::baseline_2_0());
        let wide = TimingSim::run_program(&program, &MachineConfig::conventional(16, 2));
        assert!(
            wide.cycles <= base.cycles,
            "{name}: (16+0) must never lose to (2+0): {} vs {}",
            wide.cycles,
            base.cycles
        );
    }
}

#[test]
fn decoupled_machine_beats_the_baseline_on_stack_heavy_code() {
    for name in ["vortex", "li"] {
        let program = workload(name).unwrap().build(Scale::tiny());
        let base = TimingSim::run_program(&program, &MachineConfig::baseline_2_0());
        let split = TimingSim::run_program(&program, &MachineConfig::decoupled(3, 3));
        assert!(
            split.cycles < base.cycles,
            "{name}: (3+3) must beat (2+0): {} vs {}",
            split.cycles,
            base.cycles
        );
        assert!(
            split.lvaq_refs > 0,
            "{name}: stack refs steered to the LVAQ"
        );
    }
}

#[test]
fn in_pipeline_region_prediction_is_paper_accurate() {
    for name in REPRESENTATIVES {
        let program = workload(name).unwrap().build(Scale::tiny());
        let stats = TimingSim::run_program(&program, &MachineConfig::decoupled(2, 2));
        assert!(stats.region_checks > 0);
        assert!(
            stats.region_accuracy() > 0.99,
            "{name}: pipeline ARPT accuracy {}",
            stats.region_accuracy()
        );
    }
}

#[test]
fn lvc_hit_rates_match_the_papers_stack_cache_claim() {
    // "A 4-KB stack cache achieved over 99.5% hit rate ... with an average
    // of about 99.9%."
    for name in REPRESENTATIVES {
        let program = workload(name).unwrap().build(Scale::tiny());
        let stats = TimingSim::run_program(&program, &MachineConfig::decoupled(2, 2));
        let lvc = stats.lvc.expect("decoupled machine has an LVC");
        assert!(
            lvc.hit_rate() > 0.995,
            "{name}: 4KB LVC hit rate {}",
            lvc.hit_rate()
        );
    }
}

#[test]
fn slower_l1_rarely_helps() {
    // Latency is not strictly monotone under port contention: shifting
    // completion times reorders which loads compete for ports each cycle
    // (a real-machine scheduling anomaly). We therefore allow a small
    // anomaly margin per workload and require strict monotonicity on the
    // average.
    let mut total_fast = 0u64;
    let mut total_slow = 0u64;
    for name in ["compress", "swim", "vortex", "li"] {
        let program = workload(name).unwrap().build(Scale::tiny());
        let fast = TimingSim::run_program(&program, &MachineConfig::conventional(3, 2));
        let slow = TimingSim::run_program(&program, &MachineConfig::conventional(3, 3));
        assert!(
            slow.cycles as f64 >= fast.cycles as f64 * 0.95,
            "{name}: 3-cycle L1 cannot beat 2-cycle by >5%: {} vs {}",
            slow.cycles,
            fast.cycles
        );
        total_fast += fast.cycles;
        total_slow += slow.cycles;
    }
    assert!(
        total_slow >= total_fast,
        "a slower L1 costs cycles overall: {total_slow} vs {total_fast}"
    );
}

#[test]
fn probing_never_perturbs_experiment_output() {
    // The observability layer is opt-in and monomorphized away when off;
    // with it on, rendered tables and structured records must stay
    // byte-identical — the recorder watches the pipeline, never steers it.
    use arl::workloads::Scale;
    use arl_bench::{probe, ExperimentOptions};
    let base = ExperimentOptions::new(Scale::tiny(), 1);
    let plain = probe(&base, "compress");
    let probed = probe(&base.with_probe(true), "compress");
    assert_eq!(plain.text, probed.text, "rendered output diverged");
    // Host wall-clock is the one legitimately nondeterministic field.
    let strip_clock = |run: &arl_bench::ExperimentRun| {
        run.report
            .records
            .iter()
            .cloned()
            .map(|mut r| {
                r.wall_seconds = 0.0;
                r
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        strip_clock(&plain),
        strip_clock(&probed),
        "structured records diverged"
    );
    assert!(
        plain.probe.is_none(),
        "unprobed run emitted a probe document"
    );
    let doc = probed.probe.expect("probed run carries its document");
    let cells = doc.get("cells").unwrap().as_array().unwrap();
    assert_eq!(cells.len(), 3, "one probe cell per machine configuration");
}

#[test]
fn stall_attribution_accounts_for_every_cycle() {
    // Conservation identity: each cycle is either useful (something
    // committed) or attributed to exactly one stall cause — so the
    // recorder's tallies must reproduce the cycle count of the stats it
    // rode along with, on every (workload × config) cell.
    use arl::stats::Json;
    use arl::timing::{Recorder, StallCause};
    for name in ["vortex", "swim"] {
        let program = workload(name).unwrap().build(Scale::tiny());
        for config in MachineConfig::figure8_suite() {
            let (stats, rec) =
                TimingSim::run_source_probed(&mut Machine::new(&program), &config, Recorder::new())
                    .unwrap_or_else(|e| panic!("{name}: functional execution failed: {e}"));
            assert_eq!(
                rec.cycles(),
                stats.cycles,
                "{name} on {}: recorder saw every cycle",
                config.name
            );
            let attributed: u64 = StallCause::ALL.iter().map(|&c| rec.stall_cycles(c)).sum();
            assert_eq!(attributed, rec.total_stall_cycles());
            assert_eq!(
                rec.useful_cycles() + attributed,
                stats.cycles,
                "{name} on {}: useful + attributed covers the run",
                config.name
            );
            assert_eq!(
                rec.to_json()
                    .get("commit_util")
                    .and_then(|h| h.get("total"))
                    .and_then(Json::as_u64),
                Some(stats.cycles),
                "{name} on {}: one histogram sample per cycle",
                config.name
            );
        }
    }
}

#[test]
fn misprediction_penalty_costs_cycles() {
    // Raising the region-misprediction penalty can never make a workload
    // with mispredictions faster.
    let program = workload("perl").unwrap().build(Scale::tiny());
    let mut cheap = MachineConfig::decoupled(2, 2);
    cheap.region_mispredict_penalty = 1;
    let mut dear = MachineConfig::decoupled(2, 2);
    dear.region_mispredict_penalty = 20;
    dear.name = "(2+2)p20".into();
    let a = TimingSim::run_program(&program, &cheap);
    let b = TimingSim::run_program(&program, &dear);
    assert!(a.region_mispredicts > 0, "perl has some mispredictions");
    assert!(
        b.cycles >= a.cycles,
        "larger penalty cannot speed things up: {} vs {}",
        b.cycles,
        a.cycles
    );
}

#[test]
fn probe_honours_the_memory_backend() {
    // `ARL_BACKEND` applies to every experiment binary, `probe` included:
    // each of its timing cells runs under the chosen backend, tagged
    // `@<label>`, and the backend changes what the cells measure.
    use arl::timing::BackendConfig;
    use arl::workloads::Scale;
    use arl_bench::{probe, ExperimentOptions};
    let base = ExperimentOptions::new(Scale::tiny(), 1);
    let backend = BackendConfig::StackedCache;
    let plain = probe(&base, "compress");
    let stacked = probe(&base.with_backend(backend), "compress");
    let cells = |run: &arl_bench::ExperimentRun| {
        run.report
            .records
            .iter()
            .filter(|r| r.cycles.is_some())
            .map(|r| (r.config.clone(), r.cycles))
            .collect::<Vec<_>>()
    };
    let (plain, stacked) = (cells(&plain), cells(&stacked));
    assert_eq!(plain.len(), 3, "one timing cell per machine configuration");
    assert_eq!(plain.len(), stacked.len());
    let suffix = format!("@{}", backend.label());
    for ((base_name, base_cycles), (name, cycles)) in plain.iter().zip(&stacked) {
        assert_eq!(*name, format!("{base_name}{suffix}"), "backend-tagged name");
        assert_ne!(cycles, base_cycles, "{name}: the backend changes cycles");
    }
}
