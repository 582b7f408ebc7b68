//! Differential suite: the event-driven production core vs the legacy
//! cycle-ticking oracle (`arl_timing::reference`) must be
//! **bit-identical** — same `SimStats`, same rendered probe JSON — on
//! every workload × Figure 8 configuration, with and without injected
//! memory-port faults.
//!
//! The event core never executes the cycles it skips; these tests are the
//! proof that skipping is unobservable.

use arl::sim::{EntrySliceSource, Machine, TraceEntry, TraceSource};
use arl::timing::{
    reference, FaultKind, MachineConfig, Recorder, Route, StallCause, TimingFault, TimingSim,
};
use arl::workloads::{workload, Scale};
use arl_faults::{plan_arpt_fault, plan_port_fault};

/// Functional entry stream for one workload at the test scale.
fn entries_for(name: &str) -> Vec<TraceEntry> {
    let spec = workload(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    let program = spec.build(Scale::tiny());
    let mut machine = Machine::new(&program);
    let mut entries = Vec::new();
    while let Some(entry) = machine
        .next_entry()
        .unwrap_or_else(|e| panic!("{name}: functional execution failed: {e}"))
    {
        entries.push(entry);
    }
    entries
}

/// Runs `entries` through both cores on `config` and asserts bit-identical
/// observable output. Returns the (identical) stats for extra checks.
fn assert_cores_agree(
    entries: &[TraceEntry],
    config: &MachineConfig,
    label: &str,
) -> arl::timing::SimStats {
    let (event_stats, event_rec) =
        TimingSim::run_source_probed(&mut EntrySliceSource::new(entries), config, Recorder::new())
            .unwrap_or_else(|e| panic!("{label}: slice sources cannot fail: {e}"));
    let (legacy_stats, legacy_rec) =
        reference::run_probed(&mut EntrySliceSource::new(entries), config, Recorder::new())
            .unwrap_or_else(|e| panic!("{label}: slice sources cannot fail: {e}"));
    assert_eq!(event_stats, legacy_stats, "{label}: SimStats diverge");
    assert_eq!(
        event_rec.to_json().render(),
        legacy_rec.to_json().render(),
        "{label}: probe JSON diverges"
    );
    // The replayed spans must keep the attribution identity exact.
    let attributed: u64 = StallCause::ALL
        .iter()
        .map(|&c| event_rec.stall_cycles(c))
        .sum();
    assert_eq!(
        event_rec.useful_cycles() + attributed,
        event_stats.cycles,
        "{label}: useful + attributed must cover every cycle"
    );
    assert_eq!(
        event_rec.cycles(),
        event_stats.cycles,
        "{label}: probe saw every cycle"
    );
    event_stats
}

/// The full Figure 8 sweep for one workload.
fn differential_figure8(name: &str) {
    let entries = entries_for(name);
    for config in MachineConfig::figure8_suite() {
        assert_cores_agree(&entries, &config, &format!("{name} on {}", config.name));
    }
}

macro_rules! figure8_differential {
    ($($test:ident => $workload:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                differential_figure8($workload);
            }
        )*
    };
}

/// The backend axis: every composable memory backend must be
/// core-invariant too, on both the conventional and the decoupled
/// machine, and device backends must surface their device stats.
#[test]
fn backends_bit_identical_across_cores() {
    use arl::timing::BackendConfig;
    for name in ["go", "tomcatv"] {
        let entries = entries_for(name);
        for backend in BackendConfig::ALL {
            for base in [
                MachineConfig::baseline_2_0(),
                MachineConfig::decoupled(3, 3),
            ] {
                let config = base.with_backend(backend);
                let label = format!("{name} on {}", config.name);
                let stats = assert_cores_agree(&entries, &config, &label);
                let expects_device = matches!(
                    backend,
                    BackendConfig::StackedCache
                        | BackendConfig::StackedMemCache
                        | BackendConfig::Burst
                );
                assert_eq!(
                    stats.stacked.is_some(),
                    expects_device,
                    "{label}: backend device stats presence is wrong"
                );
            }
        }
    }
}

figure8_differential! {
    figure8_bit_identical_go => "go",
    figure8_bit_identical_m88ksim => "m88ksim",
    figure8_bit_identical_gcc => "gcc",
    figure8_bit_identical_compress => "compress",
    figure8_bit_identical_li => "li",
    figure8_bit_identical_ijpeg => "ijpeg",
    figure8_bit_identical_perl => "perl",
    figure8_bit_identical_vortex => "vortex",
    figure8_bit_identical_tomcatv => "tomcatv",
    figure8_bit_identical_swim => "swim",
    figure8_bit_identical_su2cor => "su2cor",
    figure8_bit_identical_mgrid => "mgrid",
}

/// Port-fault plans exactly as the `ARL_FAULT` campaign materializes them
/// (seeded planner), plus a hand-placed early blackout guaranteed to fall
/// inside even the shortest run.
fn port_fault_plan(has_lvc: bool) -> Vec<TimingFault> {
    let mut faults = vec![TimingFault {
        id: 100,
        kind: FaultKind::PortBlackout {
            route: Route::DataCache,
            start_cycle: 10,
            cycles: 60,
        },
    }];
    for index in 0..4u32 {
        faults.push(plan_port_fault(index, 42, index, 4_000, has_lvc));
    }
    faults
}

#[test]
fn port_blackouts_stay_bit_identical() {
    for name in ["compress", "vortex"] {
        let entries = entries_for(name);
        for base in [
            MachineConfig::baseline_2_0(),
            MachineConfig::decoupled(2, 2),
        ] {
            let mut config = base;
            config.faults = port_fault_plan(config.is_decoupled());
            let stats = assert_cores_agree(
                &entries,
                &config,
                &format!("{name}+ports on {}", config.name),
            );
            assert!(
                stats.faults_applied.contains(&100),
                "{name} on {}: the early blackout must actually fire",
                config.name
            );
        }
    }
}

#[test]
fn arpt_soft_errors_stay_bit_identical() {
    // ARPT soft errors trigger on lookup *counts*, so the event core must
    // hold off skipping while one is pending — and stay bit-identical
    // before, during, and after the injection.
    let entries = entries_for("li");
    let mut config = MachineConfig::decoupled(3, 3);
    config.faults = vec![plan_arpt_fault(7, 42, 0, 200)];
    let stats = assert_cores_agree(&entries, &config, "li+arpt on (3+3)");
    assert_eq!(
        stats.faults_applied,
        vec![7],
        "the planned soft error must fire within the run"
    );
}

#[test]
fn squash_recovery_stays_bit_identical() {
    // Squash-mode recovery reschedules every younger instruction; its
    // reissue horizon is an event-wheel edge case worth pinning.
    let entries = entries_for("perl");
    let mut config = MachineConfig::decoupled(2, 3);
    config.recovery = arl::timing::RecoveryMode::Squash;
    config.region_mispredict_penalty = 4;
    assert_cores_agree(&entries, &config, "perl squash on (2+3)");
}

#[test]
fn bounded_mshrs_and_write_buffer_stay_bit_identical() {
    // Bounded MSHRs make port/MSHR denial windows (and their release
    // events) load-bearing; a write buffer adds background store drain.
    let entries = entries_for("tomcatv");
    for base in [
        MachineConfig::baseline_2_0(),
        MachineConfig::decoupled(3, 3),
    ] {
        let mut config = base;
        config.mshrs = 2;
        config.write_buffer = 4;
        assert_cores_agree(
            &entries,
            &config,
            &format!("tomcatv mshr2+wb4 on {}", config.name),
        );
    }
}
