//! Behavioural tests of the cycle-level pipeline against hand-built
//! programs with known structure.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use arl_asm::{FunctionBuilder, ProgramBuilder, Provenance};
use arl_isa::{BranchCond, Gpr};
use arl_timing::{MachineConfig, TimingSim};

/// A program with a burst of independent data-region loads per iteration —
/// pure bandwidth stress.
fn load_burst_program(iters: i64, loads_per_iter: usize) -> arl_asm::Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("arr", 4096);
    let mut f = FunctionBuilder::new("main");
    f.li(Gpr::S0, 0);
    f.li(Gpr::S1, iters);
    let top = f.new_label();
    let done = f.new_label();
    f.bind(top);
    f.br(BranchCond::Ge, Gpr::S0, Gpr::S1, done);
    f.la_global(Gpr::T9, g);
    for i in 0..loads_per_iter {
        let rd = Gpr::new((8 + (i % 8)) as u8); // t0..t7
        f.load_ptr(rd, Gpr::T9, (i as i16 % 64) * 8, Provenance::StaticVar);
    }
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    pb.link("main").unwrap()
}

/// A long chain of dependent adds — latency-bound, bandwidth-irrelevant.
fn dependent_chain_program(n: i64) -> arl_asm::Program {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main");
    f.li(Gpr::T0, 1);
    f.li(Gpr::S0, 0);
    f.li(Gpr::S1, n);
    let top = f.new_label();
    let done = f.new_label();
    f.bind(top);
    f.br(BranchCond::Ge, Gpr::S0, Gpr::S1, done);
    // A serial xorshift chain: values are erratic per pc, so the stride
    // value predictor cannot break the dependence.
    for _ in 0..3 {
        f.srli(Gpr::T1, Gpr::T0, 1);
        f.xor(Gpr::T0, Gpr::T0, Gpr::T1);
        f.add(Gpr::T0, Gpr::T0, Gpr::S0);
    }
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    pb.link("main").unwrap()
}

/// Stack-heavy program: every iteration spills and reloads locals.
fn stack_churn_program(iters: i64) -> arl_asm::Program {
    let mut pb = ProgramBuilder::new();
    let mut f = FunctionBuilder::new("main");
    let a = f.local(8);
    let b = f.local(8);
    let c = f.local(8);
    f.li(Gpr::S0, 0);
    f.li(Gpr::S1, iters);
    let top = f.new_label();
    let done = f.new_label();
    f.bind(top);
    f.br(BranchCond::Ge, Gpr::S0, Gpr::S1, done);
    f.store_local(Gpr::S0, a, 0);
    f.store_local(Gpr::S0, b, 0);
    f.store_local(Gpr::S0, c, 0);
    f.load_local(Gpr::T0, a, 0);
    f.load_local(Gpr::T1, b, 0);
    f.load_local(Gpr::T2, c, 0);
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    pb.link("main").unwrap()
}

#[test]
fn more_ports_never_hurt_a_bandwidth_bound_program() {
    let p = load_burst_program(500, 12);
    let two = TimingSim::run_program(&p, &MachineConfig::conventional(2, 2));
    let four = TimingSim::run_program(&p, &MachineConfig::conventional(4, 2));
    let sixteen = TimingSim::run_program(&p, &MachineConfig::conventional(16, 2));
    assert_eq!(two.instructions, four.instructions);
    assert!(
        four.cycles < two.cycles,
        "4 ports beat 2: {} vs {}",
        four.cycles,
        two.cycles
    );
    assert!(sixteen.cycles <= four.cycles);
    // With 12 independent loads per ~16 instructions, 2 ports cap the IPC
    // well below the width.
    assert!(
        two.ipc() < 4.0,
        "2-port IPC is bandwidth-capped: {}",
        two.ipc()
    );
}

#[test]
fn latency_bound_program_ignores_ports() {
    let p = dependent_chain_program(300);
    let two = TimingSim::run_program(&p, &MachineConfig::conventional(2, 2));
    let sixteen = TimingSim::run_program(&p, &MachineConfig::conventional(16, 2));
    let ratio = two.cycles as f64 / sixteen.cycles as f64;
    assert!(
        (0.98..1.02).contains(&ratio),
        "serial chains don't care about ports: {ratio}"
    );
    // The 8-deep dependent chain bounds IPC near 10/8 per iteration body.
    assert!(two.ipc() < 2.0);
}

#[test]
fn decoupling_helps_when_stack_and_data_compete() {
    // Mix: the load-burst program is all data-region; stack churn is all
    // stack. Interleave them by concatenating bodies in one program.
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("arr", 4096);
    let mut f = FunctionBuilder::new("main");
    let a = f.local(8);
    let b = f.local(8);
    f.li(Gpr::S0, 0);
    f.li(Gpr::S1, 400);
    let top = f.new_label();
    let done = f.new_label();
    f.bind(top);
    f.br(BranchCond::Ge, Gpr::S0, Gpr::S1, done);
    f.la_global(Gpr::T9, g);
    // 4 data loads + 2 stack stores + 2 stack loads per iteration.
    for i in 0..4 {
        let rd = Gpr::new((8 + i) as u8);
        f.load_ptr(rd, Gpr::T9, i as i16 * 8, Provenance::StaticVar);
    }
    f.store_local(Gpr::T0, a, 0);
    f.store_local(Gpr::T1, b, 0);
    f.load_local(Gpr::T2, a, 0);
    f.load_local(Gpr::T3, b, 0);
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    let p = pb.link("main").unwrap();

    let base = TimingSim::run_program(&p, &MachineConfig::baseline_2_0());
    let split = TimingSim::run_program(&p, &MachineConfig::decoupled(2, 2));
    let wide = TimingSim::run_program(&p, &MachineConfig::conventional(16, 2));
    assert!(
        split.cycles < base.cycles,
        "(2+2) must beat (2+0): {} vs {}",
        split.cycles,
        base.cycles
    );
    assert!(wide.cycles <= split.cycles, "(16+0) is the upper bound");
    // Steering on SP/FP addressing is exact here: no mispredictions.
    assert_eq!(split.region_mispredicts, 0);
    assert!(split.lvaq_refs > 0, "stack refs steered to the LVAQ");
}

#[test]
fn stack_churn_hits_the_lvc() {
    let p = stack_churn_program(300);
    let split = TimingSim::run_program(&p, &MachineConfig::decoupled(2, 2));
    let lvc = split.lvc.expect("decoupled machine has an LVC");
    assert!(lvc.accesses() > 0);
    assert!(
        lvc.hit_rate() > 0.95,
        "4KB LVC easily holds one frame: {}",
        lvc.hit_rate()
    );
}

#[test]
fn store_to_load_forwarding_is_counted() {
    let p = stack_churn_program(100);
    // Conventional machine: the store→load pairs on the same slots forward
    // in the LSQ when the load catches the store in flight.
    let base = TimingSim::run_program(&p, &MachineConfig::baseline_2_0());
    assert!(
        base.lsq_forwards > 0,
        "same-address store→load pairs must forward"
    );
    let split = TimingSim::run_program(&p, &MachineConfig::decoupled(2, 2));
    assert!(
        split.lvaq_forwards > 0,
        "in the decoupled machine the same pairs fast-forward in the LVAQ"
    );
}

#[test]
fn region_accuracy_is_high_on_revealed_code() {
    let p = stack_churn_program(200);
    let split = TimingSim::run_program(&p, &MachineConfig::decoupled(2, 2));
    assert!(split.region_checks > 0);
    assert!(split.region_accuracy() > 0.99);
}

#[test]
fn instructions_match_functional_run() {
    let p = load_burst_program(50, 4);
    let mut m = arl_sim::Machine::new(&p);
    let outcome = m.run(10_000_000).unwrap();
    assert!(outcome.exited);
    let stats = TimingSim::run_program(&p, &MachineConfig::baseline_2_0());
    assert_eq!(stats.instructions, m.metrics().instructions);
}

#[test]
fn value_prediction_speeds_up_strided_chains() {
    // Loop counter has stride 1: its consumers (the branch) are
    // predictable; the dependent-add chain itself is not strided (doubling)
    // so this program isolates the counter effect.
    let p = dependent_chain_program(300);
    let mut with = MachineConfig::conventional(16, 2);
    with.name = "vp-on".into();
    let mut without = MachineConfig::conventional(16, 2);
    without.value_prediction = false;
    without.name = "vp-off".into();
    let on = TimingSim::run_program(&p, &with);
    let off = TimingSim::run_program(&p, &without);
    assert!(on.value_predictions > 0);
    assert!(
        on.cycles <= off.cycles,
        "value prediction never hurts in this model: {} vs {}",
        on.cycles,
        off.cycles
    );
}

#[test]
fn squash_recovery_is_never_faster_than_selective_reissue() {
    // perl-like pointer traffic produces some region mispredictions; the
    // branch-style squash must cost at least as much as selective
    // re-issue (paper Section 4.3 presents squash as the cheaper-hardware,
    // slower-recovery option).
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("arr", 4096);
    let mut f = FunctionBuilder::new("main");
    let slot = f.local(64);
    f.li(Gpr::S0, 0);
    f.li(Gpr::S1, 600);
    let top = f.new_label();
    let done = f.new_label();
    f.bind(top);
    f.br(BranchCond::Ge, Gpr::S0, Gpr::S1, done);
    // Alternate a pointer between a global and a frame slot so its loads
    // mispredict now and then.
    let use_stack = f.new_label();
    let deref = f.new_label();
    f.andi(Gpr::T0, Gpr::S0, 1);
    f.bnez(Gpr::T0, use_stack);
    f.la_global(Gpr::T1, g);
    f.j(deref);
    f.bind(use_stack);
    f.addr_of_local(Gpr::T1, slot, 0);
    f.bind(deref);
    f.load_ptr(Gpr::T2, Gpr::T1, 0, Provenance::Mixed);
    f.store_ptr(Gpr::T2, Gpr::T1, 8, Provenance::Mixed);
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    let p = pb.link("main").unwrap();

    let mut selective = MachineConfig::decoupled(2, 2);
    selective.name = "sel".into();
    let mut squash = MachineConfig::decoupled(2, 2);
    squash.recovery = arl_timing::RecoveryMode::Squash;
    squash.name = "squash".into();
    let a = TimingSim::run_program(&p, &selective);
    let b = TimingSim::run_program(&p, &squash);
    assert!(a.region_mispredicts > 0, "the pointer flip-flops");
    assert_eq!(a.instructions, b.instructions);
    assert!(
        b.cycles >= a.cycles,
        "squash cannot beat selective re-issue: {} vs {}",
        b.cycles,
        a.cycles
    );
}

#[test]
fn banked_cache_sits_between_one_true_port_and_n_true_ports() {
    let p = load_burst_program(400, 12);
    let one = TimingSim::run_program(&p, &MachineConfig::conventional(1, 2));
    let four_true = TimingSim::run_program(&p, &MachineConfig::conventional(4, 2));
    let mut banked = MachineConfig::conventional(4, 2);
    banked.dcache = banked.dcache.with_banks(4);
    banked.name = "(4-bank)".into();
    let four_banked = TimingSim::run_program(&p, &banked);
    assert!(
        four_banked.cycles <= one.cycles,
        "4 banks beat 1 port: {} vs {}",
        four_banked.cycles,
        one.cycles
    );
    assert!(
        four_banked.cycles >= four_true.cycles,
        "bank conflicts cannot beat ideal ports: {} vs {}",
        four_banked.cycles,
        four_true.cycles
    );
}

#[test]
fn line_buffer_helps_a_single_ported_cache() {
    // Sequential loads hit the same 32-byte line repeatedly — the line
    // buffer's best case.
    let p = load_burst_program(400, 8);
    let single = TimingSim::run_program(&p, &MachineConfig::conventional(1, 2));
    let mut lb = MachineConfig::conventional(1, 2);
    lb.dcache = lb.dcache.with_line_buffer();
    lb.name = "(1+lb)".into();
    let buffered = TimingSim::run_program(&p, &lb);
    assert!(
        buffered.cycles < single.cycles,
        "the line buffer adds bandwidth: {} vs {}",
        buffered.cycles,
        single.cycles
    );
}

#[test]
fn write_buffer_relieves_commit_port_pressure() {
    let p = stack_churn_program(400);
    let without = TimingSim::run_program(&p, &MachineConfig::conventional(1, 2));
    let mut with = MachineConfig::conventional(1, 2);
    with.write_buffer = 8;
    with.name = "(1+wb8)".into();
    let buffered = TimingSim::run_program(&p, &with);
    assert!(
        buffered.cycles <= without.cycles,
        "a write buffer never hurts: {} vs {}",
        buffered.cycles,
        without.cycles
    );
    assert_eq!(buffered.instructions, without.instructions);
}

#[test]
fn bounded_mshrs_never_help() {
    let p = load_burst_program(300, 12);
    let unbounded = TimingSim::run_program(&p, &MachineConfig::conventional(4, 2));
    let mut tight = MachineConfig::conventional(4, 2);
    tight.mshrs = 1;
    tight.name = "(4)mshr1".into();
    let bounded = TimingSim::run_program(&p, &tight);
    assert!(
        bounded.cycles >= unbounded.cycles,
        "fewer MSHRs cannot speed things up: {} vs {}",
        bounded.cycles,
        unbounded.cycles
    );
}

/// A pointer that alternates between a stack local and a global every
/// iteration, dereferenced through a scratch register so the static rules
/// cannot classify it (rule 4 → ARPT steering on decoupled machines).
fn alternating_region_program(iters: i64) -> arl_asm::Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("g", 64);
    let mut f = FunctionBuilder::new("main");
    let a = f.local(8);
    f.li(Gpr::S0, 0);
    f.li(Gpr::S1, iters);
    let top = f.new_label();
    let even = f.new_label();
    let after = f.new_label();
    let done = f.new_label();
    f.bind(top);
    f.br(BranchCond::Ge, Gpr::S0, Gpr::S1, done);
    f.andi(Gpr::T1, Gpr::S0, 1);
    f.beqz(Gpr::T1, even);
    f.addr_of_local(Gpr::T9, a, 0);
    f.j(after);
    f.bind(even);
    f.la_global(Gpr::T9, g);
    f.bind(after);
    f.load_ptr(Gpr::T0, Gpr::T9, 0, Provenance::Mixed);
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    pb.link("main").unwrap()
}

#[test]
fn every_region_mispredict_is_recovered() {
    let p = alternating_region_program(300);
    let split = TimingSim::run_program(&p, &MachineConfig::decoupled(2, 2));
    assert!(
        split.region_mispredicts > 0,
        "alternating regions must mispredict at least during warmup"
    );
    // Selective re-issue: every wrongly-steered reference is detected,
    // re-dispatched on the correct path, and committed — none lost.
    assert_eq!(split.recoveries, split.region_mispredicts);

    let mut squash = MachineConfig::decoupled(2, 2);
    squash.recovery = arl_timing::RecoveryMode::Squash;
    squash.name = "(2+2)sq".into();
    let squashed = TimingSim::run_program(&p, &squash);
    assert!(squashed.recoveries > 0);
    // A squash can replay a verification, so detections may exceed the
    // distinct recovered references — but never the other way around.
    assert!(squashed.recoveries <= squashed.region_mispredicts);
    assert_eq!(squashed.instructions, split.instructions);
}

#[test]
fn conventional_machines_never_recover() {
    let p = alternating_region_program(100);
    let base = TimingSim::run_program(&p, &MachineConfig::baseline_2_0());
    assert_eq!(base.recoveries, 0);
    assert_eq!(base.region_mispredicts, 0);
    assert!(base.faults_applied.is_empty());
}

#[test]
fn arpt_soft_error_never_corrupts_function() {
    use arl_timing::{FaultKind, TimingFault};
    let p = alternating_region_program(200);
    let clean = TimingSim::run_program(&p, &MachineConfig::decoupled(2, 2));
    let mut faulty_config = MachineConfig::decoupled(2, 2);
    for id in 0..4u32 {
        faulty_config.faults.push(TimingFault {
            id,
            kind: FaultKind::ArptSoftError {
                slot: 1000 + id as u64,
                mask: 0b01,
                at_lookup: 10 + id as u64 * 7,
            },
        });
    }
    let faulty = TimingSim::run_program(&p, &faulty_config);
    // The ARPT is a pure steering hint: corrupting it can only change
    // timing, never the committed instruction stream.
    assert_eq!(faulty.instructions, clean.instructions);
    assert_eq!(faulty.mem_refs, clean.mem_refs);
    assert_eq!(faulty.peak_rss_bytes, clean.peak_rss_bytes);
    // All four strikes fired (the program makes > 38 dynamic lookups) and
    // are attributed in ascending id order.
    assert_eq!(faulty.faults_applied, vec![0, 1, 2, 3]);
    // A wrong steer caused by the strike is detected and recovered, so
    // the invariant holds under fault too.
    assert_eq!(faulty.recoveries, faulty.region_mispredicts);
}

#[test]
fn port_blackout_slows_but_never_corrupts() {
    use arl_timing::{FaultKind, Route, TimingFault};
    let p = load_burst_program(200, 8);
    let clean = TimingSim::run_program(&p, &MachineConfig::baseline_2_0());
    let mut faulty_config = MachineConfig::baseline_2_0();
    faulty_config.faults.push(TimingFault {
        id: 42,
        kind: FaultKind::PortBlackout {
            route: Route::DataCache,
            start_cycle: 10,
            cycles: 100,
        },
    });
    let faulty = TimingSim::run_program(&p, &faulty_config);
    assert_eq!(faulty.instructions, clean.instructions);
    assert_eq!(faulty.mem_refs, clean.mem_refs);
    assert!(
        faulty.cycles >= clean.cycles + 90,
        "a 100-cycle blackout must cost most of its window: {} vs {}",
        faulty.cycles,
        clean.cycles
    );
    assert_eq!(faulty.faults_applied, vec![42]);
}

#[test]
fn latency_spike_slows_but_never_corrupts() {
    use arl_timing::{FaultKind, Route, TimingFault};
    let p = load_burst_program(200, 8);
    let clean = TimingSim::run_program(&p, &MachineConfig::baseline_2_0());
    let mut faulty_config = MachineConfig::baseline_2_0();
    faulty_config.faults.push(TimingFault {
        id: 9,
        kind: FaultKind::LatencySpike {
            route: Route::DataCache,
            start_cycle: 5,
            cycles: 200,
            extra: 30,
        },
    });
    let faulty = TimingSim::run_program(&p, &faulty_config);
    assert_eq!(faulty.instructions, clean.instructions);
    assert!(faulty.cycles > clean.cycles);
    assert_eq!(faulty.faults_applied, vec![9]);
}
