//! Property tests of the cycle-level model over randomly generated (but
//! valid) straight-line programs: resource monotonicity and conservation
//! invariants.

#![cfg(feature = "proptest-tests")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use arl_asm::{FunctionBuilder, Program, ProgramBuilder, Provenance};
use arl_isa::Gpr;
use arl_timing::{MachineConfig, TimingSim};
use proptest::prelude::*;

/// One random instruction "atom" for the generated program body.
#[derive(Clone, Copy, Debug)]
enum Atom {
    Alu(u8, u8, u8),
    LoadGlobal(u8, i16),
    StoreGlobal(u8, i16),
    LoadLocal(u8, u8),
    StoreLocal(u8, u8),
}

fn atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (8u8..16, 8u8..16, 8u8..16).prop_map(|(a, b, c)| Atom::Alu(a, b, c)),
        (8u8..16, 0i16..64).prop_map(|(r, o)| Atom::LoadGlobal(r, o * 8)),
        (8u8..16, 0i16..64).prop_map(|(r, o)| Atom::StoreGlobal(r, o * 8)),
        (8u8..16, 0u8..4).prop_map(|(r, s)| Atom::LoadLocal(r, s)),
        (8u8..16, 0u8..4).prop_map(|(r, s)| Atom::StoreLocal(r, s)),
    ]
}

/// Builds a straight-line program from the atoms, repeated via a loop so
/// the simulation has some length.
fn build_program(atoms: &[Atom], iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("arr", 64 * 8);
    let mut f = FunctionBuilder::new("main");
    let slots = [f.local(8), f.local(8), f.local(8), f.local(8)];
    f.li(Gpr::S0, 0);
    f.li(Gpr::S1, iters);
    let top = f.new_label();
    let done = f.new_label();
    f.bind(top);
    f.br(arl_isa::BranchCond::Ge, Gpr::S0, Gpr::S1, done);
    f.la_global(Gpr::T9, g);
    for &a in atoms {
        match a {
            Atom::Alu(d, s, t) => f.add(Gpr::new(d), Gpr::new(s), Gpr::new(t)),
            Atom::LoadGlobal(r, o) => f.load_ptr(Gpr::new(r), Gpr::T9, o, Provenance::StaticVar),
            Atom::StoreGlobal(r, o) => f.store_ptr(Gpr::new(r), Gpr::T9, o, Provenance::StaticVar),
            Atom::LoadLocal(r, s) => f.load_local(Gpr::new(r), slots[s as usize], 0),
            Atom::StoreLocal(r, s) => f.store_local(Gpr::new(r), slots[s as usize], 0),
        }
    }
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    pb.link("main").expect("generated program links")
}

/// Deterministically generates `n` random-but-fixed atom programs.
fn seeded_programs(n: usize) -> Vec<Program> {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let len = 1 + (next() % 20) as usize;
            let atoms: Vec<Atom> = (0..len)
                .map(|_| {
                    let r = (8 + next() % 8) as u8;
                    match next() % 5 {
                        0 => Atom::Alu(r, (8 + next() % 8) as u8, (8 + next() % 8) as u8),
                        1 => Atom::LoadGlobal(r, (next() % 64) as i16 * 8),
                        2 => Atom::StoreGlobal(r, (next() % 64) as i16 * 8),
                        3 => Atom::LoadLocal(r, (next() % 4) as u8),
                        _ => Atom::StoreLocal(r, (next() % 4) as u8),
                    }
                })
                .collect();
            build_program(&atoms, 60)
        })
        .collect()
}

/// Greedy, oldest-first arbitration is not *strictly* monotone in
/// resources — a well-known cycle-simulator (and real-machine) anomaly —
/// so resource monotonicity is asserted in aggregate over a fixed random
/// program population, with a bounded per-program inversion.
#[test]
fn ports_are_monotone_in_aggregate() {
    let programs = seeded_programs(30);
    let mut totals = [0u64; 4];
    for p in &programs {
        let mut machine = arl_sim::Machine::new(p);
        machine.run(10_000_000).unwrap();
        let mut prev = u64::MAX;
        for (i, ports) in [1usize, 2, 4, 16].into_iter().enumerate() {
            let stats = TimingSim::run_program(p, &MachineConfig::conventional(ports, 2));
            assert_eq!(stats.instructions, machine.metrics().instructions);
            assert!(
                stats.cycles as f64 <= prev as f64 * 1.40,
                "{ports} ports catastrophically slower: {} > {}",
                stats.cycles,
                prev
            );
            totals[i] += stats.cycles;
            prev = stats.cycles;
        }
    }
    assert!(
        totals[1] <= totals[0] && totals[2] <= totals[1] && totals[3] <= totals[2],
        "aggregate cycles must fall with port count: {totals:?}"
    );
}

/// Same aggregate treatment for ROB capacity.
#[test]
fn rob_size_is_monotone_in_aggregate() {
    let programs = seeded_programs(30);
    let mut totals = [0u64; 3];
    for p in &programs {
        let mut prev = u64::MAX;
        for (i, rob) in [32usize, 64, 256].into_iter().enumerate() {
            let mut config = MachineConfig::baseline_2_0();
            config.rob_size = rob;
            config.name = format!("rob{rob}");
            let stats = TimingSim::run_program(p, &config);
            assert!(
                stats.cycles as f64 <= prev as f64 * 1.40,
                "ROB {rob} catastrophically slower: {} > {}",
                stats.cycles,
                prev
            );
            totals[i] += stats.cycles;
            prev = stats.cycles;
        }
    }
    assert!(
        totals[1] <= totals[0] && totals[2] <= totals[1],
        "aggregate cycles must fall with ROB size: {totals:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The decoupled machine is deterministic, conserves instructions, and
    /// steers every stack reference it predicted to the LVAQ.
    #[test]
    fn decoupled_runs_are_deterministic(atoms in proptest::collection::vec(atom(), 1..24)) {
        let p = build_program(&atoms, 40);
        let config = MachineConfig::decoupled(2, 2);
        let a = TimingSim::run_program(&p, &config);
        let b = TimingSim::run_program(&p, &config);
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.lvaq_refs, b.lvaq_refs);
        prop_assert_eq!(a.region_mispredicts, b.region_mispredicts);
        prop_assert_eq!(a.mem_refs, a.region_checks, "every ref is verified");
        // Frame accesses exist iff the atom list contains local ops.
        let has_locals = atoms.iter().any(|a| matches!(a, Atom::LoadLocal(..) | Atom::StoreLocal(..)));
        if has_locals {
            prop_assert!(a.lvaq_refs > 0);
        }
    }
}
