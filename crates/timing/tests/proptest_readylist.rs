//! Property tests pinning the event core's ready-list dispatch/issue and
//! store index against the brute-force model: the legacy reference core,
//! which finds ready work by scanning every ROB slot every cycle and
//! resolves store-to-load visibility by walking the whole window. Any
//! divergence in `SimStats` between the two cores on the same program is
//! a bug in the appointment books, the head-contiguous commit prefix, or
//! the store index — exactly the structures the event core's hot loop
//! trusts.

#![cfg(feature = "proptest-tests")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use arl_asm::{FunctionBuilder, Program, ProgramBuilder, Provenance};
use arl_isa::Gpr;
use arl_sim::Machine;
use arl_timing::{reference, MachineConfig, NullProbe, TimingSim};
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

/// A store-heavy atom mix: mostly stores aliasing a narrow address window
/// with loads right behind them, the adversarial case for the dispatch
/// store index (block-keyed tails plus the unknown-address spine) and for
/// the pruned commit scan's store unlinking.
fn store_heavy_atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        1 => (8u8..16, 8u8..16, 8u8..16).prop_map(|(a, b, c)| Atom::Alu(a, b, c)),
        2 => (8u8..16, 0i16..8).prop_map(|(r, o)| Atom::LoadGlobal(r, o * 8)),
        4 => (8u8..16, 0i16..8).prop_map(|(r, o)| Atom::StoreGlobal(r, o * 8)),
        1 => (8u8..16, 0u8..4).prop_map(|(r, s)| Atom::LoadLocal(r, s)),
        2 => (8u8..16, 0u8..4).prop_map(|(r, s)| Atom::StoreLocal(r, s)),
    ]
}

/// Builds a straight-line program from the atoms, repeated via a loop so
/// the window wraps and the commit prefix is exercised past one ROB fill.
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

/// Runs `program` through both cores under `config` and asserts the full
/// statistics blocks are identical.
fn assert_cores_agree(program: &Program, config: MachineConfig) {
    let event = TimingSim::run_program(program, &config);
    let (legacy, _) = reference::run_probed(&mut Machine::new(program), &config, NullProbe)
        .expect("functional execution");
    assert_eq!(
        event, legacy,
        "event core diverged from the brute-force scan model"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ready-list dispatch/issue and the pruned commit scan agree with the
    /// every-cycle linear scans on arbitrary atom programs, across the
    /// configs whose issue/memory behavior differs most.
    #[test]
    fn ready_list_matches_brute_force_scan(atoms in proptest::collection::vec(atom(), 1..24)) {
        let p = build_program(&atoms, 40);
        assert_cores_agree(&p, MachineConfig::decoupled(2, 2));
        assert_cores_agree(&p, MachineConfig::conventional(2, 2));
    }

    /// The store index (block-keyed store tails plus the unknown-address
    /// spine) resolves forwarding and ordering exactly like the legacy
    /// full-window walk under adversarial store pressure.
    #[test]
    fn store_index_matches_brute_force_scan(
        atoms in proptest::collection::vec(store_heavy_atom(), 4..32),
    ) {
        let p = build_program(&atoms, 40);
        assert_cores_agree(&p, MachineConfig::decoupled(2, 2));
        // A narrow machine keeps stores in the window longer, maximizing
        // index occupancy and unknown-address blocking.
        assert_cores_agree(&p, MachineConfig::conventional(1, 1));
    }
}
