//! Property tests pinning the event core's ready-list dispatch/issue and
//! store index against the brute-force model: the legacy reference core,
//! which finds ready work by scanning every ROB slot every cycle and
//! resolves store-to-load visibility by walking the whole window. Any
//! divergence in `SimStats` between the two cores on the same program is
//! a bug in the appointment books, the head-contiguous commit prefix, the
//! store index, or the memory stage's park/wake paths — exactly the
//! structures the event core's hot loop trusts.

#![cfg(feature = "proptest-tests")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use arl_asm::{FunctionBuilder, Program, ProgramBuilder, Provenance};
use arl_isa::Gpr;
use arl_sim::Machine;
use arl_timing::{reference, MachineConfig, NullProbe, RecoveryMode, TimingSim};
use proptest::prelude::*;

/// One random instruction "atom" for the generated program body.
#[derive(Clone, Copy, Debug)]
enum Atom {
    Alu(u8, u8, u8),
    LoadGlobal(u8, i16),
    StoreGlobal(u8, i16),
    LoadLocal(u8, u8),
    StoreLocal(u8, u8),
    /// A store to the global array whose base register is produced late,
    /// so its address stays unknown while younger loads wait behind it.
    StoreLate(u8, i16, LateBase),
    /// A load through a `Provenance::Mixed` pointer that switches between
    /// a stack buffer and the global array every `2^phase` iterations: the
    /// ARPT mispredicts at each switch and verification re-routes it.
    LoadMixed(u8, i16, u8),
    /// A store through the same switching pointer, so stores re-route
    /// between the LSQ and the LVAQ block chains.
    StoreMixed(u8, i16, u8),
}

/// What produces a [`Atom::StoreLate`] base register.
#[derive(Clone, Copy, Debug)]
enum LateBase {
    /// A load of the array pointer saved in a frame slot.
    Load,
    /// The array pointer times one (5-cycle multiply).
    Mul,
    /// The array pointer divided by one (20-cycle divide).
    Div,
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

/// The park/wake mix: late-address stores and mispredicted, re-routing
/// loads and stores over one narrow address window, so loads park behind
/// unknown store addresses, behind missing store data, and on stores that
/// leave their block chain.
fn wake_path_atom() -> impl Strategy<Value = Atom> {
    let late = prop_oneof![
        Just(LateBase::Load),
        Just(LateBase::Mul),
        Just(LateBase::Div)
    ];
    prop_oneof![
        1 => (8u8..16, 8u8..16, 8u8..16).prop_map(|(a, b, c)| Atom::Alu(a, b, c)),
        2 => (8u8..16, 0i16..8).prop_map(|(r, o)| Atom::LoadGlobal(r, o * 8)),
        1 => (8u8..16, 0i16..8).prop_map(|(r, o)| Atom::StoreGlobal(r, o * 8)),
        2 => (8u8..16, 0i16..8, late).prop_map(|(r, o, b)| Atom::StoreLate(r, o * 8, b)),
        2 => (8u8..16, 0i16..8, 0u8..3).prop_map(|(r, o, p)| Atom::LoadMixed(r, o * 8, p)),
        2 => (8u8..16, 0i16..8, 0u8..3).prop_map(|(r, o, p)| Atom::StoreMixed(r, o * 8, p)),
        1 => (8u8..16, 0u8..4).prop_map(|(r, s)| Atom::LoadLocal(r, s)),
    ]
}

/// Builds a straight-line program from the atoms, repeated via a loop so
/// the window wraps and the commit prefix is exercised past one ROB fill.
///
/// Registers: atoms compute in T0–T7; S0/S1 count iterations, T9 holds the
/// global array (S2 copies it into a frame slot once), S3 the constant 1,
/// S4 the stack buffer, and S5–S7 are atom scratch.
fn build_program(atoms: &[Atom], iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("arr", 64 * 8);
    let mut f = FunctionBuilder::new("main");
    let slots = [f.local(8), f.local(8), f.local(8), f.local(8)];
    let saved_ptr = f.local(8);
    let buf = f.local(64);
    f.la_global(Gpr::S2, g);
    f.store_local(Gpr::S2, saved_ptr, 0);
    f.li(Gpr::S3, 1);
    f.addr_of_local(Gpr::S4, buf, 0);
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
            Atom::StoreLate(r, o, base) => {
                match base {
                    LateBase::Load => f.load_local(Gpr::S5, saved_ptr, 0),
                    LateBase::Mul => f.mul(Gpr::S5, Gpr::T9, Gpr::S3),
                    LateBase::Div => f.div(Gpr::S5, Gpr::T9, Gpr::S3),
                }
                f.store_ptr(Gpr::new(r), Gpr::S5, o, Provenance::StaticVar);
            }
            Atom::LoadMixed(r, o, phase) => {
                switching_pointer(&mut f, phase);
                f.load_ptr(Gpr::new(r), Gpr::S7, o, Provenance::Mixed);
            }
            Atom::StoreMixed(r, o, phase) => {
                switching_pointer(&mut f, phase);
                f.store_ptr(Gpr::new(r), Gpr::S7, o, Provenance::Mixed);
            }
        }
    }
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    pb.link("main").expect("generated program links")
}

/// Sets S7 to the stack buffer (S4) when bit `phase` of the iteration
/// count is set, else to the global array (T9) — branch-free, so the
/// branch history gives the ARPT no hint of the switch.
fn switching_pointer(f: &mut FunctionBuilder, phase: u8) {
    f.srli(Gpr::S6, Gpr::S0, i16::from(phase));
    f.andi(Gpr::S6, Gpr::S6, 1);
    f.sub(Gpr::S6, Gpr::ZERO, Gpr::S6);
    f.xor(Gpr::S7, Gpr::T9, Gpr::S4);
    f.and(Gpr::S7, Gpr::S7, Gpr::S6);
    f.xor(Gpr::S7, Gpr::T9, Gpr::S7);
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

/// The wake-path atoms do reach the paths they target: on a fixed mix,
/// the switching pointers make the ARPT mispredict and stores re-route,
/// and loads forward from stores they waited on — while both cores still
/// agree.
#[test]
fn wake_path_atoms_reroute_and_forward() {
    let atoms = [
        Atom::StoreMixed(8, 0, 0),
        Atom::LoadMixed(9, 0, 0),
        Atom::StoreLate(10, 8, LateBase::Load),
        Atom::LoadGlobal(11, 8),
        Atom::StoreLate(12, 16, LateBase::Div),
        Atom::LoadGlobal(13, 16),
        Atom::StoreMixed(14, 24, 1),
        Atom::LoadMixed(15, 24, 1),
    ];
    let p = build_program(&atoms, 40);
    let mut squash = MachineConfig::decoupled(2, 2);
    squash.recovery = RecoveryMode::Squash;
    for config in [MachineConfig::decoupled(2, 2), squash] {
        let stats = TimingSim::run_program(&p, &config);
        assert!(stats.region_mispredicts > 0, "{stats:?}");
        assert!(stats.lsq_forwards + stats.lvaq_forwards > 0, "{stats:?}");
        assert_cores_agree(&p, config);
    }
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

    /// The memory stage's park/wake paths — loads parked behind an
    /// unknown store address, behind a store's missing data, and on stores
    /// that re-route out of their block chain, plus port retries that skip
    /// re-proving their ordering — wake exactly when the every-cycle
    /// polling scan would start the load, with and without squash recovery.
    #[test]
    fn parked_loads_match_brute_force_scan(
        atoms in proptest::collection::vec(wake_path_atom(), 4..32),
    ) {
        let p = build_program(&atoms, 40);
        assert_cores_agree(&p, MachineConfig::conventional(1, 1));
        assert_cores_agree(&p, MachineConfig::decoupled(2, 2));
        let mut squash = MachineConfig::decoupled(2, 2);
        squash.recovery = RecoveryMode::Squash;
        assert_cores_agree(&p, squash);
    }
}
