//! Steady-state allocation stability of the replay hot loop: once the
//! simulator's scratch buffers (appointment books, retry lists, wheel
//! overflow, store index) have warmed up, running *more instructions*
//! must not allocate proportionally more. A per-cycle or per-instruction
//! allocation in the busy loop shows up here as an allocation count that
//! scales with trace length — the regression this test exists to catch.
//!
//! The whole test binary runs under a counting `#[global_allocator]`;
//! each measurement replays a pre-collected entry slice so capture-side
//! allocations stay outside the measured window. The counter is global,
//! so each test holds [`MEASURING`] for its whole body: run in parallel,
//! the tests would otherwise count each other's allocations.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use arl_asm::{Program, ProgramBuilder, Provenance};
use arl_isa::Gpr;
use arl_sim::{EntrySliceSource, Machine, TraceEntry, TraceSource};
use arl_timing::{reference, MachineConfig, NullProbe, SimStats, TimingSim};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Serializes the measuring tests (see the module docs).
static MEASURING: Mutex<()> = Mutex::new(());

/// Takes the measurement lock; a panicking holder does not poison it for
/// the other test.
fn measuring() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A mixed ALU/load/store loop body — enough memory traffic to keep the
/// store index, LSQ/LVAQ queues, and write buffer all occupied.
fn looped_program(iters: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let g = pb.global_zeroed("arr", 64 * 8);
    let mut f = arl_asm::FunctionBuilder::new("main");
    let slot = f.local(8);
    f.li(Gpr::S0, 0);
    f.li(Gpr::S1, iters);
    let top = f.new_label();
    let done = f.new_label();
    f.bind(top);
    f.br(arl_isa::BranchCond::Ge, Gpr::S0, Gpr::S1, done);
    f.la_global(Gpr::T9, g);
    f.load_ptr(Gpr::T0, Gpr::T9, 0, Provenance::StaticVar);
    f.add(Gpr::T1, Gpr::T0, Gpr::S0);
    f.store_ptr(Gpr::T1, Gpr::T9, 8, Provenance::StaticVar);
    f.store_local(Gpr::T1, slot, 0);
    f.load_local(Gpr::T2, slot, 0);
    f.add(Gpr::T3, Gpr::T2, Gpr::T1);
    f.addi(Gpr::S0, Gpr::S0, 1);
    f.j(top);
    f.bind(done);
    pb.add_function(f);
    pb.link("main").expect("program links")
}

/// Collects the full entry stream of `program` by running the functional
/// machine as a `TraceSource`.
fn collect_entries(program: &Program) -> Vec<TraceEntry> {
    let mut machine = Machine::new(program);
    let mut entries = Vec::new();
    while let Some(e) = machine.next_entry().expect("functional execution") {
        entries.push(e);
    }
    entries
}

/// Allocations performed while `run` replays `entries` through a fresh
/// sim.
fn allocs_for(
    entries: &[TraceEntry],
    config: &MachineConfig,
    run: fn(&[TraceEntry], &MachineConfig) -> SimStats,
) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let stats = run(entries, config);
    assert_eq!(stats.instructions, entries.len() as u64);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Replay allocation counts must be (near-)independent of trace length:
/// the short and 4x-longer replays may differ only by the handful of
/// amortized-doubling growths of bounded scratch structures, never by
/// anything proportional to the extra ~30k instructions.
#[test]
fn hot_loop_allocations_do_not_scale_with_trace_length() {
    let _guard = measuring();
    let short = collect_entries(&looped_program(1_000));
    let long = collect_entries(&looped_program(4_000));
    assert!(long.len() > 3 * short.len());

    for (name, config) in [
        ("decoupled", MachineConfig::decoupled(2, 2)),
        ("conventional", MachineConfig::conventional(2, 2)),
    ] {
        // Warm-up run so lazily initialized process state (stdio locks,
        // thread-local buffers) does not pollute the measurement.
        let _ = allocs_for(&short, &config, TimingSim::run_trace);
        let a_short = allocs_for(&short, &config, TimingSim::run_trace);
        let a_long = allocs_for(&long, &config, TimingSim::run_trace);
        // Each run pays the same fixed construction cost (ROB, books,
        // wheel, index maps). The longer run may add a few extra capacity
        // doublings; 64 is orders of magnitude below any per-instruction
        // or per-cycle leak (~30k instructions / ~40k cycles of headroom).
        assert!(
            a_long <= a_short + 64,
            "{name}: replaying 4x the instructions cost {a_long} allocations \
             vs {a_short} — the hot loop is allocating per cycle"
        );
    }
}

/// The legacy reference core through its full-run entry point.
fn reference_run(entries: &[TraceEntry], config: &MachineConfig) -> SimStats {
    reference::run_probed(&mut EntrySliceSource::new(entries), config, NullProbe)
        .expect("slice sources cannot fail")
        .0
}

/// The same stability bound holds for the legacy reference core since its
/// memory-stage action list moved into persistent scratch; it guards
/// `bench_speed`'s speedup denominator against allocator noise.
#[test]
fn legacy_hot_loop_allocations_do_not_scale_with_trace_length() {
    let _guard = measuring();
    let short = collect_entries(&looped_program(1_000));
    let long = collect_entries(&looped_program(4_000));

    let config = MachineConfig::decoupled(2, 2);
    let _ = allocs_for(&short, &config, reference_run);
    let a_short = allocs_for(&short, &config, reference_run);
    let a_long = allocs_for(&long, &config, reference_run);
    assert!(
        a_long <= a_short + 64,
        "legacy: replaying 4x the instructions cost {a_long} allocations \
         vs {a_short} — the memory-stage scratch hoist regressed"
    );
}
