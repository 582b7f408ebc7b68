//! Cross-crate integration: every workload runs end to end through the
//! functional simulator with all Section 3 profilers attached, and the
//! collected statistics are internally consistent.

use arl::mem::Region;
use arl::sim::{Machine, RegionProfiler, SlidingWindowProfiler, WorkloadCharacter};
use arl::workloads::{suite, Scale};

const CAP: u64 = 100_000_000;

#[test]
fn all_workloads_run_to_completion_and_are_deterministic() {
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let mut a = Machine::new(&program);
        let oa = a.run(CAP).expect("first run");
        assert!(oa.exited, "{} must exit", spec.name);
        let mut b = Machine::new(&program);
        let ob = b.run(CAP).expect("second run");
        assert_eq!(oa.retired, ob.retired, "{} determinism", spec.name);
        assert_eq!(a.output(), b.output(), "{} output determinism", spec.name);
        assert!(
            oa.retired > 10_000,
            "{} must do real work: {}",
            spec.name,
            oa.retired
        );
    }
}

#[test]
fn profiler_totals_are_consistent() {
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let mut m = Machine::new(&program);
        let mut regions = RegionProfiler::new();
        let mut character = WorkloadCharacter::default();
        m.run_with(CAP, |e| {
            regions.observe(e);
            character.observe(e);
        })
        .expect("runs");
        let b = regions.breakdown();
        // Dynamic refs attributed to classes must equal the load+store count.
        assert_eq!(
            b.dynamic_total(),
            character.references(),
            "{}: class totals must cover every reference",
            spec.name
        );
        // Per-region window means times instruction count roughly recover
        // the per-region totals (window mean = refs/instr × window size).
        assert_eq!(
            character.per_region.iter().sum::<u64>(),
            character.references(),
            "{}: regions partition the references",
            spec.name
        );
        assert!(b.static_total() > 0);
    }
}

#[test]
fn access_region_locality_holds_for_every_workload() {
    // The paper's headline observation (Figure 2): the overwhelming
    // majority of static memory instructions are single-region, and the
    // stack-only class is the largest on average (>50% in the paper).
    let (mut stack_share_sum, mut n) = (0.0, 0);
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let mut m = Machine::new(&program);
        let mut regions = RegionProfiler::new();
        m.run_with(CAP, |e| regions.observe(e)).expect("runs");
        let b = regions.breakdown();
        assert!(
            b.static_multi_region_fraction() < 0.10,
            "{}: single-region locality must dominate ({:.2}% multi)",
            spec.name,
            100.0 * b.static_multi_region_fraction()
        );
        // Spills/locals exist everywhere, even in leaf-heavy code.
        assert!(
            b.static_fraction("S") > 0.03,
            "{}: stack class present",
            spec.name
        );
        stack_share_sum += b.static_fraction("S");
        n += 1;
    }
    assert!(
        stack_share_sum / n as f64 > 0.4,
        "stack-only is the dominant static class on average: {}",
        stack_share_sum / n as f64
    );
}

#[test]
fn fp_workloads_have_negligible_heap_traffic() {
    for spec in suite().into_iter().filter(|s| s.is_fp) {
        let program = spec.build(Scale::tiny());
        let mut m = Machine::new(&program);
        let mut windows = SlidingWindowProfiler::new();
        m.run_with(CAP, |e| windows.observe(e)).expect("runs");
        let w32 = &windows.stats()[0];
        assert!(
            w32.mean(Region::Heap) < 0.25,
            "{}: FP programs barely touch the heap ({:.2})",
            spec.name,
            w32.mean(Region::Heap)
        );
    }
}

#[test]
fn window_doubling_doubles_the_means() {
    // Table 2's W64 means are ≈ 2 × W32 means (density is scale-free).
    let spec = arl::workloads::workload("su2cor").unwrap();
    let program = spec.build(Scale::tiny());
    let mut m = Machine::new(&program);
    let mut windows = SlidingWindowProfiler::new();
    m.run_with(CAP, |e| windows.observe(e)).expect("runs");
    let stats = windows.stats();
    for r in Region::DATA_REGIONS {
        let (m32, m64) = (stats[0].mean(r), stats[1].mean(r));
        if m32 > 0.5 {
            let ratio = m64 / m32;
            assert!(
                (1.9..2.1).contains(&ratio),
                "window-64 mean should double window-32: {r} {ratio}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Golden shape-regression tests: the paper's headline curves, pinned at
// tiny scale on the bench crate's 2-worker pool (so the parallel path is
// exercised too), driving the simulators directly. These check *shapes* — orderings and
// floors that must survive any simulator change — not exact values.
// ---------------------------------------------------------------------------

#[test]
fn golden_figure2_shape_single_region_above_90_percent() {
    // Figure 2: in every workload, >90% of static memory instructions
    // touch exactly one region class over the whole run.
    let breakdowns = arl_bench::Pool::new(2).map(&suite(), |&spec| {
        let program = spec.build(Scale::tiny());
        let mut profiler = RegionProfiler::new();
        Machine::new(&program)
            .run_with(CAP, |e| profiler.observe(e))
            .expect("runs");
        (spec, profiler.breakdown())
    });
    assert_eq!(breakdowns.len(), suite().len());
    for (spec, breakdown) in &breakdowns {
        let single = 1.0 - breakdown.static_multi_region_fraction();
        assert!(
            single > 0.90,
            "{}: single-region share {:.2}% must stay above 90%",
            spec.name,
            100.0 * single
        );
    }
}

#[test]
fn golden_figure4_shape_hybrid_accuracy_floors() {
    // Figure 4: the 1BIT-HYBRID scheme's accuracy floors. The paper
    // reports 99.89% (int) / 100.0% (FP) at full scale; tiny-scale runs
    // amplify cold misses, so the pinned floors are: >99.8% FP average,
    // >99% suite average, >96% for every individual workload.
    use arl::core::{Capacity, Context, EvalConfig, Evaluator, PredictorKind};
    let config = EvalConfig {
        kind: PredictorKind::OneBit,
        context: Context::HYBRID_8_24,
        capacity: Capacity::Unlimited,
        hints: None,
    };
    let accs = arl_bench::Pool::new(2).map(&suite(), |&spec| {
        let program = spec.build(Scale::tiny());
        let mut evaluator = Evaluator::new(config.clone());
        Machine::new(&program)
            .run_with(CAP, |e| evaluator.observe(e))
            .expect("runs");
        (spec, evaluator.stats().accuracy())
    });
    let mut sums = [0.0f64; 2];
    let mut counts = [0u32; 2];
    for (spec, acc) in &accs {
        assert!(
            *acc > 0.96,
            "{}: HYBRID accuracy {:.2}% under the 96% floor",
            spec.name,
            100.0 * acc
        );
        sums[spec.is_fp as usize] += acc;
        counts[spec.is_fp as usize] += 1;
    }
    let fp_avg = sums[1] / counts[1] as f64;
    let suite_avg = (sums[0] + sums[1]) / (counts[0] + counts[1]) as f64;
    assert!(
        fp_avg > 0.998,
        "FP-average HYBRID accuracy {:.3}% under the 99.8% floor",
        100.0 * fp_avg
    );
    assert!(
        suite_avg > 0.99,
        "suite-average HYBRID accuracy {:.3}% under the 99% floor",
        100.0 * suite_avg
    );
}

#[test]
fn golden_figure8_shape_config_ordering() {
    // Figure 8: the decoupled (3+3) design and the ideal 16-ported cache
    // both beat the (2+0) baseline on every workload, and (3+3) reaches
    // the (16+0) performance level (the paper's headline result). At tiny
    // scale (3+3) can even edge past (16+0) — 1-cycle LVC hits beat cache
    // ports — so the pinned ordering is baseline < both, with (3+3)
    // within 5% of (16+0) on the suite-average speedup.
    use arl::timing::{MachineConfig, TimingSim};
    let configs = [
        MachineConfig::baseline_2_0(),
        MachineConfig::decoupled(3, 3),
        MachineConfig::conventional(16, 2),
    ];
    let specs = suite();
    let cells: Vec<_> = specs
        .iter()
        .flat_map(|spec| configs.iter().map(move |c| (*spec, c.clone())))
        .collect();
    let stats = arl_bench::Pool::new(2).map(&cells, |(spec, config)| {
        let program = spec.build(Scale::tiny());
        (*spec, TimingSim::run_program(&program, config))
    });
    let (mut sum_decoupled, mut sum_ideal) = (0.0f64, 0.0f64);
    for chunk in stats.chunks(configs.len()) {
        let (spec, base) = &chunk[0];
        let decoupled = &chunk[1].1;
        let ideal = &chunk[2].1;
        assert!(
            decoupled.cycles < base.cycles,
            "{}: (3+3) must beat (2+0): {} vs {}",
            spec.name,
            decoupled.cycles,
            base.cycles
        );
        assert!(
            ideal.cycles < base.cycles,
            "{}: (16+0) must beat (2+0): {} vs {}",
            spec.name,
            ideal.cycles,
            base.cycles
        );
        sum_decoupled += base.cycles as f64 / decoupled.cycles as f64;
        sum_ideal += base.cycles as f64 / ideal.cycles as f64;
    }
    let n = suite().len() as f64;
    let (avg_decoupled, avg_ideal) = (sum_decoupled / n, sum_ideal / n);
    assert!(
        avg_decoupled >= 0.95 * avg_ideal,
        "(3+3) average speedup {avg_decoupled:.3} must reach the (16+0) level {avg_ideal:.3}"
    );
}

#[test]
fn object_images_execute_identically() {
    // Build → save → reload → run: the reloaded binary must behave
    // byte-for-byte like the original (the paper's "existing binaries"
    // story).
    for name in ["li", "compress"] {
        let spec = arl::workloads::workload(name).unwrap();
        let original = spec.build(Scale::tiny());
        let bytes = original.to_object_bytes();
        let reloaded = arl::asm::Program::from_object_bytes(&bytes).expect("valid image");
        let mut a = Machine::new(&original);
        let mut b = Machine::new(&reloaded);
        let oa = a.run(CAP).unwrap();
        let ob = b.run(CAP).unwrap();
        assert!(oa.exited && ob.exited);
        assert_eq!(oa.retired, ob.retired, "{name}: same instruction count");
        assert_eq!(a.output(), b.output(), "{name}: same output");
    }
}

#[test]
fn table2_shape_heap_is_burstier_than_data_and_stack() {
    // Table 2's qualitative claim: heap accesses arrive in bursts, while
    // data-segment accesses are spread smoothly across windows. Pin the
    // shape (not the exact numbers) at window size 32: across workloads
    // that touch the heap at all, the heap's coefficient of variation
    // dominates the data segment's, heap refs are strictly bursty
    // (stddev > mean) almost everywhere, and most windows see no heap
    // activity at all.
    let mut heap_active = 0u32;
    let mut heap_bursty = 0u32;
    let mut data_bursty = 0u32;
    let mut sum_cov = [0.0f64; 3];
    let mut sum_idle = [0.0f64; 3];
    for spec in suite() {
        let program = spec.build(Scale::tiny());
        let mut m = Machine::new(&program);
        let mut windows = SlidingWindowProfiler::new();
        m.run_with(CAP, |e| windows.observe(e)).expect("runs");
        let w32 = &windows.stats()[0];
        let cov = |r: Region| {
            let mean = w32.mean(r);
            if mean > 0.0 {
                w32.stddev(r) / mean
            } else {
                0.0
            }
        };
        if w32.mean(Region::Heap) > 0.0 {
            heap_active += 1;
            heap_bursty += w32.is_strictly_bursty(Region::Heap) as u32;
            for (i, r) in Region::DATA_REGIONS.iter().enumerate() {
                sum_cov[i] += cov(*r);
                sum_idle[i] += w32.idle_fraction(*r);
            }
        }
        data_bursty += w32.is_strictly_bursty(Region::Data) as u32;
    }
    // 8 of the 12 synthetic workloads exercise the heap.
    assert!(
        heap_active >= 6,
        "suite lost its heap-active workloads ({heap_active})"
    );
    assert!(
        heap_bursty * 4 >= heap_active * 3,
        "heap must be strictly bursty on >=3/4 of heap-active workloads \
         ({heap_bursty}/{heap_active})"
    );
    assert!(
        data_bursty <= 2,
        "data-segment accesses must stay smooth (bursty on {data_bursty} workloads)"
    );
    // DATA_REGIONS order is [Data, Heap, Stack].
    let n = heap_active as f64;
    assert!(
        sum_cov[1] / n > sum_cov[0] / n && sum_cov[1] / n > sum_cov[2] / n,
        "average heap CoV {:.3} must dominate data {:.3} and stack {:.3}",
        sum_cov[1] / n,
        sum_cov[0] / n,
        sum_cov[2] / n
    );
    assert!(
        sum_idle[1] / n > 0.5 && sum_idle[1] / n > sum_idle[0] / n,
        "heap refs must cluster: idle-window fraction {:.3} (data {:.3})",
        sum_idle[1] / n,
        sum_idle[0] / n
    );
}
