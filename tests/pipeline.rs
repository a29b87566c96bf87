//! Cross-crate integration tests: the full UMI pipeline over real
//! workloads, checked against the Cachegrind-equivalent ground truth and
//! the simulated hardware platforms.

use umi::cache::FullSimulator;
use umi::core::{PredictionQuality, UmiConfig, UmiRuntime};
use umi::dbi::{CostModel, DbiRuntime};
use umi::hw::{Platform, PrefetchSetting};
use umi::prefetch::harness::{run_dbi, run_native, run_umi, run_umi_prefetch};
use umi::prefetch::PrefetchPlan;
use umi::vm::{NullSink, Vm};
use umi::workloads::{build, Scale};

/// The DBI and UMI layers must be architecturally invisible: same
/// instruction counts, same memory traffic, same register results.
#[test]
fn introspection_is_transparent_across_the_stack() {
    for name in ["181.mcf", "176.gcc", "171.swim", "164.gzip"] {
        let program = build(name, Scale::Test).expect("workload");
        let mut vm = Vm::new(&program);
        vm.run(&mut NullSink, u64::MAX);
        let native = vm.stats();

        let mut dbi = DbiRuntime::new(&program, CostModel::default());
        let dbi_stats = dbi.run(&mut NullSink, u64::MAX);
        assert_eq!(native, dbi_stats, "{name}: DBI changed architecture");

        let mut umi = UmiRuntime::new(&program, UmiConfig::no_sampling());
        let report = umi.run(&mut NullSink, u64::MAX);
        assert_eq!(native, report.vm_stats, "{name}: UMI changed architecture");
    }
}

/// On memory-intensive workloads, UMI's predictions must essentially match
/// the full simulation's delinquent set (the paper reports 88% recall for
/// benchmarks with ≥1% miss ratio).
#[test]
fn high_miss_workloads_are_predicted_well() {
    for name in ["181.mcf", "179.art", "em3d", "ft"] {
        let program = build(name, Scale::Test).expect("workload");
        let mut full = FullSimulator::pentium4();
        Vm::new(&program).run(&mut full, u64::MAX);
        assert!(
            full.l2_miss_ratio() > 0.01,
            "{name} should be memory-intensive"
        );
        let truth = full.delinquent_set(0.90);
        assert!(!truth.is_empty());

        let mut umi = UmiRuntime::new(&program, UmiConfig::no_sampling());
        let report = umi.run(&mut NullSink, u64::MAX);
        let q = PredictionQuality::compute(
            &report.predicted,
            &truth,
            full.per_pc(),
            program.static_loads(),
        );
        assert!(q.recall >= 0.5, "{name}: recall {} too low", q.recall);
        assert!(
            q.p_miss_coverage >= 0.5,
            "{name}: predicted loads cover only {} of misses",
            q.p_miss_coverage
        );
    }
}

/// Cache-resident workloads produce some false positives (the paper's
/// Table 6 averages 58.8% false positives for low-miss benchmarks), but
/// the predicted set must stay a small fraction of the static loads.
#[test]
fn low_miss_workloads_predict_little() {
    for name in ["252.eon", "186.crafty"] {
        let program = build(name, Scale::Test).expect("workload");
        let mut umi = UmiRuntime::new(&program, UmiConfig::no_sampling());
        let report = umi.run(&mut NullSink, u64::MAX);
        assert!(
            report.predicted.len() <= program.static_loads() / 2,
            "{name}: {} predictions out of {} static loads",
            report.predicted.len(),
            program.static_loads()
        );
    }
}

/// The overhead ordering of Figure 2: native ≤ DBI ≤ UMI, and sampling
/// cheaper than always-bursty instrumentation.
#[test]
fn overhead_ordering_matches_figure2() {
    let program = build("179.art", Scale::Test).expect("art");
    let platform = Platform::pentium4();
    let native = run_native(&program, platform.clone(), PrefetchSetting::Full);
    let (dbi, _) = run_dbi(&program, platform.clone(), PrefetchSetting::Full);
    let (nosamp, _) = run_umi(
        &program,
        UmiConfig::no_sampling(),
        platform,
        PrefetchSetting::Full,
    );
    assert!(native.cycles <= dbi.cycles);
    assert!(dbi.cycles <= nosamp.cycles);
}

/// §8 end to end: a strided delinquent load gets prefetched and both the
/// miss count and the running time improve; on the K7 (no HW prefetch)
/// software prefetching is the only prefetching there is.
#[test]
fn software_prefetching_works_end_to_end() {
    let program = build("ft", Scale::Test).expect("ft");
    for platform in [Platform::pentium4(), Platform::k7()] {
        let native = run_native(&program, platform.clone(), PrefetchSetting::Off);
        let (opt, report, plan) = run_umi_prefetch(
            &program,
            UmiConfig::no_sampling(),
            platform.clone(),
            PrefetchSetting::Off,
            32,
        );
        assert!(
            !report.predicted.is_empty(),
            "{}: nothing predicted",
            platform.name
        );
        assert_eq!(plan.len(), 1, "{}: exactly the stream load", platform.name);
        assert!(
            opt.counters.l2_misses < native.counters.l2_misses / 2,
            "{}: prefetch did not remove misses",
            platform.name
        );
        assert!(opt.cycles < native.cycles, "{}: no speedup", platform.name);
    }
}

/// The two platforms must behave like the paper's: the K7's L2 is half the
/// P4's, so L2-straddling workloads miss more on the K7.
#[test]
fn platform_geometries_differentiate() {
    // 300.twolf's table was sized between the two L2 capacities.
    let program = build("300.twolf", Scale::Test).expect("twolf");
    let p4 = run_native(&program, Platform::pentium4(), PrefetchSetting::Off);
    let k7 = run_native(&program, Platform::k7(), PrefetchSetting::Off);
    assert!(
        k7.counters.l2_miss_ratio() > p4.counters.l2_miss_ratio(),
        "K7 (256 KB) should miss more than P4 (512 KB): {} vs {}",
        k7.counters.l2_miss_ratio(),
        p4.counters.l2_miss_ratio()
    );
}

/// Prefetch-side-effect blindness (§6.2): UMI's mini-simulated miss ratio
/// is the same whether or not the hardware prefetchers run underneath.
#[test]
fn umi_ratios_ignore_hardware_prefetching() {
    let program = build("179.art", Scale::Test).expect("art");
    let (_, off) = run_umi(
        &program,
        UmiConfig::no_sampling(),
        Platform::pentium4(),
        PrefetchSetting::Off,
    );
    let (_, on) = run_umi(
        &program,
        UmiConfig::no_sampling(),
        Platform::pentium4(),
        PrefetchSetting::Full,
    );
    assert_eq!(off.umi_miss_ratio, on.umi_miss_ratio);
    assert_eq!(off.predicted, on.predicted);
}

/// The hardware prefetcher lowers measured miss ratios (the reason the
/// paper's prefetch-on correlations drop).
#[test]
fn hardware_prefetch_lowers_hw_ratios() {
    let program = build("179.art", Scale::Test).expect("art");
    let off = run_native(&program, Platform::pentium4(), PrefetchSetting::Off);
    let on = run_native(&program, Platform::pentium4(), PrefetchSetting::Full);
    assert!(on.counters.l2_misses < off.counters.l2_misses);
}

/// Pattern classification is pure introspection: turning
/// `classify_patterns` on adds pattern tallies and changes nothing else a
/// no-sampling run reports, so one run serves both the static-vs-dynamic
/// pattern cross-check and the delinquency passes of `umi_lint`. One
/// workload per suite group of the 32.
#[test]
fn pattern_classification_is_pure_introspection() {
    for name in ["171.swim", "181.mcf", "ft"] {
        let program = build(name, Scale::Test).expect("workload");
        let run = |classify_patterns: bool| {
            let config = UmiConfig {
                classify_patterns,
                ..UmiConfig::no_sampling()
            };
            UmiRuntime::new(&program, config).run(&mut NullSink, u64::MAX)
        };
        let (off, on) = (run(false), run(true));
        assert!(off.patterns.is_empty() && !on.patterns.is_empty(), "{name}");
        assert_eq!(off.vm_stats, on.vm_stats, "{name}: architecture changed");
        assert_eq!(off.ranked_delinquents(), on.ranked_delinquents(), "{name}");
        assert!(
            !off.ranked_delinquents().is_empty(),
            "{name}: nothing ranked"
        );
        // Every planned pc is a program pc, so equal lengths and equal
        // entries at every pc make the two plans equal.
        let [plan_off, plan_on] = [&off, &on].map(|r| PrefetchPlan::from_report(r, 32));
        assert_eq!(
            plan_off.len(),
            plan_on.len(),
            "{name}: dynamic plan changed"
        );
        for pc in program.pc_to_block().keys() {
            assert_eq!(
                off.delinquency_label(*pc),
                on.delinquency_label(*pc),
                "{name}: label of {pc:?} changed"
            );
            assert_eq!(
                plan_off.get(*pc),
                plan_on.get(*pc),
                "{name}: plan at {pc:?}"
            );
        }
    }
}
