//! Suite-wide differential test: for every workload and its prefetch
//! rewrite, a replayed introspection run must be *byte-identical* to
//! the live one — same UMI report, same full-simulator statistics, same
//! hardware-machine counters, same shadow mini-simulator ratios. This
//! is the identity the trace cache rests on: if it holds for all 32
//! workloads, swapping replay in for live interpretation can never
//! change a golden.
//!
//! `UmiReport` deliberately has no `PartialEq` (its per-pc table is an
//! open-addressed map whose layout is an implementation detail), so
//! the comparison canonicalizes: every set/map is rendered sorted by
//! key, scalars exactly.

use std::fmt::Write as _;
use umi_core::{introspect_traced, UmiConfig, UmiReport};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_ir::Program;
use umi_prefetch::{inject_prefetches, PrefetchPlan};
use umi_vm::Tee;
use umi_workloads::{all32, Scale};

/// Deterministic rendering of a report: sorted sets/maps, exact floats
/// (`{:?}` round-trips f64), scalar fields verbatim.
fn canonical(r: &UmiReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program={}", r.program_name);
    let _ = writeln!(out, "umi_miss_ratio={:?}", r.umi_miss_ratio);

    let mut predicted: Vec<u64> = r.predicted.iter().map(|pc| pc.0).collect();
    predicted.sort_unstable();
    let _ = writeln!(out, "predicted={predicted:?}");

    let mut strides: Vec<(u64, String)> = r
        .strides
        .iter()
        .map(|(pc, s)| (pc.0, format!("{s:?}")))
        .collect();
    strides.sort_unstable();
    let _ = writeln!(out, "strides={strides:?}");

    let mut patterns: Vec<(u64, String)> = r
        .patterns
        .iter()
        .map(|(pc, t)| (pc.0, format!("{t:?}")))
        .collect();
    patterns.sort_unstable();
    let _ = writeln!(out, "patterns={patterns:?}");

    let mut per_pc: Vec<(u64, String)> = r
        .per_pc
        .iter()
        .map(|(pc, v)| (pc.0, format!("{v:?}")))
        .collect();
    per_pc.sort_unstable();
    let _ = writeln!(out, "per_pc={per_pc:?}");

    let _ = writeln!(
        out,
        "profiles={} invocations={} flushes={} traces={} ops={} loads={} stores={}",
        r.profiles_collected,
        r.analyzer_invocations,
        r.cache_flushes,
        r.instrumented_traces,
        r.profiled_ops,
        r.static_loads,
        r.static_stores,
    );
    let _ = writeln!(
        out,
        "umi_cycles={} dbi_cycles={} samples={}",
        r.umi_overhead_cycles, r.dbi_overhead_cycles, r.samples_taken
    );
    let _ = writeln!(out, "vm={:?}", r.vm_stats);
    let _ = writeln!(out, "dbi={:?}", r.dbi_stats);
    out
}

/// Runs `program` live and then replayed under the same introspection,
/// and requires every observer to agree; returns the live report.
fn assert_replay_matches_live(program: &Program, label: &str, shadow: &UmiConfig) -> UmiReport {
    // First call: cache miss, runs live, captures and publishes
    // (forced — no `UMI_TRACE_DIR` in the test environment). A
    // prefetch-on machine rides the live run beside the exact
    // simulator: it is the one observer here that reacts to prefetch
    // hints, which `FullSimulator` ignores.
    let mut full_live = umi_cache::FullSimulator::pentium4();
    let mut hw_live = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
    let live = introspect_traced(
        program,
        &UmiConfig::no_sampling(),
        std::slice::from_ref(shadow),
        &mut Tee(&mut full_live, &mut hw_live),
    );
    assert!(!live.replayed, "{label}: first run must be live");

    // Second call: same program, must hit the in-memory cache.
    let mut full_replay = umi_cache::FullSimulator::pentium4();
    let replay = introspect_traced(
        program,
        &UmiConfig::no_sampling(),
        std::slice::from_ref(shadow),
        &mut full_replay,
    );
    assert!(replay.replayed, "{label}: second run must replay");

    // The whole introspection result is identical.
    assert_eq!(
        canonical(&live.report),
        canonical(&replay.report),
        "{label}: UMI report diverged under replay"
    );
    assert_eq!(
        live.shadow_miss_ratios, replay.shadow_miss_ratios,
        "{label}: shadow mini-sim diverged under replay"
    );

    // So is everything the sink saw.
    assert_eq!(
        full_live.l1_stats(),
        full_replay.l1_stats(),
        "{label}: L1 diverged"
    );
    assert_eq!(
        full_live.l2_stats(),
        full_replay.l2_stats(),
        "{label}: L2 diverged"
    );
    assert_eq!(
        full_live.l2_writebacks(),
        full_replay.l2_writebacks(),
        "{label}: writebacks diverged"
    );

    // And a consumer driven purely from the trace (no DBI stack at all)
    // agrees with the one that rode the live run.
    let trace = replay.trace.as_ref().expect("replay returns its trace");
    let mut hw_replay = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
    trace.replay_into(&mut hw_replay);
    assert_eq!(
        hw_live.counters(),
        hw_replay.counters(),
        "{label}: machine counters diverged"
    );
    assert_eq!(
        hw_live.stall_cycles(),
        hw_replay.stall_cycles(),
        "{label}: machine stalls diverged"
    );

    // The trace's summary is the live run's architectural truth.
    assert_eq!(
        trace.summary().stats,
        live.report.vm_stats,
        "{label}: trace summary disagrees with live stats"
    );
    live.report
}

#[test]
fn replay_is_byte_identical_to_live_for_all_workloads() {
    let scale = Scale::Test;
    let mut shadow = UmiConfig::no_sampling().sim_cache(umi_cache::CacheConfig::k7_l2());
    shadow.sim_l1_filter = umi_cache::CacheConfig::k7_l1d();
    for spec in all32() {
        let program = spec.build(scale);
        let report = assert_replay_matches_live(&program, spec.name, &shadow);
        // The prefetch study's rewrite of the same workload: the only
        // programs in the suite whose traces carry prefetch hints.
        let plan = PrefetchPlan::from_report(&report, 32);
        if !plan.is_empty() {
            let rewritten = inject_prefetches(&program, &plan);
            assert_replay_matches_live(&rewritten, &format!("{} (rewritten)", spec.name), &shadow);
        }
    }
}
