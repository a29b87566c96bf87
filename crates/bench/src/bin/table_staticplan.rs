//! `table_staticplan`: the composed static miss bounds audited against
//! exact simulation, plus the fully static prefetch planner A/B'd
//! against dynamic UMI.
//!
//! Two experiments share one pass over the 32 workloads:
//!
//! 1. **Audit gate.** The miss-bound composer
//!    ([`umi_analyze::compose_program`]) turns per-site must-cache
//!    verdicts × trip bounds into per-PC and aggregate miss-count
//!    *intervals*. The shared interval check
//!    ([`umi_bench::audit::check_intervals`]) reads one [`GroundTruth`]
//!    — each workload run to completion under the exact
//!    [`umi_cache::FullSimulator`] — and requires every measured count —
//!    accesses, L1 misses, memory misses, per group and in aggregate —
//!    to land inside its interval. A single escape exits non-zero: the
//!    intervals are proofs.
//! 2. **Plan A/B.** The static planner
//!    ([`umi_prefetch::static_prefetch_plan`]) builds a prefetch plan
//!    from analysis alone; dynamic UMI builds its plan from a profiling
//!    pass. Both are injected through the same rewriting path and run
//!    natively, so the normalized cycles isolate plan *content*. The
//!    delinquency rankings' agreement (Jaccard of the static hot set vs
//!    the profiler's predicted set) quantifies how much of UMI's insight
//!    the compiler-side competitor recovers — the comparison the paper
//!    argues about but never fields.
//!
//! A machine-readable copy lands in `results/umi_staticplan.json`;
//! stdout is byte-stable at a fixed scale and diffed against
//! `results/golden/table_staticplan.txt` by `scripts/smoke.sh`.

use std::collections::BTreeSet;
use umi_analyze::{render_errors, verify, CacheGeometry};
use umi_bench::audit::{check_intervals, GroundTruth};
use umi_bench::engine::{Cell, Harness};
use umi_bench::{geomean, mean, scale_from_env};
use umi_core::{introspect_cached, UmiConfig};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_prefetch::harness::{run_native, RunOutcome};
use umi_prefetch::{inject_prefetches, static_prefetch_plan, PrefetchPlan};
use umi_workloads::{all32, Scale};

/// Dynamic-plan lookahead, as in the §8 study and `umi_lint`.
const DISTANCE_REFS: i64 = 32;

/// One workload's audit counts and A/B measurements.
struct Row {
    /// Composed `(pc, kind)` groups audited.
    groups: usize,
    /// Groups with finite upper bounds on all three intervals.
    bounded: usize,
    /// Intervals the simulation escaped (groups + the aggregate check).
    violations: usize,
    /// Static aggregate L1 miss-ratio bounds.
    ratio_lo: f64,
    ratio_hi: f64,
    /// The simulator's exact L1 miss ratio.
    measured: f64,
    /// Jaccard agreement (%) of static hot loads vs dynamic delinquents.
    agreement: f64,
    /// Loads each plan prefetches.
    static_planned: usize,
    dynamic_planned: usize,
    /// Cycles normalized to native-off; `None` when neither side planned.
    static_norm: Option<f64>,
    dynamic_norm: Option<f64>,
}

fn jaccard_percent(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> f64 {
    let union = a.union(b).count();
    if union == 0 {
        return 100.0;
    }
    100.0 * a.intersection(b).count() as f64 / union as f64
}

fn gate_workload(program: &umi_ir::Program, name: &str) -> (Row, u64) {
    if let Err(errs) = verify(program) {
        panic!(
            "{name}: verifier rejected the program:\n{}",
            render_errors(&errs)
        );
    }

    let config = UmiConfig::no_sampling();
    let floor = config.delinquency_floor;
    let platform = Platform::pentium4();

    // The static planner composes the program once; experiment 1
    // audits that composition and experiment 2 plans from it.
    let static_plan = static_prefetch_plan(
        program,
        &CacheGeometry::pentium4_l1d(),
        &CacheGeometry::pentium4_l2(),
        floor,
    );

    // Experiment 1: every composed interval against exact simulation.
    let truth = GroundTruth::pentium4(program);
    let audit = check_intervals(&truth, &static_plan.report);
    let mut insns = truth.insns;
    let mut violations = 0usize;
    for v in audit.violations() {
        violations += 1;
        eprintln!("{name}: {:#x} {}", v.bound.pc.0, v.violation_message());
    }
    if !audit.aggregate_ok {
        violations += 1;
        eprintln!("{name}: aggregate interval violated");
    }

    // Experiment 2: static plan vs dynamic plan through one rewriter.
    // The profiling pass doubles as the native baseline (the DBI
    // forwards the exact demand stream; overhead cycles are left out —
    // both plans are measured plan-only, through native runs).
    let mut machine_off = Machine::new(platform.clone(), PrefetchSetting::Off);
    let ci = introspect_cached(program, &config, &[], &mut machine_off);
    let report = ci.report;
    insns += report.vm_stats.insns;
    let native_off = RunOutcome {
        cycles: machine_off.total_cycles(report.vm_stats.insns),
        counters: machine_off.counters(),
        insns: report.vm_stats.insns,
    };
    let dynamic_plan = PrefetchPlan::from_report(&report, DISTANCE_REFS);

    let static_hot: BTreeSet<u64> = static_plan
        .report
        .ranked_hot()
        .iter()
        .filter(|d| !d.is_store)
        .map(|d| d.pc.0)
        .collect();
    let dynamic_hot: BTreeSet<u64> = report.ranked_delinquents().iter().map(|pc| pc.0).collect();
    let agreement = jaccard_percent(&static_hot, &dynamic_hot);

    let mut run_plan = |plan: &PrefetchPlan| -> f64 {
        if plan.is_empty() {
            return 1.0; // the rewrite is the identity
        }
        let optimized = inject_prefetches(program, plan);
        let out = run_native(&optimized, platform.clone(), PrefetchSetting::Off);
        insns += out.insns;
        out.relative_to(&native_off)
    };
    let splan = static_plan.plan();
    let (static_norm, dynamic_norm) = if splan.is_empty() && dynamic_plan.is_empty() {
        (None, None)
    } else {
        (Some(run_plan(&splan)), Some(run_plan(&dynamic_plan)))
    };

    let row = Row {
        groups: audit.checked.len(),
        bounded: audit.checked.iter().filter(|c| c.bound.bounded).count(),
        violations,
        ratio_lo: static_plan.report.l1_ratio.0,
        ratio_hi: static_plan.report.l1_ratio.1,
        measured: audit.measured_l1_ratio(),
        agreement,
        static_planned: splan.len(),
        dynamic_planned: dynamic_plan.len(),
        static_norm,
        dynamic_norm,
    };
    (row, insns)
}

fn fmt_norm(n: Option<f64>) -> String {
    match n {
        Some(v) => format!("{v:.3}"),
        None => "-".to_string(),
    }
}

/// Serializes the run as `results/umi_staticplan.json`. Best-effort: a
/// read-only checkout must not turn into a harness failure.
fn write_json(scale: Scale, rows: &[(String, Row)], agree_avg: f64) {
    let mut out = String::new();
    out.push_str("{\n");
    let scale_name = match scale {
        Scale::Test => "test",
        Scale::Bench => "bench",
    };
    out.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    let violations: usize = rows.iter().map(|(_, r)| r.violations).sum();
    out.push_str(&format!("  \"violations\": {violations},\n"));
    out.push_str(&format!(
        "  \"macro_avg_ranking_agreement_percent\": {agree_avg:.1},\n"
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, r)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let norm = |n: Option<f64>| match n {
            Some(v) => format!("{v:.4}"),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"groups\": {}, \"bounded\": {}, \"violations\": {}, \
             \"l1_ratio_lo\": {:.4}, \"l1_ratio_hi\": {:.4}, \"l1_ratio_measured\": {:.4}, \
             \"ranking_agreement_percent\": {:.1}, \"static_planned\": {}, \
             \"dynamic_planned\": {}, \"static_normalized\": {}, \
             \"dynamic_normalized\": {}}}{comma}\n",
            name,
            r.groups,
            r.bounded,
            r.violations,
            r.ratio_lo,
            r.ratio_hi,
            r.measured,
            r.agreement,
            r.static_planned,
            r.dynamic_planned,
            norm(r.static_norm),
            norm(r.dynamic_norm),
        ));
    }
    out.push_str("  ]\n}\n");
    let path = std::path::Path::new("results").join("umi_staticplan.json");
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, out));
    if let Err(e) = write {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    let scale = scale_from_env();
    let mut harness = Harness::new("table_staticplan", scale);
    let rows: Vec<Row> = harness.run(&all32(), |spec| {
        let program = spec.build(scale);
        let (row, insns) = gate_workload(&program, spec.name);
        Cell {
            label: spec.name.to_string(),
            insns,
            value: row,
        }
    });

    println!("Composed static miss bounds vs exact simulation (Pentium 4 L1/L2)");
    println!(
        "{:<14} {:>6} {:>7} {:>7}   {:>16} {:>8} {:>7}",
        "benchmark", "groups", "bounded", "violate", "static-l1-ratio", "measured", "agree"
    );
    let named: Vec<(String, Row)> = all32()
        .iter()
        .map(|s| s.name.to_string())
        .zip(rows)
        .collect();
    let mut total_groups = 0usize;
    let mut total_bounded = 0usize;
    let mut total_violations = 0usize;
    for (name, r) in &named {
        println!(
            "{:<14} {:>6} {:>7} {:>7}   [{:.3}, {:.3}] {:>8.3} {:>6.1}%",
            name,
            r.groups,
            r.bounded,
            r.violations,
            r.ratio_lo,
            r.ratio_hi,
            r.measured,
            r.agreement
        );
        total_groups += r.groups;
        total_bounded += r.bounded;
        total_violations += r.violations;
    }
    println!(
        "{:<14} {:>6} {:>7} {:>7}",
        "total", total_groups, total_bounded, total_violations
    );
    let agree_avg = mean(&named.iter().map(|(_, r)| r.agreement).collect::<Vec<f64>>());
    println!("\nmacro-average delinquency-ranking agreement (static hot vs dynamic predicted): {agree_avg:.1}%");

    println!("\nPrefetch plan A/B (cycles normalized to native, prefetch off)");
    println!(
        "{:<14} {:>6} {:>6} {:>8} {:>8}",
        "benchmark", "s-plan", "d-plan", "static", "dynamic"
    );
    let mut snorms = Vec::new();
    let mut dnorms = Vec::new();
    for (name, r) in &named {
        let (Some(sn), Some(dn)) = (r.static_norm, r.dynamic_norm) else {
            continue;
        };
        println!(
            "{:<14} {:>6} {:>6} {:>8} {:>8}",
            name,
            r.static_planned,
            r.dynamic_planned,
            fmt_norm(r.static_norm),
            fmt_norm(r.dynamic_norm)
        );
        snorms.push(sn);
        dnorms.push(dn);
    }
    if snorms.is_empty() {
        println!("(no workload had a prefetching opportunity on either side)");
    } else {
        println!(
            "geomean over {} planned workloads: static {:.3}, dynamic {:.3}",
            snorms.len(),
            geomean(&snorms),
            geomean(&dnorms)
        );
    }
    println!(
        "\nsoundness: {}/{} composed interval groups hold against exact simulation",
        total_groups + named.len() - total_violations,
        total_groups + named.len()
    );

    write_json(scale, &named, agree_avg);

    if total_violations > 0 {
        println!(
            "\ntable-staticplan: FAIL ({} intervals violated)",
            total_violations
        );
        harness.finish();
        std::process::exit(1);
    }
    harness.finish();
}
