//! `umi_lint`: the static report and CI gate — every static pass of
//! `umi-analyze` over all 32 workloads, cross-checked against UMI's
//! dynamic profiles and against exact simulation, one section per pass.
//!
//! Each workload's cell verifies the program ([`umi_analyze::verify`];
//! a rejection is a build bug and aborts the harness) and then builds
//! every fact the sections share exactly once:
//!
//! * one no-sampling UMI run with `classify_patterns` on, into a
//!   prefetch-off Pentium 4 [`Machine`]: the dynamic pattern tallies,
//!   delinquency labels and ranking, the dynamic prefetch plan, and the
//!   native baseline of the plan A/B (the DBI forwards the exact demand
//!   stream);
//! * one [`ProgramFacts`] per program, the original's and the
//!   rewrite's: every static pass below runs over them, so each
//!   program's CFG, loops, constants and reference classes are built
//!   once;
//! * one [`umi_prefetch::static_prefetch_plan`] at the Pentium 4 L1/L2
//!   geometry: its composed report, whose sites carry the must-cache
//!   verdicts, and the static plan;
//! * one exact [`GroundTruth`] run, which both soundness checks read;
//! * one rewrite of the program with the dynamic plan, which is linted,
//!   plan-checked, audited and run in the A/B.
//!
//! Stdout has four sections, separated by single blank lines:
//!
//! 1. **Reference classes.** The static affine classifier
//!    ([`umi_analyze::classify_program`]) against UMI's per-operation
//!    dynamic pattern vote ([`umi_core::PatternTally`]). Agreement maps
//!    `ConstantStride↔Strided`, `LoopInvariant↔Constant` and
//!    `Irregular↔Irregular{Local,Wide}`; `stride=` additionally requires
//!    the dominant dynamic stride to equal the static one.
//! 2. **Lint gate.** IR lints ([`umi_analyze::lint_program`]) on the
//!    original; the static delinquency model
//!    ([`umi_analyze::predict_program`], at the profiler's
//!    logical-cache geometry) scored against UMI's dynamic labels;
//!    verifier, lints and plan checker
//!    ([`umi_prefetch::check_rewritten`]) on the rewrite; every
//!    must-cache verdict of the original and the rewrite checked by
//!    [`check_verdicts`] (prefetch hints must never earn
//!    residency credit); every composed interval of the original checked
//!    by [`check_intervals`]. A contradicted verdict or an escaped
//!    interval is an Error-severity finding.
//! 3. **Must-cache verdicts.** Coverage of the original's verdicts
//!    (AlwaysHit / AlwaysMiss / Persistent / Unclassified, per in-loop
//!    site) and how many verdict groups the exact run checked.
//! 4. **Composed bounds and plan A/B.** The composed miss-count
//!    intervals against the exact run; the Jaccard agreement of the
//!    static hot set with UMI's predicted set; both plans injected
//!    through the same rewriter and run natively, cycles normalized to
//!    the native baseline.
//!
//! Stdout is byte-stable at a fixed scale (diffed against
//! `results/golden/umi_lint.txt` by `scripts/smoke.sh`); machine-readable
//! copies land in `results/umi_{lint,absint,staticplan}.json`. The
//! process exits non-zero when any section's gate fails: an
//! Error-severity finding, static-vs-dynamic delinquency agreement below
//! the 70% bar, a contradicted verdict or an escaped interval.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Display;

use umi_analyze::{
    render_errors, verify, CacheBehavior, CacheGeometry, Delinquency, ProgramFacts, Severity,
    StaticClass, UnclassifiedReason, Verdict,
};
use umi_bench::audit::{check_intervals, check_verdicts, GroundTruth, IntervalAudit, VerdictCheck};
use umi_bench::engine::{Cell, Harness};
use umi_bench::{geomean, mean, scale_from_env, scale_name};
use umi_core::{introspect_cached, DynamicDelinquency, RefPattern, UmiConfig, UmiReport};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_ir::{Pc, Program};
use umi_prefetch::harness::{run_native, RunOutcome};
use umi_prefetch::{
    check_rewritten_with, inject_prefetches, static_prefetch_plan_with, PrefetchPlan,
    StaticPlanReport,
};
use umi_workloads::{all32, Scale};

/// Prefetch distance (in references ahead) of the dynamic plan — the
/// mid-range setting of the paper's Figure 4 sweep, as in the §8 study.
const DISTANCE_REFS: i64 = 32;

/// Minimum static-vs-dynamic delinquency agreement (both sides definite)
/// the gate accepts, in percent.
const AGREEMENT_BAR: f64 = 70.0;

/// Everything one workload contributes to the four sections.
struct Workload {
    classes: ClassRow,
    lint: LintRow,
    absint: AbsintRow,
    plan: PlanRow,
}

/// Runs every pass over one workload. Pure function of the program.
fn gate_workload(program: &Program, name: &str) -> (Workload, u64) {
    if let Err(errs) = verify(program) {
        panic!(
            "{name}: verifier rejected the original program:\n{}",
            render_errors(&errs)
        );
    }

    let mut config = UmiConfig::no_sampling();
    config.classify_patterns = true;
    let (l1, l2) = (CacheGeometry::pentium4_l1d(), CacheGeometry::pentium4_l2());

    let mut machine_off = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
    let report = introspect_cached(program, &config, &[], &mut machine_off).report;
    let native_off = RunOutcome {
        cycles: machine_off.total_cycles(report.vm_stats.insns),
        counters: machine_off.counters(),
        insns: report.vm_stats.insns,
    };
    let facts = ProgramFacts::new(program);
    let static_plan = static_prefetch_plan_with(&facts, &l1, &l2, config.delinquency_floor);
    let dynamic_plan = PrefetchPlan::from_report(&report, DISTANCE_REFS);
    let rewritten = inject_prefetches(program, &dynamic_plan);
    let rw_facts = ProgramFacts::new(&rewritten);
    let [truth, rw_truth] = [program, &rewritten].map(GroundTruth::pentium4);

    let sites: Vec<CacheBehavior> = static_plan
        .report
        .sites
        .iter()
        .map(|s| s.behavior)
        .collect();
    let verdicts = check_verdicts(&truth, &sites);
    let intervals = check_intervals(&truth, &static_plan.report);
    let rw_verdicts = check_verdicts(&rw_truth, &rw_facts.absint(&l1, &l2));

    let (plan, ab_insns) = plan_ab(
        program,
        &report,
        &static_plan,
        (&dynamic_plan, &rewritten),
        &intervals,
        &native_off,
    );
    let workload = Workload {
        classes: class_row(&facts, &report),
        lint: lint_gate(
            [&facts, &rw_facts],
            &config,
            &report,
            &dynamic_plan,
            [&verdicts, &rw_verdicts],
            &intervals,
        ),
        absint: absint_row(&sites, &verdicts),
        plan,
    };
    let insns = report.vm_stats.insns + truth.insns + rw_truth.insns + ab_insns;
    (workload, insns)
}

/// Writes `results/<file>`. Best-effort: a read-only checkout must not
/// turn into a gate failure.
fn write_results(file: &str, text: &str) {
    let path = std::path::Path::new("results").join(file);
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, text));
    if let Err(e) = write {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

// --- Section 1: static reference classes vs dynamic pattern tallies ---

/// Per-workload cross-check counts over unfiltered memory operations.
#[derive(Default)]
struct ClassRow {
    /// Unfiltered static memory operations.
    ops: usize,
    /// Static verdicts.
    stride: usize,
    invariant: usize,
    irregular: usize,
    no_loop: usize,
    /// Operations with a dominant dynamic pattern.
    dynamic: usize,
    /// Both sides definite and compatible / incompatible.
    agree: usize,
    disagree: usize,
    /// Static verdict but never classified dynamically (not selected,
    /// filtered by the region selector, or columns too short).
    static_only: usize,
    /// Dynamic verdict where the static side had none (`no-loop`).
    dynamic_only: usize,
    /// Ops both sides call strided.
    stride_both: usize,
    /// Agreeing strided ops whose dominant dynamic stride equals the
    /// static one.
    stride_eq: usize,
}

/// Whether a static class and a dynamic pattern name the same behavior.
fn class_agrees(class: StaticClass, pattern: RefPattern) -> bool {
    matches!(
        (class, pattern),
        (StaticClass::ConstantStride(_), RefPattern::Strided)
            | (StaticClass::LoopInvariant, RefPattern::Constant)
            | (StaticClass::Irregular, RefPattern::IrregularLocal)
            | (StaticClass::Irregular, RefPattern::IrregularWide)
    )
}

fn class_row(facts: &ProgramFacts<'_>, report: &UmiReport) -> ClassRow {
    let tallies: HashMap<_, _> = report
        .patterns
        .iter()
        .filter_map(|(pc, t)| t.dominant().map(|p| (*pc, (p, t.dominant_stride()))))
        .collect();
    let mut row = ClassRow::default();
    // The classified refs are sorted by pc, so every count below is
    // accumulated in a deterministic order.
    for r in facts.refs().iter().filter(|r| !r.filtered) {
        row.ops += 1;
        match r.class {
            StaticClass::ConstantStride(_) => row.stride += 1,
            StaticClass::LoopInvariant => row.invariant += 1,
            StaticClass::Irregular => row.irregular += 1,
            StaticClass::NotInLoop => row.no_loop += 1,
        }
        let dynamic = tallies.get(&r.pc).copied();
        if dynamic.is_some() {
            row.dynamic += 1;
        }
        match (r.class, dynamic) {
            (StaticClass::NotInLoop, Some(_)) => row.dynamic_only += 1,
            (StaticClass::NotInLoop, None) => {}
            (_, None) => row.static_only += 1,
            (class, Some((pattern, dyn_stride))) => {
                if class_agrees(class, pattern) {
                    row.agree += 1;
                    if let StaticClass::ConstantStride(s) = class {
                        row.stride_both += 1;
                        if dyn_stride == Some(s) {
                            row.stride_eq += 1;
                        }
                    }
                } else {
                    row.disagree += 1;
                }
            }
        }
    }
    row
}

fn print_classes(named: &[(&str, Workload)]) {
    println!("Static (umi-analyze) vs dynamic (UMI profiles) reference classification");
    let line = |name: &str, r: &ClassRow| {
        println!(
            "{:<14} {:>4} {:>7} {:>4} {:>6} {:>7} {:>4} {:>6} {:>7} {:>7} {:>7} {:>8}",
            name,
            r.ops,
            r.stride,
            r.invariant,
            r.irregular,
            r.no_loop,
            r.dynamic,
            r.agree,
            r.disagree,
            r.static_only,
            r.dynamic_only,
            r.stride_eq,
        );
    };
    println!(
        "{:<14} {:>4} {:>7} {:>4} {:>6} {:>7} {:>4} {:>6} {:>7} {:>7} {:>7} {:>8}",
        "benchmark",
        "ops",
        "stride",
        "inv",
        "irreg",
        "no-loop",
        "dyn",
        "agree",
        "disagr",
        "s-only",
        "d-only",
        "stride="
    );
    let mut total = ClassRow::default();
    for (name, w) in named {
        let r = &w.classes;
        line(name, r);
        total.ops += r.ops;
        total.stride += r.stride;
        total.invariant += r.invariant;
        total.irregular += r.irregular;
        total.no_loop += r.no_loop;
        total.dynamic += r.dynamic;
        total.agree += r.agree;
        total.disagree += r.disagree;
        total.static_only += r.static_only;
        total.dynamic_only += r.dynamic_only;
        total.stride_both += r.stride_both;
        total.stride_eq += r.stride_eq;
    }
    line("total", &total);
    let both = total.agree + total.disagree;
    if both > 0 {
        println!(
            "\nagreement where both sides are definite: {}/{} ({:.1}%)",
            total.agree,
            both,
            100.0 * total.agree as f64 / both as f64
        );
    }
    if total.stride_both > 0 {
        println!(
            "dominant dynamic stride equals the static stride on {}/{} agreeing strided ops",
            total.stride_eq, total.stride_both
        );
    }
    println!("\n(static-only ops were never profiled to a verdict; dynamic-only ops sit outside");
    println!(" every natural loop yet show a pattern at run time — the introspection UMI adds)");
}

// --- Section 2: the lint gate ---

/// One recorded diagnostic: which program variant it was found in
/// (`orig` or `rw`), its severity, and its rendered form.
struct Finding {
    variant: &'static str,
    severity: Severity,
    /// Structured fields for the JSON report.
    pc: Option<u64>,
    kind: &'static str,
    message: String,
    /// Full display line for stdout.
    rendered: String,
}

impl Finding {
    /// A lint or plan-check diagnostic, rendered by its own `Display`.
    fn diagnostic(
        variant: &'static str,
        severity: Severity,
        pc: Pc,
        kind: &'static str,
        message: &str,
        rendered: &impl Display,
    ) -> Finding {
        Finding {
            variant,
            severity,
            pc: Some(pc.0),
            kind,
            message: message.to_string(),
            rendered: rendered.to_string(),
        }
    }

    /// A soundness-check failure: always Error severity.
    fn soundness(
        variant: &'static str,
        pc: Option<Pc>,
        kind: &'static str,
        message: String,
    ) -> Finding {
        let rendered = match pc {
            Some(pc) => format!("{:#x} [error] {kind}: {message}", pc.0),
            None => format!("[error] {kind}: {message}"),
        };
        Finding {
            variant,
            severity: Severity::Error,
            pc: pc.map(|pc| pc.0),
            kind,
            message,
            rendered,
        }
    }
}

/// Per-workload lint-gate results.
#[derive(Default)]
struct LintRow {
    /// Unfiltered static loads (the population the delinquency model
    /// predicts over).
    loads: usize,
    /// Static verdicts.
    s_hot: usize,
    s_cold: usize,
    s_unknown: usize,
    /// Dynamic labels over the same loads.
    d_hot: usize,
    d_cold: usize,
    /// Both sides definite and matching / clashing.
    agree: usize,
    disagree: usize,
    /// Prefetch hints planted by the rewrite.
    hints: usize,
    /// Must-cache verdict groups checked against exact simulation, over
    /// the original and the rewrite (violations land in `findings`).
    absint_checked: usize,
    absint_violations: usize,
    /// Composed interval groups checked against the original's run
    /// (per-pc groups + the aggregate check).
    staticplan_checked: usize,
    staticplan_violations: usize,
    /// All diagnostics, already stably ordered per pass.
    findings: Vec<Finding>,
}

impl LintRow {
    fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }
}

/// Whether a static and a dynamic delinquency verdict match. Only called
/// when both sides are definite.
fn delinquency_agrees(s: Delinquency, d: DynamicDelinquency) -> bool {
    matches!(
        (s, d),
        (Delinquency::PredictHot, DynamicDelinquency::Hot)
            | (Delinquency::PredictCold, DynamicDelinquency::Cold)
    )
}

fn lint_gate(
    [facts, rw_facts]: [&ProgramFacts<'_>; 2],
    config: &UmiConfig,
    report: &UmiReport,
    dynamic_plan: &PrefetchPlan,
    [verdicts, rw_verdicts]: [&[VerdictCheck]; 2],
    intervals: &IntervalAudit,
) -> LintRow {
    let floor = config.delinquency_floor;
    // One shared source of truth for geometry: the profiler's effective
    // logical cache, converted through `umi-geom`.
    let geom = config.effective_sim_cache().geometry();

    let mut row = LintRow::default();
    for lint in facts.lint() {
        row.findings.push(Finding::diagnostic(
            "orig",
            lint.severity,
            lint.pc,
            lint.kind.name(),
            &lint.message,
            &lint,
        ));
    }

    // Static verdict vs dynamic label, loads only (UMI's delinquency
    // machinery tracks loads; stores never enter the predicted set).
    for p in facts
        .predict(&geom, floor)
        .iter()
        .filter(|p| !p.sref.filtered && !p.sref.is_store)
    {
        row.loads += 1;
        match p.verdict {
            Delinquency::PredictHot => row.s_hot += 1,
            Delinquency::PredictCold => row.s_cold += 1,
            Delinquency::Unknown => row.s_unknown += 1,
        }
        let dynamic = report.delinquency_label(p.sref.pc);
        match dynamic {
            DynamicDelinquency::Hot => row.d_hot += 1,
            DynamicDelinquency::Cold => row.d_cold += 1,
            DynamicDelinquency::Unprofiled => {}
        }
        if p.verdict != Delinquency::Unknown && dynamic != DynamicDelinquency::Unprofiled {
            if delinquency_agrees(p.verdict, dynamic) {
                row.agree += 1;
            } else {
                row.disagree += 1;
            }
        }
    }

    // The prefetch-rewritten variant: re-verify, re-lint, check the plan.
    row.hints = dynamic_plan.len();
    if let Err(errs) = verify(rw_facts.program()) {
        for e in &errs {
            row.findings.push(Finding {
                variant: "rw",
                severity: Severity::Error,
                pc: e.pc().map(|pc| pc.0),
                kind: "verifier",
                message: e.to_string(),
                rendered: format!("[error] verifier: {e}"),
            });
        }
    }
    for lint in rw_facts.lint() {
        row.findings.push(Finding::diagnostic(
            "rw",
            lint.severity,
            lint.pc,
            lint.kind.name(),
            &lint.message,
            &lint,
        ));
    }
    for diag in check_rewritten_with(rw_facts, &geom, &CacheGeometry::pentium4_l2(), floor) {
        row.findings.push(Finding::diagnostic(
            "rw",
            diag.severity(),
            diag.pc,
            diag.kind.name(),
            &diag.message,
            &diag,
        ));
    }

    // Soundness: must-cache verdicts of both variants, then the composed
    // intervals of the original. The rewrite is the one program shape
    // whose verdicts `check_rewritten` consumes, and its hints are
    // exactly what the simulators ignore.
    for (variant, checks) in [("orig", verdicts), ("rw", rw_verdicts)] {
        row.absint_checked += checks.len();
        for v in checks.iter().filter(|c| !c.ok) {
            row.absint_violations += 1;
            row.findings.push(Finding::soundness(
                variant,
                Some(v.pc),
                "absint-soundness",
                v.violation_message(),
            ));
        }
    }
    row.staticplan_checked = intervals.checked.len() + 1; // + the aggregate
    for v in intervals.violations() {
        row.staticplan_violations += 1;
        row.findings.push(Finding::soundness(
            "orig",
            Some(v.bound.pc),
            "staticplan-bound",
            v.violation_message(),
        ));
    }
    if !intervals.aggregate_ok {
        row.staticplan_violations += 1;
        row.findings.push(Finding::soundness(
            "orig",
            None,
            "staticplan-bound",
            "aggregate miss-count interval violated".to_string(),
        ));
    }
    row
}

/// Minimal JSON string escaping for the hand-rolled reports (the crate
/// has no JSON dependency — see `umi_bench::report`).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes the lint gate as `results/umi_lint.json`.
fn write_lint_json(
    scale: Scale,
    named: &[(&str, Workload)],
    agree: usize,
    both: usize,
    errors: usize,
) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(scale)));
    out.push_str(&format!(
        "  \"agreement\": {{\"agree\": {agree}, \"both_definite\": {both}, \"percent\": {:.1}}},\n",
        if both > 0 {
            100.0 * agree as f64 / both as f64
        } else {
            0.0
        }
    ));
    out.push_str(&format!("  \"error_findings\": {errors},\n"));
    let sum = |f: fn(&LintRow) -> usize| named.iter().map(|(_, w)| f(&w.lint)).sum::<usize>();
    out.push_str(&format!(
        "  \"absint_soundness\": {{\"checked\": {}, \"violations\": {}}},\n",
        sum(|r| r.absint_checked),
        sum(|r| r.absint_violations)
    ));
    out.push_str(&format!(
        "  \"staticplan_bounds\": {{\"checked\": {}, \"violations\": {}}},\n",
        sum(|r| r.staticplan_checked),
        sum(|r| r.staticplan_violations)
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, w)) in named.iter().enumerate() {
        let row = &w.lint;
        let comma = if i + 1 < named.len() { "," } else { "" };
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json_escape(name)));
        out.push_str(&format!("      \"loads\": {},\n", row.loads));
        out.push_str(&format!(
            "      \"static\": {{\"hot\": {}, \"cold\": {}, \"unknown\": {}}},\n",
            row.s_hot, row.s_cold, row.s_unknown
        ));
        out.push_str(&format!(
            "      \"dynamic\": {{\"hot\": {}, \"cold\": {}}},\n",
            row.d_hot, row.d_cold
        ));
        out.push_str(&format!(
            "      \"agree\": {}, \"disagree\": {}, \"hints\": {},\n",
            row.agree, row.disagree, row.hints
        ));
        out.push_str(&format!(
            "      \"absint\": {{\"checked\": {}, \"violations\": {}}},\n",
            row.absint_checked, row.absint_violations
        ));
        out.push_str(&format!(
            "      \"staticplan\": {{\"checked\": {}, \"violations\": {}}},\n",
            row.staticplan_checked, row.staticplan_violations
        ));
        out.push_str("      \"diagnostics\": [");
        for (j, f) in row.findings.iter().enumerate() {
            let comma = if j + 1 < row.findings.len() { "," } else { "" };
            let pc = f.pc.map_or("null".to_string(), |pc| format!("\"{pc:#x}\""));
            out.push_str(&format!(
                "\n        {{\"program\": \"{}\", \"pc\": {pc}, \"severity\": \"{}\", \"kind\": \"{}\", \"message\": \"{}\"}}{comma}",
                if f.variant == "rw" { "rewritten" } else { "original" },
                f.severity,
                f.kind,
                json_escape(&f.message)
            ));
        }
        if row.findings.is_empty() {
            out.push_str("]\n");
        } else {
            out.push_str("\n      ]\n");
        }
        out.push_str(&format!("    }}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    write_results("umi_lint.json", &out);
}

/// Prints the lint gate and writes its JSON; returns whether it passed.
fn print_lint(scale: Scale, named: &[(&str, Workload)]) -> bool {
    println!("umi-lint: static delinquency model, IR lints, prefetch-plan verification");
    let line = |name: &str, r: &LintRow, warn: usize, err: usize| {
        println!(
            "{:<14} {:>5} {:>5} {:>6} {:>5} {:>5} {:>6} {:>5} {:>6} {:>5} {:>4} {:>3}",
            name,
            r.loads,
            r.s_hot,
            r.s_cold,
            r.s_unknown,
            r.d_hot,
            r.d_cold,
            r.agree,
            r.disagree,
            r.hints,
            warn,
            err
        );
    };
    println!(
        "{:<14} {:>5} {:>5} {:>6} {:>5} {:>5} {:>6} {:>5} {:>6} {:>5} {:>4} {:>3}",
        "benchmark",
        "loads",
        "s-hot",
        "s-cold",
        "s-unk",
        "d-hot",
        "d-cold",
        "agree",
        "disagr",
        "hints",
        "warn",
        "err"
    );
    let mut total = LintRow::default();
    let mut warnings = 0usize;
    let mut errors = 0usize;
    for (name, w) in named {
        let r = &w.lint;
        let (warn, err) = (r.count(Severity::Warning), r.count(Severity::Error));
        line(name, r, warn, err);
        total.loads += r.loads;
        total.s_hot += r.s_hot;
        total.s_cold += r.s_cold;
        total.s_unknown += r.s_unknown;
        total.d_hot += r.d_hot;
        total.d_cold += r.d_cold;
        total.agree += r.agree;
        total.disagree += r.disagree;
        total.hints += r.hints;
        warnings += warn;
        errors += err;
    }
    line("total", &total, warnings, errors);

    let both = total.agree + total.disagree;
    let pct = if both > 0 {
        100.0 * total.agree as f64 / both as f64
    } else {
        0.0
    };
    println!("\nstatic-vs-dynamic delinquency agreement where both sides are definite: {}/{both} ({pct:.1}%)", total.agree);

    println!("\ndiagnostics (stable order: workload, then pass, then pc/kind):");
    let mut any = false;
    for (name, w) in named {
        if w.lint.findings.is_empty() {
            continue;
        }
        any = true;
        println!("  {name}:");
        for f in &w.lint.findings {
            println!("    [{}] {}", f.variant, f.rendered);
        }
    }
    if !any {
        println!("  (none)");
    }

    write_lint_json(scale, named, total.agree, both, errors);

    let agreement_ok = both == 0 || pct >= AGREEMENT_BAR;
    if errors == 0 && agreement_ok {
        println!(
            "\numi-lint: PASS ({warnings} warnings, 0 errors, agreement bar {AGREEMENT_BAR:.0}%)"
        );
        true
    } else {
        println!(
            "\numi-lint: FAIL ({errors} error-severity findings, agreement {pct:.1}% vs bar {AGREEMENT_BAR:.0}%)"
        );
        false
    }
}

// --- Section 3: must-cache verdict coverage ---

/// Per-workload verdict counts of the original program.
#[derive(Default)]
struct AbsintRow {
    /// In-loop demand access sites (the classification population).
    sites: usize,
    /// Verdict tallies over those sites.
    hit: usize,
    miss: usize,
    persist: usize,
    unknown: usize,
    /// Why each in-loop site stayed unclassified, tallied per reason
    /// label — the JSON report's attribution of the coverage gap.
    reasons: BTreeMap<&'static str, usize>,
    /// Verdict groups whose soundness predicate could be evaluated
    /// (uniform verdict, bounds known, pc executed).
    checked: usize,
    /// Groups whose predicate the simulation contradicted.
    violations: usize,
}

impl AbsintRow {
    fn coverage(&self) -> f64 {
        if self.sites == 0 {
            return 0.0;
        }
        100.0 * (self.sites - self.unknown) as f64 / self.sites as f64
    }
}

fn absint_row(sites: &[CacheBehavior], verdicts: &[VerdictCheck]) -> AbsintRow {
    let mut row = AbsintRow::default();
    for r in sites.iter().filter(|r| r.in_loop) {
        row.sites += 1;
        match r.l1 {
            Verdict::AlwaysHit => row.hit += 1,
            Verdict::AlwaysMiss => row.miss += 1,
            Verdict::Persistent => row.persist += 1,
            Verdict::Unclassified => {
                row.unknown += 1;
                let label = r.reason.unwrap_or(UnclassifiedReason::JoinLoss).label();
                *row.reasons.entry(label).or_insert(0) += 1;
            }
        }
    }
    row.checked = verdicts.len();
    row.violations = verdicts.iter().filter(|c| !c.ok).count();
    row
}

/// Prints the verdict section and writes `results/umi_absint.json`;
/// returns whether every checked verdict held.
fn print_absint(scale: Scale, named: &[(&str, Workload)]) -> bool {
    println!("Abstract-interpretation cache verdicts vs exact simulation (Pentium 4 L1/L2)");
    let line = |name: &str, r: &AbsintRow| {
        println!(
            "{:<14} {:>5} {:>5} {:>5} {:>7} {:>7} {:>5.1}% {:>7} {:>7}",
            name,
            r.sites,
            r.hit,
            r.miss,
            r.persist,
            r.unknown,
            r.coverage(),
            r.checked,
            r.violations,
        );
    };
    println!(
        "{:<14} {:>5} {:>5} {:>5} {:>7} {:>7} {:>6} {:>7} {:>7}",
        "benchmark", "sites", "hit", "miss", "persist", "unknown", "cover", "checked", "violate"
    );
    let mut total = AbsintRow::default();
    let mut coverage_sum = 0.0;
    for (name, w) in named {
        let r = &w.absint;
        line(name, r);
        total.sites += r.sites;
        total.hit += r.hit;
        total.miss += r.miss;
        total.persist += r.persist;
        total.unknown += r.unknown;
        total.checked += r.checked;
        total.violations += r.violations;
        coverage_sum += r.coverage();
    }
    line("total", &total);

    let macro_avg = coverage_sum / named.len() as f64;
    println!(
        "\nmacro-average coverage (classified / in-loop sites, per workload): {macro_avg:.1}%"
    );
    println!(
        "soundness: {}/{} checked verdict groups hold against exact simulation",
        total.checked - total.violations,
        total.checked
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(scale)));
    out.push_str(&format!(
        "  \"macro_avg_coverage_percent\": {macro_avg:.1},\n"
    ));
    out.push_str(&format!("  \"violations\": {},\n", total.violations));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, w)) in named.iter().enumerate() {
        let row = &w.absint;
        let comma = if i + 1 < named.len() { "," } else { "" };
        let reasons = row
            .reasons
            .iter()
            .map(|(label, n)| format!("\"{label}\": {n}"))
            .collect::<Vec<String>>()
            .join(", ");
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"in_loop_sites\": {}, \"always_hit\": {}, \
             \"always_miss\": {}, \"persistent\": {}, \"unclassified\": {}, \
             \"unclassified_reasons\": {{{reasons}}}, \
             \"coverage_percent\": {:.1}, \"checked_groups\": {}, \"violations\": {}}}{comma}\n",
            name,
            row.sites,
            row.hit,
            row.miss,
            row.persist,
            row.unknown,
            row.coverage(),
            row.checked,
            row.violations,
        ));
    }
    out.push_str("  ]\n}\n");
    write_results("umi_absint.json", &out);

    if total.violations > 0 {
        println!(
            "\ntable-absint: FAIL ({} verdict groups contradicted)",
            total.violations
        );
        return false;
    }
    true
}

// --- Section 4: composed bounds and the static-vs-dynamic plan A/B ---

/// One workload's interval counts and A/B measurements.
struct PlanRow {
    /// Composed `(pc, kind)` groups checked.
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

/// The interval counts plus the plan A/B: the static plan and the
/// dynamic one go through the same rewriter and run natively, so the
/// normalized cycles isolate plan content. Also returns the
/// instructions the native runs retired.
fn plan_ab(
    program: &Program,
    report: &UmiReport,
    static_plan: &StaticPlanReport,
    (dynamic_plan, rewritten): (&PrefetchPlan, &Program),
    intervals: &IntervalAudit,
    native_off: &RunOutcome,
) -> (PlanRow, u64) {
    let static_hot: BTreeSet<u64> = static_plan
        .report
        .ranked_hot()
        .iter()
        .filter(|d| !d.is_store)
        .map(|d| d.pc.0)
        .collect();
    let dynamic_hot: BTreeSet<u64> = report.ranked_delinquents().iter().map(|pc| pc.0).collect();

    let mut insns = 0;
    let mut run = |plan: &PrefetchPlan, optimized: &Program| -> f64 {
        if plan.is_empty() {
            return 1.0; // the rewrite is the identity
        }
        let out = run_native(optimized, Platform::pentium4(), PrefetchSetting::Off);
        insns += out.insns;
        out.relative_to(native_off)
    };
    let splan = static_plan.plan();
    let (static_norm, dynamic_norm) = if splan.is_empty() && dynamic_plan.is_empty() {
        (None, None)
    } else {
        let static_rw = inject_prefetches(program, &splan);
        (
            Some(run(&splan, &static_rw)),
            Some(run(dynamic_plan, rewritten)),
        )
    };

    let row = PlanRow {
        groups: intervals.checked.len(),
        bounded: intervals.checked.iter().filter(|c| c.bound.bounded).count(),
        violations: intervals.violations().count() + usize::from(!intervals.aggregate_ok),
        ratio_lo: static_plan.report.l1_ratio.0,
        ratio_hi: static_plan.report.l1_ratio.1,
        measured: intervals.measured_l1_ratio(),
        agreement: jaccard_percent(&static_hot, &dynamic_hot),
        static_planned: splan.len(),
        dynamic_planned: dynamic_plan.len(),
        static_norm,
        dynamic_norm,
    };
    (row, insns)
}

/// Prints the bounds and A/B section and writes
/// `results/umi_staticplan.json`; returns whether every interval held.
fn print_plan(scale: Scale, named: &[(&str, Workload)]) -> bool {
    println!("Composed static miss bounds vs exact simulation (Pentium 4 L1/L2)");
    println!(
        "{:<14} {:>6} {:>7} {:>7}   {:>16} {:>8} {:>7}",
        "benchmark", "groups", "bounded", "violate", "static-l1-ratio", "measured", "agree"
    );
    let (mut groups, mut bounded, mut violations) = (0usize, 0usize, 0usize);
    for (name, w) in named {
        let r = &w.plan;
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
        groups += r.groups;
        bounded += r.bounded;
        violations += r.violations;
    }
    println!(
        "{:<14} {:>6} {:>7} {:>7}",
        "total", groups, bounded, violations
    );
    let agree_avg = mean(
        &named
            .iter()
            .map(|(_, w)| w.plan.agreement)
            .collect::<Vec<f64>>(),
    );
    println!("\nmacro-average delinquency-ranking agreement (static hot vs dynamic predicted): {agree_avg:.1}%");

    println!("\nPrefetch plan A/B (cycles normalized to native, prefetch off)");
    println!(
        "{:<14} {:>6} {:>6} {:>8} {:>8}",
        "benchmark", "s-plan", "d-plan", "static", "dynamic"
    );
    let (mut snorms, mut dnorms) = (Vec::new(), Vec::new());
    for (name, w) in named {
        let r = &w.plan;
        let (Some(sn), Some(dn)) = (r.static_norm, r.dynamic_norm) else {
            continue;
        };
        println!(
            "{:<14} {:>6} {:>6} {:>8.3} {:>8.3}",
            name, r.static_planned, r.dynamic_planned, sn, dn
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
        groups + named.len() - violations,
        groups + named.len()
    );

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", scale_name(scale)));
    out.push_str(&format!("  \"violations\": {violations},\n"));
    out.push_str(&format!(
        "  \"macro_avg_ranking_agreement_percent\": {agree_avg:.1},\n"
    ));
    out.push_str("  \"workloads\": [\n");
    let norm = |n: Option<f64>| n.map_or("null".to_string(), |v| format!("{v:.4}"));
    for (i, (name, w)) in named.iter().enumerate() {
        let r = &w.plan;
        let comma = if i + 1 < named.len() { "," } else { "" };
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
    write_results("umi_staticplan.json", &out);

    if violations > 0 {
        println!("\ntable-staticplan: FAIL ({violations} intervals violated)");
        return false;
    }
    true
}

fn main() {
    let scale = scale_from_env();
    let mut harness = Harness::new("umi_lint", scale);
    let specs = all32();
    let workloads: Vec<Workload> = harness.run(&specs, |spec| {
        let program = spec.build(scale);
        let (value, insns) = gate_workload(&program, spec.name);
        Cell {
            label: spec.name.to_string(),
            insns,
            value,
        }
    });
    let named: Vec<(&str, Workload)> = specs.iter().map(|s| s.name).zip(workloads).collect();

    print_classes(&named);
    println!();
    let lint_ok = print_lint(scale, &named);
    println!();
    let absint_ok = print_absint(scale, &named);
    println!();
    let plan_ok = print_plan(scale, &named);
    harness.finish();
    if !(lint_ok && absint_ok && plan_ok) {
        std::process::exit(1);
    }
}
