//! `umi_lint`: the static CI gate — delinquent-load prediction, IR
//! lints, and prefetch-plan verification over all 32 workloads *and*
//! their prefetch-rewritten variants.
//!
//! Per workload the gate runs six static passes:
//!
//! 1. the IR verifier ([`umi_analyze::verify`]) on the original program
//!    (a rejection is a build bug and aborts the harness);
//! 2. the lint suite ([`umi_analyze::lint_program`]) on the original;
//! 3. the static cache-behavior model
//!    ([`umi_analyze::predict_program`]) against the profiler's
//!    effective logical-cache geometry, scored for agreement against the
//!    *dynamic* delinquency labels of a full UMI run;
//! 4. the prefetch pipeline (`PrefetchPlan::from_report` →
//!    [`inject_prefetches`]) followed by verifier + lints + the plan
//!    checker ([`check_rewritten`]) on the rewritten program;
//! 5. the absint soundness gate ([`umi_bench::audit::check_verdicts`]):
//!    every must-cache verdict (AlwaysHit / AlwaysMiss / Persistent)
//!    proved over the original *and* the rewritten program (hints must
//!    never earn residency credit), each checked against exact per-pc
//!    simulation — a contradicted verdict is an Error and fails CI. The
//!    original's verdicts are the `sites` of its composed report (pass
//!    6); the rewrite's come from [`umi_analyze::absint_program`];
//! 6. the static-bound audit ([`umi_bench::audit::check_intervals`]):
//!    the composed whole-program miss-count intervals (absint verdicts ×
//!    trip bounds, [`umi_analyze::compose_program`]) checked per
//!    `(pc, kind)` group and in aggregate against the original's
//!    [`GroundTruth`] — an escaped interval is likewise an Error.
//!
//! Each program is simulated exactly once. The original is also
//! analyzed once: its composed report supplies pass 5's verdicts and is
//! pass 6's subject, and its one [`GroundTruth`] serves both passes.
//!
//! Stdout is the agreement table plus every diagnostic, byte-stable at a
//! fixed scale (diffed against `results/golden/umi_lint.txt` by
//! `scripts/smoke.sh`). A machine-readable copy lands in
//! `results/umi_lint.json`. The process exits non-zero on any
//! Error-severity diagnostic or when static-vs-dynamic agreement drops
//! below the 70% bar, so CI can gate on it directly.

use umi_analyze::{
    absint_program, compose_program, lint_program, predict_program, render_errors, verify,
    CacheBehavior, CacheGeometry, Delinquency, Severity,
};
use umi_bench::audit::{check_intervals, check_verdicts, GroundTruth};
use umi_bench::engine::{Cell, Harness};
use umi_bench::scale_from_env;
use umi_core::{DynamicDelinquency, UmiConfig, UmiRuntime};
use umi_prefetch::{check_rewritten, inject_prefetches, PrefetchPlan};
use umi_vm::NullSink;
use umi_workloads::{all32, Scale};

/// Prefetch distance (in references ahead) used for the rewrite under
/// test — the mid-range setting of the paper's Figure 4 sweep.
const DISTANCE_REFS: i64 = 32;

/// Minimum static-vs-dynamic delinquency agreement (both sides definite)
/// the gate accepts, in percent.
const AGREEMENT_BAR: f64 = 70.0;

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

/// Per-workload gate results.
#[derive(Default)]
struct Row {
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
    /// Must-cache verdict groups whose soundness predicate was audited
    /// against exact simulation (violations land in `findings`).
    absint_checked: usize,
    absint_violations: usize,
    /// Composed miss-bound interval groups audited against the same
    /// simulation (per-pc groups + the aggregate check).
    staticplan_checked: usize,
    staticplan_violations: usize,
    /// All diagnostics, already stably ordered per pass.
    findings: Vec<Finding>,
}

impl Row {
    fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }
}

/// Whether a static and a dynamic delinquency verdict match. Only called
/// when both sides are definite.
fn agrees(s: Delinquency, d: DynamicDelinquency) -> bool {
    matches!(
        (s, d),
        (Delinquency::PredictHot, DynamicDelinquency::Hot)
            | (Delinquency::PredictCold, DynamicDelinquency::Cold)
    )
}

/// Runs the static passes plus the dynamic cross-check for one
/// workload. Pure function of the (program, scale) pair.
fn gate_workload(program: &umi_ir::Program, name: &str) -> (Row, u64) {
    if let Err(errs) = verify(program) {
        panic!(
            "{name}: verifier rejected the original program:\n{}",
            render_errors(&errs)
        );
    }

    let config = UmiConfig::no_sampling();
    let floor = config.delinquency_floor;
    // One shared source of truth for geometry: the profiler's effective
    // logical cache, converted through `umi-geom` instead of hand-copied
    // field by field (the fields can never silently drift again).
    let geom = config.effective_sim_cache().geometry();

    let mut row = Row::default();
    for lint in lint_program(program) {
        row.findings.push(Finding {
            variant: "orig",
            severity: lint.severity,
            pc: Some(lint.pc.0),
            kind: lint.kind.name(),
            message: lint.message.clone(),
            rendered: lint.to_string(),
        });
    }

    let preds = predict_program(program, &geom, floor);

    let mut umi = UmiRuntime::new(program, config);
    let report = umi.run(&mut NullSink, u64::MAX);
    let insns = report.vm_stats.insns;

    // Static verdict vs dynamic label, loads only (UMI's delinquency
    // machinery tracks loads; stores never enter the predicted set).
    for p in preds
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
            if agrees(p.verdict, dynamic) {
                row.agree += 1;
            } else {
                row.disagree += 1;
            }
        }
    }

    // The prefetch-rewritten variant: plan from the dynamic report,
    // inject, then re-verify, re-lint, and check the plan.
    let plan = PrefetchPlan::from_report(&report, DISTANCE_REFS);
    row.hints = plan.len();
    let rewritten = inject_prefetches(program, &plan);
    if let Err(errs) = verify(&rewritten) {
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
    for lint in lint_program(&rewritten) {
        row.findings.push(Finding {
            variant: "rw",
            severity: lint.severity,
            pc: Some(lint.pc.0),
            kind: lint.kind.name(),
            message: lint.message.clone(),
            rendered: lint.to_string(),
        });
    }
    for diag in check_rewritten(&rewritten, &geom, &CacheGeometry::pentium4_l2(), floor) {
        row.findings.push(Finding {
            variant: "rw",
            severity: diag.severity(),
            pc: Some(diag.pc.0),
            kind: diag.kind.name(),
            message: diag.message.clone(),
            rendered: diag.to_string(),
        });
    }

    // The absint soundness gate: every must-cache verdict the abstract
    // interpreter proves, checked against exact per-pc simulation at the
    // paper's P4 geometry. Both the original program and its rewritten
    // variant are audited — the rewrite is the one program shape whose
    // verdicts `check_rewritten` consumes, and its prefetch hints are
    // exactly what the simulators ignore. A violation is a soundness bug
    // in the analysis — always Error severity. The original's verdicts
    // are the sites of its composed report, which the static-bound audit
    // below checks against the same run.
    let (g1, g2) = (CacheGeometry::pentium4_l1d(), CacheGeometry::pentium4_l2());
    let composed = compose_program(program, &g1, &g2, floor);
    let orig_rows: Vec<CacheBehavior> = composed.sites.iter().map(|s| s.behavior).collect();
    let rw_rows = absint_program(&rewritten, &g1, &g2);
    let [orig_truth, rw_truth] = [program, &rewritten].map(GroundTruth::pentium4);
    for (variant, rows, truth) in [
        ("orig", &orig_rows, &orig_truth),
        ("rw", &rw_rows, &rw_truth),
    ] {
        let checks = check_verdicts(truth, rows);
        row.absint_checked += checks.len();
        for v in checks.iter().filter(|c| !c.ok) {
            row.absint_violations += 1;
            row.findings.push(Finding {
                variant,
                severity: Severity::Error,
                pc: Some(v.pc.0),
                kind: "absint-soundness",
                message: v.violation_message(),
                rendered: format!(
                    "{:#x} [error] absint-soundness: {}",
                    v.pc.0,
                    v.violation_message()
                ),
            });
        }
    }

    // The static-bound audit: whole-program miss-count intervals
    // (absint verdicts × trip bounds) against the original's run.
    // Original program only — the intervals are composed for it, and the
    // rewritten variant's verdicts are already covered above.
    let splan = check_intervals(&orig_truth, &composed);
    row.staticplan_checked = splan.checked.len() + 1; // + the aggregate
    for v in splan.violations() {
        row.staticplan_violations += 1;
        row.findings.push(Finding {
            variant: "orig",
            severity: Severity::Error,
            pc: Some(v.bound.pc.0),
            kind: "staticplan-bound",
            message: v.violation_message(),
            rendered: format!(
                "{:#x} [error] staticplan-bound: {}",
                v.bound.pc.0,
                v.violation_message()
            ),
        });
    }
    if !splan.aggregate_ok {
        row.staticplan_violations += 1;
        row.findings.push(Finding {
            variant: "orig",
            severity: Severity::Error,
            pc: None,
            kind: "staticplan-bound",
            message: "aggregate miss-count interval violated".to_string(),
            rendered: "[error] staticplan-bound: aggregate miss-count interval violated"
                .to_string(),
        });
    }

    (row, insns)
}

/// Minimal JSON string escaping for the hand-rolled report (the crate
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

/// Serializes the full gate result as `results/umi_lint.json`.
/// Best-effort: a read-only checkout must not turn into a gate failure.
fn write_json(scale: Scale, rows: &[(String, Row)], agree: usize, both: usize, errors: usize) {
    let mut out = String::new();
    out.push_str("{\n");
    let scale_name = match scale {
        Scale::Test => "test",
        Scale::Bench => "bench",
    };
    out.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    out.push_str(&format!(
        "  \"agreement\": {{\"agree\": {agree}, \"both_definite\": {both}, \"percent\": {:.1}}},\n",
        if both > 0 {
            100.0 * agree as f64 / both as f64
        } else {
            0.0
        }
    ));
    out.push_str(&format!("  \"error_findings\": {errors},\n"));
    let checked: usize = rows.iter().map(|(_, r)| r.absint_checked).sum();
    let violated: usize = rows.iter().map(|(_, r)| r.absint_violations).sum();
    out.push_str(&format!(
        "  \"absint_soundness\": {{\"checked\": {checked}, \"violations\": {violated}}},\n"
    ));
    let sp_checked: usize = rows.iter().map(|(_, r)| r.staticplan_checked).sum();
    let sp_violated: usize = rows.iter().map(|(_, r)| r.staticplan_violations).sum();
    out.push_str(&format!(
        "  \"staticplan_bounds\": {{\"checked\": {sp_checked}, \"violations\": {sp_violated}}},\n"
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, row)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
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
    let path = std::path::Path::new("results").join("umi_lint.json");
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, out));
    if let Err(e) = write {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    let scale = scale_from_env();
    let mut harness = Harness::new("umi_lint", scale);
    let rows: Vec<Row> = harness.run(&all32(), |spec| {
        let program = spec.build(scale);
        let (row, insns) = gate_workload(&program, spec.name);
        Cell {
            label: spec.name.to_string(),
            insns,
            value: row,
        }
    });

    println!("umi-lint: static delinquency model, IR lints, prefetch-plan verification");
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
    let named: Vec<(String, Row)> = all32()
        .iter()
        .map(|s| s.name.to_string())
        .zip(rows)
        .collect();
    let mut total = Row::default();
    let mut warnings = 0usize;
    let mut errors = 0usize;
    for (name, row) in &named {
        println!(
            "{:<14} {:>5} {:>5} {:>6} {:>5} {:>5} {:>6} {:>5} {:>6} {:>5} {:>4} {:>3}",
            name,
            row.loads,
            row.s_hot,
            row.s_cold,
            row.s_unknown,
            row.d_hot,
            row.d_cold,
            row.agree,
            row.disagree,
            row.hints,
            row.warnings(),
            row.errors(),
        );
        total.loads += row.loads;
        total.s_hot += row.s_hot;
        total.s_cold += row.s_cold;
        total.s_unknown += row.s_unknown;
        total.d_hot += row.d_hot;
        total.d_cold += row.d_cold;
        total.agree += row.agree;
        total.disagree += row.disagree;
        total.hints += row.hints;
        warnings += row.warnings();
        errors += row.errors();
    }
    println!(
        "{:<14} {:>5} {:>5} {:>6} {:>5} {:>5} {:>6} {:>5} {:>6} {:>5} {:>4} {:>3}",
        "total",
        total.loads,
        total.s_hot,
        total.s_cold,
        total.s_unknown,
        total.d_hot,
        total.d_cold,
        total.agree,
        total.disagree,
        total.hints,
        warnings,
        errors,
    );

    let both = total.agree + total.disagree;
    let pct = if both > 0 {
        100.0 * total.agree as f64 / both as f64
    } else {
        0.0
    };
    println!("\nstatic-vs-dynamic delinquency agreement where both sides are definite: {}/{both} ({pct:.1}%)", total.agree);

    println!("\ndiagnostics (stable order: workload, then pass, then pc/kind):");
    let mut any = false;
    for (name, row) in &named {
        if row.findings.is_empty() {
            continue;
        }
        any = true;
        println!("  {name}:");
        for f in &row.findings {
            println!("    [{}] {}", f.variant, f.rendered);
        }
    }
    if !any {
        println!("  (none)");
    }

    write_json(scale, &named, total.agree, both, errors);

    let agreement_ok = both == 0 || pct >= AGREEMENT_BAR;
    if errors == 0 && agreement_ok {
        println!(
            "\numi-lint: PASS ({warnings} warnings, 0 errors, agreement bar {AGREEMENT_BAR:.0}%)"
        );
        harness.finish();
    } else {
        println!(
            "\numi-lint: FAIL ({errors} error-severity findings, agreement {pct:.1}% vs bar {AGREEMENT_BAR:.0}%)"
        );
        harness.finish();
        std::process::exit(1);
    }
}
