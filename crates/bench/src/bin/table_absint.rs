//! `table_absint`: the must-cache abstract interpreter of `umi-analyze`
//! audited against exact per-instruction simulation on all 32 workloads.
//!
//! The static side ([`umi_analyze::absint_program`]) classifies every
//! in-loop memory access site AlwaysHit / AlwaysMiss / Persistent /
//! Unclassified at the paper's Pentium 4 L1/L2 geometry, each verdict
//! carrying an auditable miss bound. The dynamic side is a
//! [`umi_cache::FullSimulator`] run with the L1 audit enabled, giving
//! exact per-pc L1 *and* memory miss counts, kept as a
//! [`GroundTruth`]. The shared verdict check
//! ([`umi_bench::audit::check_verdicts`]) evaluates every checkable
//! verdict group against the predicate its verdict promises; a single
//! contradiction exits non-zero — the verdicts are proofs, not
//! predictions.
//!
//! Coverage is the fraction of in-loop sites with a definite verdict;
//! the acceptance bar is the macro-average over workloads. A
//! machine-readable copy lands in `results/umi_absint.json`; stdout is
//! byte-stable at a fixed scale and diffed against
//! `results/golden/table_absint.txt` by `scripts/smoke.sh`.

use std::collections::BTreeMap;
use umi_analyze::{
    absint_program, render_errors, verify, CacheGeometry, UnclassifiedReason, Verdict,
};
use umi_bench::audit::{check_verdicts, GroundTruth};
use umi_bench::engine::{Cell, Harness};
use umi_bench::scale_from_env;
use umi_workloads::{all32, Scale};

/// Per-workload audit counts.
#[derive(Default)]
struct Row {
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

impl Row {
    fn coverage(&self) -> f64 {
        if self.sites == 0 {
            return 0.0;
        }
        100.0 * (self.sites - self.unknown) as f64 / self.sites as f64
    }
}

fn gate_workload(program: &umi_ir::Program, name: &str) -> (Row, u64) {
    if let Err(errs) = verify(program) {
        panic!(
            "{name}: verifier rejected the program:\n{}",
            render_errors(&errs)
        );
    }

    let rows = absint_program(
        program,
        &CacheGeometry::pentium4_l1d(),
        &CacheGeometry::pentium4_l2(),
    );
    let truth = GroundTruth::pentium4(program);
    let mut row = Row::default();
    for r in rows.iter().filter(|r| r.in_loop) {
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
    let checks = check_verdicts(&truth, &rows);
    row.checked = checks.len();
    for v in checks.iter().filter(|c| !c.ok) {
        row.violations += 1;
        eprintln!("{name}: {:#x} {}", v.pc.0, v.violation_message());
    }

    (row, truth.insns)
}

/// Serializes the audit as `results/umi_absint.json`. Best-effort: a
/// read-only checkout must not turn into a harness failure.
fn write_json(scale: Scale, rows: &[(String, Row)], macro_avg: f64) {
    let mut out = String::new();
    out.push_str("{\n");
    let scale_name = match scale {
        Scale::Test => "test",
        Scale::Bench => "bench",
    };
    out.push_str(&format!("  \"scale\": \"{scale_name}\",\n"));
    out.push_str(&format!(
        "  \"macro_avg_coverage_percent\": {macro_avg:.1},\n"
    ));
    let violations: usize = rows.iter().map(|(_, r)| r.violations).sum();
    out.push_str(&format!("  \"violations\": {violations},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, row)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
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
    let path = std::path::Path::new("results").join("umi_absint.json");
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, out));
    if let Err(e) = write {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() {
    let scale = scale_from_env();
    let mut harness = Harness::new("table_absint", scale);
    let rows: Vec<Row> = harness.run(&all32(), |spec| {
        let program = spec.build(scale);
        let (row, insns) = gate_workload(&program, spec.name);
        Cell {
            label: spec.name.to_string(),
            insns,
            value: row,
        }
    });

    println!("Abstract-interpretation cache verdicts vs exact simulation (Pentium 4 L1/L2)");
    println!(
        "{:<14} {:>5} {:>5} {:>5} {:>7} {:>7} {:>6} {:>7} {:>7}",
        "benchmark", "sites", "hit", "miss", "persist", "unknown", "cover", "checked", "violate"
    );
    let named: Vec<(String, Row)> = all32()
        .iter()
        .map(|s| s.name.to_string())
        .zip(rows)
        .collect();
    let mut total = Row::default();
    let mut coverage_sum = 0.0;
    for (name, row) in &named {
        println!(
            "{:<14} {:>5} {:>5} {:>5} {:>7} {:>7} {:>5.1}% {:>7} {:>7}",
            name,
            row.sites,
            row.hit,
            row.miss,
            row.persist,
            row.unknown,
            row.coverage(),
            row.checked,
            row.violations,
        );
        total.sites += row.sites;
        total.hit += row.hit;
        total.miss += row.miss;
        total.persist += row.persist;
        total.unknown += row.unknown;
        total.checked += row.checked;
        total.violations += row.violations;
        coverage_sum += row.coverage();
    }
    println!(
        "{:<14} {:>5} {:>5} {:>5} {:>7} {:>7} {:>5.1}% {:>7} {:>7}",
        "total",
        total.sites,
        total.hit,
        total.miss,
        total.persist,
        total.unknown,
        total.coverage(),
        total.checked,
        total.violations,
    );

    let macro_avg = coverage_sum / named.len() as f64;
    println!(
        "\nmacro-average coverage (classified / in-loop sites, per workload): {macro_avg:.1}%"
    );
    println!(
        "soundness: {}/{} checked verdict groups hold against exact simulation",
        total.checked - total.violations,
        total.checked
    );

    write_json(scale, &named, macro_avg);

    if total.violations > 0 {
        println!(
            "\ntable-absint: FAIL ({} verdict groups contradicted)",
            total.violations
        );
        harness.finish();
        std::process::exit(1);
    }
    harness.finish();
}
