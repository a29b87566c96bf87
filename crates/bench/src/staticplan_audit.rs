//! Audit of composed whole-program miss-count intervals against exact
//! simulation.
//!
//! The miss-bound composer ([`compose_program`]) multiplies per-site
//! must-cache verdicts by trip/execution bounds into per-PC *intervals*:
//! demand accesses, L1 misses, and memory-level misses, each promised to
//! contain the count an actual run produces. This module runs the same
//! program to completion under the exact [`FullSimulator`] (L1 audit
//! enabled) and evaluates **every** composed group — unlike the absint
//! audit there is no "checkable" subset, because an interval is always
//! falsifiable from below and, when bounded, from above:
//!
//! * measured accesses ∈ `accesses` interval (trip analysis),
//! * measured L1 misses ∈ `l1` interval (verdict × trips),
//! * measured memory misses ∈ `mem` interval (containment),
//!
//! plus the three *aggregate* intervals over the workload's whole demand
//! stream. A violated interval is a soundness bug in the static layer —
//! never a workload property — so `table_staticplan` exits non-zero and
//! `umi_lint` reports it at Error severity.
//!
//! The lower bounds assume a run that completes (the VM runs to `Halt`
//! here, so the assumption is discharged by construction).

use std::borrow::Borrow;
use umi_analyze::{compose_program, PcMissBound, StaticReport};
use umi_cache::{CacheConfig, FullSimulator};
use umi_ir::Program;
use umi_vm::Vm;

/// One audited `(pc, kind)` group: the composed intervals next to the
/// exact counts the simulation attributed to the pc.
#[derive(Clone, Copy, Debug)]
pub struct BoundCheck {
    /// The composed bound under audit.
    pub bound: PcMissBound,
    /// Simulated demand accesses at the pc (this kind only).
    pub accesses: u64,
    /// Simulated L1 misses.
    pub l1_misses: u64,
    /// Simulated memory-level misses.
    pub mem_misses: u64,
}

impl BoundCheck {
    /// Whether all three measured counts fall inside their intervals.
    pub fn ok(&self) -> bool {
        in_exec(self.accesses, &self.bound)
            && self.bound.l1.contains(self.l1_misses)
            && self.bound.mem.contains(self.mem_misses)
    }

    /// Human-readable description of the first violated interval. Only
    /// meaningful when `ok()` is false.
    pub fn violation_message(&self) -> String {
        let what = if self.bound.is_store { "store" } else { "load" };
        let fmt = |lo: u64, hi: Option<u64>| match hi {
            Some(h) => format!("[{lo}, {h}]"),
            None => format!("[{lo}, inf)"),
        };
        if !in_exec(self.accesses, &self.bound) {
            format!(
                "{what}: {} accesses outside the execution interval {}",
                self.accesses,
                fmt(self.bound.accesses.min, self.bound.accesses.max)
            )
        } else if !self.bound.l1.contains(self.l1_misses) {
            format!(
                "{what}: {} L1 misses outside {} over {} accesses",
                self.l1_misses,
                fmt(self.bound.l1.lo, self.bound.l1.hi),
                self.accesses
            )
        } else {
            format!(
                "{what}: {} memory misses outside {} over {} accesses",
                self.mem_misses,
                fmt(self.bound.mem.lo, self.bound.mem.hi),
                self.accesses
            )
        }
    }
}

fn in_exec(n: u64, b: &PcMissBound) -> bool {
    n >= b.accesses.min && b.accesses.max.is_none_or(|h| n <= h)
}

/// The result of auditing one program: the composed report, every
/// group's evaluated intervals, and the measured aggregates.
///
/// The report is owned by default; [`audit_report`] also audits a
/// report borrowed from elsewhere, such as the one a
/// [`umi_prefetch::StaticPlanReport`] carries.
#[derive(Debug)]
pub struct StaticPlanAudit<R = StaticReport> {
    /// The composed static report under audit.
    pub report: R,
    /// Every composed group next to its measured counts.
    pub checked: Vec<BoundCheck>,
    /// Measured totals over the audited groups: accesses, L1 misses,
    /// memory misses.
    pub totals: (u64, u64, u64),
    /// Whether the three aggregate intervals contain the totals.
    pub aggregate_ok: bool,
    /// Instructions the audited run executed.
    pub insns: u64,
}

impl<R> StaticPlanAudit<R> {
    /// The groups whose intervals the simulation escaped.
    pub fn violations(&self) -> impl Iterator<Item = &BoundCheck> {
        self.checked.iter().filter(|c| !c.ok())
    }

    /// Measured whole-program L1 miss ratio (for display next to the
    /// static bounds).
    pub fn measured_l1_ratio(&self) -> f64 {
        let (a, m, _) = self.totals;
        if a == 0 {
            0.0
        } else {
            m as f64 / a as f64
        }
    }
}

/// Audits `program` at the paper's Pentium 4 geometry with the given
/// delinquency floor, running it to completion under the exact
/// simulator.
pub fn audit_staticplan(program: &Program, hot_miss_floor: f64) -> StaticPlanAudit {
    audit_staticplan_with(
        program,
        CacheConfig::pentium4_l1d(),
        CacheConfig::pentium4_l2(),
        hot_miss_floor,
    )
}

/// [`audit_staticplan`] at an arbitrary L1/L2 geometry.
pub fn audit_staticplan_with(
    program: &Program,
    l1: CacheConfig,
    l2: CacheConfig,
    hot_miss_floor: f64,
) -> StaticPlanAudit {
    let report = compose_program(program, &l1.geometry(), &l2.geometry(), hot_miss_floor);
    audit_report(program, report, l1, l2)
}

/// Audits an already composed `report` of `program` — owned or
/// borrowed — against one run to completion under the exact simulator
/// at `l1`/`l2`, which must be the geometry the report was composed at.
pub fn audit_report<R: Borrow<StaticReport>>(
    program: &Program,
    report: R,
    l1: CacheConfig,
    l2: CacheConfig,
) -> StaticPlanAudit<R> {
    let mut sim = FullSimulator::new(l1, l2).with_l1_audit();
    let result = Vm::new(program).run(&mut sim, u64::MAX);

    let composed = report.borrow();
    let mut checked = Vec::with_capacity(composed.per_pc.len());
    let mut totals = (0u64, 0u64, 0u64);
    for bound in &composed.per_pc {
        let l1t = sim.l1_per_pc().get(bound.pc);
        let mem = sim.per_pc().get(bound.pc);
        let (accesses, l1_misses, mem_misses) = if bound.is_store {
            (l1t.store_accesses, l1t.store_misses, mem.store_misses)
        } else {
            (l1t.load_accesses, l1t.load_misses, mem.load_misses)
        };
        totals.0 += accesses;
        totals.1 += l1_misses;
        totals.2 += mem_misses;
        checked.push(BoundCheck {
            bound: *bound,
            accesses,
            l1_misses,
            mem_misses,
        });
    }
    let aggregate_ok = totals.0 >= composed.accesses.min
        && composed.accesses.max.is_none_or(|h| totals.0 <= h)
        && composed.l1.contains(totals.1)
        && composed.mem.contains(totals.2);
    StaticPlanAudit {
        report,
        checked,
        totals,
        aggregate_ok,
        insns: result.stats.insns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::{ProgramBuilder, Reg, Width};

    /// The mixed kernel from the absint audit: an invariant line next to
    /// a stride sweep. Every composed interval must hold, including the
    /// exact-trip access counts.
    #[test]
    fn intervals_contain_the_exact_counts_on_a_mixed_kernel() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 64)
            .alloc(Reg::EDI, 8 * 256)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .load(Reg::EBX, Reg::EDI + (Reg::ECX, 8), Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 256)
            .br_lt(body, done);
        pb.block(done).push_val(Reg::EAX).push_val(Reg::EBX).ret();
        let _ = f;
        let audit = audit_staticplan(&pb.finish(), 0.10);
        assert_eq!(audit.violations().count(), 0);
        assert!(audit.aggregate_ok);
        // The loop loads execute exactly 256 times and the trip analysis
        // proves it: their access intervals are degenerate.
        let exact = audit
            .checked
            .iter()
            .filter(|c| {
                !c.bound.is_store
                    && c.bound.accesses
                        == umi_analyze::ExecBound {
                            min: 256,
                            max: Some(256),
                        }
            })
            .count();
        assert_eq!(exact, 2);
        // Measured ratio sits inside the static aggregate bounds.
        let m = audit.measured_l1_ratio();
        assert!(audit.report.l1_ratio.0 <= m && m <= audit.report.l1_ratio.1);
    }
}
