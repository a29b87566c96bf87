//! Static cache claims checked against one exact run per program.
//!
//! A [`GroundTruth`] is the paper's ground truth (§7: Cachegrind
//! modified to count misses per instruction): one run of a program
//! under the [`FullSimulator`] with its L1 audit enabled, keeping the
//! exact per-pc L1 and memory-level (L2) tables. Two pure checks read
//! it, so a program measured once can be audited both ways:
//!
//! * [`check_verdicts`] — the must-cache verdicts of
//!   [`umi_analyze::absint_program`], one group per `(pc, is_store)`
//!   with a uniform classified verdict, each against the predicate it
//!   promises:
//!   * **AlwaysHit** — L1 misses ≤ Σ entries bounds (only the cold
//!     access on each loop entry may miss);
//!   * **Persistent** — L1 misses ≤ Σ lines × entries bounds (each
//!     swept line misses at most once per entry);
//!   * **AlwaysMiss** — misses == accesses, at L1 *and* at memory.
//! * [`check_intervals`] — the miss-count intervals of
//!   [`umi_analyze::compose_program`], **every** `(pc, kind)` group:
//!   measured accesses, L1 misses and memory misses each inside their
//!   interval, plus the three aggregate intervals over the whole demand
//!   stream. The lower bounds hold only for a run that reaches `Halt`,
//!   so this check refuses a truncated run.
//!
//! A failed check is a soundness bug in the static layer — never a
//! workload property — so `umi_lint` reports it at Error severity and
//! exits non-zero. The property test
//! in `tests/absint_soundness.rs` drives both checks under randomized
//! geometries and kernels.

use umi_analyze::{compose_program, CacheBehavior, PcMissBound, StaticReport, Verdict};
use umi_cache::{CacheConfig, FullSimulator, PerPcStats};
use umi_ir::{Pc, Program};
use umi_vm::Vm;

/// Exact per-pc counts from one run of a program at one L1/L2 geometry.
#[derive(Debug)]
pub struct GroundTruth {
    /// Per-pc demand accesses and L1 misses.
    l1: PerPcStats,
    /// Per-pc demand accesses and memory-level misses.
    mem: PerPcStats,
    /// Instructions the run executed.
    pub insns: u64,
    /// Whether the run reached `Halt` (else it ran out of fuel).
    pub finished: bool,
}

impl GroundTruth {
    /// Runs `program` under the exact simulator at `l1`/`l2` for at
    /// most `max_insns` instructions.
    pub fn measure(program: &Program, l1: CacheConfig, l2: CacheConfig, max_insns: u64) -> Self {
        let mut sim = FullSimulator::new(l1, l2).with_l1_audit();
        let result = Vm::new(program).run(&mut sim, max_insns);
        GroundTruth {
            l1: sim.l1_per_pc().clone(),
            mem: sim.per_pc().clone(),
            insns: result.stats.insns,
            finished: result.finished,
        }
    }

    /// Runs `program` to completion at the paper's Pentium 4 geometry.
    pub fn pentium4(program: &Program) -> Self {
        let (l1, l2) = pentium4();
        GroundTruth::measure(program, l1, l2, u64::MAX)
    }

    /// `(accesses, L1 misses, memory misses)` of one pc's loads or
    /// stores (demand only).
    pub fn counts(&self, pc: Pc, is_store: bool) -> (u64, u64, u64) {
        let (l1, mem) = (self.l1.get(pc), self.mem.get(pc));
        if is_store {
            (l1.store_accesses, l1.store_misses, mem.store_misses)
        } else {
            (l1.load_accesses, l1.load_misses, mem.load_misses)
        }
    }
}

fn pentium4() -> (CacheConfig, CacheConfig) {
    (CacheConfig::pentium4_l1d(), CacheConfig::pentium4_l2())
}

/// One checked verdict group: every access site of one `(pc, is_store)`
/// pair, all carrying the same classified verdict with known bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerdictCheck {
    /// The audited instruction.
    pub pc: Pc,
    /// Whether the group is the instruction's store half.
    pub is_store: bool,
    /// The uniform verdict across the group's sites.
    pub verdict: Verdict,
    /// Measured demand accesses at the pc (this kind only).
    pub accesses: u64,
    /// Measured L1 misses.
    pub l1_misses: u64,
    /// Measured memory-level misses.
    pub mem_misses: u64,
    /// The miss bound the verdict promised (Σ over the group's sites;
    /// `accesses` itself for AlwaysMiss).
    pub bound: u64,
    /// Whether the run upheld the predicate.
    pub ok: bool,
}

impl VerdictCheck {
    /// Human-readable description of a violated predicate. Only
    /// meaningful when `ok` is false.
    pub fn violation_message(&self) -> String {
        let what = if self.is_store { "store" } else { "load" };
        match self.verdict {
            Verdict::AlwaysHit => format!(
                "AlwaysHit {what}: {} L1 misses exceed the {}-entry bound over {} accesses",
                self.l1_misses, self.bound, self.accesses
            ),
            Verdict::Persistent => format!(
                "Persistent {what}: {} L1 misses exceed the lines*entries bound {} over {} accesses",
                self.l1_misses, self.bound, self.accesses
            ),
            Verdict::AlwaysMiss => format!(
                "AlwaysMiss {what}: {} L1 / {} memory misses over {} accesses (all three must be equal)",
                self.l1_misses, self.mem_misses, self.accesses
            ),
            Verdict::Unclassified => unreachable!("unclassified groups are never checked"),
        }
    }
}

/// Checks every checkable verdict group of `rows` — per-site verdicts
/// sorted by `(pc, is_store)`, as [`umi_analyze::absint_program`]
/// returns them and a composed report's `sites` carry them — against
/// `truth`. A group is checkable when its verdict is uniform and
/// classified, its bounds are known, and its pc ran.
pub fn check_verdicts(truth: &GroundTruth, rows: &[CacheBehavior]) -> Vec<VerdictCheck> {
    rows.chunk_by(|a, b| (a.pc, a.is_store) == (b.pc, b.is_store))
        .filter_map(|group| check_group(truth, group))
        .collect()
}

fn check_group(truth: &GroundTruth, group: &[CacheBehavior]) -> Option<VerdictCheck> {
    let verdict = group[0].l1;
    if group.iter().any(|r| r.l1 != verdict) || !verdict.classified() {
        return None;
    }
    let (pc, is_store) = (group[0].pc, group[0].is_store);
    let (accesses, l1_misses, mem_misses) = truth.counts(pc, is_store);
    if accesses == 0 {
        return None; // never executed: nothing to audit
    }
    let (bound, ok) = match verdict {
        Verdict::AlwaysHit => {
            let bound: u64 = group.iter().map(|r| r.entries_bound).sum::<Option<u64>>()?;
            (bound, l1_misses <= bound)
        }
        Verdict::Persistent => {
            let bound: u64 = group
                .iter()
                .map(|r| Some(r.lines_bound? * r.entries_bound?))
                .sum::<Option<u64>>()?;
            (bound, l1_misses <= bound)
        }
        Verdict::AlwaysMiss => (accesses, l1_misses == accesses && mem_misses == accesses),
        Verdict::Unclassified => return None,
    };
    Some(VerdictCheck {
        pc,
        is_store,
        verdict,
        accesses,
        l1_misses,
        mem_misses,
        bound,
        ok,
    })
}

/// One checked `(pc, kind)` group: the composed intervals next to the
/// measured counts.
#[derive(Clone, Copy, Debug)]
pub struct BoundCheck {
    /// The composed bound under audit.
    pub bound: PcMissBound,
    /// Measured demand accesses at the pc (this kind only).
    pub accesses: u64,
    /// Measured L1 misses.
    pub l1_misses: u64,
    /// Measured memory-level misses.
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

/// The result of [`check_intervals`].
#[derive(Debug)]
pub struct IntervalAudit {
    /// Every composed group next to its measured counts, in the
    /// report's `per_pc` order.
    pub checked: Vec<BoundCheck>,
    /// Measured totals over the checked groups: accesses, L1 misses,
    /// memory misses.
    pub totals: (u64, u64, u64),
    /// Whether the three aggregate intervals contain the totals.
    pub aggregate_ok: bool,
}

impl IntervalAudit {
    /// The groups whose intervals the run escaped.
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

/// Checks every interval of `report` against `truth`, which must be a
/// run of the program the report was composed for, at the same
/// geometry.
///
/// # Panics
///
/// Panics if the run did not reach `Halt`: the composed lower bounds
/// count whole runs, so a truncated one would report false escapes.
pub fn check_intervals(truth: &GroundTruth, report: &StaticReport) -> IntervalAudit {
    assert!(
        truth.finished,
        "interval check against a run that ran out of fuel after {} instructions \
         (composed lower bounds hold only for a run that reaches Halt)",
        truth.insns
    );
    let mut totals = (0u64, 0u64, 0u64);
    let checked: Vec<BoundCheck> = report
        .per_pc
        .iter()
        .map(|bound| {
            let (accesses, l1_misses, mem_misses) = truth.counts(bound.pc, bound.is_store);
            totals.0 += accesses;
            totals.1 += l1_misses;
            totals.2 += mem_misses;
            BoundCheck {
                bound: *bound,
                accesses,
                l1_misses,
                mem_misses,
            }
        })
        .collect();
    let aggregate_ok = totals.0 >= report.accesses.min
        && report.accesses.max.is_none_or(|h| totals.0 <= h)
        && report.l1.contains(totals.1)
        && report.mem.contains(totals.2);
    IntervalAudit {
        checked,
        totals,
        aggregate_ok,
    }
}

/// A composed report together with its interval check, as
/// [`audit_staticplan`] returns them.
#[derive(Debug)]
pub struct StaticPlanAudit {
    /// The composed report under audit.
    pub report: StaticReport,
    /// See [`IntervalAudit::checked`].
    pub checked: Vec<BoundCheck>,
    /// See [`IntervalAudit::aggregate_ok`].
    pub aggregate_ok: bool,
}

impl StaticPlanAudit {
    /// The groups whose intervals the run escaped.
    pub fn violations(&self) -> impl Iterator<Item = &BoundCheck> {
        self.checked.iter().filter(|c| !c.ok())
    }
}

/// Composes `program` at the paper's Pentium 4 geometry with the given
/// delinquency floor and checks the report against one run to `Halt`.
/// The benchmark's self-test holds its own interval audit equal to this
/// one.
pub fn audit_staticplan(program: &Program, hot_miss_floor: f64) -> StaticPlanAudit {
    let (l1, l2) = pentium4();
    let report = compose_program(program, &l1.geometry(), &l2.geometry(), hot_miss_floor);
    let IntervalAudit {
        checked,
        aggregate_ok,
        ..
    } = check_intervals(&GroundTruth::pentium4(program), &report);
    StaticPlanAudit {
        report,
        checked,
        aggregate_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_analyze::{absint_program, ExecBound};
    use umi_ir::{ProgramBuilder, Reg, Width};

    /// A loop re-reading one invariant line while sweeping another array.
    fn mixed_kernel() -> Program {
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
        pb.finish()
    }

    /// Both checks from one run: the invariant load holds as AlwaysHit,
    /// the sweep as Persistent, and every composed interval contains
    /// its measured count, including the exact-trip access counts.
    #[test]
    fn one_run_upholds_verdicts_and_intervals_on_a_mixed_kernel() {
        let program = mixed_kernel();
        let (l1, l2) = pentium4();
        let (g1, g2) = (l1.geometry(), l2.geometry());
        let truth = GroundTruth::pentium4(&program);
        assert!(truth.finished);

        let verdicts = check_verdicts(&truth, &absint_program(&program, &g1, &g2));
        assert!(verdicts.iter().all(|c| c.ok));
        for verdict in [Verdict::AlwaysHit, Verdict::Persistent] {
            assert!(verdicts.iter().any(|c| c.verdict == verdict));
        }

        let report = compose_program(&program, &g1, &g2, 0.10);
        let intervals = check_intervals(&truth, &report);
        assert_eq!(intervals.violations().count(), 0);
        assert!(intervals.aggregate_ok);
        // The loop loads execute exactly 256 times and the trip analysis
        // proves it: their access intervals are degenerate.
        let exact = ExecBound {
            min: 256,
            max: Some(256),
        };
        let pinned = intervals
            .checked
            .iter()
            .filter(|c| !c.bound.is_store && c.bound.accesses == exact)
            .count();
        assert_eq!(pinned, 2);
        // Measured ratio sits inside the static aggregate bounds.
        let m = intervals.measured_l1_ratio();
        assert!(report.l1_ratio.0 <= m && m <= report.l1_ratio.1);
    }

    /// A run cut short by fuel undercounts every access, so the interval
    /// check must refuse it rather than report escapes.
    #[test]
    #[should_panic(expected = "reaches Halt")]
    fn interval_check_refuses_a_truncated_run() {
        let program = mixed_kernel();
        let (l1, l2) = pentium4();
        let report = compose_program(&program, &l1.geometry(), &l2.geometry(), 0.10);
        let truth = GroundTruth::measure(&program, l1, l2, 100);
        assert!(!truth.finished);
        check_intervals(&truth, &report);
    }
}
