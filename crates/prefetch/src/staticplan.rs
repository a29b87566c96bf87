//! A fully static prefetch planner — the compiler-side competitor the
//! paper's dynamic-vs-static comparison needs.
//!
//! Dynamic UMI earns its plan with a profiling pass: mini-simulations
//! label delinquent loads, online stride detection picks the pattern,
//! and [`PrefetchPlan::from_report`] turns both into displacements. This
//! module produces a plan from *analysis alone* — no instruction is ever
//! executed:
//!
//! * **candidates** — loads whose `(pc, load)` group the static
//!   miss-bound composer ([`umi_analyze::compose_program`]) labels hot,
//!   either by an absint-backed proof (miss-ratio lower bound above the
//!   delinquency floor) or by the affine heuristic, *and* whose address
//!   the affine classifier proves constant-stride;
//! * **distance** — a static latency model: cover the memory round-trip
//!   ([`PENTIUM4_MEMORY_CYCLES`]) assuming one cycle per instruction of
//!   the load's block per iteration, i.e. `refs = ceil(mem_cycles /
//!   block_len)`, then clamp `stride × refs` to the same
//!   [`MIN_PREFETCH_DISTANCE_BYTES`]..[`PAGE_BYTES`] window the dynamic
//!   planner uses (sign preserved for descending sweeps).
//!
//! The output feeds the existing [`inject_prefetches`] rewriting path
//! unchanged, so `umi_lint`'s plan A/B can run static and dynamic
//! plans through the identical machinery and attribute every cycle of
//! difference to plan *content*, not plumbing.
//!
//! [`inject_prefetches`]: crate::inject_prefetches

use crate::plan::{PlanEntry, PrefetchPlan};
use umi_analyze::{CacheGeometry, Delinquency, ProgramFacts, StaticClass, StaticRef, StaticReport};
use umi_cache::{MIN_PREFETCH_DISTANCE_BYTES, PAGE_BYTES, PENTIUM4_MEMORY_CYCLES};
use umi_ir::{Pc, Program};

/// One statically planned prefetch, with the provenance the study and
/// lint passes report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticPlanEntry {
    /// The planned load.
    pub pc: Pc,
    /// Statically proven reference stride in bytes.
    pub stride: i64,
    /// References of lookahead the latency model chose.
    pub distance_refs: i64,
    /// The clamped displacement actually injected.
    pub distance_bytes: i64,
    /// Whether the hot label was an absint/trip-count proof (else the
    /// affine heuristic).
    pub proven: bool,
}

/// The static planner's full output: the plan plus the per-load choices
/// and the composed report they were drawn from.
#[derive(Clone, Debug)]
pub struct StaticPlanReport {
    /// Planned loads, stably ordered by pc.
    pub entries: Vec<StaticPlanEntry>,
    /// The whole-program miss-bound composition the candidates came from.
    pub report: StaticReport,
}

impl StaticPlanReport {
    /// The plan in the shape [`inject_prefetches`] consumes.
    ///
    /// [`inject_prefetches`]: crate::inject_prefetches
    pub fn plan(&self) -> PrefetchPlan {
        PrefetchPlan::from_entries(self.entries.iter().map(|e| {
            (
                e.pc,
                PlanEntry {
                    stride: e.stride,
                    distance_bytes: e.distance_bytes,
                },
            )
        }))
    }
}

/// Plans prefetches from static analysis alone (see module docs).
///
/// `hot_miss_floor` is the delinquency floor shared with the dynamic
/// profiler, so the two plans disagree only where the *evidence*
/// differs.
pub fn static_prefetch_plan(
    program: &Program,
    l1: &CacheGeometry,
    l2: &CacheGeometry,
    hot_miss_floor: f64,
) -> StaticPlanReport {
    static_prefetch_plan_with(&ProgramFacts::new(program), l1, l2, hot_miss_floor)
}

/// [`static_prefetch_plan`] over facts the caller already holds, so the
/// planner shares them with its other passes over the same program.
pub fn static_prefetch_plan_with(
    facts: &ProgramFacts<'_>,
    l1: &CacheGeometry,
    l2: &CacheGeometry,
    hot_miss_floor: f64,
) -> StaticPlanReport {
    let program = facts.program();
    let report = facts.compose(l1, l2, hot_miss_floor);

    // Stride and block length per load pc: every load site at the pc
    // must agree on a single proven constant stride, else the pc is
    // unplannable. The classified refs are pc-sorted, so each pc's load
    // sites form one run.
    let stride_of = |r: &StaticRef| match r.class {
        StaticClass::ConstantStride(s) if s != 0 => Some(s),
        _ => None,
    };
    let loads: Vec<&StaticRef> = facts.refs().iter().filter(|r| !r.is_store).collect();
    let strides: Vec<(Pc, Option<i64>, usize)> = loads
        .chunk_by(|a, b| a.pc == b.pc)
        .map(|run| {
            let s = stride_of(run[0]);
            let agreed = run.iter().all(|r| stride_of(r) == s).then_some(s).flatten();
            (run[0].pc, agreed, program.block(run[0].block).insns.len())
        })
        .collect();

    let mut entries = Vec::new();
    for d in &report.delinquency {
        if d.is_store || d.label != Delinquency::PredictHot {
            continue;
        }
        let i = strides.partition_point(|&(pc, _, _)| pc < d.pc);
        let Some(&(_, Some(stride), len)) = strides.get(i).filter(|e| e.0 == d.pc) else {
            continue;
        };
        // One cycle per instruction of the surrounding block per
        // iteration: how many references ahead covers a memory miss.
        let len = len.max(1) as u64;
        let refs = PENTIUM4_MEMORY_CYCLES.div_ceil(len) as i64;
        let raw = stride.saturating_mul(refs);
        let magnitude = raw
            .unsigned_abs()
            .clamp(MIN_PREFETCH_DISTANCE_BYTES, PAGE_BYTES) as i64;
        entries.push(StaticPlanEntry {
            pc: d.pc,
            stride,
            distance_refs: refs,
            distance_bytes: magnitude * raw.signum(),
            proven: d.proven,
        });
    }
    entries.sort_by_key(|e| e.pc);

    StaticPlanReport { entries, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::{ProgramBuilder, Reg, Width};

    const L1: CacheGeometry = CacheGeometry {
        sets: 32,
        ways: 4,
        line_size: 64,
    };
    const L2: CacheGeometry = CacheGeometry {
        sets: 1024,
        ways: 8,
        line_size: 64,
    };

    fn plan_of(p: &Program) -> StaticPlanReport {
        static_prefetch_plan(p, &L1, &L2, 0.10)
    }

    /// stride-64 sweep over 100 lines: proven AlwaysMiss → planned.
    #[test]
    fn proven_delinquent_sweep_is_planned_with_model_distance() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 64 * 100)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .addi(Reg::ECX, 8)
            .cmpi(Reg::ECX, 800)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rep = plan_of(&pb.finish());
        assert_eq!(rep.entries.len(), 1);
        let e = rep.entries[0];
        assert_eq!(e.stride, 64);
        assert!(e.proven, "AlwaysMiss × exact trips is a hot proof");
        // 3-insn body at 1 cycle/insn: ceil(250/3) = 84 refs; 84 × 64
        // overshoots a page, so the clamp caps the displacement.
        assert_eq!(e.distance_refs, 84);
        assert_eq!(e.distance_bytes, 4096);
        // And the PrefetchPlan view carries the same displacement.
        assert_eq!(rep.plan().get(e.pc).unwrap().distance_bytes, 4096);
    }

    #[test]
    fn invariant_and_irregular_loads_are_never_planned() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .alloc(Reg::R13, 4096)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8) // invariant: cold
            .load(Reg::R13, Reg::R13 + 0, Width::W8) // chase: no stride
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rep = plan_of(&pb.finish());
        assert!(rep.entries.is_empty());
        assert!(rep.plan().is_empty());
    }

    #[test]
    fn small_strides_get_the_minimum_window() {
        // stride 8 over a big buffer: heuristically hot (line-open rate
        // 1/8 > 0.10) but not proven (sub-line stride defeats absint).
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 8 * 4096)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 1), Width::W8)
            .addi(Reg::ECX, 8)
            .cmpi(Reg::ECX, 8 * 4096)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rep = plan_of(&pb.finish());
        assert_eq!(rep.entries.len(), 1);
        let e = rep.entries[0];
        assert!(!e.proven);
        // ceil(250/3) × 8 = 672 bytes, already above the 128-byte floor.
        assert_eq!(e.distance_bytes, 672);
    }
}
