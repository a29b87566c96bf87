//! Static verification of prefetch-rewritten programs.
//!
//! [`inject_prefetches`](crate::inject_prefetches) plants hints derived
//! from *dynamic* stride profiles; this checker proves, per inserted
//! prefetch, that the rewrite could not have gone wrong in any of the
//! ways a prefetcher classically does:
//!
//! * **UnsafePrefetch** (error) — the hint does not guard any following
//!   load of the same address expression, or reaches more than a page
//!   past it. A same-expression, same-page hint can only touch pages the
//!   demand access itself is about to touch, so it can never fault where
//!   the program would not.
//! * **StrideMismatch** (error) — the static affine classifier *knows*
//!   the guarded load's stride and the hint contradicts it: wrong
//!   direction, a distance under the planner's two-line minimum, or a
//!   prefetch for a provably stationary (loop-invariant) address.
//!   Statically irregular loads are exempt: resolving those with runtime
//!   profiles is exactly UMI's value (paper §7), and the checker only
//!   reports contradictions it can prove.
//! * **RedundantPrefetch** (error) — two hints in one innermost loop
//!   cover the same address expression within one cache line; the second
//!   can only waste bandwidth.
//! * **MissedCandidate** (warning) — a load the static model predicts
//!   delinquent ([`Delinquency::PredictHot`]) with a known stride has no
//!   covering hint in its loop. A warning, not an error: the dynamic
//!   profiler may have (correctly) measured the load cold — unless the
//!   must-cache abstract interpreter *proves* the load misses every
//!   iteration ([`Verdict::AlwaysMiss`]), in which case the message says
//!   so: the candidate is confirmed, not merely predicted.
//! * **PointlessPrefetch** (warning) — the hint guards a load the
//!   must-cache analysis proves L1-resident on every steady-state
//!   iteration ([`Verdict::AlwaysHit`]): the line is already in the
//!   cache when the demand access arrives, so the hint can only spend an
//!   issue slot. A warning, not an error — wasteful, never wrong.
//!
//! Diagnostics are stably ordered by `(pc, kind, block)`, like the
//! `umi-analyze` lint suite they feed into the `umi_lint` CI gate with.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;
use umi_analyze::{
    CacheBehavior, CacheGeometry, CachePrediction, Delinquency, ProgramFacts, Severity,
    StaticClass, Verdict,
};
use umi_cache::{MIN_PREFETCH_DISTANCE_BYTES, PAGE_BYTES};
use umi_ir::{BlockId, Insn, MemRef, Pc, Program, Reg};

/// The kinds of prefetch-plan finding, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CheckKind {
    /// A hint that guards no load or reaches past the page guarantee.
    UnsafePrefetch,
    /// A hint contradicting the provable stride of its guarded load.
    StrideMismatch,
    /// A hint already covered by an earlier hint in the same loop.
    RedundantPrefetch,
    /// A predicted-hot strided load left without any hint.
    MissedCandidate,
    /// A hint guarding a load proven to hit L1 every iteration.
    PointlessPrefetch,
}

impl CheckKind {
    /// Short stable name used in reports and goldens.
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::UnsafePrefetch => "unsafe-prefetch",
            CheckKind::StrideMismatch => "stride-mismatch",
            CheckKind::RedundantPrefetch => "redundant-prefetch",
            CheckKind::MissedCandidate => "missed-candidate",
            CheckKind::PointlessPrefetch => "pointless-prefetch",
        }
    }

    /// The severity this kind always carries.
    pub fn severity(self) -> Severity {
        match self {
            CheckKind::MissedCandidate | CheckKind::PointlessPrefetch => Severity::Warning,
            _ => Severity::Error,
        }
    }
}

/// One prefetch-plan finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanDiagnostic {
    /// Address of the offending prefetch (or uncovered load).
    pub pc: Pc,
    /// The owning block.
    pub block: BlockId,
    /// What was found.
    pub kind: CheckKind,
    /// Human-readable detail.
    pub message: String,
}

impl PlanDiagnostic {
    /// The severity of this finding (fixed per kind).
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#x} [{}] {}: {} ({})",
            self.pc.0,
            self.severity(),
            self.kind.name(),
            self.message,
            self.block
        )
    }
}

/// The address *expression* of a reference — everything but the
/// displacement. Two refs with equal shape walk memory in lockstep.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct ExprShape {
    base: Option<Reg>,
    index: Option<(Reg, u8)>,
}

impl ExprShape {
    fn of(m: &MemRef) -> ExprShape {
        ExprShape {
            base: m.base,
            index: m.index,
        }
    }
}

/// Checks every prefetch hint of a (typically rewritten) `program`
/// against the static affine/cache model.
///
/// `geom` is the L1 geometry the delinquency predictions are scored
/// against and `hot_miss_floor` the dynamic threshold floor they assume —
/// pass the same values as `umi_analyze::predict_program`. `l2` is the
/// next level's geometry, which the must-cache abstract interpreter
/// ([`umi_analyze::absint_program`]) needs to certify AlwaysMiss
/// verdicts.
///
/// The must-cache verdicts are computed only when a diagnostic reads
/// one: a hint reads its guarded load's verdict (the
/// `PointlessPrefetch` check), and a `MissedCandidate` reads its load's
/// verdict to say whether the must-analysis confirms it. A program
/// with no hint and no missed candidate — most programs a static plan
/// leaves untouched — never runs the abstract interpreter.
///
/// The result is sorted by `(pc, kind, block)` and deterministic.
pub fn check_rewritten(
    program: &Program,
    geom: &CacheGeometry,
    l2: &CacheGeometry,
    hot_miss_floor: f64,
) -> Vec<PlanDiagnostic> {
    check_rewritten_with(&ProgramFacts::new(program), geom, l2, hot_miss_floor)
}

/// [`check_rewritten`] over facts the caller already holds, so the
/// checker shares them with its other passes over the same program.
pub fn check_rewritten_with(
    facts: &ProgramFacts<'_>,
    geom: &CacheGeometry,
    l2: &CacheGeometry,
    hot_miss_floor: f64,
) -> Vec<PlanDiagnostic> {
    let program = facts.program();
    let rows = OnceCell::new();
    let absint = || rows.get_or_init(|| facts.absint(geom, l2));
    // Every hint reads a verdict, so a program with hints runs the must
    // analysis before the predictor classifies the references: its
    // working set never coexists with theirs. A hint-free program runs
    // it at its first uncovered predicted-hot load, if it has one.
    let has_hints = program
        .blocks
        .iter()
        .flat_map(|b| &b.insns)
        .any(|i| matches!(i, Insn::Prefetch { .. }));
    if has_hints {
        absint();
    }
    let preds = facts.predict(geom, hot_miss_floor);
    diagnose(program, geom, facts.innermost(), &preds, |pc| {
        load_verdict(absint(), pc)
    })
}

/// The proven steady-state L1 verdict of the load pc `pc` in the
/// `(pc, is_store)`-sorted must-analysis `rows`. An instruction can
/// issue two load sites with different verdicts; like the soundness
/// audit, treat the pc as proven only when every load site agrees.
fn load_verdict(rows: &[CacheBehavior], pc: Pc) -> Option<Verdict> {
    let i = rows.partition_point(|r| (r.pc, r.is_store) < (pc, false));
    let mut loads = rows[i..].iter().take_while(|r| r.pc == pc && !r.is_store);
    let first = loads.next()?.l1;
    loads.all(|r| r.l1 == first).then_some(first)
}

/// The checks themselves, over the program's innermost-loop map, its
/// delinquency predictions and a per-load-pc verdict lookup.
fn diagnose(
    program: &Program,
    geom: &CacheGeometry,
    innermost: &[Option<(usize, usize)>],
    preds: &[CachePrediction],
    verdict_of: impl Fn(Pc) -> Option<Verdict>,
) -> Vec<PlanDiagnostic> {
    let mut out = Vec::new();

    // Classification per load pc (loads only: hints guard loads). The
    // table is `(pc, is_store)`-sorted, loads first at one pc, so a pc's
    // load sites are one run found by binary search.
    let class_of = |pc: Pc| {
        let i = preds.partition_point(|p| (p.sref.pc, p.sref.is_store) < (pc, false));
        preds
            .get(i)
            .filter(|p| p.sref.pc == pc && !p.sref.is_store)
            .map(|p| p.sref.class)
    };

    // Hints grouped per innermost loop for the redundancy / coverage
    // checks. Blocks outside any loop group per block: a straight-line
    // duplicate pair is just as redundant.
    let group_of = |block: BlockId| {
        innermost[block.index()].map_or((usize::MAX, block.index()), |(f, l)| (f, l))
    };

    // (group, shape) -> first hint seen, in pc order.
    let mut seen: HashMap<((usize, usize), ExprShape), (Pc, i64)> = HashMap::new();

    for block in &program.blocks {
        for (i, (pc, insn)) in block.iter_with_pc().enumerate() {
            let Insn::Prefetch { mem } = insn else {
                continue;
            };

            // The guarded load: the first following instruction in the
            // block with an unfiltered load of the same expression shape.
            let guarded = block.insns[i + 1..].iter().enumerate().find_map(|(j, g)| {
                g.loads()
                    .into_iter()
                    .map(|(m, _)| m)
                    .find(|m| !m.is_filtered() && ExprShape::of(m) == ExprShape::of(mem))
                    .map(|m| (block.insn_pc(i + 1 + j), m))
            });
            let Some((load_pc, load_mem)) = guarded else {
                out.push(PlanDiagnostic {
                    pc,
                    block: block.id,
                    kind: CheckKind::UnsafePrefetch,
                    message: format!("hint {mem} guards no following load of the same expression"),
                });
                continue;
            };

            let delta = mem.disp.wrapping_sub(load_mem.disp);
            if delta.unsigned_abs() > PAGE_BYTES {
                out.push(PlanDiagnostic {
                    pc,
                    block: block.id,
                    kind: CheckKind::UnsafePrefetch,
                    message: format!(
                        "distance {delta} exceeds the {PAGE_BYTES}-byte page guarantee"
                    ),
                });
            }

            match class_of(load_pc) {
                Some(StaticClass::ConstantStride(s)) => {
                    if delta.signum() != s.signum() {
                        out.push(PlanDiagnostic {
                            pc,
                            block: block.id,
                            kind: CheckKind::StrideMismatch,
                            message: format!(
                                "distance {delta} runs against the provable stride {s}"
                            ),
                        });
                    } else if delta.unsigned_abs() < MIN_PREFETCH_DISTANCE_BYTES {
                        out.push(PlanDiagnostic {
                            pc,
                            block: block.id,
                            kind: CheckKind::StrideMismatch,
                            message: format!(
                                "distance {delta} is under the {MIN_PREFETCH_DISTANCE_BYTES}-byte \
                                 minimum"
                            ),
                        });
                    }
                }
                Some(StaticClass::LoopInvariant) => {
                    out.push(PlanDiagnostic {
                        pc,
                        block: block.id,
                        kind: CheckKind::StrideMismatch,
                        message: format!("guarded load {load_mem} is provably loop-invariant"),
                    });
                }
                // Irregular / NotInLoop / unclassified: the hint rests on
                // dynamic knowledge the static model cannot contradict.
                _ => {}
            }

            // A hint for a line the must-analysis proves resident when the
            // guarded load executes: correct, but it can never help.
            if verdict_of(load_pc) == Some(Verdict::AlwaysHit) {
                out.push(PlanDiagnostic {
                    pc,
                    block: block.id,
                    kind: CheckKind::PointlessPrefetch,
                    message: format!(
                        "guarded load {load_mem} provably hits L1 every steady-state iteration"
                    ),
                });
            }

            // Redundancy: an earlier hint in the same loop covering the
            // same expression within a line.
            let group = group_of(block.id);
            let shape = ExprShape::of(mem);
            if let Some(&(first_pc, first_disp)) = seen.get(&(group, shape)) {
                if mem.disp.wrapping_sub(first_disp).unsigned_abs() < geom.line_size {
                    out.push(PlanDiagnostic {
                        pc,
                        block: block.id,
                        kind: CheckKind::RedundantPrefetch,
                        message: format!("hint {mem} duplicates the hint at {:#x}", first_pc.0),
                    });
                }
            } else {
                seen.insert((group, shape), (pc, mem.disp));
            }
        }
    }

    // Coverage: predicted-hot strided loads with no hint in their loop.
    for p in preds {
        if p.sref.is_store
            || p.sref.filtered
            || p.verdict != Delinquency::PredictHot
            || !matches!(p.sref.class, StaticClass::ConstantStride(_))
        {
            continue;
        }
        let (group, shape) = (group_of(p.sref.block), ExprShape::of(&p.sref.mem));
        if !seen.contains_key(&(group, shape)) {
            // The heuristic prediction can be wrong; a proven AlwaysMiss
            // verdict cannot, so say when the candidate is confirmed.
            let confirmed = if verdict_of(p.sref.pc) == Some(Verdict::AlwaysMiss) {
                "; must-analysis confirms it misses every iteration"
            } else {
                ""
            };
            out.push(PlanDiagnostic {
                pc: p.sref.pc,
                block: p.sref.block,
                kind: CheckKind::MissedCandidate,
                message: format!(
                    "predicted-hot load {} (footprint {} bytes) has no covering hint{confirmed}",
                    p.sref.mem,
                    p.footprint.unwrap_or(0)
                ),
            });
        }
    }

    out.sort_by(|a, b| {
        (a.pc, a.kind, a.block)
            .cmp(&(b.pc, b.kind, b.block))
            .then_with(|| a.message.cmp(&b.message))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanEntry, PrefetchPlan};
    use crate::rewrite::inject_prefetches;
    use umi_ir::{ProgramBuilder, Width};

    fn geom() -> CacheGeometry {
        CacheGeometry {
            sets: 256,
            ways: 8,
            line_size: 64,
        }
    }

    fn geom_l2() -> CacheGeometry {
        CacheGeometry {
            sets: 2048,
            ways: 8,
            line_size: 64,
        }
    }

    fn check(p: &Program) -> Vec<PlanDiagnostic> {
        check_rewritten(p, &geom(), &geom_l2(), 0.10)
    }

    /// The reference checker: the must analysis runs up front on every
    /// program, before the predictor, whether or not a verdict is read.
    /// The differential tests hold [`check_rewritten`] to it.
    fn check_rewritten_eager(
        program: &Program,
        geom: &CacheGeometry,
        l2: &CacheGeometry,
        hot_miss_floor: f64,
    ) -> Vec<PlanDiagnostic> {
        let facts = ProgramFacts::new(program);
        let rows = facts.absint(geom, l2);
        let preds = facts.predict(geom, hot_miss_floor);
        diagnose(program, geom, facts.innermost(), &preds, |pc| {
            load_verdict(&rows, pc)
        })
    }

    /// A hot streaming loop: load [esi]; esi += 64, 64K iterations.
    fn hot_stream() -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 64 * 65_537)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ESI, 64)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 65_536)
            .br_lt(body, done);
        pb.block(done).ret();
        pb.finish()
    }

    fn load_pc(p: &Program) -> Pc {
        p.blocks
            .iter()
            .flat_map(|b| b.iter_with_pc())
            .find(|(_, i)| i.is_load())
            .map(|(pc, _)| pc)
            .expect("program has a load")
    }

    fn kinds(diags: &[PlanDiagnostic]) -> Vec<CheckKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    fn rewrite_with(p: &Program, stride: i64, distance: i64) -> Program {
        let plan = PrefetchPlan::from_entries([(
            load_pc(p),
            PlanEntry {
                stride,
                distance_bytes: distance,
            },
        )]);
        inject_prefetches(p, &plan)
    }

    #[test]
    fn a_well_planned_rewrite_is_clean() {
        let rewritten = rewrite_with(&hot_stream(), 64, 2048);
        assert_eq!(check(&rewritten), Vec::new());
    }

    #[test]
    fn uncovered_hot_load_is_a_missed_candidate() {
        let diags = check(&hot_stream());
        assert_eq!(kinds(&diags), vec![CheckKind::MissedCandidate]);
        assert_eq!(diags[0].severity(), Severity::Warning);
        assert_eq!(diags[0].pc, load_pc(&hot_stream()));
        // The line-stride sweep is a provable AlwaysMiss, so the warning
        // carries the must-analysis confirmation.
        assert!(
            diags[0].message.contains("confirms it misses"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn unprovable_missed_candidate_is_not_confirmed() {
        // Sub-line stride: every line is touched 8 times, so the load is
        // Persistent-shaped, not AlwaysMiss — the prediction stays a
        // prediction.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 8 * 65_537)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ESI, 8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 65_536)
            .br_lt(body, done);
        pb.block(done).ret();
        let _ = f;
        let diags = check(&pb.finish());
        assert_eq!(kinds(&diags), vec![CheckKind::MissedCandidate]);
        assert!(
            !diags[0].message.contains("confirms"),
            "{}",
            diags[0].message
        );
    }

    #[test]
    fn page_overreach_is_unsafe() {
        let rewritten = rewrite_with(&hot_stream(), 64, PAGE_BYTES as i64 + 64);
        let diags = check(&rewritten);
        assert_eq!(kinds(&diags), vec![CheckKind::UnsafePrefetch]);
        assert_eq!(diags[0].severity(), Severity::Error);
    }

    #[test]
    fn orphan_hint_is_unsafe() {
        // A hand-planted hint whose expression guards nothing: the only
        // load uses ESI, the hint uses EDI.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .prefetch(Reg::EDI + 256)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .ret();
        let _ = f;
        let diags = check(&pb.finish());
        assert_eq!(kinds(&diags), vec![CheckKind::UnsafePrefetch]);
        assert!(diags[0].message.contains("guards no following load"));
    }

    #[test]
    fn wrong_direction_is_a_stride_mismatch() {
        // The loop walks forward by 64; the hint reaches backward.
        let rewritten = rewrite_with(&hot_stream(), 64, -2048);
        let diags = check(&rewritten);
        assert_eq!(kinds(&diags), vec![CheckKind::StrideMismatch]);
        assert!(diags[0].message.contains("against the provable stride"));
    }

    #[test]
    fn short_distance_is_a_stride_mismatch() {
        let rewritten = rewrite_with(&hot_stream(), 64, 64);
        let diags = check(&rewritten);
        assert_eq!(kinds(&diags), vec![CheckKind::StrideMismatch]);
        assert!(diags[0].message.contains("minimum"));
    }

    #[test]
    fn loop_invariant_target_is_a_stride_mismatch() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 4096)
            .jmp(body);
        pb.block(body)
            .prefetch(Reg::ESI + 256)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 64)
            .br_lt(body, done);
        pb.block(done).ret();
        let _ = f;
        let diags = check(&pb.finish());
        // The invariant load also trips the zero-stride IR lint, but this
        // checker reports the plan side: a stationary prefetch target —
        // which the must-analysis additionally proves always resident,
        // so the same hint draws the pointless-prefetch warning.
        assert_eq!(
            kinds(&diags),
            vec![CheckKind::StrideMismatch, CheckKind::PointlessPrefetch]
        );
        assert!(diags[0].message.contains("loop-invariant"));
        assert_eq!(diags[1].severity(), Severity::Warning);
        assert!(diags[1].message.contains("provably hits L1"));
    }

    #[test]
    fn a_pc_is_proven_only_when_all_its_load_sites_agree() {
        // `cmp [esi], [r13]` issues two loads at one pc: the invariant
        // [esi] is AlwaysHit, the chased [r13] unclassified. The hint
        // guards the pc through its [esi] site, which is loop-invariant
        // (a stride mismatch), but the pc as a whole is not proven
        // resident, so no pointless-prefetch warning.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 4096)
            .alloc(Reg::R13, 4096)
            .jmp(body);
        pb.block(body)
            .prefetch(Reg::ESI + 256)
            .cmp(Reg::ESI + 0, Reg::R13 + 0)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 64)
            .br_lt(body, done);
        pb.block(done).ret();
        let _ = f;
        let p = pb.finish();
        let cmp_pc = p.blocks[body.index()].insn_pc(1);
        let rows = umi_analyze::absint_program(&p, &geom(), &geom_l2());
        let verdicts: Vec<Verdict> = rows
            .iter()
            .filter(|r| r.pc == cmp_pc && !r.is_store)
            .map(|r| r.l1)
            .collect();
        assert_eq!(verdicts, vec![Verdict::AlwaysHit, Verdict::Unclassified]);
        let diags = check(&p);
        assert_eq!(kinds(&diags), vec![CheckKind::StrideMismatch]);
        assert!(diags[0].message.contains("loop-invariant"));
    }

    #[test]
    fn duplicate_hint_in_a_loop_is_redundant() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 64 * 65_537)
            .jmp(body);
        pb.block(body)
            .prefetch(Reg::ESI + 2048)
            .prefetch(Reg::ESI + 2080) // 32 bytes on: same line, same loop
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ESI, 64)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 65_536)
            .br_lt(body, done);
        pb.block(done).ret();
        let _ = f;
        let diags = check(&pb.finish());
        assert_eq!(kinds(&diags), vec![CheckKind::RedundantPrefetch]);
        assert_eq!(diags[0].severity(), Severity::Error);
    }

    #[test]
    fn distinct_hints_a_line_apart_are_not_redundant() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 64 * 65_537)
            .jmp(body);
        pb.block(body)
            .prefetch(Reg::ESI + 2048)
            .prefetch(Reg::ESI + 2112) // a full line on: distinct target
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ESI, 64)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 65_536)
            .br_lt(body, done);
        pb.block(done).ret();
        let _ = f;
        assert_eq!(check(&pb.finish()), Vec::new());
    }

    /// A loop over one loop-invariant load and one pointer chase,
    /// optionally with a hint planted before the invariant load.
    fn invariant_and_chase(hint: bool) -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 4096)
            .alloc(Reg::R13, 4096)
            .jmp(body);
        let mut b = pb.block(body);
        if hint {
            b = b.prefetch(Reg::ESI + 256);
        }
        b.load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 1000)
            .br_lt(body, done);
        pb.block(done).ret();
        let _ = f;
        pb.finish()
    }

    #[test]
    fn hint_free_program_without_hot_strided_loads_is_clean() {
        // Neither load is a predicted-hot constant-stride load, so no
        // diagnostic reads a verdict.
        assert_eq!(check(&invariant_and_chase(false)), Vec::new());
    }

    #[test]
    fn hint_on_a_proven_resident_load_is_pointless() {
        // The same loop with a hint: the hint reads its guarded load's
        // verdict, which the must analysis proves AlwaysHit.
        let p = invariant_and_chase(true);
        let diags = check(&p);
        assert_eq!(
            kinds(&diags),
            vec![CheckKind::StrideMismatch, CheckKind::PointlessPrefetch]
        );
        assert!(diags[1].message.contains("provably hits L1"));
        assert_eq!(diags, check_rewritten_eager(&p, &geom(), &geom_l2(), 0.10));
    }

    /// The on-demand checker agrees with the eager oracle on every suite
    /// workload at test scale, both on the original program (no hints)
    /// and on its static-plan rewrite (hints on about half the suite),
    /// at the Pentium 4 geometry and delinquency floor the harnesses use.
    #[test]
    fn on_demand_verdicts_match_the_eager_checker_on_the_suite() {
        let (l1, l2) = (
            umi_cache::CacheConfig::pentium4_l1d().geometry(),
            umi_cache::CacheConfig::pentium4_l2().geometry(),
        );
        let floor = umi_core::UmiConfig::no_sampling().delinquency_floor;
        let mut hinted = 0;
        for spec in umi_workloads::all32() {
            let program = spec.build(umi_workloads::Scale::Test);
            let plan = crate::static_prefetch_plan(&program, &l1, &l2, floor).plan();
            hinted += usize::from(!plan.is_empty());
            let rewritten = inject_prefetches(&program, &plan);
            for p in [&program, &rewritten] {
                assert_eq!(
                    check_rewritten(p, &l1, &l2, floor),
                    check_rewritten_eager(p, &l1, &l2, floor),
                    "{}",
                    spec.name
                );
            }
        }
        assert!(hinted > 0, "no suite workload was rewritten");
    }

    #[test]
    fn diagnostics_are_deterministic_and_sorted() {
        let rewritten = rewrite_with(&hot_stream(), 64, 64);
        let a = check(&rewritten);
        let b = check(&rewritten);
        assert_eq!(a, b);
        let keys: Vec<_> = a.iter().map(|d| (d.pc, d.kind, d.block)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
