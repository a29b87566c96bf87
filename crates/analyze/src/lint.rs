//! IR lint suite: heuristic diagnostics over a verified program.
//!
//! Where the verifier ([`crate::verify_program`]) rejects programs that
//! are *malformed*, the linter flags programs that are *suspicious*:
//! legal IR whose shape suggests a workload-generator bug or a wasted
//! memory operation. Every lint is a [`Severity::Warning`] — the
//! Error severity is reserved for the verifier and the prefetch-plan
//! checker, whose findings are provable rather than heuristic.
//!
//! Diagnostics are deterministic and stably ordered by `(pc, kind,
//! block)` so lint output is byte-identical run to run regardless of any
//! internal map iteration order — a requirement for the golden-diffed
//! `umi_lint` CI gate.

use crate::absint::Verdict;
use crate::affine::StaticClass;
use crate::facts::ProgramFacts;
use crate::liveness::{insn_defs, insn_uses, liveness, regs_in, term_uses};
use std::collections::HashSet;
use std::fmt;
use umi_ir::{BlockId, Insn, Operand, Pc, Program, Terminator};

/// How serious a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but legal; reported, never fatal.
    Warning,
    /// Provably wrong; fails the `umi_lint` CI gate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The kinds of lint, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintKind {
    /// A register definition with no observable use: the value is
    /// overwritten or dropped before any read, and the defining
    /// instruction has no other effect.
    DeadStore,
    /// A block no function entry can reach.
    UnreachableBlock,
    /// A conditional branch whose two targets are the same block.
    DegenerateBranch,
    /// An unfiltered memory op with provably-zero stride inside a loop:
    /// it re-touches one resident line every iteration.
    ZeroStrideHotLoop,
    /// A loop-invariant load the must-cache analysis *proves* L1-resident
    /// on every steady-state iteration ([`crate::Verdict::AlwaysHit`]):
    /// the loop re-executes a load whose value could live in a register —
    /// hoist it above the loop.
    HoistableLoad,
}

impl LintKind {
    /// Short stable name used in reports and goldens.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::DeadStore => "dead-store",
            LintKind::UnreachableBlock => "unreachable-block",
            LintKind::DegenerateBranch => "degenerate-branch",
            LintKind::ZeroStrideHotLoop => "zero-stride-hot-loop",
            LintKind::HoistableLoad => "hoistable-load",
        }
    }
}

/// One lint diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Lint {
    /// Address of the offending instruction (block address for
    /// block-level lints).
    pub pc: Pc,
    /// The owning block.
    pub block: BlockId,
    /// What was found.
    pub kind: LintKind,
    /// How serious it is.
    pub severity: Severity,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#x} [{}] {}: {} ({})",
            self.pc.0,
            self.severity,
            self.kind.name(),
            self.message,
            self.block
        )
    }
}

/// Whether `insn`'s only effect is defining its destination register —
/// no memory access (observable in profiles) and no heap side effect.
fn pure_def(insn: &Insn) -> bool {
    match insn {
        Insn::Mov { .. } | Insn::Lea { .. } | Insn::Unary { .. } => true,
        Insn::Binary { src, .. } => !matches!(src, Operand::Mem(..)),
        _ => false,
    }
}

/// Runs the full lint suite over `program`.
///
/// The result is sorted by `(pc, kind, block)` and depends only on the
/// program, never on map iteration order.
pub fn lint_program(program: &Program) -> Vec<Lint> {
    ProgramFacts::new(program).lint()
}

impl ProgramFacts<'_> {
    /// [`lint_program`] over these facts.
    pub fn lint(&self) -> Vec<Lint> {
        lint(self)
    }
}

fn lint(facts: &ProgramFacts<'_>) -> Vec<Lint> {
    let program = facts.program;
    let lv = liveness(program, &facts.cfg);
    let mut out = Vec::new();

    // Unreachable blocks: not in any function's reachable set.
    let mut reachable: HashSet<BlockId> = HashSet::new();
    for fa in &facts.funcs {
        reachable.extend(fa.doms.rpo().iter().copied());
    }
    for block in &program.blocks {
        if !reachable.contains(&block.id) {
            out.push(Lint {
                pc: block.addr,
                block: block.id,
                kind: LintKind::UnreachableBlock,
                severity: Severity::Warning,
                message: "no function entry reaches this block".into(),
            });
        }
    }

    // Degenerate branches: both arms go to the same place.
    for block in &program.blocks {
        if let Terminator::Br {
            taken, fallthrough, ..
        } = block.terminator
        {
            if taken == fallthrough {
                out.push(Lint {
                    pc: block.terminator_pc(),
                    block: block.id,
                    kind: LintKind::DegenerateBranch,
                    severity: Severity::Warning,
                    message: format!("both branch arms target {taken}"),
                });
            }
        }
    }

    // Dead stores: backward scan per block from the live-out set.
    for block in &program.blocks {
        let mut live = lv.live_out[block.id.index()] | term_uses(&block.terminator);
        for (i, insn) in block.insns.iter().enumerate().rev() {
            let defs = insn_defs(insn);
            if pure_def(insn) && defs != 0 && live & defs == 0 {
                let reg = regs_in(defs).next().expect("pure def names a register");
                out.push(Lint {
                    pc: block.insn_pc(i),
                    block: block.id,
                    kind: LintKind::DeadStore,
                    severity: Severity::Warning,
                    message: format!("{reg:?} is written but never read"),
                });
            }
            live = (live & !defs) | insn_uses(insn);
        }
    }

    // Zero-stride memory ops in loops: every iteration re-touches one
    // line. Filtered (stack/absolute) refs are exempt — UMI never
    // profiles them, and spill traffic legitimately looks like this.
    for sref in facts.refs() {
        if sref.class == StaticClass::LoopInvariant && !sref.filtered {
            out.push(Lint {
                pc: sref.pc,
                block: sref.block,
                kind: LintKind::ZeroStrideHotLoop,
                severity: Severity::Warning,
                message: format!(
                    "loop-invariant {} address {}",
                    if sref.is_store { "store" } else { "load" },
                    sref.mem
                ),
            });
        }
    }

    // Hoistable loads: the must-cache abstract interpreter proves the
    // load hits L1 on every steady-state iteration, so the loop is
    // re-loading a register-promotable value. Runs at the Pentium 4 L1
    // geometry — the smallest cache the repo models, hence the hardest
    // residency proof; anything AlwaysHit there is hoistable everywhere.
    // Filtered refs stay exempt for the same reason as above.
    let geom_l1 = umi_geom::CacheGeometry::pentium4_l1d();
    let geom_l2 = umi_geom::CacheGeometry::pentium4_l2();
    for row in facts.absint(&geom_l1, &geom_l2) {
        if !row.is_store && !row.filtered && row.in_loop && row.l1 == Verdict::AlwaysHit {
            out.push(Lint {
                pc: row.pc,
                block: row.block,
                kind: LintKind::HoistableLoad,
                severity: Severity::Warning,
                message: "load provably L1-resident every iteration; hoist it out of the loop"
                    .into(),
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
    use umi_ir::{ProgramBuilder, Reg, Width};

    fn kinds(lints: &[Lint]) -> Vec<LintKind> {
        lints.iter().map(|l| l.kind).collect()
    }

    #[test]
    fn clean_program_has_no_lints() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 8 * 64)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .add(Reg::EBX, Reg::EAX)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 64)
            .br_lt(body, done);
        pb.block(done).push_val(Reg::EBX).ret();
        assert_eq!(lint_program(&pb.finish()), Vec::new());
    }

    #[test]
    fn dead_store_is_flagged_at_its_pc() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        pb.block(f.entry())
            .movi(Reg::EAX, 1) // dead: overwritten below
            .movi(Reg::EAX, 2) // dead: never read before ret
            .ret();
        let lints = lint_program(&pb.finish());
        assert_eq!(
            kinds(&lints),
            vec![LintKind::DeadStore, LintKind::DeadStore]
        );
        assert_eq!(lints[0].pc.0 + 4, lints[1].pc.0);
    }

    #[test]
    fn memory_and_side_effect_defs_are_not_dead_stores() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        pb.block(f.entry())
            .alloc(Reg::ESI, 64) // heap side effect: not "dead"
            .load(Reg::EAX, Reg::ESI + 0, Width::W8) // access: not "dead"
            .ret();
        assert_eq!(lint_program(&pb.finish()), Vec::new());
    }

    #[test]
    fn value_live_across_blocks_is_not_dead() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let next = pb.new_block();
        pb.block(f.entry()).movi(Reg::EAX, 7).jmp(next);
        pb.block(next)
            .add(Reg::EBX, Reg::EAX)
            .push_val(Reg::EBX)
            .ret();
        assert_eq!(lint_program(&pb.finish()), Vec::new());
    }

    #[test]
    fn unreachable_block_and_degenerate_branch_fire() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let twin = pb.new_block();
        let orphan = pb.new_block();
        pb.block(f.entry()).cmpi(Reg::EAX, 0).br_eq(twin, twin);
        pb.block(twin).ret();
        pb.block(orphan).ret();
        let lints = lint_program(&pb.finish());
        assert_eq!(
            kinds(&lints),
            vec![LintKind::DegenerateBranch, LintKind::UnreachableBlock]
        );
        assert_eq!(lints[1].block, orphan);
    }

    #[test]
    fn zero_stride_op_in_loop_fires_only_unfiltered() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 64)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8) // invariant: flagged
            .load(Reg::EBX, Reg::EBP + 8, Width::W8) // stack: filtered, exempt
            .add(Reg::EDX, Reg::EAX)
            .add(Reg::EDX, Reg::EBX)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 64)
            .br_lt(body, done);
        pb.block(done).push_val(Reg::EDX).ret();
        let lints = lint_program(&pb.finish());
        // The invariant load draws both the affine-level lint and the
        // must-cache hoistability proof, at the same pc in kind order.
        assert_eq!(
            kinds(&lints),
            vec![LintKind::ZeroStrideHotLoop, LintKind::HoistableLoad]
        );
        assert_eq!(lints[0].pc, lints[1].pc);
        assert!(lints[0].message.contains("load"), "{}", lints[0].message);
    }

    #[test]
    fn hoistable_load_needs_a_residency_proof() {
        // Same invariant load, but the loop also sweeps a large array
        // with an irregular (pointer-chased) reference each iteration:
        // the must-analysis can no longer prove the invariant line stays
        // resident, so only the affine-level zero-stride lint fires.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 64)
            .alloc(Reg::EDI, 4096)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8) // invariant
            .load(Reg::EDX, Reg::EDX + 0, Width::W8) // irregular x4: ages
            .load(Reg::EDX, Reg::EDX + 0, Width::W8) // out the 4-way L1
            .load(Reg::EDX, Reg::EDX + 0, Width::W8)
            .load(Reg::EDX, Reg::EDX + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 64)
            .br_lt(body, done);
        pb.block(done).push_val(Reg::EAX).ret();
        let lints = lint_program(&pb.finish());
        assert_eq!(kinds(&lints), vec![LintKind::ZeroStrideHotLoop]);
    }

    #[test]
    fn lints_are_deterministic_and_sorted() {
        // A program firing every kind at interleaved addresses.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        let orphan = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::EDX, 9) // dead store
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 64)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8) // zero stride
            .add(Reg::EBX, Reg::EAX)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 64)
            .br_lt(body, done);
        pb.block(done).cmpi(Reg::EBX, 0).br_eq(f.entry(), f.entry()); // degenerate
        pb.block(orphan).ret(); // unreachable
        let p = pb.finish();
        let a = lint_program(&p);
        let b = lint_program(&p);
        assert_eq!(a, b, "lint output must be run-to-run identical");
        assert_eq!(a.len(), 5, "{a:?}");
        assert!(a.iter().any(|l| l.kind == LintKind::HoistableLoad));
        let keys: Vec<_> = a.iter().map(|l| (l.pc, l.kind, l.block)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "lints must be ordered by (pc, kind, block)");
    }
}
