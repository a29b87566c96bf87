//! Static affine/stride classification of memory operations.
//!
//! For every memory operand the classifier symbolically evaluates the
//! effective-address expression `base + index*scale + disp` around the
//! back edges of its innermost natural loop. Each address register is
//! first classified per loop iteration:
//!
//! * **invariant** — never written inside the loop;
//! * **induction** — every write adds or subtracts a compile-time
//!   constant and sits in a block that dominates every latch *and* is not
//!   inside a strictly nested loop (so it executes exactly once per
//!   iteration); the per-iteration delta is the sum of the constants;
//! * **varying** — anything else (conditional updates, updates repeated
//!   by an inner loop, loads, non-affine arithmetic).
//!
//! The address then advances by `Σ coeff(reg) × delta(reg)` per iteration
//! (coefficient 1 for the base, the scale for the index), which yields the
//! static label: a nonzero sum is a **constant stride**, a zero sum (all
//! registers invariant) is **loop-invariant**, and any varying register
//! makes the op **irregular** — statically unknowable, the class UMI's
//! dynamic profiles exist to resolve.

use crate::cfg::{Dominators, NaturalLoop};
use crate::facts::ProgramFacts;
use crate::liveness::{insn_defs, regs_in};
use std::collections::HashMap;
use umi_ir::{BinOp, BlockId, Insn, MemRef, Operand, Pc, Program, Reg, Width};

/// How one register behaves across one iteration of a loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegKind {
    /// Never written inside the loop.
    Invariant,
    /// Advances by a fixed constant every iteration.
    Induction(i64),
    /// Written in a way the affine model cannot express.
    Varying,
}

/// Static label of one memory operation, relative to its innermost loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StaticClass {
    /// The address advances by this nonzero byte delta every iteration.
    ConstantStride(i64),
    /// The address is the same every iteration.
    LoopInvariant,
    /// At least one address register varies unpredictably.
    Irregular,
    /// The op is not inside any natural loop.
    NotInLoop,
}

/// One classified static memory reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticRef {
    /// The owning instruction.
    pub pc: Pc,
    /// The owning block.
    pub block: BlockId,
    /// The reference expression.
    pub mem: MemRef,
    /// Access width.
    pub width: Width,
    /// Whether this reference is a store (else a load).
    pub is_store: bool,
    /// Whether UMI's operation filter excludes it from profiling.
    pub filtered: bool,
    /// The static label.
    pub class: StaticClass,
}

/// Blocks of `lp` that sit inside a strictly nested loop.
///
/// An instruction in such a block runs an unknown number of times per
/// iteration of `lp` (once per *inner* iteration), so even a plain
/// `add reg, imm` there is not affine in `lp`'s frame — without this,
/// an inner-loop bump of a register shared with the outer loop would be
/// mistaken for a once-per-outer-iteration induction step.
fn nested_blocks(
    program: &Program,
    lp: &NaturalLoop,
    doms: &Dominators,
) -> std::collections::BTreeSet<BlockId> {
    use std::collections::BTreeSet;
    // Predecessor edges restricted to the loop body, plus every back
    // edge `latch -> header` of a loop nested inside `lp` (a body-internal
    // edge onto a dominator that is not `lp`'s own header).
    let mut preds: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    let mut inner_edges = Vec::new();
    for &b in &lp.body {
        for s in crate::cfg::intra_successors(&program.block(b).terminator) {
            if !lp.body.contains(&s) {
                continue;
            }
            preds.entry(s).or_default().push(b);
            if s != lp.header && doms.dominates(s, b) {
                inner_edges.push((b, s));
            }
        }
    }
    let mut nested = BTreeSet::new();
    for (latch, header) in inner_edges {
        // Standard natural-loop body: the header plus everything that
        // reaches the latch without passing through the header.
        nested.insert(header);
        let mut work = vec![latch];
        while let Some(b) = work.pop() {
            if b != header && nested.insert(b) {
                work.extend(preds.get(&b).into_iter().flatten().copied());
            }
        }
    }
    nested
}

/// Classifies every register of `program` with respect to one loop.
pub fn loop_reg_kinds(
    program: &Program,
    lp: &NaturalLoop,
    doms: &Dominators,
) -> [RegKind; Reg::COUNT] {
    let mut written = [false; Reg::COUNT];
    let mut delta: [Option<i64>; Reg::COUNT] = [Some(0); Reg::COUNT];
    let nested = nested_blocks(program, lp, doms);
    let latch_dom = doms.common_dominator(&lp.latches);
    for &bid in &lp.body {
        let every_iteration =
            !nested.contains(&bid) && latch_dom.is_some_and(|d| doms.dominates(bid, d));
        for insn in &program.block(bid).insns {
            let affine = match insn {
                Insn::Binary {
                    op: BinOp::Add,
                    dst,
                    src: Operand::Imm(c),
                } => Some((*dst, *c)),
                Insn::Binary {
                    op: BinOp::Sub,
                    dst,
                    src: Operand::Imm(c),
                } => Some((*dst, c.wrapping_neg())),
                _ => None,
            };
            for r in regs_in(insn_defs(insn)) {
                let i = r.index();
                written[i] = true;
                match affine {
                    Some((dst, c)) if dst == r && every_iteration => {
                        if let Some(d) = &mut delta[i] {
                            *d = d.wrapping_add(c);
                        }
                    }
                    _ => delta[i] = None,
                }
            }
        }
    }
    std::array::from_fn(|i| {
        if !written[i] {
            RegKind::Invariant
        } else {
            match delta[i] {
                Some(d) => RegKind::Induction(d),
                None => RegKind::Varying,
            }
        }
    })
}

/// Labels one reference given the per-loop register kinds.
pub(crate) fn classify_ref(mem: &MemRef, kinds: &[RegKind; Reg::COUNT]) -> StaticClass {
    let mut stride = 0i64;
    let terms = mem
        .base
        .map(|r| (r, 1i64))
        .into_iter()
        .chain(mem.index.map(|(r, s)| (r, i64::from(s))));
    for (r, coeff) in terms {
        match kinds[r.index()] {
            RegKind::Varying => return StaticClass::Irregular,
            RegKind::Induction(d) => stride = stride.wrapping_add(d.wrapping_mul(coeff)),
            RegKind::Invariant => {}
        }
    }
    if stride == 0 {
        StaticClass::LoopInvariant
    } else {
        StaticClass::ConstantStride(stride)
    }
}

/// Classifies every memory reference of `program`, in pc order (loads
/// before stores within one instruction, matching the access stream).
pub fn classify_program(program: &Program) -> Vec<StaticRef> {
    classify(&ProgramFacts::new(program))
}

/// [`classify_program`] over prebuilt facts (see [`ProgramFacts::refs`]).
pub(crate) fn classify(facts: &ProgramFacts<'_>) -> Vec<StaticRef> {
    let mut out = Vec::new();
    for block in &facts.program.blocks {
        let loop_kinds = facts.innermost[block.id.index()].map(|key| facts.kinds(key));
        for (pc, insn) in block.iter_with_pc() {
            let refs = insn
                .loads()
                .into_iter()
                .map(|(m, w)| (m, w, false))
                .chain(insn.stores().into_iter().map(|(m, w)| (m, w, true)));
            for (mem, width, is_store) in refs {
                let class = match loop_kinds {
                    None => StaticClass::NotInLoop,
                    Some(k) => classify_ref(&mem, k),
                };
                out.push(StaticRef {
                    pc,
                    block: block.id,
                    mem,
                    width,
                    is_store,
                    filtered: mem.is_filtered(),
                    class,
                });
            }
        }
    }
    out.sort_by_key(|r| (r.pc, r.is_store));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::{ProgramBuilder, Width};

    /// for i in 0..n: load [esi + ecx*8]; store [edi]; ecx += 1
    fn strided_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 8 * 64)
            .alloc(Reg::EDI, 64)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .store(Reg::EDI + 0, Reg::EAX, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 64)
            .br_lt(body, done);
        pb.block(done).ret();
        pb.finish()
    }

    #[test]
    fn induction_load_is_constant_stride() {
        let p = strided_program();
        let refs = classify_program(&p);
        let loads: Vec<_> = refs.iter().filter(|r| !r.is_store).collect();
        let stores: Vec<_> = refs.iter().filter(|r| r.is_store).collect();
        assert_eq!(loads.len(), 1);
        assert_eq!(stores.len(), 1);
        // ecx steps by 1 with scale 8: the load walks 8 bytes/iteration.
        assert_eq!(loads[0].class, StaticClass::ConstantStride(8));
        // edi is never written in the loop: the store is invariant.
        assert_eq!(stores[0].class, StaticClass::LoopInvariant);
        assert!(!loads[0].filtered);
    }

    #[test]
    fn pointer_chase_is_irregular() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry()).alloc(Reg::ESI, 64).jmp(body);
        pb.block(body)
            // esi = [esi]: the classic linked-list walk.
            .load(Reg::ESI, Reg::ESI + 0, Width::W8)
            .cmpi(Reg::ESI, 0)
            .br_ne(body, done);
        pb.block(done).ret();
        let refs = classify_program(&pb.finish());
        let _ = f;
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].class, StaticClass::Irregular);
    }

    #[test]
    fn conditional_increment_defeats_the_affine_model() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let bump = pb.new_block();
        let latch = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .movi(Reg::EDX, 0)
            .alloc(Reg::ESI, 8 * 64)
            .jmp(head);
        pb.block(head)
            .load(Reg::EAX, Reg::ESI + (Reg::EDX, 8), Width::W8)
            .cmpi(Reg::EAX, 0)
            .br_eq(latch, bump);
        // edx advances only on some iterations: not a basic induction var.
        pb.block(bump).addi(Reg::EDX, 1).jmp(latch);
        pb.block(latch)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 64)
            .br_lt(head, done);
        pb.block(done).ret();
        let refs = classify_program(&pb.finish());
        let _ = f;
        let load = refs.iter().find(|r| !r.is_store).unwrap();
        assert_eq!(load.class, StaticClass::Irregular);
    }

    #[test]
    fn straight_line_code_is_not_in_a_loop() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        pb.block(f.entry())
            .alloc(Reg::ESI, 64)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .ret();
        let refs = classify_program(&pb.finish());
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].class, StaticClass::NotInLoop);
    }

    #[test]
    fn pure_negative_base_stride() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 64)
            .alloc(Reg::ESI, 8 * 64)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .sub(Reg::ESI, 8i64)
            .sub(Reg::ECX, 1i64)
            .cmpi(Reg::ECX, 0)
            .br_gt(body, done);
        pb.block(done).ret();
        let refs = classify_program(&pb.finish());
        let _ = f;
        let load = refs.iter().find(|r| !r.is_store).unwrap();
        assert_eq!(load.class, StaticClass::ConstantStride(-8));
    }

    #[test]
    fn two_latches_with_different_increments_are_irregular() {
        // A loop with two back edges, each bumping the address register
        // by a different constant: the per-iteration delta depends on
        // the path taken, so neither candidate may be picked.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let latch_a = pb.new_block();
        let latch_b = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 1 << 12)
            .jmp(head);
        pb.block(head)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::EAX, 0)
            .br_eq(latch_a, latch_b);
        pb.block(latch_a)
            .addi(Reg::ESI, 8)
            .cmpi(Reg::ECX, 64)
            .br_lt(head, done);
        pb.block(latch_b)
            .addi(Reg::ESI, 16)
            .cmpi(Reg::ECX, 64)
            .br_lt(head, done);
        pb.block(done).ret();
        let refs = classify_program(&pb.finish());
        let _ = f;
        let load = refs.iter().find(|r| !r.is_store).unwrap();
        assert_eq!(load.class, StaticClass::Irregular);
    }

    #[test]
    fn nested_loops_sharing_an_induction_register() {
        // esi advances by 8 per inner iteration and by an extra 64 in the
        // outer latch. The inner load is a clean 8-byte stride in its own
        // frame; the outer-latch load must NOT treat the inner bump as a
        // once-per-outer-iteration step (it runs 16 times), so the outer
        // ref is irregular.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let outer_head = pb.new_block();
        let inner = pb.new_block();
        let outer_latch = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 1 << 14)
            .jmp(outer_head);
        pb.block(outer_head).movi(Reg::EDX, 0).jmp(inner);
        pb.block(inner)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ESI, 8)
            .addi(Reg::EDX, 1)
            .cmpi(Reg::EDX, 16)
            .br_lt(inner, outer_latch);
        pb.block(outer_latch)
            .load(Reg::EBX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ESI, 64)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 4)
            .br_lt(outer_head, done);
        pb.block(done).ret();
        let refs = classify_program(&pb.finish());
        let _ = f;
        let loads: Vec<_> = refs.iter().filter(|r| !r.is_store).collect();
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].class, StaticClass::ConstantStride(8));
        assert_eq!(loads[1].class, StaticClass::Irregular);
    }

    #[test]
    fn negative_stride_and_base_plus_index_compose() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 63)
            .alloc(Reg::ESI, 8 * 64)
            .jmp(body);
        pb.block(body)
            // Walk the array backwards through the *base* register too:
            // esi += 8 and ecx -= 2 with scale 8 nets -8 per iteration.
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .addi(Reg::ESI, 8)
            .sub(Reg::ECX, 2i64)
            .cmpi(Reg::ECX, 0)
            .br_gt(body, done);
        pb.block(done).ret();
        let refs = classify_program(&pb.finish());
        let _ = f;
        let load = refs.iter().find(|r| !r.is_store).unwrap();
        assert_eq!(load.class, StaticClass::ConstantStride(8 - 16));
    }
}
