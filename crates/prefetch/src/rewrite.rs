//! Program rewriting: planting prefetch instructions.

use crate::plan::PrefetchPlan;
use std::cell::OnceCell;
use umi_analyze::{analyze_program, innermost_loop_map, Cfg};
use umi_ir::{BasicBlock, BlockId, Insn, MemRef, Pc, Program, CODE_BASE};

/// Coalescing radius for duplicate hints, in bytes. Both modeled
/// platforms (Pentium 4 and K7 L2) use 64-byte lines, so two hints of
/// the same address expression closer than this fetch the same line.
const COALESCE_LINE_BYTES: i64 = 64;

/// Rewrites `program`, inserting a `prefetch` instruction immediately
/// before every load in the plan. The prefetch reuses the load's address
/// expression with the plan's distance added to the displacement, so it
/// targets `EA + stride × distance` at runtime — the paper's "inject
/// prefetch requests" trace rewriting, applied at program granularity
/// (see DESIGN.md).
///
/// Hints are coalesced per innermost loop: when two planned loads share
/// an address expression and their prefetch targets land within one
/// cache line (`COALESCE_LINE_BYTES`, 64 bytes), only the first is
/// planted —
/// the line arrives once either way, and the duplicate would be pure
/// overhead (flagged by [`crate::check_rewritten`] as
/// `RedundantPrefetch` if planted).
///
/// The coalescing groups come from the innermost-loop map, which needs
/// the CFG, dominators and loop nests; they are built at the first
/// planned load the walk meets, so a plan that names no load of
/// `program` (an empty plan in particular) costs one layout pass.
///
/// Instruction addresses are re-laid out; the returned program is
/// self-consistent but its `Pc`s differ from the original's wherever
/// instructions were inserted.
pub fn inject_prefetches(program: &Program, plan: &PrefetchPlan) -> Program {
    let innermost = OnceCell::new();
    let group_of = |block: BlockId| {
        let innermost = innermost.get_or_init(|| {
            let cfg = Cfg::build(program);
            innermost_loop_map(program.blocks.len(), &analyze_program(program, &cfg))
        });
        innermost[block.index()].unwrap_or((usize::MAX, block.index()))
    };

    let mut blocks = Vec::with_capacity(program.blocks.len());
    let mut addr = CODE_BASE;
    /// One already-planted hint: its loop-or-block group plus the full
    /// target expression. Program order makes the survivor deterministic.
    struct Planted {
        group: (usize, usize),
        target: MemRef,
    }
    let mut planted: Vec<Planted> = Vec::new();
    for block in &program.blocks {
        let mut insns = Vec::with_capacity(block.insns.len());
        for (pc, insn) in block.iter_with_pc() {
            if let Some(entry) = plan.get(pc) {
                if let Some(mem) = prefetchable_ref(insn) {
                    let group = group_of(block.id);
                    let target = MemRef {
                        disp: mem.disp.wrapping_add(entry.distance_bytes),
                        ..mem
                    };
                    let duplicate = planted.iter().any(|p| {
                        p.group == group
                            && p.target.base == target.base
                            && p.target.index == target.index
                            && target.disp.wrapping_sub(p.target.disp).unsigned_abs()
                                < COALESCE_LINE_BYTES as u64
                    });
                    if !duplicate {
                        planted.push(Planted { group, target });
                        insns.push(Insn::Prefetch { mem: target });
                    }
                }
            }
            insns.push(insn.clone());
        }
        let new_block = BasicBlock {
            id: block.id,
            addr: Pc(addr),
            insns,
            terminator: block.terminator.clone(),
        };
        addr += new_block.byte_size();
        blocks.push(new_block);
    }
    Program {
        blocks,
        funcs: program.funcs.clone(),
        data: program.data.clone(),
        entry: program.entry,
        name: program.name.clone(),
    }
}

/// The first profilable (unfiltered) load reference of an instruction —
/// the one the profile columns recorded, hence the one the stride belongs
/// to.
fn prefetchable_ref(insn: &Insn) -> Option<MemRef> {
    insn.loads()
        .into_iter()
        .map(|(m, _)| m)
        .find(|m| !m.is_filtered())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanEntry;
    use umi_ir::{ProgramBuilder, Reg, Width};
    use umi_vm::{CountSink, NullSink, Vm};

    fn stream_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 1 << 16)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 1000)
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

    #[test]
    fn injects_before_planned_load_only() {
        let p = stream_program();
        let plan = PrefetchPlan::from_entries([(
            load_pc(&p),
            PlanEntry {
                stride: 8,
                distance_bytes: 256,
            },
        )]);
        let rewritten = inject_prefetches(&p, &plan);
        assert_eq!(rewritten.validate(), Ok(()));
        let prefetches: Vec<_> = rewritten
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .filter(|i| matches!(i, Insn::Prefetch { .. }))
            .collect();
        assert_eq!(prefetches.len(), 1);
        match prefetches[0] {
            Insn::Prefetch { mem } => assert_eq!(mem.disp, 256),
            _ => unreachable!(),
        }
        assert_eq!(rewritten.static_insns(), p.static_insns() + 1);
    }

    #[test]
    fn rewritten_program_computes_the_same_result() {
        let p = stream_program();
        let plan = PrefetchPlan::from_entries([(
            load_pc(&p),
            PlanEntry {
                stride: 8,
                distance_bytes: 128,
            },
        )]);
        let rewritten = inject_prefetches(&p, &plan);
        let mut a = Vm::new(&p);
        let mut b = Vm::new(&rewritten);
        a.run(&mut NullSink, u64::MAX);
        b.run(&mut NullSink, u64::MAX);
        assert_eq!(a.reg(Reg::ECX), b.reg(Reg::ECX));
        assert_eq!(a.stats().loads, b.stats().loads, "prefetch is not a load");
    }

    #[test]
    fn prefetch_accesses_run_ahead_of_demand() {
        let p = stream_program();
        let pc = load_pc(&p);
        let plan = PrefetchPlan::from_entries([(
            pc,
            PlanEntry {
                stride: 8,
                distance_bytes: 512,
            },
        )]);
        let rewritten = inject_prefetches(&p, &plan);
        let mut sink = CountSink::default();
        Vm::new(&rewritten).run(&mut sink, u64::MAX);
        assert_eq!(sink.prefetches, 1000, "one prefetch per iteration");
    }

    #[test]
    fn same_line_hints_coalesce_within_a_loop() {
        // Two planned loads off the same base, 8 bytes apart: their
        // prefetch targets share a line, so only the first hint lands.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 1 << 16)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .load(Reg::EBX, Reg::ESI + 8, Width::W8)
            .addi(Reg::ESI, 16)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 1000)
            .br_lt(body, done);
        pb.block(done).ret();
        let p = pb.finish();
        let _ = f;
        let pcs: Vec<Pc> = p
            .blocks
            .iter()
            .flat_map(|b| b.iter_with_pc())
            .filter(|(_, i)| i.is_load())
            .map(|(pc, _)| pc)
            .collect();
        let entry = PlanEntry {
            stride: 16,
            distance_bytes: 256,
        };
        let plan = PrefetchPlan::from_entries(pcs.iter().map(|&pc| (pc, entry)));
        let rewritten = inject_prefetches(&p, &plan);
        let prefetches: Vec<_> = rewritten
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .filter(|i| matches!(i, Insn::Prefetch { .. }))
            .collect();
        assert_eq!(prefetches.len(), 1, "second same-line hint coalesces");
        match prefetches[0] {
            Insn::Prefetch { mem } => assert_eq!(mem.disp, 256),
            _ => unreachable!(),
        }
    }

    #[test]
    fn far_apart_hints_both_survive() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 1 << 16)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .load(Reg::EBX, Reg::ESI + 4096, Width::W8)
            .addi(Reg::ESI, 16)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 1000)
            .br_lt(body, done);
        pb.block(done).ret();
        let p = pb.finish();
        let _ = f;
        let pcs: Vec<Pc> = p
            .blocks
            .iter()
            .flat_map(|b| b.iter_with_pc())
            .filter(|(_, i)| i.is_load())
            .map(|(pc, _)| pc)
            .collect();
        let entry = PlanEntry {
            stride: 16,
            distance_bytes: 256,
        };
        let plan = PrefetchPlan::from_entries(pcs.iter().map(|&pc| (pc, entry)));
        let rewritten = inject_prefetches(&p, &plan);
        let prefetches = rewritten
            .blocks
            .iter()
            .flat_map(|b| &b.insns)
            .filter(|i| matches!(i, Insn::Prefetch { .. }))
            .count();
        assert_eq!(prefetches, 2, "distinct-line hints both land");
    }

    #[test]
    fn empty_plan_is_identity_modulo_layout() {
        let p = stream_program();
        let rewritten = inject_prefetches(&p, &PrefetchPlan::default());
        assert_eq!(rewritten.static_insns(), p.static_insns());
        assert_eq!(rewritten.blocks.len(), p.blocks.len());
    }

    /// On every suite workload, an empty plan and a plan naming only
    /// pcs that issue no load both plant nothing: the rewrite keeps
    /// every block's instructions and terminator.
    #[test]
    fn plans_without_loads_leave_every_suite_program_unchanged() {
        let entry = PlanEntry {
            stride: 64,
            distance_bytes: 256,
        };
        for spec in umi_workloads::all32() {
            let p = spec.build(umi_workloads::Scale::Test);
            let non_loads = PrefetchPlan::from_entries(
                p.blocks
                    .iter()
                    .flat_map(|b| b.iter_with_pc())
                    .filter(|(_, i)| !i.is_load())
                    .map(|(pc, _)| (pc, entry)),
            );
            assert!(!non_loads.is_empty(), "{}", spec.name);
            for plan in [PrefetchPlan::default(), non_loads] {
                let rewritten = inject_prefetches(&p, &plan);
                assert_eq!(rewritten.blocks.len(), p.blocks.len(), "{}", spec.name);
                for (a, b) in p.blocks.iter().zip(&rewritten.blocks) {
                    assert_eq!(a.insns, b.insns, "{} {}", spec.name, a.id);
                    assert_eq!(a.terminator, b.terminator, "{} {}", spec.name, a.id);
                }
            }
        }
    }
}
