//! Trip-count / loop-bound analysis: exact or bounded iteration counts
//! per loop, and execution-count intervals per block.
//!
//! The abstract cache interpreter ([`crate::absint`]) proves *per-site*
//! facts ("misses ≤ entries", "misses == accesses"); turning those into
//! *whole-program* miss-count intervals (see [`crate::compose`]) needs to
//! know how often each site runs. This module derives that from the facts
//! the static layer already computes:
//!
//! * **Exact trip counts** for counted loops: a single latch whose `Br`
//!   is controlled by the block's last `cmp reg, imm` against an
//!   induction register ([`RegKind::Induction`]), where the register's
//!   first-iteration value at the compare is a known constant (the
//!   constant layer, [`crate::value`], propagated over the loop body with
//!   the back edges cut). The iteration sequence `v0, v0+d, v0+2d, …` is
//!   then replayed with the VM's exact wrapping arithmetic until the
//!   continue condition first fails — no monotonicity convention needed,
//!   so count-*down* loops resolve exactly too. When additionally the
//!   latch's exit edge is the **only** edge leaving the body, the count
//!   is exact on both sides (`min == max`); with early exits it is an
//!   upper bound and the per-entry minimum collapses to 1.
//! * **Symbolic upper bounds** elsewhere: [`loop_trip_bound`]'s
//!   controlling-compare bound, inherited together with its zero-based
//!   up-counter convention (see the `cachepred` module docs).
//! * **Nesting-aware products** per block: a block's executions over the
//!   whole run are its function's entries times the trip bounds of every
//!   containing loop, on both the upper and the lower side.
//!
//! **Lower bounds** carry the usual must-execute caveats, applied
//! conservatively. A block's per-invocation minimum is 1 only when it
//! dominates every *terminal-capable* block of its function — every
//! reached `Ret` and `Halt`, plus every call site whose callee can
//! (transitively) halt, since such a call may end the program before the
//! invocation completes. Its per-iteration multiplier uses **loop-local**
//! dominance (dominators of the body subgraph rooted at the header):
//! global dominance of the latches is *not* enough, because a block on
//! the only first-iteration path can globally dominate a latch that
//! later iterations reach around it. Minimums assume the audited run
//! executes to completion (the harnesses run every workload to `Halt`)
//! and that loops terminate; the `table_staticplan` gate audits both
//! directions against the exact simulator.

use crate::affine::RegKind;
use crate::cfg::{intra_successors, Dominators, NaturalLoop};
use crate::facts::ProgramFacts;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use umi_ir::{BlockId, Insn, Operand, Program, Terminator};

/// Iterations of one loop per entry (executions of its header between
/// entering and leaving).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TripBound {
    /// The loop runs at least this many iterations each time it is
    /// entered (at least 1: entering executes the header).
    pub min: u64,
    /// The loop runs at most this many iterations per entry; `None` when
    /// no bound is derivable.
    pub max: Option<u64>,
    /// Whether `min == max` was proven exactly (single-exit counted
    /// loop replayed to its controlling compare's first failure).
    pub exact: bool,
}

impl TripBound {
    /// The unknown bound: at least one iteration, no upper bound.
    pub fn unknown() -> TripBound {
        TripBound {
            min: 1,
            max: None,
            exact: false,
        }
    }
}

/// Executions of one block over the program's whole run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecBound {
    /// The block executes at least this often in a run that terminates.
    pub min: u64,
    /// The block executes at most this often; `None` when unbounded.
    pub max: Option<u64>,
}

impl ExecBound {
    /// The vacuous interval `[0, ∞)`.
    pub fn unknown() -> ExecBound {
        ExecBound { min: 0, max: None }
    }
}

/// Trip bounds per natural loop and execution bounds per block.
#[derive(Clone, Debug)]
pub struct TripAnalysis {
    trips: BTreeMap<(usize, usize), TripBound>,
    exec: Vec<ExecBound>,
}

impl TripAnalysis {
    /// The trip bound of loop `li` of function `fi` (indices into
    /// [`crate::analyze_program`]'s result, as used by [`crate::innermost_loop_map`]).
    pub fn loop_trip(&self, fi: usize, li: usize) -> TripBound {
        self.trips
            .get(&(fi, li))
            .copied()
            .unwrap_or_else(TripBound::unknown)
    }

    /// The whole-run execution interval of `block`.
    pub fn exec(&self, block: BlockId) -> ExecBound {
        self.exec
            .get(block.index())
            .copied()
            .unwrap_or_else(ExecBound::unknown)
    }
}

/// Iteration cap for the exact-trip replay: a counted loop whose bound
/// is beyond this is reported as unbounded rather than replayed forever.
const EXACT_TRIP_CAP: u64 = 1 << 24;

/// The bound derivations' view of the shared [`ProgramFacts`], with
/// memo tables mirroring the absint driver's (the two walk the same
/// call/loop structure).
struct Trips<'f, 'p> {
    facts: &'f ProgramFacts<'p>,
    trips: BTreeMap<(usize, usize), TripBound>,
    entries_max: HashMap<usize, Option<u64>>,
    entries_min: HashMap<usize, u64>,
    /// Functions that can (transitively) execute a `Halt` terminator.
    can_halt: Vec<bool>,
    /// Per function, the nearest common dominator of its terminal-capable
    /// blocks (`None` when it has none), built on first use.
    exit_dom: HashMap<usize, Option<BlockId>>,
    /// Per loop, the body blocks that execute on *every* iteration
    /// (loop-local dominators of every latch).
    every_iter: HashMap<(usize, usize), BTreeSet<BlockId>>,
}

impl<'f, 'p> Trips<'f, 'p> {
    fn new(facts: &'f ProgramFacts<'p>) -> Trips<'f, 'p> {
        Trips {
            facts,
            trips: BTreeMap::new(),
            entries_max: HashMap::new(),
            entries_min: HashMap::new(),
            can_halt: halting_functions(facts),
            exit_dom: HashMap::new(),
            every_iter: HashMap::new(),
        }
    }

    fn trip(&mut self, key: (usize, usize)) -> TripBound {
        if let Some(t) = self.trips.get(&key) {
            return *t;
        }
        let t = match exact_trips(self.facts, key) {
            Some((t, single_exit)) => TripBound {
                min: if single_exit { t } else { 1 },
                max: Some(t),
                exact: single_exit,
            },
            None => TripBound {
                min: 1,
                max: self.facts.trip_bound(key),
                exact: false,
            },
        };
        self.trips.insert(key, t);
        t
    }

    /// Upper bound on whole-run executions of `block` (the absint
    /// driver's product, with the exact trip counts folded in).
    fn exec_max(&mut self, block: BlockId, visiting: &mut Vec<usize>) -> Option<u64> {
        let facts = self.facts;
        let fi = facts.owner[block.index()]?;
        let mut bound = self.func_entries_max(fi, visiting)?;
        for (li, lp) in facts.funcs[fi].loops.iter().enumerate() {
            if lp.body.contains(&block) {
                bound = bound.checked_mul(self.trip((fi, li)).max?)?;
            }
        }
        Some(bound)
    }

    fn func_entries_max(&mut self, fi: usize, visiting: &mut Vec<usize>) -> Option<u64> {
        if let Some(b) = self.entries_max.get(&fi) {
            return *b;
        }
        if visiting.contains(&fi) {
            return None;
        }
        let program = self.facts.program;
        let result = if program.funcs[fi].id == program.entry {
            Some(1)
        } else {
            visiting.push(fi);
            let target = program.funcs[fi].id;
            let mut total: Option<u64> = Some(0);
            for (bi, block) in program.blocks.iter().enumerate() {
                let Terminator::Call { func, .. } = block.terminator else {
                    continue;
                };
                if func != target || !self.facts.values().reached(BlockId(bi as u32)) {
                    continue;
                }
                total = match (total, self.exec_max(BlockId(bi as u32), visiting)) {
                    (Some(t), Some(e)) => t.checked_add(e),
                    _ => None,
                };
            }
            visiting.pop();
            total
        };
        self.entries_max.insert(fi, result);
        result
    }

    /// Lower bound on whole-run executions of `block`: guaranteed
    /// function entries times the per-invocation must-execute product.
    fn exec_min(&mut self, block: BlockId, visiting: &mut Vec<usize>) -> u64 {
        let Some(fi) = self.facts.owner[block.index()] else {
            return 0;
        };
        let per_invocation = self.per_invocation_min(fi, block);
        if per_invocation == 0 {
            return 0;
        }
        self.func_entries_min(fi, visiting)
            .saturating_mul(per_invocation)
    }

    fn func_entries_min(&mut self, fi: usize, visiting: &mut Vec<usize>) -> u64 {
        if let Some(b) = self.entries_min.get(&fi) {
            return *b;
        }
        if visiting.contains(&fi) {
            return 0;
        }
        let program = self.facts.program;
        let result = if program.funcs[fi].id == program.entry {
            1
        } else {
            visiting.push(fi);
            let target = program.funcs[fi].id;
            let mut total: u64 = 0;
            for (bi, block) in program.blocks.iter().enumerate() {
                let Terminator::Call { func, .. } = block.terminator else {
                    continue;
                };
                if func != target || !self.facts.values().reached(BlockId(bi as u32)) {
                    continue;
                }
                total = total.saturating_add(self.exec_min(BlockId(bi as u32), visiting));
            }
            visiting.pop();
            total
        };
        self.entries_min.insert(fi, result);
        result
    }

    /// Guaranteed executions of `block` per completed invocation of its
    /// function: 1 when it dominates every terminal-capable block (see
    /// module docs), times the exact trip count of every containing loop
    /// that must run it each iteration.
    fn per_invocation_min(&mut self, fi: usize, block: BlockId) -> u64 {
        if !self.must_reach_exit(fi, block) {
            return 0;
        }
        let mut min: u64 = 1;
        for li in 0..self.facts.funcs[fi].loops.len() {
            if !self.facts.lp((fi, li)).body.contains(&block) {
                continue;
            }
            let t = self.trip((fi, li));
            if t.exact && self.every_iteration((fi, li)).contains(&block) {
                min = min.saturating_mul(t.min);
            }
        }
        min
    }

    /// Whether every path from `fi`'s entry to any way the program can
    /// stop inside this invocation passes through `block`: whether it
    /// dominates every reachable `Ret`/`Halt` and every call whose callee
    /// can halt — equivalently, their nearest common dominator.
    fn must_reach_exit(&mut self, fi: usize, block: BlockId) -> bool {
        let facts = self.facts;
        let doms = &facts.funcs[fi].doms;
        if !doms.is_reachable(block) {
            return false;
        }
        let can_halt = &self.can_halt;
        let exit_dom = *self.exit_dom.entry(fi).or_insert_with(|| {
            let program = facts.program;
            let terminals: Vec<BlockId> = doms
                .rpo()
                .iter()
                .copied()
                .filter(|&b| match &program.block(b).terminator {
                    Terminator::Ret | Terminator::Halt => true,
                    Terminator::Call { func, .. } => program
                        .funcs
                        .iter()
                        .position(|f| f.id == *func)
                        .is_none_or(|callee| can_halt[callee]),
                    _ => false,
                })
                .collect();
            doms.common_dominator(&terminals)
        });
        match exit_dom {
            Some(d) => doms.dominates(block, d),
            // No reachable exit at all: the invocation never completes, so
            // nothing past the entry block is guaranteed in a finite run.
            None => block == facts.program.funcs[fi].entry,
        }
    }

    /// The blocks of loop `key` that execute on every iteration:
    /// loop-local dominators (body subgraph rooted at the header) of
    /// every latch.
    fn every_iteration(&mut self, key: (usize, usize)) -> &BTreeSet<BlockId> {
        let facts = self.facts;
        self.every_iter
            .entry(key)
            .or_insert_with(|| latch_dominators(&facts.funcs[key.0].doms, facts.lp(key)))
    }
}

/// Which functions can (transitively) execute a `Halt`, by fixpoint over
/// the reached call graph. Unresolvable callees count as halting.
fn halting_functions(facts: &ProgramFacts<'_>) -> Vec<bool> {
    let (program, funcs, values) = (facts.program, &facts.funcs, facts.values());
    let mut can_halt = vec![false; funcs.len()];
    loop {
        let mut changed = false;
        for (fi, fa) in funcs.iter().enumerate() {
            if can_halt[fi] {
                continue;
            }
            let halts = fa.doms.rpo().iter().any(|&b| {
                if !values.reached(b) {
                    return false;
                }
                match &program.block(b).terminator {
                    Terminator::Halt => true,
                    Terminator::Call { func, .. } => program
                        .funcs
                        .iter()
                        .position(|f| f.id == *func)
                        .is_none_or(|callee| can_halt[callee]),
                    _ => false,
                }
            });
            if halts {
                can_halt[fi] = true;
                changed = true;
            }
        }
        if !changed {
            return can_halt;
        }
    }
}

/// Loop-local dominators of every latch: the body blocks through which
/// every header→latch path inside the body passes.
///
/// For a body block these are exactly its dominators in the function's
/// tree: a path from the function entry to a latch passes the header,
/// and its suffix after the last header visit stays in the body, so a
/// body block on every local path is on every global one; conversely a
/// body block `b` dominating a latch but missing from some local path
/// would have to sit on every entry→header path, i.e. dominate the
/// header that dominates it, so `b` is the header. (The loop-local
/// caveat in the module docs is about blocks *outside* the body.) The
/// set is therefore the dominator-tree path from the latches' nearest
/// common dominator up to the header: O(depth) per loop.
fn latch_dominators(doms: &Dominators, lp: &NaturalLoop) -> BTreeSet<BlockId> {
    let mut out = BTreeSet::new();
    let mut cur = doms.common_dominator(&lp.latches);
    while let Some(b) = cur {
        out.insert(b);
        cur = (b != lp.header).then(|| doms.idom(b)).flatten();
    }
    out
}

/// The classic iterative dominator-set formulation of
/// [`latch_dominators`] over the body subgraph rooted at the header:
/// the differential oracle of the tree walk, O(body²) in time and
/// memory.
#[cfg(test)]
fn local_latch_dominators(
    program: &Program,
    header: BlockId,
    body: &BTreeSet<BlockId>,
    latches: &[BlockId],
) -> BTreeSet<BlockId> {
    let mut preds: BTreeMap<BlockId, Vec<BlockId>> = BTreeMap::new();
    for &b in body {
        for s in intra_successors(&program.block(b).terminator) {
            if body.contains(&s) && s != header {
                preds.entry(s).or_default().push(b);
            }
        }
    }
    let mut dom: BTreeMap<BlockId, BTreeSet<BlockId>> = BTreeMap::new();
    dom.insert(header, BTreeSet::from([header]));
    for &b in body {
        if b != header {
            dom.insert(b, body.clone());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for &b in body {
            if b == header {
                continue;
            }
            let mut new: Option<BTreeSet<BlockId>> = None;
            for p in preds.get(&b).into_iter().flatten() {
                let pd = &dom[p];
                new = Some(match new {
                    None => pd.clone(),
                    Some(cur) => cur.intersection(pd).copied().collect(),
                });
            }
            let mut new = new.unwrap_or_default();
            new.insert(b);
            if new != dom[&b] {
                dom.insert(b, new);
                changed = true;
            }
        }
    }
    let mut out: Option<BTreeSet<BlockId>> = None;
    for l in latches {
        let ld = &dom[l];
        out = Some(match out {
            None => ld.clone(),
            Some(cur) => cur.intersection(ld).copied().collect(),
        });
    }
    out.unwrap_or_default()
}

/// Tries to count loop `key` exactly. Returns `(trips, single_exit)`:
/// the number of header executions per entry, and whether the latch's
/// exit edge is the only way out of the body (making the count a lower
/// bound too). `None` when the loop is not a recognizable counted loop.
fn exact_trips(facts: &ProgramFacts<'_>, key: (usize, usize)) -> Option<(u64, bool)> {
    let (program, lp) = (facts.program, facts.lp(key));
    // The replay models control flow and the counter's value sequence
    // exactly, which needs a body free of calls (a callee shares the
    // register file) and of indirect or halting exits.
    for &b in &lp.body {
        if !matches!(
            program.block(b).terminator,
            Terminator::Jmp(_) | Terminator::Br { .. }
        ) {
            return None;
        }
    }
    let [latch] = lp.latches[..] else {
        return None;
    };
    let Terminator::Br {
        cond,
        taken,
        fallthrough,
    } = program.block(latch).terminator
    else {
        return None;
    };
    // Continue condition: the branch edge that re-enters the header.
    let continue_if = if taken == lp.header && fallthrough != lp.header {
        true
    } else if fallthrough == lp.header && taken != lp.header {
        false
    } else {
        return None;
    };
    // The branch tests the flags of the block's last compare — exactly
    // that one, which must pit an induction register against an
    // immediate (an earlier compare's flags are already overwritten).
    let (cmp_idx, last_cmp) = program
        .block(latch)
        .insns
        .iter()
        .enumerate()
        .rev()
        .find(|(_, insn)| matches!(insn, Insn::Cmp { .. }))?;
    let Insn::Cmp {
        a: Operand::Reg(reg),
        b: Operand::Imm(n),
    } = *last_cmp
    else {
        return None;
    };
    let RegKind::Induction(d) = facts.kinds(key)[reg.index()] else {
        return None;
    };
    if d == 0 {
        return None;
    }
    // First-iteration value of the counter at the compare point: the
    // constant layer over the body with the back edges cut.
    let mut st = facts.peel_values(key).get(&latch)?.clone()?;
    for insn in &program.block(latch).insns[..cmp_idx] {
        st.step(insn);
    }
    let v0 = st.reg(reg).as_const()?;
    // Replay the exact value sequence v0, v0+d, … with the VM's wrapping
    // arithmetic until the continue condition first fails.
    let mut x = v0;
    let mut k: u64 = 0;
    loop {
        if cond.eval(x, n) != continue_if {
            break;
        }
        k += 1;
        if k >= EXACT_TRIP_CAP {
            return None;
        }
        x = x.wrapping_add(d);
    }
    let trips = k + 1;
    // Single exit: no body edge other than the latch's exit edge leaves
    // the body, and the latch exits only through that one edge.
    let single_exit = lp.body.iter().all(|&b| {
        intra_successors(&program.block(b).terminator)
            .into_iter()
            .all(|s| lp.body.contains(&s) || b == latch)
    });
    Some((trips, single_exit))
}

/// Runs the trip-count and execution-bound analysis over `program`.
///
/// Results cover every natural loop (by `(function, loop)` index, the
/// same numbering as [`crate::analyze_program`] / [`crate::innermost_loop_map`])
/// and every block. Unreached blocks get the exact bound `[0, 0]`.
pub fn trip_analysis(program: &Program) -> TripAnalysis {
    analyze_trips(&ProgramFacts::new(program))
}

/// [`trip_analysis`] over prebuilt facts.
pub(crate) fn analyze_trips(facts: &ProgramFacts<'_>) -> TripAnalysis {
    let mut tz = Trips::new(facts);
    for (fi, fa) in facts.funcs.iter().enumerate() {
        for li in 0..fa.loops.len() {
            tz.trip((fi, li));
        }
    }
    let n = facts.program.blocks.len();
    let mut exec = Vec::with_capacity(n);
    for bi in 0..n {
        let b = BlockId(bi as u32);
        if !facts.values().reached(b) {
            exec.push(ExecBound {
                min: 0,
                max: Some(0),
            });
            continue;
        }
        exec.push(ExecBound {
            min: tz.exec_min(b, &mut Vec::new()),
            max: tz.exec_max(b, &mut Vec::new()),
        });
    }
    TripAnalysis {
        trips: tz.trips,
        exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::{ProgramBuilder, Reg, Width};

    /// entry: ecx = 0; body: load; ecx += 1; cmp ecx, n; br_lt body, exit
    fn counted(n: i64) -> (umi_ir::Program, BlockId, BlockId) {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, n)
            .br_lt(body, exit);
        pb.block(exit).ret();
        (pb.finish(), body, exit)
    }

    #[test]
    fn counted_loop_is_exact() {
        let (p, body, exit) = counted(100);
        let ta = trip_analysis(&p);
        assert_eq!(
            ta.loop_trip(0, 0),
            TripBound {
                min: 100,
                max: Some(100),
                exact: true
            }
        );
        assert_eq!(
            ta.exec(body),
            ExecBound {
                min: 100,
                max: Some(100)
            }
        );
        assert_eq!(
            ta.exec(exit),
            ExecBound {
                min: 1,
                max: Some(1)
            }
        );
    }

    #[test]
    fn countdown_loop_is_exact_too() {
        // loop_trip_bound punts on countdown loops; the exact replay
        // follows the value sequence and does not care about direction.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 64)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .sub(Reg::ECX, 1i64)
            .cmpi(Reg::ECX, 0)
            .br_gt(body, exit);
        pb.block(exit).ret();
        let ta = trip_analysis(&pb.finish());
        assert_eq!(
            ta.loop_trip(0, 0),
            TripBound {
                min: 64,
                max: Some(64),
                exact: true
            }
        );
        assert_eq!(
            ta.exec(body),
            ExecBound {
                min: 64,
                max: Some(64)
            }
        );
    }

    #[test]
    fn early_exit_keeps_the_upper_bound_only() {
        // A data-dependent break: the count is an upper bound, the
        // per-entry minimum collapses to one iteration.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let latch = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 0)
            .jmp(head);
        pb.block(head)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .cmpi(Reg::EAX, 7)
            .br_eq(exit, latch);
        pb.block(latch)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 50)
            .br_lt(head, exit);
        pb.block(exit).ret();
        let ta = trip_analysis(&pb.finish());
        let t = ta.loop_trip(0, 0);
        assert_eq!((t.min, t.max, t.exact), (1, Some(50), false));
        let head_exec = ta.exec(head);
        assert_eq!((head_exec.min, head_exec.max), (1, Some(50)));
        // The latch is not on every iteration's guaranteed path (the
        // break skips it), so its minimum is 0 within the loop frame —
        // but it still may run up to 50 times.
        let latch_exec = ta.exec(latch);
        assert_eq!((latch_exec.min, latch_exec.max), (0, Some(50)));
    }

    #[test]
    fn nested_loops_multiply_both_sides() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let outer = pb.new_block();
        let inner = pb.new_block();
        let outer_latch = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::EDX, 0)
            .jmp(outer);
        pb.block(outer).movi(Reg::ECX, 0).jmp(inner);
        pb.block(inner)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(inner, outer_latch);
        pb.block(outer_latch)
            .addi(Reg::EDX, 1)
            .cmpi(Reg::EDX, 10)
            .br_lt(outer, exit);
        pb.block(exit).ret();
        let ta = trip_analysis(&pb.finish());
        assert_eq!(
            ta.exec(inner),
            ExecBound {
                min: 1000,
                max: Some(1000)
            }
        );
        assert_eq!(
            ta.exec(outer_latch),
            ExecBound {
                min: 10,
                max: Some(10)
            }
        );
    }

    #[test]
    fn first_iteration_only_block_gets_no_per_iteration_credit() {
        // The "setup" block is on the only path from the entry into the
        // loop, so it globally dominates the latch — but iterations 2+
        // re-enter the header directly. Loop-local dominance must deny
        // it the ×trips multiplier. Shape: entry -> head; head -> b or
        // latch; b -> latch; latch -> head | exit; where head can skip b.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let maybe = pb.new_block();
        let latch = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 0)
            .jmp(head);
        pb.block(head)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .cmpi(Reg::EAX, 7)
            .br_eq(maybe, latch);
        pb.block(maybe)
            .load(Reg::EBX, Reg::ESI + 8, Width::W8)
            .jmp(latch);
        pb.block(latch)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(head, exit);
        pb.block(exit).ret();
        let ta = trip_analysis(&pb.finish());
        assert_eq!(ta.loop_trip(0, 0).max, Some(100));
        let m = ta.exec(maybe);
        assert_eq!((m.min, m.max), (0, Some(100)), "conditional block");
        let h = ta.exec(head);
        assert_eq!((h.min, h.max), (100, Some(100)), "header runs each trip");
    }

    /// Compares the dominator-tree walk against the iterative oracle on
    /// every loop of `p` with at most `max_body` blocks; returns how many
    /// loops it checked.
    fn check_latch_dominators(p: &Program, max_body: usize) -> usize {
        let facts = ProgramFacts::new(p);
        let mut checked = 0;
        for fa in &facts.funcs {
            for lp in fa.loops.iter().filter(|lp| lp.body.len() <= max_body) {
                assert_eq!(
                    latch_dominators(&fa.doms, lp),
                    local_latch_dominators(p, lp.header, &lp.body, &lp.latches),
                    "{}: loop at {}",
                    p.name,
                    lp.header
                );
                checked += 1;
            }
        }
        checked
    }

    #[test]
    fn latch_dominators_match_the_iterative_oracle() {
        // An outer loop with two latches around an inner loop with two
        // latches, one of them on a conditional path.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let outer = pb.new_block();
        let inner = pb.new_block();
        let work = pb.new_block();
        let skip = pb.new_block();
        let tail = pb.new_block();
        let mid = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::EDX, 0)
            .jmp(outer);
        pb.block(outer).movi(Reg::ECX, 0).jmp(inner);
        pb.block(inner)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .cmpi(Reg::EAX, 7)
            .br_eq(skip, work);
        pb.block(work)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 10)
            .br_lt(inner, tail);
        pb.block(skip)
            .addi(Reg::ECX, 2)
            .cmpi(Reg::ECX, 10)
            .br_lt(inner, tail);
        pb.block(tail)
            .addi(Reg::EDX, 1)
            .cmpi(Reg::EDX, 5)
            .br_lt(outer, mid);
        pb.block(mid).cmpi(Reg::EAX, 3).br_eq(outer, exit);
        pb.block(exit).ret();
        let nested = pb.finish();
        assert_eq!(check_latch_dominators(&nested, usize::MAX), 2);
        let facts = ProgramFacts::new(&nested);
        let fa = &facts.funcs[0];
        let outer_loop = fa.loops.iter().find(|lp| lp.header == outer).unwrap();
        assert_eq!(outer_loop.latches, vec![tail, mid]);
        assert_eq!(
            latch_dominators(&fa.doms, outer_loop),
            BTreeSet::from([outer, inner, tail])
        );

        // A diamond inside the loop whose join block dominates the latch.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let a = pb.new_block();
        let b = pb.new_block();
        let join = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry()).movi(Reg::ECX, 0).jmp(head);
        pb.block(head).cmpi(Reg::EAX, 0).br_eq(a, b);
        pb.block(a).jmp(join);
        pb.block(b).jmp(join);
        pb.block(join)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 8)
            .br_lt(head, exit);
        pb.block(exit).ret();
        assert_eq!(check_latch_dominators(&pb.finish(), usize::MAX), 1);

        // Every suite loop small enough for the quadratic oracle.
        let mut suite = 0;
        for spec in umi_workloads::all32() {
            suite += check_latch_dominators(&spec.build(umi_workloads::Scale::Test), 512);
        }
        assert!(suite > 32, "only {suite} suite loops checked");
    }

    #[test]
    fn counted_loop_around_a_4096_state_switch_is_exact() {
        // for ecx in 0..1000 { switch eax { 4096 cases } } with the
        // switch as a compare chain, so the loop stays a counted loop
        // whose every-iteration set the trip analysis must derive. The
        // iterative oracle would hold a 4096-case body set per block.
        const STATES: usize = 4096;
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let tests: Vec<BlockId> = (0..STATES).map(|_| pb.new_block()).collect();
        let cases: Vec<BlockId> = (0..STATES).map(|_| pb.new_block()).collect();
        let latch = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 0)
            .jmp(head);
        pb.block(head)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .jmp(tests[0]);
        for k in 0..STATES {
            let next = tests.get(k + 1).copied().unwrap_or(latch);
            pb.block(tests[k])
                .cmpi(Reg::EAX, k as i64)
                .br_eq(cases[k], next);
            pb.block(cases[k]).addi(Reg::EDX, k as i64).jmp(latch);
        }
        pb.block(latch)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 1000)
            .br_lt(head, exit);
        pb.block(exit).ret();
        let p = pb.finish();

        let facts = ProgramFacts::new(&p);
        let fa = &facts.funcs[0];
        assert_eq!(fa.loops.len(), 1);
        assert_eq!(fa.loops[0].body.len(), 2 * STATES + 2);
        assert_eq!(
            latch_dominators(&fa.doms, &fa.loops[0]),
            BTreeSet::from([head, tests[0], latch])
        );
        let ta = analyze_trips(&facts);
        assert_eq!(
            ta.loop_trip(0, 0),
            TripBound {
                min: 1000,
                max: Some(1000),
                exact: true
            }
        );
        let exec = |b: BlockId| {
            let e = ta.exec(b);
            (e.min, e.max)
        };
        for b in [head, tests[0], latch] {
            assert_eq!(exec(b), (1000, Some(1000)), "{b} runs every trip");
        }
        for b in [tests[1], tests[STATES - 1], cases[0], cases[STATES - 1]] {
            assert_eq!(exec(b), (0, Some(1000)), "{b} is conditional");
        }
        assert_eq!(exec(exit), (1, Some(1)));
    }

    #[test]
    fn calls_split_min_credit_at_halting_callees() {
        // leaf() halts: the block after the call in main is never
        // guaranteed, but the block before it is.
        let mut pb = ProgramBuilder::new();
        let main = pb.begin_func("main");
        let leaf = pb.begin_func("leaf");
        let after = pb.new_block();
        pb.block(main.entry()).alloc(Reg::ESI, 64).call(leaf, after);
        pb.block(leaf.entry()).halt();
        pb.block(after).ret();
        let p = pb.finish();
        let ta = trip_analysis(&p);
        let entry = ta.exec(main.entry());
        assert_eq!(entry.min, 1, "the entry block always runs");
        assert_eq!(ta.exec(after).min, 0, "the callee may halt first");
        assert_eq!(ta.exec(leaf.entry()).min, 1, "the call always enters");
    }

    #[test]
    fn unreached_blocks_are_exactly_zero() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let dead = pb.new_block();
        pb.block(f.entry()).ret();
        pb.block(dead).load(Reg::EAX, Reg::ESI + 0, Width::W8).ret();
        let ta = trip_analysis(&pb.finish());
        let _ = f;
        assert_eq!(
            ta.exec(dead),
            ExecBound {
                min: 0,
                max: Some(0)
            }
        );
    }

    #[test]
    fn unknown_start_value_falls_back_to_the_symbolic_bound() {
        // The counter starts from a loaded value: no exact count, but
        // the controlling-compare bound still caps it.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .load(Reg::ECX, Reg::ESI + 0, Width::W8)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let ta = trip_analysis(&pb.finish());
        let t = ta.loop_trip(0, 0);
        assert!(!t.exact);
        assert_eq!(t.max, Some(100));
        assert_eq!(t.min, 1);
    }
}
