//! Control-flow graphs, dominator trees, and natural-loop detection.
//!
//! The CFG is *intra-procedural*: a `Call` terminator contributes a single
//! edge to its `ret_to` block (the callee runs in its own function's
//! graph), exactly the granularity at which the stride classifier reasons
//! about loops. Dominators use the iterative algorithm of Cooper, Harvey
//! and Kennedy over a reverse-postorder numbering; natural loops are the
//! classic back-edge construction (an edge `a -> b` where `b` dominates
//! `a` makes `b` a loop header).

use std::collections::{BTreeMap, BTreeSet};
use umi_ir::{BlockId, FuncId, Program, Terminator};

/// Intra-procedural control-flow graph over a program's blocks.
///
/// Successor lists are sorted and deduplicated; edges to out-of-range
/// blocks (which the verifier reports separately) are dropped so the
/// analyses stay total even on malformed input.
#[derive(Clone, Debug)]
pub struct Cfg {
    succs: Vec<Vec<BlockId>>,
    preds: Vec<Vec<BlockId>>,
}

/// Successor blocks of a terminator within the owning function: direct
/// targets, plus the resume block of a call.
pub(crate) fn intra_successors(term: &Terminator) -> Vec<BlockId> {
    match term {
        Terminator::Jmp(t) => vec![*t],
        Terminator::Br {
            taken, fallthrough, ..
        } => vec![*taken, *fallthrough],
        Terminator::JmpInd { table, .. } => table.clone(),
        Terminator::Call { ret_to, .. } => vec![*ret_to],
        Terminator::Ret | Terminator::Halt => Vec::new(),
    }
}

impl Cfg {
    /// Builds the graph for `program`. Blocks are addressed positionally
    /// (block `i` of the program is node `BlockId(i)`).
    pub fn build(program: &Program) -> Cfg {
        let n = program.blocks.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (i, b) in program.blocks.iter().enumerate() {
            let mut ss = intra_successors(&b.terminator);
            ss.sort_unstable();
            ss.dedup();
            ss.retain(|s| s.index() < n);
            for s in &ss {
                preds[s.index()].push(BlockId(i as u32));
            }
            succs[i] = ss;
        }
        Cfg { succs, preds }
    }

    /// Number of nodes (blocks).
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Successors of `b`, sorted and deduplicated.
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succs[b.index()]
    }

    /// Predecessors of `b`.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.preds[b.index()]
    }

    /// All node ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.len() as u32).map(BlockId)
    }
}

/// Dominator tree of the blocks reachable from one entry.
#[derive(Clone, Debug)]
pub struct Dominators {
    entry: BlockId,
    /// Immediate dominator per block index (`idom[entry] == entry`);
    /// `None` for blocks unreachable from the entry.
    idom: Vec<Option<u32>>,
    /// Reverse-postorder number per block index; `usize::MAX` when
    /// unreachable.
    order: Vec<usize>,
    rpo: Vec<BlockId>,
}

fn intersect(idom: &[Option<u32>], order: &[usize], mut a: usize, mut b: usize) -> usize {
    while a != b {
        while order[a] > order[b] {
            a = idom[a].expect("processed node has an idom") as usize;
        }
        while order[b] > order[a] {
            b = idom[b].expect("processed node has an idom") as usize;
        }
    }
    a
}

impl Dominators {
    /// Computes dominators for everything reachable from `entry`.
    pub fn compute(cfg: &Cfg, entry: BlockId) -> Dominators {
        let n = cfg.len();
        let mut order = vec![usize::MAX; n];
        // Iterative DFS postorder.
        let mut post = Vec::new();
        let mut state = vec![0u8; n]; // 0 = unvisited, 1 = open, 2 = done
        let mut stack: Vec<(usize, usize)> = vec![(entry.index(), 0)];
        state[entry.index()] = 1;
        while let Some(&mut (b, ref mut next)) = stack.last_mut() {
            let succs = &cfg.succs[b];
            if *next < succs.len() {
                let s = succs[*next].index();
                *next += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b] = 2;
                post.push(BlockId(b as u32));
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        for (i, b) in rpo.iter().enumerate() {
            order[b.index()] = i;
        }

        let mut idom: Vec<Option<u32>> = vec![None; n];
        idom[entry.index()] = Some(entry.0);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for p in &cfg.preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p.index(),
                        Some(cur) => intersect(&idom, &order, p.index(), cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni as u32) {
                        idom[b.index()] = Some(ni as u32);
                        changed = true;
                    }
                }
            }
        }
        Dominators {
            entry,
            idom,
            order,
            rpo,
        }
    }

    /// The entry block the tree is rooted at.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Blocks reachable from the entry, in reverse postorder.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.order[b.index()] != usize::MAX
    }

    /// The immediate dominator of `b` (`None` for the entry itself and for
    /// unreachable blocks).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        if b == self.entry {
            return None;
        }
        self.idom[b.index()].map(BlockId)
    }

    /// The nearest common dominator of `blocks`: a block dominates every
    /// member exactly when it dominates this one. `None` when `blocks` is
    /// empty or holds a block unreachable from the entry (which nothing
    /// dominates).
    pub(crate) fn common_dominator(&self, blocks: &[BlockId]) -> Option<BlockId> {
        let (&first, rest) = blocks.split_first()?;
        if !blocks.iter().all(|&b| self.is_reachable(b)) {
            return None;
        }
        let d = rest.iter().fold(first.index(), |a, b| {
            intersect(&self.idom, &self.order, a, b.index())
        });
        Some(BlockId(d as u32))
    }

    /// Whether `a` dominates `b` (reflexively). Unreachable blocks
    /// dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        let mut cur = b.index();
        loop {
            if cur == a.index() {
                return true;
            }
            if cur == self.entry.index() {
                return false;
            }
            cur = self.idom[cur].expect("reachable node has an idom") as usize;
        }
    }
}

/// A natural loop: a dominator back edge's header plus every block that
/// can reach a latch without passing through the header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NaturalLoop {
    /// The single entry block of the loop (target of its back edges).
    pub header: BlockId,
    /// Sources of the back edges (at least one), sorted by block index
    /// and free of duplicates (see [`NaturalLoop::is_latch`]).
    pub latches: Vec<BlockId>,
    /// Every block in the loop, including the header.
    pub body: BTreeSet<BlockId>,
}

impl NaturalLoop {
    /// Whether `b` is the source of one of this loop's back edges: a
    /// binary search over the sorted [`NaturalLoop::latches`].
    pub fn is_latch(&self, b: BlockId) -> bool {
        self.latches.binary_search(&b).is_ok()
    }
}

/// A LIFO worklist of blocks that holds each block at most once: a
/// queued bit per block index replaces a scan of the stack, so a
/// fixpoint over `n` blocks pays O(1) per push, not O(n).
pub(crate) struct Worklist {
    stack: Vec<BlockId>,
    queued: Vec<bool>,
}

impl Worklist {
    /// A worklist over a program of `n_blocks` blocks holding `first`.
    pub(crate) fn new(n_blocks: usize, first: BlockId) -> Worklist {
        let mut w = Worklist {
            stack: Vec::new(),
            queued: vec![false; n_blocks],
        };
        w.push(first);
        w
    }

    /// Queues `b` unless it is already queued.
    pub(crate) fn push(&mut self, b: BlockId) {
        if !std::mem::replace(&mut self.queued[b.index()], true) {
            self.stack.push(b);
        }
    }

    /// Takes the most recently queued block.
    pub(crate) fn pop(&mut self) -> Option<BlockId> {
        let b = self.stack.pop()?;
        self.queued[b.index()] = false;
        Some(b)
    }
}

/// Finds all natural loops of the function rooted at `doms.entry()`.
/// Back edges sharing a header are merged into one loop; results are
/// ordered by header id.
pub fn natural_loops(cfg: &Cfg, doms: &Dominators) -> Vec<NaturalLoop> {
    let mut by_header: BTreeMap<BlockId, NaturalLoop> = BTreeMap::new();
    for b in cfg.block_ids() {
        if !doms.is_reachable(b) {
            continue;
        }
        for &s in cfg.succs(b) {
            if !doms.dominates(s, b) {
                continue;
            }
            let lp = by_header.entry(s).or_insert_with(|| NaturalLoop {
                header: s,
                latches: Vec::new(),
                body: BTreeSet::from([s]),
            });
            lp.latches.push(b);
            let mut work = vec![b];
            while let Some(x) = work.pop() {
                if lp.body.insert(x) {
                    for &p in cfg.preds(x) {
                        if doms.is_reachable(p) {
                            work.push(p);
                        }
                    }
                }
            }
        }
    }
    let loops: Vec<NaturalLoop> = by_header.into_values().collect();
    // Sources are visited in index order and successor lists are
    // deduplicated, so each loop's latches come out sorted and unique.
    debug_assert!(loops
        .iter()
        .all(|lp| lp.latches.windows(2).all(|w| w[0] < w[1])));
    loops
}

/// Maps every block to its innermost containing loop, identified as
/// `(function index, loop index)` into `funcs` — the smallest loop body
/// wins. Blocks outside every loop map to `None`.
pub fn innermost_loop_map(n_blocks: usize, funcs: &[FuncAnalysis]) -> Vec<Option<(usize, usize)>> {
    let mut innermost: Vec<Option<(usize, usize)>> = vec![None; n_blocks];
    for (fi, fa) in funcs.iter().enumerate() {
        for (li, lp) in fa.loops.iter().enumerate() {
            for &b in &lp.body {
                let better = match innermost[b.index()] {
                    None => true,
                    Some((pfi, pli)) => lp.body.len() < funcs[pfi].loops[pli].body.len(),
                };
                if better {
                    innermost[b.index()] = Some((fi, li));
                }
            }
        }
    }
    innermost
}

/// Dominators and loops of one function.
#[derive(Clone, Debug)]
pub struct FuncAnalysis {
    /// The function analyzed.
    pub func: FuncId,
    /// Dominator tree rooted at the function's entry.
    pub doms: Dominators,
    /// The function's natural loops, ordered by header id.
    pub loops: Vec<NaturalLoop>,
}

/// Runs the dominator and loop analyses for every function of `program`
/// over a prebuilt `cfg`.
pub fn analyze_program(program: &Program, cfg: &Cfg) -> Vec<FuncAnalysis> {
    program
        .funcs
        .iter()
        .map(|f| {
            let doms = Dominators::compute(cfg, f.entry);
            let loops = natural_loops(cfg, &doms);
            FuncAnalysis {
                func: f.id,
                doms,
                loops,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::{ProgramBuilder, Reg};

    /// entry -> head -> body -> head (loop), head -> exit.
    fn looped() -> (Program, [BlockId; 4]) {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry()).movi(Reg::ECX, 0).jmp(head);
        pb.block(head).cmpi(Reg::ECX, 8).br_lt(body, exit);
        pb.block(body).addi(Reg::ECX, 1).jmp(head);
        pb.block(exit).ret();
        (pb.finish(), [f.entry(), head, body, exit])
    }

    #[test]
    fn dominators_of_a_diamond_loop() {
        let (p, [entry, head, body, exit]) = looped();
        let cfg = Cfg::build(&p);
        let doms = Dominators::compute(&cfg, entry);
        assert_eq!(doms.idom(head), Some(entry));
        assert_eq!(doms.idom(body), Some(head));
        assert_eq!(doms.idom(exit), Some(head));
        assert!(doms.dominates(entry, exit));
        assert!(doms.dominates(head, body));
        assert!(!doms.dominates(body, exit));
        assert!(doms.dominates(body, body), "dominance is reflexive");
    }

    #[test]
    fn natural_loop_is_detected_with_header_and_latch() {
        let (p, [entry, head, body, _exit]) = looped();
        let cfg = Cfg::build(&p);
        let doms = Dominators::compute(&cfg, entry);
        let loops = natural_loops(&cfg, &doms);
        assert_eq!(loops.len(), 1);
        let lp = &loops[0];
        assert_eq!(lp.header, head);
        assert_eq!(lp.latches, vec![body]);
        assert_eq!(lp.body, BTreeSet::from([head, body]));
    }

    #[test]
    fn latches_are_sorted_and_answered_by_binary_search() {
        // head -> a | b; a -> head | c; b -> head; c -> head | exit:
        // three back edges into one header, found in index order.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let a = pb.new_block();
        let b = pb.new_block();
        let c = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry()).movi(Reg::ECX, 0).jmp(head);
        pb.block(head).cmpi(Reg::ECX, 3).br_lt(a, b);
        pb.block(a).cmpi(Reg::ECX, 1).br_eq(head, c);
        pb.block(b).jmp(head);
        pb.block(c).cmpi(Reg::ECX, 2).br_lt(head, exit);
        pb.block(exit).ret();
        let p = pb.finish();
        let cfg = Cfg::build(&p);
        let doms = Dominators::compute(&cfg, f.entry());
        let loops = natural_loops(&cfg, &doms);
        assert_eq!(loops.len(), 1);
        let lp = &loops[0];
        assert_eq!(lp.latches, vec![a, b, c]);
        for blk in cfg.block_ids() {
            assert_eq!(lp.is_latch(blk), lp.latches.contains(&blk), "{blk}");
        }
        assert_eq!(doms.common_dominator(&lp.latches), Some(head));
        assert_eq!(doms.common_dominator(&[c]), Some(c));
        assert_eq!(doms.common_dominator(&[]), None);
    }

    #[test]
    fn worklist_is_lifo_and_holds_each_block_once() {
        let mut w = Worklist::new(8, BlockId(0));
        w.push(BlockId(3));
        w.push(BlockId(0)); // already queued: no-op
        w.push(BlockId(5));
        w.push(BlockId(3)); // already queued: no-op
        assert_eq!(w.pop(), Some(BlockId(5)));
        w.push(BlockId(5)); // popped blocks may be queued again
        assert_eq!(w.pop(), Some(BlockId(5)));
        assert_eq!(w.pop(), Some(BlockId(3)));
        assert_eq!(w.pop(), Some(BlockId(0)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn call_edges_stay_intra_procedural() {
        let mut pb = ProgramBuilder::new();
        let main = pb.begin_func("main");
        let leaf = pb.begin_func("leaf");
        let after = pb.new_block();
        pb.block(main.entry()).call(leaf, after);
        pb.block(leaf.entry()).ret();
        pb.block(after).ret();
        let p = pb.finish();
        let cfg = Cfg::build(&p);
        // The call's only CFG successor is its resume block.
        assert_eq!(cfg.succs(main.entry()), &[after]);
        let doms = Dominators::compute(&cfg, main.entry());
        assert!(!doms.is_reachable(leaf.entry()));
    }

    #[test]
    fn unreachable_blocks_have_no_dominators() {
        let (p, [entry, ..]) = looped();
        let cfg = Cfg::build(&p);
        let doms = Dominators::compute(&cfg, entry);
        // Analyze from `exit`: everything else is unreachable.
        let from_exit = Dominators::compute(&cfg, BlockId(3));
        assert!(!from_exit.is_reachable(entry));
        assert!(!from_exit.dominates(entry, BlockId(3)));
        assert_eq!(doms.rpo().len(), 4);
        assert_eq!(from_exit.rpo().len(), 1);
    }
}
