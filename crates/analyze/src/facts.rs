//! The per-program facts every whole-program pass shares.
//!
//! The abstract interpreter, the trip analysis, the delinquency
//! predictor, the composer and the linter all reason over the same
//! structure: the CFG, each function's dominator tree and natural loops,
//! the innermost-loop map, the constant layer ([`crate::value`]) and the
//! affine classification ([`crate::classify_program`]), plus per-loop
//! register kinds, trip bounds and first-iteration constant states. A
//! [`ProgramFacts`] builds each of them at most once per program: the
//! CFG layer eagerly (every pass reads it), everything else on first
//! use, so a standalone pass pays only for the facts it reads and a
//! pipeline of passes (`compose`, the static planner, the plan checker)
//! pays for each fact once.
//!
//! Each public entry point (`absint_program`, `trip_analysis`,
//! `compose_program`, …) builds one `ProgramFacts` and runs over it.
//! The passes that callers chain on one program — the abstract
//! interpreter, the predictor and the composer, plus the classified
//! references and the innermost-loop map — are also methods, so a
//! caller outside this crate (the static planner, the plan checker)
//! can share one set of facts between them.

use crate::affine::{classify, loop_reg_kinds, RegKind, StaticRef};
use crate::cachepred::loop_trip_bound;
use crate::cfg::{
    analyze_program, innermost_loop_map, intra_successors, Cfg, FuncAnalysis, NaturalLoop, Worklist,
};
use crate::value::{value_analysis, ValueAnalysis, ValueState};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use umi_ir::{BlockId, Program, Reg, Terminator};

/// First-iteration constant state per body block of one loop (`None`
/// for a block the cut body never reaches).
type PeelStates = BTreeMap<BlockId, Option<ValueState>>;

/// One lazily computed value per natural loop, addressed by
/// `(function index, loop index)`.
struct PerLoop<T>(Vec<Vec<OnceCell<T>>>);

impl<T> PerLoop<T> {
    fn new(funcs: &[FuncAnalysis]) -> PerLoop<T> {
        PerLoop(
            funcs
                .iter()
                .map(|fa| fa.loops.iter().map(|_| OnceCell::new()).collect())
                .collect(),
        )
    }

    fn get_or_init(&self, (fi, li): (usize, usize), f: impl FnOnce() -> T) -> &T {
        self.0[fi][li].get_or_init(f)
    }
}

/// Control-flow, loop, constant and affine facts of one program, each
/// built at most once (see the module docs).
pub struct ProgramFacts<'p> {
    pub(crate) program: &'p Program,
    pub(crate) cfg: Cfg,
    pub(crate) funcs: Vec<FuncAnalysis>,
    pub(crate) innermost: Vec<Option<(usize, usize)>>,
    /// Function index owning each block (first claim in RPO order).
    pub(crate) owner: Vec<Option<usize>>,
    values: OnceCell<ValueAnalysis>,
    refs: OnceCell<Vec<StaticRef>>,
    kinds: PerLoop<[RegKind; Reg::COUNT]>,
    trip_bounds: PerLoop<Option<u64>>,
    latch_doms: PerLoop<Option<BlockId>>,
    peel: PerLoop<PeelStates>,
}

impl<'p> ProgramFacts<'p> {
    /// Builds the CFG, dominators, loops and innermost-loop map of
    /// `program`; every other fact is computed on first use.
    pub fn new(program: &'p Program) -> ProgramFacts<'p> {
        let cfg = Cfg::build(program);
        let funcs = analyze_program(program, &cfg);
        let innermost = innermost_loop_map(program.blocks.len(), &funcs);
        let mut owner = vec![None; program.blocks.len()];
        for (fi, fa) in funcs.iter().enumerate() {
            for &b in fa.doms.rpo() {
                owner[b.index()].get_or_insert(fi);
            }
        }
        ProgramFacts {
            program,
            cfg,
            kinds: PerLoop::new(&funcs),
            trip_bounds: PerLoop::new(&funcs),
            latch_doms: PerLoop::new(&funcs),
            peel: PerLoop::new(&funcs),
            funcs,
            innermost,
            owner,
            values: OnceCell::new(),
            refs: OnceCell::new(),
        }
    }

    /// The program these facts describe.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Innermost containing loop per block ([`innermost_loop_map`]).
    pub fn innermost(&self) -> &[Option<(usize, usize)>] {
        &self.innermost
    }

    /// The whole-program constant propagation ([`value_analysis`]).
    pub(crate) fn values(&self) -> &ValueAnalysis {
        self.values.get_or_init(|| value_analysis(self.program))
    }

    /// Every memory reference, classified as
    /// [`crate::classify_program`] does and in its order.
    pub fn refs(&self) -> &[StaticRef] {
        self.refs.get_or_init(|| classify(self))
    }

    pub(crate) fn lp(&self, (fi, li): (usize, usize)) -> &NaturalLoop {
        &self.funcs[fi].loops[li]
    }

    /// Register kinds of loop `key` ([`loop_reg_kinds`]).
    pub(crate) fn kinds(&self, key: (usize, usize)) -> &[RegKind; Reg::COUNT] {
        self.kinds.get_or_init(key, || {
            loop_reg_kinds(self.program, self.lp(key), &self.funcs[key.0].doms)
        })
    }

    /// The controlling-compare trip bound of loop `key`
    /// ([`loop_trip_bound`]).
    pub(crate) fn trip_bound(&self, key: (usize, usize)) -> Option<u64> {
        *self.trip_bounds.get_or_init(key, || {
            loop_trip_bound(self.program, self.lp(key), self.kinds(key))
        })
    }

    /// Whether `b` dominates every latch of loop `key`, i.e. runs on
    /// every iteration that completes. One dominator-tree walk per query:
    /// the latches' common dominator is found once per loop.
    pub(crate) fn dominates_latches(&self, key: (usize, usize), b: BlockId) -> bool {
        let doms = &self.funcs[key.0].doms;
        let latch_dom = self
            .latch_doms
            .get_or_init(key, || doms.common_dominator(&self.lp(key).latches));
        latch_dom.is_some_and(|d| doms.dominates(b, d))
    }

    /// The constant state on the loop's entry edges (its virtual
    /// preheader): the join over every non-latch path into the header —
    /// a register is known here only if it is the same constant on
    /// *every* entry, which is what lets first-iteration addresses stand
    /// for all entries.
    fn preheader_state(&self, key: (usize, usize)) -> ValueState {
        let (program, values) = (self.program, self.values());
        let lp = self.lp(key);
        let func = &program.funcs[key.0];
        let mut ph: Option<ValueState> = None;
        let join = |s: ValueState, ph: &mut Option<ValueState>| match ph {
            None => *ph = Some(s),
            Some(p) => {
                p.join_from(&s);
            }
        };
        if func.entry == lp.header {
            let seed = if func.id == program.entry {
                ValueState::vm_entry()
            } else {
                ValueState::top()
            };
            join(seed, &mut ph);
        }
        for &p in self.cfg.preds(lp.header) {
            if lp.body.contains(&p) || !values.reached(p) {
                continue;
            }
            if matches!(program.block(p).terminator, Terminator::Call { .. }) {
                join(ValueState::top(), &mut ph);
                continue;
            }
            let mut out = values.block_entry(p).clone();
            for insn in &program.block(p).insns {
                out.step(insn);
            }
            join(out, &mut ph);
        }
        ph.unwrap_or_else(ValueState::top)
    }

    /// First-iteration constant states of loop `key`: the value analysis
    /// over the loop body with this loop's own back edges cut and the
    /// header seeded from the virtual preheader. `Call` terminators
    /// inside the body hand their resume block all-⊤, exactly like the
    /// global analysis.
    pub(crate) fn peel_values(&self, key: (usize, usize)) -> &PeelStates {
        self.peel.get_or_init(key, || {
            let program = self.program;
            let lp = self.lp(key);
            let mut states: PeelStates = lp.body.iter().map(|&b| (b, None)).collect();
            states.insert(lp.header, Some(self.preheader_state(key)));
            let mut work = Worklist::new(program.blocks.len(), lp.header);
            while let Some(b) = work.pop() {
                let Some(mut out) = states[&b].clone() else {
                    continue;
                };
                for insn in &program.block(b).insns {
                    out.step(insn);
                }
                let term = &program.block(b).terminator;
                if matches!(term, Terminator::Call { .. }) {
                    out = ValueState::top();
                }
                for s in intra_successors(term) {
                    if !lp.body.contains(&s) || (s == lp.header && lp.is_latch(b)) {
                        continue;
                    }
                    let slot = states.get_mut(&s).expect("body block");
                    let changed = match slot {
                        None => {
                            *slot = Some(out.clone());
                            true
                        }
                        Some(cur) => cur.join_from(&out),
                    };
                    if changed {
                        work.push(s);
                    }
                }
            }
            states
        })
    }
}
