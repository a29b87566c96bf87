//! Abstract interpretation of cache behavior: must/persistence analysis
//! over the decoded IR.
//!
//! For every memory-access site the interpreter tries to *prove* one of
//! three per-level facts, each a hard bound the full simulator can audit:
//!
//! * **AlwaysHit** — in the steady state of its innermost loop the site's
//!   line is must-resident, so at most the first iteration of each loop
//!   entry misses: `misses ≤ entries_bound`.
//! * **AlwaysMiss** — every execution provably opens a line nothing else
//!   in the program touches: `misses == accesses` at every level.
//! * **Persistent** — a sub-line sweep whose current line survives a full
//!   trip around the loop: `misses ≤ lines_bound × entries_bound`.
//! * **Unclassified** — no proof; the class dynamic profiling exists for.
//!
//! The machinery composes three layers. The affine layer
//! ([`crate::affine`]) says how each address *moves* per loop iteration;
//! the constant layer ([`crate::value`]) pins addresses the program
//! determines outright; the cache layer ([`crate::domain`]) ages
//! [`LineToken`]s through a must-cache that is set-aware for concrete
//! lines and set-blind for symbolic ones (see the `domain` module docs).
//!
//! **Loop peeling.** Each loop is analyzed twice: a *peel* pass with the
//! loop's own back edges cut and an **empty** must-state at the header
//! (the first iteration of an arbitrary entry — starting from nothing is
//! also what keeps symbolic residency from leaking across loop entries,
//! where the registers behind an invariant expression may hold different
//! values), and a *steady* pass seeded with the join of the peel pass's
//! latch-out states and iterated over the back edges to fixpoint. Steady
//! residency therefore holds from the second iteration of every entry
//! onward. Inner-loop back edges stay intact in both passes, so an
//! outer-loop pass conservatively self-joins over any number of inner
//! iterations.
//!
//! **Cache levels.** L1 verdicts come from the must analysis at L1
//! geometry. The hierarchy is non-inclusive and its L2 is touched only by
//! L1 misses, so a full-stream must analysis at L2 geometry would be
//! unsound: a line can sit L1-hot for millions of references, never
//! refreshing its L2 age, and be evicted from L2 while abstractly
//! "young". The sound direction is containment — per-site memory-level
//! misses never exceed L1 misses, so an L1 miss bound *is* a memory-level
//! miss bound, and a compulsory-missing line is fresh at every level. L2
//! verdicts are derived that way, never analyzed against the full stream.
//!
//! **Calls.** A loop whose body contains a `Call` terminator is skipped
//! outright: the callee shares the register file (invariance facts die)
//! and the cache (aging becomes unbounded).
//!
//! Trip-count bounds reuse [`loop_trip_bound`], an upper bound under the
//! zero-based up-counter convention every workload kernel follows (see
//! the `cachepred` module docs); the soundness gate inherits exactly that
//! assumption and no other.

use crate::affine::{classify_ref, StaticClass};
use crate::cachepred::CacheGeometry;
use crate::cfg::{intra_successors, NaturalLoop, Worklist};
use crate::domain::{LineToken, MustState};
use crate::facts::ProgramFacts;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use umi_ir::{BlockId, Insn, MemRef, Pc, Program, Terminator, Width};

/// Statically proven cache behavior of one access site at one level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Steady-state must-resident: misses ≤ `entries_bound`.
    AlwaysHit,
    /// Every execution opens a fresh, unshared line: misses == accesses.
    AlwaysMiss,
    /// Sub-line sweep whose current line survives each iteration:
    /// misses ≤ `lines_bound × entries_bound`.
    Persistent,
    /// No proof.
    Unclassified,
}

impl Verdict {
    /// Short stable label used in reports and goldens.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::AlwaysHit => "hit",
            Verdict::AlwaysMiss => "miss",
            Verdict::Persistent => "persist",
            Verdict::Unclassified => "unknown",
        }
    }

    /// Whether the interpreter proved anything for this site.
    pub fn classified(self) -> bool {
        self != Verdict::Unclassified
    }
}

/// Why one site stayed [`Verdict::Unclassified`] — the attribution that
/// turns "coverage gap" into a statement about which proof failed.
/// Surfaced per-site in `results/umi_absint.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnclassifiedReason {
    /// The site is not inside any natural loop; straight-line code is
    /// profiled, never proven (no steady state to reason about).
    NotInLoop,
    /// The innermost loop's body contains a `Call`: the callee shares
    /// the register file and the cache, so the loop is skipped outright.
    CallInLoop,
    /// An address register varies irregularly (pointer chase,
    /// conditional bump): the affine layer has no transfer for it.
    IrregularAddress,
    /// The must-state lost the site's line to aging or a CFG join
    /// before the steady-state check.
    JoinLoss,
    /// Line-crossing sweep whose loop has no derivable trip bound, so
    /// its extent — and thus freshness — is unknown.
    NoTripBound,
    /// The loop may be entered more than once: a first-iteration
    /// address cannot stand for every entry's sweep.
    MultipleEntries,
    /// The stride crosses the L1 line but not the larger of the two
    /// line sizes, so line numbers are not strictly monotone at every
    /// level.
    SubLineStride,
    /// The sweep's start address stayed symbolic (the set-blind case):
    /// neither freshness nor disjointness can be checked concretely.
    SymbolicSetBlind,
    /// The sweep could not be proven disjoint from every other access
    /// footprint in the program.
    FootprintOverlap,
}

impl UnclassifiedReason {
    /// Short stable label used in the JSON report.
    pub fn label(self) -> &'static str {
        match self {
            UnclassifiedReason::NotInLoop => "not_in_loop",
            UnclassifiedReason::CallInLoop => "call_in_loop",
            UnclassifiedReason::IrregularAddress => "irregular_address",
            UnclassifiedReason::JoinLoss => "join_loss",
            UnclassifiedReason::NoTripBound => "no_trip_bound",
            UnclassifiedReason::MultipleEntries => "multiple_entries",
            UnclassifiedReason::SubLineStride => "sub_line_stride",
            UnclassifiedReason::SymbolicSetBlind => "symbolic_set_blind",
            UnclassifiedReason::FootprintOverlap => "footprint_overlap",
        }
    }
}

/// The abstract interpreter's result for one demand-access site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheBehavior {
    /// The owning instruction.
    pub pc: Pc,
    /// The owning block.
    pub block: BlockId,
    /// Whether this site is a store (else a load).
    pub is_store: bool,
    /// Whether UMI's operation filter excludes it from profiling.
    pub filtered: bool,
    /// Whether the site sits inside a natural loop (the coverage
    /// denominator of `umi_lint`'s must-cache verdict section).
    pub in_loop: bool,
    /// Verdict against the L1 geometry.
    pub l1: Verdict,
    /// Verdict at the memory level, derived from L1 by containment (see
    /// module docs).
    pub l2: Verdict,
    /// Upper bound on entries of the site's innermost loop (executions
    /// of its entry edges): the miss allowance of `AlwaysHit`.
    pub entries_bound: Option<u64>,
    /// Upper bound on distinct lines one loop entry's sweep touches: the
    /// per-entry miss allowance of `Persistent`.
    pub lines_bound: Option<u64>,
    /// Why the site stayed unclassified; `None` whenever a verdict was
    /// proven.
    pub reason: Option<UnclassifiedReason>,
}

/// How the must analysis treats one access site within one loop.
#[derive(Clone, Copy, Debug)]
enum Transfer {
    /// The access provably touches this token's line (loop-invariant
    /// expressions, concrete addresses): LRU refresh.
    Refresh(LineToken),
    /// A sub-line sweep: the site's rolling token enters at age 0 and
    /// everything else ages (covering both the stay-on-line and the
    /// line-crossing case at once).
    Rolling(LineToken),
    /// Line unknown: pure aging.
    Unknown,
}

/// One access site inside one loop's per-block plan.
#[derive(Clone, Copy, Debug)]
struct Site {
    pc: Pc,
    /// Demand access (prefetches age the state but get no verdict and no
    /// residency credit — the simulators may or may not honor them).
    demand: bool,
    mem: MemRef,
    transfer: Transfer,
    /// Index into the result rows, set only for demand sites whose
    /// *innermost* loop is the one being analyzed.
    row: Option<usize>,
}

/// Every memory touch of one instruction in access-stream order (loads,
/// then stores — no instruction issues both — then the prefetch touch),
/// as `(mem, width, is_store, demand)`.
fn insn_sites(insn: &Insn) -> Vec<(MemRef, Width, bool, bool)> {
    let mut v: Vec<(MemRef, Width, bool, bool)> = Vec::new();
    for (m, w) in insn.loads() {
        v.push((m, w, false, true));
    }
    for (m, w) in insn.stores() {
        v.push((m, w, true, true));
    }
    if let Insn::Prefetch { mem } = insn {
        v.push((*mem, Width::W8, false, false));
    }
    v
}

/// The per-loop passes' view of the shared [`ProgramFacts`], plus memo
/// tables for the whole-program facts only this pass needs (function
/// entry bounds, access-site footprints).
struct Analysis<'f, 'p> {
    facts: &'f ProgramFacts<'p>,
    func_entries: HashMap<usize, Option<u64>>,
    /// Byte footprint of every access site in global site order; `None`
    /// per entry = unknown footprint. Built lazily (AlwaysMiss only).
    ranges: Option<Vec<Option<(u64, u64)>>>,
}

impl<'f> Analysis<'f, '_> {
    /// Upper bound on executions of `block`: entries of its function
    /// times the trip bounds of every loop containing it.
    fn executions_bound(&mut self, block: BlockId, visiting: &mut Vec<usize>) -> Option<u64> {
        let facts = self.facts;
        let fi = facts.owner[block.index()]?;
        let mut bound = self.func_entries_bound(fi, visiting)?;
        for (li, lp) in facts.funcs[fi].loops.iter().enumerate() {
            if lp.body.contains(&block) {
                bound = bound.checked_mul(facts.trip_bound((fi, li))?)?;
            }
        }
        Some(bound)
    }

    /// Upper bound on entries of function `fi`: the program entry runs
    /// once; any other function is entered at most as often as its call
    /// sites execute. A cycle in the walk (recursion) yields `None`.
    fn func_entries_bound(&mut self, fi: usize, visiting: &mut Vec<usize>) -> Option<u64> {
        if let Some(b) = self.func_entries.get(&fi) {
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
                total = match (total, self.executions_bound(BlockId(bi as u32), visiting)) {
                    (Some(t), Some(e)) => t.checked_add(e),
                    _ => None,
                };
            }
            visiting.pop();
            total
        };
        self.func_entries.insert(fi, result);
        result
    }

    /// Upper bound on entries of loop `key`: the summed execution bounds
    /// of its entry edges (header predecessors outside the body), plus
    /// the function-entry path when the header is the function's entry.
    fn loop_entries_bound(&mut self, key: (usize, usize)) -> Option<u64> {
        let facts = self.facts;
        let lp = facts.lp(key);
        let mut total: u64 = 0;
        if facts.program.funcs[key.0].entry == lp.header {
            total = total.checked_add(self.func_entries_bound(key.0, &mut Vec::new())?)?;
        }
        for &p in facts.cfg.preds(lp.header) {
            if lp.body.contains(&p) || !facts.values().reached(p) {
                continue;
            }
            total = total.checked_add(self.executions_bound(p, &mut Vec::new())?)?;
        }
        Some(total)
    }

    /// The byte interval `[lo, hi)` one access site can ever touch, over
    /// the program's whole run, or `None` when unknown. `Some((0, 0))`
    /// (empty) for sites that never execute.
    fn site_range(&self, b: BlockId, insn_idx: usize, site_idx: usize) -> Option<(u64, u64)> {
        let facts = self.facts;
        if !facts.values().reached(b) {
            return Some((0, 0));
        }
        let insns = &facts.program.block(b).insns;
        let (mem, width, _, _) = insn_sites(&insns[insn_idx])[site_idx];
        // Constant at the global fixpoint: the same address on every
        // execution.
        let mut st = facts.values().block_entry(b).clone();
        for insn in &insns[..insn_idx] {
            st.step(insn);
        }
        if let Some(a) = st.eval_addr(&mem) {
            return Some((a, a.checked_add(width.bytes())?));
        }
        // Affine in the innermost loop with a known first-iteration
        // address (concrete across *all* entries, since the peel seed is
        // the join over every entry path) and a known trip bound.
        let key = facts.innermost[b.index()]?;
        let StaticClass::ConstantStride(s) = classify_ref(&mem, facts.kinds(key)) else {
            return None;
        };
        let t = facts.trip_bound(key)?;
        let mut st = facts.peel_values(key).get(&b)?.clone()?;
        for insn in &insns[..insn_idx] {
            st.step(insn);
        }
        let a0 = st.eval_addr(&mem)?;
        sweep_range(a0, s, t, width.bytes())
    }

    /// Footprints of every access site (demand and prefetch) in global
    /// site order, built once on first use and borrowed thereafter (the
    /// disjointness pass walks it once per AlwaysMiss candidate).
    fn site_ranges(&mut self) -> &[Option<(u64, u64)>] {
        if self.ranges.is_none() {
            let mut out = Vec::new();
            for (bi, block) in self.facts.program.blocks.iter().enumerate() {
                let b = BlockId(bi as u32);
                for (i, insn) in block.insns.iter().enumerate() {
                    for si in 0..insn_sites(insn).len() {
                        out.push(self.site_range(b, i, si));
                    }
                }
            }
            self.ranges = Some(out);
        }
        self.ranges.as_deref().expect("just built")
    }
}

/// The bytes `[lo, hi)` a `t`-iteration affine sweep from `a0` with
/// per-iteration stride `s` and access width `width` can touch. `None`
/// on address-space overflow.
fn sweep_range(a0: u64, s: i64, t: u64, width: u64) -> Option<(u64, u64)> {
    let steps = i128::from(t.max(1)) - 1;
    let last = i128::from(a0) + i128::from(s) * steps;
    let (lo, hi) = if s >= 0 {
        (i128::from(a0), last + i128::from(width))
    } else {
        (last, i128::from(a0) + i128::from(width))
    };
    if lo < 0 || hi > i128::from(u64::MAX) {
        return None;
    }
    Some((lo as u64, hi as u64))
}

/// The half-open line-number interval covering byte interval `r` at line
/// size `line`; `(0, 0)` when `r` is empty.
fn line_span(r: (u64, u64), line: u64) -> (u64, u64) {
    if r.1 <= r.0 {
        return (0, 0);
    }
    (r.0 / line, (r.1 - 1) / line + 1)
}

/// Runs the abstract cache interpreter over `program`.
///
/// `l1` must be the geometry the verdicts will be audited against; `l2`
/// contributes only its line size, to the AlwaysMiss freshness threshold
/// (no L2 must-analysis runs — see module docs). One row per demand
/// access site, in `(pc, is_store)` order (stably, so an instruction
/// issuing two loads keeps its block order), matching
/// [`crate::classify_program`].
pub fn absint_program(
    program: &Program,
    l1: &CacheGeometry,
    l2: &CacheGeometry,
) -> Vec<CacheBehavior> {
    ProgramFacts::new(program).absint(l1, l2)
}

impl ProgramFacts<'_> {
    /// [`absint_program`] over these facts.
    pub fn absint(&self, l1: &CacheGeometry, l2: &CacheGeometry) -> Vec<CacheBehavior> {
        absint(self, l1, l2)
    }
}

fn absint(facts: &ProgramFacts<'_>, l1: &CacheGeometry, l2: &CacheGeometry) -> Vec<CacheBehavior> {
    let program = facts.program;
    let mut az = Analysis {
        facts,
        func_entries: HashMap::new(),
        ranges: None,
    };

    // One row per demand site, in block, instruction and site order.
    // The per-loop passes walk a block's sites in that same order from
    // the block's first row and first global site ordinal (demand *and*
    // prefetch: the index into the footprint table the AlwaysMiss proof
    // checks against).
    let mut rows: Vec<CacheBehavior> = Vec::new();
    let mut first_site: Vec<FirstSite> = Vec::with_capacity(program.blocks.len());
    let mut next_ord = 0usize;
    for block in &program.blocks {
        first_site.push(FirstSite {
            row: rows.len(),
            ord: next_ord,
        });
        for (pc, insn) in block.iter_with_pc() {
            for (mem, _, is_store, demand) in insn_sites(insn) {
                next_ord += 1;
                if !demand {
                    continue;
                }
                rows.push(CacheBehavior {
                    pc,
                    block: block.id,
                    is_store,
                    filtered: mem.is_filtered(),
                    in_loop: facts.innermost[block.id.index()].is_some(),
                    l1: Verdict::Unclassified,
                    l2: Verdict::Unclassified,
                    entries_bound: None,
                    lines_bound: None,
                    reason: None,
                });
            }
        }
    }

    // Innermost loops owning at least one site, calls excluded.
    let loops: BTreeSet<(usize, usize)> = facts.innermost.iter().flatten().copied().collect();
    let mut call_loops: BTreeSet<(usize, usize)> = BTreeSet::new();
    for key in loops {
        let has_call = facts
            .lp(key)
            .body
            .iter()
            .any(|&b| matches!(program.block(b).terminator, Terminator::Call { .. }));
        if has_call {
            call_loops.insert(key);
            continue;
        }
        analyze_loop(&mut az, key, l1, l2, &first_site, &mut rows);
    }

    // Attribute every remaining coverage gap: a site no verdict walk
    // reached is either outside all loops, inside a skipped call loop,
    // or in a body block the must-dataflow never seeded (a join loss).
    for r in &mut rows {
        if r.l1 == Verdict::Unclassified && r.reason.is_none() {
            r.reason = Some(if !r.in_loop {
                UnclassifiedReason::NotInLoop
            } else if facts.innermost[r.block.index()].is_some_and(|k| call_loops.contains(&k)) {
                UnclassifiedReason::CallInLoop
            } else {
                UnclassifiedReason::JoinLoss
            });
        }
    }

    rows.sort_by_key(|r| (r.pc, r.is_store));
    rows
}

/// Where one block's sites start: its first demand row and its first
/// global site ordinal.
#[derive(Clone, Copy)]
struct FirstSite {
    row: usize,
    ord: usize,
}

/// Builds each body block's site plan, runs the peel and steady must
/// passes, and assigns verdicts to the loop's own (innermost) sites.
fn analyze_loop(
    az: &mut Analysis<'_, '_>,
    key: (usize, usize),
    l1: &CacheGeometry,
    l2: &CacheGeometry,
    first_site: &[FirstSite],
    rows: &mut [CacheBehavior],
) {
    let facts = az.facts;
    let kinds = facts.kinds(key);
    let trips = facts.trip_bound(key);
    let entries = az.loop_entries_bound(key);
    let lp = facts.lp(key);

    // Per-block site plans: token and transfer per access, in order.
    // Addresses use the PRE-instruction state (a push stores below the
    // incoming esp; a pop loads at it).
    let mut plans: BTreeMap<BlockId, Vec<(Site, usize)>> = BTreeMap::new();
    for &b in &lp.body {
        let mut st = facts.values().block_entry(b).clone();
        let mut sites = Vec::new();
        let own = facts.innermost[b.index()] == Some(key);
        let FirstSite { mut row, mut ord } = first_site[b.index()];
        for (pc, insn) in facts.program.block(b).iter_with_pc() {
            for (mem, _w, is_store, demand) in insn_sites(insn) {
                // Prefetch sites age the state but never insert: the
                // auditing simulators ignore hints outright, so a line
                // only a hint keeps abstractly young can be cold in every
                // real execution.
                let transfer = if !demand {
                    Transfer::Unknown
                } else if let Some(addr) = st.eval_addr(&mem) {
                    Transfer::Refresh(LineToken::Line(addr / l1.line_size))
                } else {
                    match classify_ref(&mem, kinds) {
                        StaticClass::LoopInvariant => Transfer::Refresh(LineToken::Expr {
                            base: mem.base,
                            index: mem.index,
                            disp: mem.disp,
                        }),
                        StaticClass::ConstantStride(s) if s.unsigned_abs() < l1.line_size => {
                            Transfer::Rolling(LineToken::Roll { pc, is_store })
                        }
                        _ => Transfer::Unknown,
                    }
                };
                sites.push((
                    Site {
                        pc,
                        demand,
                        mem,
                        transfer,
                        row: (demand && own).then_some(row),
                    },
                    ord,
                ));
                ord += 1;
                row += usize::from(demand);
            }
            st.step(insn);
        }
        plans.insert(b, sites);
    }

    // Peel pass: back edges cut, empty must-state at the header.
    let peel = loop_fixpoint(
        facts.program,
        lp,
        &plans,
        true,
        MustState::empty(l1.ways, l1.sets),
    );
    // Steady pass: header seeded with the join of the peel latch-outs.
    let mut seed: Option<MustState> = None;
    for &latch in &lp.latches {
        if let Some(out) = walk_out(peel.get(&latch), &plans[&latch]) {
            seed = Some(match seed {
                None => out,
                Some(s) => s.join(&out),
            });
        }
    }
    let steady = loop_fixpoint(
        facts.program,
        lp,
        &plans,
        false,
        seed.unwrap_or_else(|| MustState::empty(l1.ways, l1.sets)),
    );

    // Verdict walk over the steady in-states: residency is checked just
    // before each site's own transfer applies.
    for (&b, sites) in &plans {
        let Some(mut state) = steady.get(&b).cloned().flatten() else {
            continue;
        };
        for (site, ord) in sites {
            let resident = match site.transfer {
                Transfer::Refresh(tok) | Transfer::Rolling(tok) => state.resident(&tok),
                Transfer::Unknown => false,
            };
            if let Some(row) = site.row {
                let (verdict, lines, reason) =
                    site_verdict(az, key, site, *ord, resident, trips, entries, b, l1, l2);
                let r = &mut rows[row];
                r.entries_bound = entries;
                r.lines_bound = lines;
                r.l1 = verdict;
                // Containment: an L1 miss bound is a memory-level miss
                // bound, and a compulsory miss is fresh at every level.
                r.l2 = verdict;
                r.reason = reason;
            }
            apply(&mut state, &site.transfer);
        }
    }
}

/// The verdict for one demand site of the loop under analysis, plus its
/// `lines_bound` when the verdict is `Persistent` and the reason when it
/// stays `Unclassified`.
#[allow(clippy::too_many_arguments)]
fn site_verdict(
    az: &mut Analysis<'_, '_>,
    key: (usize, usize),
    site: &Site,
    ord: usize,
    resident: bool,
    trips: Option<u64>,
    entries: Option<u64>,
    block: BlockId,
    l1: &CacheGeometry,
    l2: &CacheGeometry,
) -> (Verdict, Option<u64>, Option<UnclassifiedReason>) {
    let unclassified = |why: UnclassifiedReason| (Verdict::Unclassified, None, Some(why));
    match site.transfer {
        Transfer::Refresh(_) if resident => (Verdict::AlwaysHit, None, None),
        Transfer::Rolling(_) if resident => {
            // The sweep's current line survives each iteration, so misses
            // per entry are bounded by the distinct lines it crosses:
            // span/line, +1 for the interval endpoints, +1 because the
            // residency check sits before the transfer, not after.
            let lines = match (classify_ref(&site.mem, az.facts.kinds(key)), trips) {
                (StaticClass::ConstantStride(s), Some(t)) => {
                    Some(s.unsigned_abs().saturating_mul(t) / l1.line_size + 2)
                }
                _ => None,
            };
            (Verdict::Persistent, lines, None)
        }
        Transfer::Refresh(_) | Transfer::Rolling(_) => unclassified(UnclassifiedReason::JoinLoss),
        Transfer::Unknown if site.demand => {
            let StaticClass::ConstantStride(s) = classify_ref(&site.mem, az.facts.kinds(key))
            else {
                return unclassified(UnclassifiedReason::IrregularAddress);
            };
            // Freshness needs strictly monotone line numbers at both
            // levels, a single loop entry, a known extent, and a sweep
            // provably disjoint from every other access in the program.
            let line = l1.line_size.max(l2.line_size);
            if s.unsigned_abs() < line {
                return unclassified(UnclassifiedReason::SubLineStride);
            }
            if entries != Some(1) {
                return unclassified(UnclassifiedReason::MultipleEntries);
            }
            let Some(t) = trips else {
                return unclassified(UnclassifiedReason::NoTripBound);
            };
            let Some(a0) = first_iteration_addr(az.facts, key, block, site) else {
                return unclassified(UnclassifiedReason::SymbolicSetBlind);
            };
            let Some(sweep) = sweep_range(a0, s, t, 8) else {
                return unclassified(UnclassifiedReason::SymbolicSetBlind);
            };
            let my_span = line_span(sweep, line);
            let ranges = az.site_ranges();
            let disjoint = ranges.iter().enumerate().all(|(i, r)| {
                if i == ord {
                    return true;
                }
                match r {
                    None => false,
                    Some(other) => {
                        let o = line_span(*other, line);
                        o.1 <= my_span.0 || my_span.1 <= o.0
                    }
                }
            });
            if disjoint {
                (Verdict::AlwaysMiss, None, None)
            } else {
                unclassified(UnclassifiedReason::FootprintOverlap)
            }
        }
        Transfer::Unknown => unclassified(UnclassifiedReason::JoinLoss),
    }
}

/// The site's concrete address on the first iteration of any entry of
/// loop `key` (the peel seed joins every entry path, so a constant here
/// holds for all of them).
fn first_iteration_addr(
    facts: &ProgramFacts<'_>,
    key: (usize, usize),
    block: BlockId,
    site: &Site,
) -> Option<u64> {
    let mut st = facts.peel_values(key).get(&block)?.clone()?;
    for (pc, insn) in facts.program.block(block).iter_with_pc() {
        if pc == site.pc {
            break;
        }
        st.step(insn);
    }
    st.eval_addr(&site.mem)
}

/// Advances a must-state across one site.
fn apply(state: &mut MustState, transfer: &Transfer) {
    match transfer {
        Transfer::Refresh(tok) => state.refresh(*tok),
        Transfer::Rolling(tok) => state.insert_new(*tok),
        Transfer::Unknown => state.insert_unknown(),
    }
}

/// Walks a block's sites over its in-state, yielding the out-state.
fn walk_out(in_state: Option<&Option<MustState>>, sites: &[(Site, usize)]) -> Option<MustState> {
    let mut st = in_state?.clone()?;
    for (site, _) in sites {
        apply(&mut st, &site.transfer);
    }
    Some(st)
}

/// Must-dataflow over one loop body. `cut` removes the loop's own
/// latch→header back edges (the peel pass); inner-loop cycles always
/// stay intact and self-join. Returns the in-state per body block.
fn loop_fixpoint(
    program: &Program,
    lp: &NaturalLoop,
    plans: &BTreeMap<BlockId, Vec<(Site, usize)>>,
    cut: bool,
    header_init: MustState,
) -> BTreeMap<BlockId, Option<MustState>> {
    let mut in_states: BTreeMap<BlockId, Option<MustState>> =
        lp.body.iter().map(|&b| (b, None)).collect();
    in_states.insert(lp.header, Some(header_init));
    let mut work = Worklist::new(program.blocks.len(), lp.header);
    while let Some(b) = work.pop() {
        let Some(out) = walk_out(in_states.get(&b), &plans[&b]) else {
            continue;
        };
        for s in intra_successors(&program.block(b).terminator) {
            if !lp.body.contains(&s) || (cut && s == lp.header && lp.is_latch(b)) {
                continue;
            }
            let slot = in_states.get_mut(&s).expect("body block");
            let joined = match slot {
                None => Some(out.clone()),
                Some(cur) => {
                    let j = cur.join(&out);
                    (j != *cur).then_some(j)
                }
            };
            if let Some(j) = joined {
                *slot = Some(j);
                work.push(s);
            }
        }
    }
    in_states
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::{ProgramBuilder, Reg, Width};

    const P4_L1: CacheGeometry = CacheGeometry {
        sets: 32,
        ways: 4,
        line_size: 64,
    };
    const P4_L2: CacheGeometry = CacheGeometry {
        sets: 1024,
        ways: 8,
        line_size: 64,
    };

    fn rows_of(p: &Program) -> Vec<CacheBehavior> {
        absint_program(p, &P4_L1, &P4_L2)
    }

    #[test]
    fn invariant_load_is_always_hit() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        let r = rows.iter().find(|r| r.in_loop && !r.is_store).unwrap();
        assert_eq!(r.l1, Verdict::AlwaysHit);
        assert_eq!(r.l2, Verdict::AlwaysHit);
        assert_eq!(r.entries_bound, Some(1));
    }

    #[test]
    fn unit_stride_sweep_is_persistent_with_line_bound() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 800)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        let r = rows.iter().find(|r| r.in_loop).unwrap();
        assert_eq!(r.l1, Verdict::Persistent);
        assert_eq!(r.l2, Verdict::Persistent);
        // 8 bytes x 100 trips = 800 bytes / 64, + 2 slack lines.
        assert_eq!(r.lines_bound, Some(800 / 64 + 2));
        assert_eq!(r.entries_bound, Some(1));
    }

    #[test]
    fn line_stride_sweep_is_always_miss() {
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
            .addi(Reg::ECX, 8) // 8 elements x scale 8 = one line per trip
            .cmpi(Reg::ECX, 800)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        let r = rows.iter().find(|r| r.in_loop).unwrap();
        assert_eq!(r.l1, Verdict::AlwaysMiss);
        assert_eq!(r.l2, Verdict::AlwaysMiss);
    }

    #[test]
    fn always_miss_dies_with_any_unknown_footprint() {
        // Same sweep, but the loop also chases a pointer: that load's
        // footprint is unknown, so freshness is unprovable program-wide.
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
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .addi(Reg::ECX, 8)
            .cmpi(Reg::ECX, 800)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        for r in rows.iter().filter(|r| r.in_loop) {
            assert_eq!(r.l1, Verdict::Unclassified);
        }
    }

    #[test]
    fn merge_of_unequal_ages_keeps_the_older_bound() {
        // Two paths through the loop: one quiet, one with four irregular
        // loads that age the whole state past 4-way residency. The
        // header's invariant load must not be AlwaysHit after the join.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let noisy = pb.new_block();
        let quiet = pb.new_block();
        let latch = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 0)
            .jmp(head);
        pb.block(head)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .cmpi(Reg::EAX, 7)
            .br_eq(noisy, quiet);
        pb.block(noisy)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .jmp(latch);
        pb.block(quiet).jmp(latch);
        pb.block(latch)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(head, exit);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        let head_id = rows
            .iter()
            .filter(|r| r.in_loop && !r.is_store)
            .map(|r| r.block)
            .min()
            .unwrap();
        let inv = rows
            .iter()
            .find(|r| r.in_loop && !r.is_store && r.block == head_id)
            .unwrap();
        assert_eq!(
            inv.l1,
            Verdict::Unclassified,
            "the noisy path's aging must survive the header join"
        );
    }

    #[test]
    fn two_latch_loops_join_both_back_edges() {
        // Both paths re-enter the header directly (two latches); both are
        // quiet, so the invariant line stays must-resident.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let a = pb.new_block();
        let b = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 0)
            .jmp(head);
        pb.block(head)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_ge(exit, a);
        pb.block(a).cmpi(Reg::EAX, 3).br_eq(head, b);
        pb.block(b)
            .load(Reg::EDX, Reg::ESI + 8, Width::W8)
            .jmp(head);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        let inv = rows
            .iter()
            .find(|r| r.in_loop && !r.is_store && r.block == head)
            .unwrap();
        assert_eq!(inv.l1, Verdict::AlwaysHit);
    }

    #[test]
    fn trip_count_one_loop_still_bounds() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 64)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 1)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        let r = rows.iter().find(|r| r.in_loop).unwrap();
        assert_eq!(r.l1, Verdict::Persistent);
        assert_eq!(r.lines_bound, Some(2), "8 bytes over one trip: slack only");
        assert_eq!(r.entries_bound, Some(1));
    }

    #[test]
    fn prefetch_grants_no_residency_credit() {
        // The hint re-touches the demand load's line every iteration, but
        // four irregular loads age the 4-way state past residency in
        // between. The simulators ignore hints, so crediting the hint's
        // refresh would prove an AlwaysHit the hardware never delivers.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .prefetch(Reg::ESI + 0)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        let r = rows
            .iter()
            .find(|r| r.in_loop && !r.is_store && r.block == body)
            .unwrap();
        assert_eq!(
            r.l1,
            Verdict::Unclassified,
            "the unsimulated hint must not keep the line must-resident"
        );
    }

    #[test]
    fn loops_containing_calls_stay_unclassified() {
        let mut pb = ProgramBuilder::new();
        let main = pb.begin_func("main");
        let leaf = pb.begin_func("leaf");
        let body = pb.new_block();
        let resume = pb.new_block();
        let exit = pb.new_block();
        pb.block(main.entry())
            .alloc(Reg::ESI, 4096)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .call(leaf, resume);
        pb.block(resume)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(body, exit);
        pb.block(leaf.entry()).ret();
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        for r in rows.iter().filter(|r| r.in_loop) {
            assert_eq!(r.l1, Verdict::Unclassified, "callee clobbers everything");
            assert_eq!(r.reason, Some(UnclassifiedReason::CallInLoop));
        }
    }

    #[test]
    fn unclassified_reasons_attribute_the_gaps() {
        // One straight-line load, one pointer chase in a loop: the first
        // is NotInLoop, the second IrregularAddress — and the chase also
        // spoils every footprint, so proven verdicts keep reason None.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::ESI, 4096)
            .load(Reg::EBX, Reg::ESI + 0, Width::W8)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 100)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        let straight = rows.iter().find(|r| !r.in_loop).unwrap();
        assert_eq!(straight.reason, Some(UnclassifiedReason::NotInLoop));
        let chase = rows.iter().find(|r| r.in_loop).unwrap();
        assert_eq!(chase.l1, Verdict::Unclassified);
        assert_eq!(chase.reason, Some(UnclassifiedReason::IrregularAddress));
    }

    #[test]
    fn proven_sites_carry_no_reason_and_overlap_is_attributed() {
        // Two interleaved line-stride sweeps over the same buffer: each
        // alone would be AlwaysMiss, together their footprints overlap.
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
            .load(Reg::EDX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .addi(Reg::ECX, 8)
            .cmpi(Reg::ECX, 800)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rows = rows_of(&pb.finish());
        for r in rows.iter().filter(|r| r.in_loop) {
            assert_eq!(r.l1, Verdict::Unclassified);
            assert_eq!(r.reason, Some(UnclassifiedReason::FootprintOverlap));
        }
        // And the proven cases stay reasonless.
        let (p, _, _) = {
            let mut pb = ProgramBuilder::new();
            let f = pb.begin_func("main");
            let body = pb.new_block();
            let exit = pb.new_block();
            pb.block(f.entry())
                .alloc(Reg::ESI, 4096)
                .movi(Reg::ECX, 0)
                .jmp(body);
            pb.block(body)
                .load(Reg::EAX, Reg::ESI + 0, Width::W8)
                .addi(Reg::ECX, 1)
                .cmpi(Reg::ECX, 100)
                .br_lt(body, exit);
            pb.block(exit).ret();
            (pb.finish(), body, exit)
        };
        let hit = rows_of(&p).into_iter().find(|r| r.in_loop).unwrap();
        assert_eq!(hit.l1, Verdict::AlwaysHit);
        assert_eq!(hit.reason, None);
    }

    #[test]
    fn nested_loops_scale_the_entry_bound() {
        // Outer loop of 10, inner invariant load: the inner loop is
        // entered up to 10 times, so its AlwaysHit allowance is 10.
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
        let rows = rows_of(&pb.finish());
        let r = rows.iter().find(|r| r.in_loop).unwrap();
        assert_eq!(r.l1, Verdict::AlwaysHit);
        assert_eq!(r.entries_bound, Some(10));
    }
}
