//! Whole-program miss-bound composition: a "static `UmiReport`".
//!
//! The abstract cache interpreter ([`crate::absint`]) proves *per-site,
//! per-entry* facts; the trip analysis ([`crate::trips`]) bounds how
//! often each block runs over the whole program. This module multiplies
//! the two into **miss-count intervals** — per site, per `(pc, kind)`
//! group, and aggregated program-wide — together with upper/lower bounds
//! on the L1 and memory-level miss ratios and a static delinquency
//! ranking. Where a proof exists it subsumes the heuristic verdicts of
//! [`predict_program`]; where none does, the heuristic (or an honest
//! `Unknown`) stands.
//!
//! Interval arithmetic, per site with access interval `A = [a_lo, a_hi]`
//! (the owning block's execution interval — each execution touches the
//! site exactly once):
//!
//! * **AlwaysHit** — misses ∈ `[0, min(entries_bound, a_hi)]`;
//! * **AlwaysMiss** — misses `== accesses`, so `[a_lo, a_hi]`;
//! * **Persistent** — misses ∈ `[0, min(lines × entries, a_hi)]`;
//! * **Unclassified** — misses ∈ `[0, a_hi]`.
//!
//! Memory-level misses inherit the L1 upper bound by containment (the
//! hierarchy's L2 is touched only by L1 misses) and the `AlwaysMiss`
//! lower bound (a compulsory miss is fresh at every level).
//!
//! The aggregate miss-*ratio* interval respects the coupling `M ≤ A`
//! inside the box `[M_lo, M_hi] × [A_lo, A_hi]`: the maximum of `M/A` is
//! `M_hi / max(A_lo, M_hi)` (push misses up, then shrink accesses to
//! whichever is larger), the minimum is `M_lo / A_hi`. Both collapse to
//! the vacuous `[0, 1]` when the needed endpoint is unbounded.
//!
//! Everything here is audited end-to-end: the `table_staticplan` harness
//! replays all 32 workloads through the exact [`FullSimulator`] per-PC
//! tables and fails its run on any interval that does not contain the
//! measured count.
//!
//! [`FullSimulator`]: https://docs.rs/umi-cache
//! [`predict_program`]: crate::predict_program

use crate::absint::{CacheBehavior, Verdict};
use crate::cachepred::{CacheGeometry, Delinquency};
use crate::facts::ProgramFacts;
use crate::trips::{analyze_trips, ExecBound};
use umi_ir::{Pc, Program};

/// A closed interval on a miss count: `hi == None` means unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MissInterval {
    /// At least this many misses in a completed run.
    pub lo: u64,
    /// At most this many; `None` when no upper bound is derivable.
    pub hi: Option<u64>,
}

impl MissInterval {
    /// The vacuous interval `[0, ∞)`.
    pub fn unknown() -> MissInterval {
        MissInterval { lo: 0, hi: None }
    }

    /// Interval sum (saturating on the lower side, unknown-absorbing on
    /// the upper).
    pub fn plus(self, other: MissInterval) -> MissInterval {
        MissInterval {
            lo: self.lo.saturating_add(other.lo),
            hi: add_opt(self.hi, other.hi),
        }
    }

    /// Whether a measured count falls inside the interval.
    pub fn contains(self, n: u64) -> bool {
        n >= self.lo && self.hi.is_none_or(|h| n <= h)
    }
}

fn add_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    Some(a?.saturating_add(b?))
}

fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) | (None, x) => x,
    }
}

/// One access site's composed bounds.
#[derive(Clone, Copy, Debug)]
pub struct SiteMissBound {
    /// The per-site verdict this row composes (pc, block, kind, verdict,
    /// entry/line allowances, unclassified reason).
    pub behavior: CacheBehavior,
    /// How often the site's block — and therefore the site — executes.
    pub accesses: ExecBound,
    /// L1 miss-count interval over the whole run.
    pub l1: MissInterval,
    /// Memory-level miss-count interval over the whole run.
    pub mem: MissInterval,
}

/// Composed bounds for one `(pc, is_store)` group — the granularity the
/// exact simulator's per-PC tables audit.
#[derive(Clone, Copy, Debug)]
pub struct PcMissBound {
    /// Instruction address.
    pub pc: Pc,
    /// Whether the group covers the instruction's store (else its loads).
    pub is_store: bool,
    /// Number of access sites summed into the group.
    pub sites: usize,
    /// Demand-access interval.
    pub accesses: ExecBound,
    /// L1 miss-count interval.
    pub l1: MissInterval,
    /// Memory-level miss-count interval.
    pub mem: MissInterval,
    /// Whether every upper endpoint (accesses, l1, mem) is finite — the
    /// rows the audit can falsify from above as well as below.
    pub bounded: bool,
}

/// One `(pc, kind)` group's static delinquency verdict.
#[derive(Clone, Copy, Debug)]
pub struct StaticDelinquent {
    /// Instruction address.
    pub pc: Pc,
    /// Whether the group is the instruction's store side.
    pub is_store: bool,
    /// The committed label (the proof's when one exists, else the
    /// heuristic's).
    pub label: Delinquency,
    /// Whether an absint-backed proof decided the label (miss-ratio
    /// interval strictly above or below the floor), subsuming the
    /// heuristic.
    pub proven: bool,
    /// The group's L1 miss interval, the ranking key.
    pub l1: MissInterval,
    /// The group's access interval.
    pub accesses: ExecBound,
}

/// The static counterpart of a profiled `UmiReport`: whole-program
/// miss-count and miss-ratio intervals plus a delinquency ranking,
/// derived without executing a single instruction.
#[derive(Clone, Debug)]
pub struct StaticReport {
    /// Every demand site's composed bounds, ordered `(pc, kind, block)`.
    pub sites: Vec<SiteMissBound>,
    /// Per-PC bounds, ordered `(pc, kind)`.
    pub per_pc: Vec<PcMissBound>,
    /// Aggregate demand accesses.
    pub accesses: ExecBound,
    /// Aggregate L1 miss interval.
    pub l1: MissInterval,
    /// Aggregate memory-level miss interval.
    pub mem: MissInterval,
    /// `[lo, hi]` bounds on the whole-program L1 miss ratio.
    pub l1_ratio: (f64, f64),
    /// `[lo, hi]` bounds on the memory-level miss ratio (memory misses
    /// over all demand accesses).
    pub mem_ratio: (f64, f64),
    /// Per-group delinquency verdicts, ordered `(pc, kind)`.
    pub delinquency: Vec<StaticDelinquent>,
}

impl StaticReport {
    /// The hot groups in ranking order: provable misses first (higher
    /// lower bound), then higher upper bound, proofs before heuristics,
    /// ties broken by `(pc, kind)` for stability.
    pub fn ranked_hot(&self) -> Vec<&StaticDelinquent> {
        let mut hot: Vec<&StaticDelinquent> = self
            .delinquency
            .iter()
            .filter(|d| d.label == Delinquency::PredictHot)
            .collect();
        hot.sort_by(|a, b| {
            b.l1.lo
                .cmp(&a.l1.lo)
                .then_with(|| match (b.l1.hi, a.l1.hi) {
                    (None, Some(_)) => std::cmp::Ordering::Greater,
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (x, y) => x.cmp(&y),
                })
                .then_with(|| b.proven.cmp(&a.proven))
                .then_with(|| (a.pc, a.is_store).cmp(&(b.pc, b.is_store)))
        });
        hot
    }
}

/// One site's miss intervals from its verdict and access interval.
fn site_intervals(r: &CacheBehavior, accesses: ExecBound) -> (MissInterval, MissInterval) {
    let l1 = match r.l1 {
        Verdict::AlwaysHit => MissInterval {
            lo: 0,
            hi: min_opt(r.entries_bound, accesses.max),
        },
        Verdict::AlwaysMiss => MissInterval {
            lo: accesses.min,
            hi: accesses.max,
        },
        Verdict::Persistent => {
            let per_entry = r
                .lines_bound
                .and_then(|l| r.entries_bound.map(|e| l.saturating_mul(e)));
            MissInterval {
                lo: 0,
                hi: min_opt(per_entry, accesses.max),
            }
        }
        Verdict::Unclassified => MissInterval {
            lo: 0,
            hi: accesses.max,
        },
    };
    // Containment: memory-level misses never exceed L1 misses, and an
    // L2-level AlwaysMiss proof is a lower bound on memory misses.
    let mem = MissInterval {
        lo: if r.l2 == Verdict::AlwaysMiss {
            accesses.min
        } else {
            0
        },
        hi: l1.hi,
    };
    (l1, mem)
}

/// `[lo, hi]` of the ratio `M / A` over the coupled box (see module
/// docs). `A = 0` everywhere yields `[0, 0]`.
fn ratio_bounds(m: MissInterval, a: ExecBound) -> (f64, f64) {
    if a.max == Some(0) {
        return (0.0, 0.0);
    }
    let lo = match a.max {
        Some(ah) if ah > 0 => m.lo as f64 / ah as f64,
        _ => 0.0,
    };
    let hi = match m.hi {
        Some(mh) => {
            let denom = a.min.max(mh);
            if denom == 0 {
                0.0
            } else {
                (mh as f64 / denom as f64).min(1.0)
            }
        }
        None => 1.0,
    };
    (lo, hi)
}

/// Composes per-site absint verdicts with trip/execution bounds into a
/// whole-program [`StaticReport`].
///
/// `l1` / `l2` are the geometries the verdicts are proven against (and
/// the ones `table_staticplan` audits with); `hot_miss_floor` is the
/// delinquency floor a hot group's miss ratio must clear — pass the
/// dynamic profiler's bottomed-out threshold to make the ranking
/// comparable with `UmiReport` labels.
pub fn compose_program(
    program: &Program,
    l1: &CacheGeometry,
    l2: &CacheGeometry,
    hot_miss_floor: f64,
) -> StaticReport {
    ProgramFacts::new(program).compose(l1, l2, hot_miss_floor)
}

/// The maximal runs of `items` (already sorted by `key`) sharing one key.
fn runs<T, K: PartialEq>(items: &[T], key: impl Fn(&T) -> K) -> impl Iterator<Item = &[T]> {
    items.chunk_by(move |a, b| key(a) == key(b))
}

impl ProgramFacts<'_> {
    /// [`compose_program`] over these facts.
    pub fn compose(
        &self,
        l1: &CacheGeometry,
        l2: &CacheGeometry,
        hot_miss_floor: f64,
    ) -> StaticReport {
        compose(self, l1, l2, hot_miss_floor)
    }
}

fn compose(
    facts: &ProgramFacts<'_>,
    l1: &CacheGeometry,
    l2: &CacheGeometry,
    hot_miss_floor: f64,
) -> StaticReport {
    let rows = facts.absint(l1, l2);
    let trips = analyze_trips(facts);

    // Rows, and predictions below, are dropped as soon as they are
    // folded in: on a 60k-site program each is megabytes of peak memory.
    let mut sites: Vec<SiteMissBound> = rows
        .into_iter()
        .map(|r| {
            let accesses = trips.exec(r.block);
            let (l1m, mem) = site_intervals(&r, accesses);
            SiteMissBound {
                behavior: r,
                accesses,
                l1: l1m,
                mem,
            }
        })
        .collect();
    sites.sort_by_key(|s| (s.behavior.pc, s.behavior.is_store, s.behavior.block));

    // Group by (pc, kind) — the per-PC tables' attribution unit: runs
    // of the sorted sites.
    let mut per_pc = Vec::new();
    for members in runs(&sites, |s| (s.behavior.pc, s.behavior.is_store)) {
        let mut accesses = ExecBound {
            min: 0,
            max: Some(0),
        };
        let mut l1m = MissInterval { lo: 0, hi: Some(0) };
        let mut mem = MissInterval { lo: 0, hi: Some(0) };
        for s in members {
            accesses = ExecBound {
                min: accesses.min.saturating_add(s.accesses.min),
                max: add_opt(accesses.max, s.accesses.max),
            };
            l1m = l1m.plus(s.l1);
            mem = mem.plus(s.mem);
        }
        per_pc.push(PcMissBound {
            pc: members[0].behavior.pc,
            is_store: members[0].behavior.is_store,
            sites: members.len(),
            accesses,
            l1: l1m,
            mem,
            bounded: accesses.max.is_some() && l1m.hi.is_some() && mem.hi.is_some(),
        });
    }

    // Aggregates.
    let mut accesses = ExecBound {
        min: 0,
        max: Some(0),
    };
    let mut l1_total = MissInterval { lo: 0, hi: Some(0) };
    let mut mem_total = MissInterval { lo: 0, hi: Some(0) };
    for g in &per_pc {
        accesses = ExecBound {
            min: accesses.min.saturating_add(g.accesses.min),
            max: add_opt(accesses.max, g.accesses.max),
        };
        l1_total = l1_total.plus(g.l1);
        mem_total = mem_total.plus(g.mem);
    }
    let l1_ratio = ratio_bounds(l1_total, accesses);
    let mem_ratio = ratio_bounds(mem_total, accesses);

    // Delinquency: the proof decides where its ratio interval clears or
    // stays under the floor; the heuristic fills the rest. Predictions
    // come `(pc, is_store)`-sorted, like `per_pc`: one verdict per run,
    // Unknown where the run's sites disagree.
    let preds = facts.predict(l1, hot_miss_floor);
    let heuristics: Vec<((Pc, bool), Delinquency)> = runs(&preds, |p| (p.sref.pc, p.sref.is_store))
        .map(|run| {
            let first = run[0].verdict;
            let agreed = if run.iter().all(|p| p.verdict == first) {
                first
            } else {
                Delinquency::Unknown
            };
            ((run[0].sref.pc, run[0].sref.is_store), agreed)
        })
        .collect();
    drop(preds);
    let heuristic = |key: (Pc, bool)| {
        let i = heuristics.partition_point(|(k, _)| *k < key);
        heuristics
            .get(i)
            .filter(|(k, _)| *k == key)
            .map_or(Delinquency::Unknown, |&(_, d)| d)
    };
    let delinquency = per_pc
        .iter()
        .map(|g| {
            let (ratio_lo, ratio_hi) = ratio_bounds(g.l1, g.accesses);
            let executes = g.accesses.min > 0;
            let (label, proven) = if executes && ratio_lo > hot_miss_floor {
                (Delinquency::PredictHot, true)
            } else if executes && g.l1.hi.is_some() && ratio_hi <= hot_miss_floor {
                (Delinquency::PredictCold, true)
            } else {
                (heuristic((g.pc, g.is_store)), false)
            };
            StaticDelinquent {
                pc: g.pc,
                is_store: g.is_store,
                label,
                proven,
                l1: g.l1,
                accesses: g.accesses,
            }
        })
        .collect();

    StaticReport {
        sites,
        per_pc,
        accesses,
        l1: l1_total,
        mem: mem_total,
        l1_ratio,
        mem_ratio,
        delinquency,
    }
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

    fn report_of(p: &Program) -> StaticReport {
        compose_program(p, &P4_L1, &P4_L2, 0.10)
    }
    use umi_ir::Program;

    /// A line-stride sweep: AlwaysMiss × exactly 100 executions.
    fn line_sweep() -> Program {
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
        pb.finish()
    }

    #[test]
    fn always_miss_times_exact_trips_pins_the_interval() {
        let rep = report_of(&line_sweep());
        let g = rep
            .per_pc
            .iter()
            .find(|g| !g.is_store && g.accesses.max == Some(100))
            .expect("the sweep's per-pc group");
        assert_eq!(g.accesses.min, 100);
        assert_eq!(
            g.l1,
            MissInterval {
                lo: 100,
                hi: Some(100)
            }
        );
        assert_eq!(
            g.mem,
            MissInterval {
                lo: 100,
                hi: Some(100)
            }
        );
        assert!(g.bounded);
        // The whole program is this one load: ratio bounds pin to 1.
        assert_eq!(rep.accesses.min, 100);
        assert_eq!(rep.l1_ratio, (1.0, 1.0));
        // And its group is a *proven* hot delinquent, heading the rank.
        let ranked = rep.ranked_hot();
        assert_eq!(ranked.len(), 1);
        assert!(ranked[0].proven);
        assert_eq!(ranked[0].label, Delinquency::PredictHot);
    }

    #[test]
    fn always_hit_caps_misses_at_entries_and_proves_cold() {
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
        let rep = report_of(&pb.finish());
        let g = rep.per_pc.iter().find(|g| !g.is_store).unwrap();
        assert_eq!(
            g.accesses,
            ExecBound {
                min: 100,
                max: Some(100)
            }
        );
        assert_eq!(g.l1, MissInterval { lo: 0, hi: Some(1) });
        // Ratio hi = 1/max(100, 1): provably under the 0.10 floor.
        let d = rep
            .delinquency
            .iter()
            .find(|d| d.pc == g.pc && !d.is_store)
            .unwrap();
        assert_eq!(d.label, Delinquency::PredictCold);
        assert!(d.proven);
        assert!(rep.l1_ratio.1 <= 0.011);
        assert!(rep.ranked_hot().is_empty());
    }

    #[test]
    fn unclassified_sites_stay_vacuous_but_bounded_by_executions() {
        // A pointer chase: no verdict, but the trip analysis still caps
        // the miss interval at the loop's execution bound.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let exit = pb.new_block();
        pb.block(f.entry())
            .alloc(Reg::R13, 4096)
            .movi(Reg::ECX, 0)
            .jmp(body);
        pb.block(body)
            .load(Reg::R13, Reg::R13 + 0, Width::W8)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 50)
            .br_lt(body, exit);
        pb.block(exit).ret();
        let rep = report_of(&pb.finish());
        let g = rep.per_pc.iter().find(|g| !g.is_store).unwrap();
        assert_eq!(
            g.l1,
            MissInterval {
                lo: 0,
                hi: Some(50)
            }
        );
        assert_eq!(
            g.mem,
            MissInterval {
                lo: 0,
                hi: Some(50)
            }
        );
        assert!(g.bounded, "execution bounds survive unclassified verdicts");
        // No proof: the heuristic (irregular → unknown) stands.
        let d = &rep.delinquency[0];
        assert!(!d.proven);
        assert_eq!(d.label, Delinquency::Unknown);
    }

    #[test]
    fn ratio_bounds_respect_the_coupling() {
        // M ∈ [0, 80], A ∈ [100, 100]: hi = 80/100, lo = 0.
        let m = MissInterval {
            lo: 0,
            hi: Some(80),
        };
        let a = ExecBound {
            min: 100,
            max: Some(100),
        };
        assert_eq!(ratio_bounds(m, a), (0.0, 0.8));
        // M ∈ [50, 200], A ∈ [100, 400]: hi = 200/max(100,200) = 1.0
        // is NOT right — 200/200: misses can equal accesses. lo = 50/400.
        let m = MissInterval {
            lo: 50,
            hi: Some(200),
        };
        let a = ExecBound {
            min: 100,
            max: Some(400),
        };
        let (lo, hi) = ratio_bounds(m, a);
        assert_eq!(hi, 1.0);
        assert!((lo - 0.125).abs() < 1e-12);
        // Unbounded misses: vacuous [lo, 1].
        let (lo, hi) = ratio_bounds(MissInterval::unknown(), a);
        assert_eq!((lo, hi), (0.0, 1.0));
        // Zero accesses: [0, 0].
        let zero = ExecBound {
            min: 0,
            max: Some(0),
        };
        assert_eq!(
            ratio_bounds(MissInterval { lo: 0, hi: Some(0) }, zero),
            (0.0, 0.0)
        );
    }

    #[test]
    fn diagnostics_are_stably_ordered() {
        let rep = report_of(&line_sweep());
        let mut keys: Vec<_> = rep
            .sites
            .iter()
            .map(|s| (s.behavior.pc, s.behavior.is_store, s.behavior.block))
            .collect();
        let sorted = {
            let mut k = keys.clone();
            k.sort();
            k
        };
        assert_eq!(keys, sorted);
        keys = rep
            .per_pc
            .iter()
            .map(|g| (g.pc, g.is_store, umi_ir::BlockId(0)))
            .collect();
        let sorted = {
            let mut k = keys.clone();
            k.sort();
            k
        };
        assert_eq!(keys, sorted);
    }
}
