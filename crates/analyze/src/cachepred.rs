//! Static cache-behavior prediction: per-loop footprints and delinquency
//! verdicts.
//!
//! This is the static half of the paper's central comparison. UMI's
//! dynamic mini-simulator labels loads delinquent by *measuring* miss
//! ratios; this module predicts the same labels by *reasoning* about the
//! affine classification ([`classify_program`](crate::classify_program))
//! against a concrete cache geometry:
//!
//! * every memory op gets a symbolic **footprint** — for a constant-stride
//!   op, `|stride| × trip-count bound`; loop-invariant ops touch one line;
//!   irregular ops have no static footprint;
//! * the **trip-count bound** comes from the loop's controlling compare
//!   (`cmp reg, imm` against an induction register in the header or a
//!   latch), `|imm / delta|` — an upper bound whenever the counter starts
//!   at or past zero, which is how every workload kernel is built;
//! * the verdict is driven by the op's **line-open rate**
//!   `min(1, |stride| / line_size)`: the fraction of executions that
//!   touch a line for the first time, i.e. its compulsory miss ratio.
//!
//! Capacity deliberately does *not* rescue a fitting footprint. The
//! profiler's logical cache is shared by every co-selected operation and
//! periodically flushed (paper §5), so residence across traversals is
//! never dependable: an op whose line-open rate clears the delinquency
//! floor keeps re-faulting and measures hot even when its own working
//! set is a few KB. (This also subsumes the set-pressure case — a
//! line-multiple stride has rate 1.) The converse direction needs one
//! more guard: a sub-floor rate only proves coldness when the op runs on
//! *every* iteration of its loop. A conditionally executed op skips an
//! unknown number of iterations between executions, amplifying its
//! effective inter-access stride past the per-iteration bound.
//!
//! The verdict is deliberately three-valued. `PredictHot` and
//! `PredictCold` are commitments the `umi_lint` agreement table scores
//! against the dynamic labels; `Unknown` is the honest answer for
//! irregular references, unbounded loops, and conditionally executed
//! sub-floor ops — the class of behavior the paper argues only runtime
//! introspection can resolve.

use crate::affine::{RegKind, StaticClass, StaticRef};
use crate::cfg::NaturalLoop;
use crate::facts::ProgramFacts;
use umi_ir::{Insn, Operand, Program, Reg, Terminator};

/// The cache geometry predictions are scored against — the shared
/// `umi-geom` type, the same value `umi_cache::CacheConfig::geometry()`
/// returns (this crate sits *below* `umi-cache` in the dependency graph —
/// the VM the cache's full simulator drives runs this crate's verifier —
/// so the two meet in the `umi-geom` leaf and can never drift).
pub use umi_geom::CacheGeometry;

/// Static delinquency verdict for one memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Delinquency {
    /// The op should miss often enough to clear the delinquency floor.
    PredictHot,
    /// The op's working set stays resident; misses stay under the floor.
    PredictCold,
    /// The static model cannot commit either way.
    Unknown,
}

impl Delinquency {
    /// Short stable label used in reports and goldens.
    pub fn label(self) -> &'static str {
        match self {
            Delinquency::PredictHot => "hot",
            Delinquency::PredictCold => "cold",
            Delinquency::Unknown => "unknown",
        }
    }
}

/// One memory op with its static cache-behavior prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachePrediction {
    /// The affine classification this prediction is built on.
    pub sref: StaticRef,
    /// Trip-count bound of the innermost loop, when derivable.
    pub trips: Option<u64>,
    /// Footprint bound in bytes, when derivable.
    pub footprint: Option<u64>,
    /// The static delinquency verdict.
    pub verdict: Delinquency,
}

/// Derives a trip-count bound for one loop from its controlling compare.
///
/// Looks at the header and the latches (the blocks whose conditional
/// branches can keep the loop going) for the last `cmp reg, imm` whose
/// register is an induction variable of the loop; the bound is `imm /
/// delta` iterations. When several candidates disagree the largest wins —
/// the footprint stays an upper bound. Returns `None` when no compare
/// commits to a bound (e.g. a count-down to zero, where the start value —
/// invisible to a per-loop analysis — decides the count).
pub fn loop_trip_bound(
    program: &Program,
    lp: &NaturalLoop,
    kinds: &[RegKind; Reg::COUNT],
) -> Option<u64> {
    let mut best: Option<u64> = None;
    for &bid in &lp.body {
        if bid != lp.header && !lp.is_latch(bid) {
            continue;
        }
        let block = program.block(bid);
        if !matches!(block.terminator, Terminator::Br { .. }) {
            continue;
        }
        let cmp = block.insns.iter().rev().find_map(|insn| match insn {
            Insn::Cmp {
                a: Operand::Reg(r),
                b: Operand::Imm(n),
            } => Some((*r, *n)),
            _ => None,
        });
        let Some((r, n)) = cmp else { continue };
        if let RegKind::Induction(d) = kinds[r.index()] {
            if d != 0 {
                let t = n / d;
                if t > 0 {
                    best = Some(best.map_or(t as u64, |b| b.max(t as u64)));
                }
            }
        }
    }
    best
}

/// Verdict for one classified reference given its loop's trip bound and
/// whether it executes on every iteration of that loop.
fn predict_ref(
    class: StaticClass,
    trips: Option<u64>,
    every_iteration: bool,
    geom: &CacheGeometry,
    hot_miss_floor: f64,
) -> (Option<u64>, Delinquency) {
    match class {
        // Straight-line code executes once; one miss never clears a
        // ratio threshold measured over a whole profile.
        StaticClass::NotInLoop => (None, Delinquency::PredictCold),
        // One line, touched every iteration: resident after the first.
        StaticClass::LoopInvariant => (Some(geom.line_size), Delinquency::PredictCold),
        StaticClass::Irregular => (None, Delinquency::Unknown),
        StaticClass::ConstantStride(s) => {
            let Some(trips) = trips else {
                return (None, Delinquency::Unknown);
            };
            let stride = s.unsigned_abs();
            let footprint = stride.saturating_mul(trips);
            // Fraction of executions that open a new line — the op's
            // compulsory miss ratio, which the shared, periodically
            // flushed logical cache keeps re-charging (module docs).
            let line_open_rate = (stride as f64 / geom.line_size as f64).min(1.0);
            let verdict = if line_open_rate > hot_miss_floor {
                Delinquency::PredictHot
            } else if every_iteration {
                // The static stride is the true inter-access stride, and
                // it opens lines too rarely to clear the floor.
                Delinquency::PredictCold
            } else {
                // Conditionally executed: consecutive executions skip an
                // unknown number of iterations, so the effective stride
                // may be far larger than the per-iteration bound proves.
                Delinquency::Unknown
            };
            (Some(footprint), verdict)
        }
    }
}

/// Predicts the cache behavior of every memory reference of `program`
/// against the geometry `geom` (use the profiler's
/// `UmiConfig::effective_sim_cache()` to score against UMI's labels).
///
/// `hot_miss_floor` is the dynamic delinquency floor a hot op must clear
/// (the paper's adaptive threshold bottoms out at 0.10); a streaming op
/// whose per-iteration miss rate stays below it is predicted cold even
/// when its footprint overflows the cache.
///
/// Output order matches [`classify_program`](crate::classify_program):
/// by `(pc, is_store)`.
pub fn predict_program(
    program: &Program,
    geom: &CacheGeometry,
    hot_miss_floor: f64,
) -> Vec<CachePrediction> {
    ProgramFacts::new(program).predict(geom, hot_miss_floor)
}

impl ProgramFacts<'_> {
    /// [`predict_program`] over these facts.
    pub fn predict(&self, geom: &CacheGeometry, hot_miss_floor: f64) -> Vec<CachePrediction> {
        self.refs()
            .iter()
            .map(|&sref| {
                let innermost = self.innermost[sref.block.index()];
                let loop_trips = innermost.and_then(|key| self.trip_bound(key));
                // The op runs once per iteration iff its block dominates
                // every latch of its innermost loop (being innermost, no
                // nested loop can multiply its executions).
                let every_iteration =
                    innermost.is_none_or(|key| self.dominates_latches(key, sref.block));
                let (footprint, verdict) = predict_ref(
                    sref.class,
                    loop_trips,
                    every_iteration,
                    geom,
                    hot_miss_floor,
                );
                CachePrediction {
                    sref,
                    trips: loop_trips,
                    footprint,
                    verdict,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::{ProgramBuilder, Width};

    /// for ecx in 0..trips: load [esi]; esi += stride; ecx += 1
    fn strided(trips: i64, stride: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, (trips + 1) * stride.abs())
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .addi(Reg::ESI, stride)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, trips)
            .br_lt(body, done);
        pb.block(done).ret();
        pb.finish()
    }

    fn geom() -> CacheGeometry {
        // The profiler's effective logical cache: 512 KB / 4 duty scale.
        CacheGeometry {
            sets: 256,
            ways: 8,
            line_size: 64,
        }
    }

    fn only_load(preds: &[CachePrediction]) -> CachePrediction {
        let loads: Vec<_> = preds.iter().filter(|p| !p.sref.is_store).collect();
        assert_eq!(loads.len(), 1);
        *loads[0]
    }

    #[test]
    fn big_streaming_footprint_is_hot() {
        // 64-byte stride over 64K iterations: 4 MB footprint >> 128 KB.
        let preds = predict_program(&strided(65_536, 64), &geom(), 0.10);
        let p = only_load(&preds);
        assert_eq!(p.trips, Some(65_536));
        assert_eq!(p.footprint, Some(4 << 20));
        assert_eq!(p.verdict, Delinquency::PredictHot);
    }

    #[test]
    fn sub_floor_stride_is_cold() {
        // 4-byte stride: 1/16 of iterations open a line — under the 0.10
        // floor, and the load runs every iteration, so the rate holds.
        let preds = predict_program(&strided(64, 4), &geom(), 0.10);
        let p = only_load(&preds);
        assert_eq!(p.footprint, Some(256));
        assert_eq!(p.verdict, Delinquency::PredictCold);
    }

    #[test]
    fn resident_footprint_is_still_hot_when_rate_clears_floor() {
        // 8-byte stride over 64 iterations: 512 bytes fit trivially, but
        // the line-open rate (0.125) clears the floor — the shared,
        // periodically flushed logical cache re-charges compulsory
        // misses, so capacity must not rescue the verdict (module docs).
        let preds = predict_program(&strided(64, 8), &geom(), 0.10);
        let p = only_load(&preds);
        assert_eq!(p.footprint, Some(512));
        assert_eq!(p.verdict, Delinquency::PredictHot);
    }

    #[test]
    fn sub_line_stride_stays_cold_even_when_huge() {
        // 1-byte stride: only 1/64 of iterations open a line — under the
        // 0.10 delinquency floor no matter the footprint.
        let preds = predict_program(&strided(1 << 20, 1), &geom(), 0.10);
        let p = only_load(&preds);
        assert!(p.footprint.unwrap() > geom().capacity());
        assert_eq!(p.verdict, Delinquency::PredictCold);
    }

    #[test]
    fn line_multiple_stride_is_hot_at_any_trip_count() {
        // Stride = sets × line = 4 KB: every execution opens a fresh
        // line (rate 1), the worst case — including the set-conflict
        // shape where all accesses land in one set. The verdict is a
        // miss *ratio* prediction, so it holds even for a handful of
        // trips (the dynamic side simply never profiles those).
        let g = CacheGeometry {
            sets: 64,
            ways: 4,
            line_size: 64,
        };
        let preds = predict_program(&strided(5, 64 * 64), &g, 0.10);
        let p = only_load(&preds);
        assert!(p.footprint.unwrap() > g.capacity());
        assert_eq!(p.verdict, Delinquency::PredictHot);
        let preds = predict_program(&strided(3, 64 * 64), &g, 0.10);
        assert_eq!(only_load(&preds).verdict, Delinquency::PredictHot);
    }

    #[test]
    fn conditional_sub_floor_load_is_unknown() {
        // The load's block does not dominate the latch: it skips an
        // unknown number of iterations between executions, so its
        // sub-floor per-iteration stride proves nothing.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let head = pb.new_block();
        let taken = pb.new_block();
        let latch = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 1 << 20)
            .jmp(head);
        pb.block(head).cmpi(Reg::EDX, 1).br_lt(taken, latch);
        pb.block(taken)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8)
            .jmp(latch);
        pb.block(latch)
            .addi(Reg::ESI, 1)
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 1 << 20)
            .br_lt(head, done);
        pb.block(done).ret();
        let preds = predict_program(&pb.finish(), &geom(), 0.10);
        let _ = f;
        let p = only_load(&preds);
        assert_eq!(p.sref.class, StaticClass::ConstantStride(1));
        assert_eq!(p.verdict, Delinquency::Unknown);
    }

    #[test]
    fn pointer_chase_is_unknown() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry()).alloc(Reg::ESI, 64).jmp(body);
        pb.block(body)
            .load(Reg::ESI, Reg::ESI + 0, Width::W8)
            .cmpi(Reg::ESI, 0)
            .br_ne(body, done);
        pb.block(done).ret();
        let preds = predict_program(&pb.finish(), &geom(), 0.10);
        let _ = f;
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].verdict, Delinquency::Unknown);
        assert_eq!(preds[0].footprint, None);
    }

    #[test]
    fn countdown_loop_has_no_trip_bound() {
        // ecx counts down to 0: `0 / -1` iterations is no bound at all.
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 64)
            .alloc(Reg::ESI, 8 * 65)
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
            .sub(Reg::ECX, 1i64)
            .cmpi(Reg::ECX, 0)
            .br_gt(body, done);
        pb.block(done).ret();
        let preds = predict_program(&pb.finish(), &geom(), 0.10);
        let _ = f;
        let p = only_load(&preds);
        assert_eq!(p.trips, None);
        assert_eq!(p.verdict, Delinquency::Unknown);
    }

    #[test]
    fn not_in_loop_and_invariant_are_cold() {
        let mut pb = ProgramBuilder::new();
        let f = pb.begin_func("main");
        let body = pb.new_block();
        let done = pb.new_block();
        pb.block(f.entry())
            .movi(Reg::ECX, 0)
            .alloc(Reg::ESI, 64)
            .alloc(Reg::EDI, 64)
            .load(Reg::EAX, Reg::EDI + 0, Width::W8) // straight-line
            .jmp(body);
        pb.block(body)
            .load(Reg::EAX, Reg::ESI + 0, Width::W8) // invariant in loop
            .addi(Reg::ECX, 1)
            .cmpi(Reg::ECX, 64)
            .br_lt(body, done);
        pb.block(done).ret();
        let preds = predict_program(&pb.finish(), &geom(), 0.10);
        let _ = f;
        let loads: Vec<_> = preds.iter().filter(|p| !p.sref.is_store).collect();
        assert_eq!(loads.len(), 2);
        assert!(loads.iter().all(|p| p.verdict == Delinquency::PredictCold));
    }

    #[test]
    fn predictions_are_sorted_by_pc() {
        let preds = predict_program(&strided(64, 8), &geom(), 0.10);
        let pcs: Vec<_> = preds.iter().map(|p| (p.sref.pc, p.sref.is_store)).collect();
        let mut sorted = pcs.clone();
        sorted.sort();
        assert_eq!(pcs, sorted);
    }
}
