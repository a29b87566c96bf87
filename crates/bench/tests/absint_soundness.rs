//! Soundness property for the abstract cache interpreter.
//!
//! [`absint_program`] promises per-site verdicts with auditable miss
//! bounds; a [`GroundTruth`] replays the same program through the exact
//! `FullSimulator` and [`check_verdicts`] evaluates every checkable
//! verdict group's predicate against it. This property drives that
//! check over *randomized*
//! geometries (set counts, associativities, line sizes) and randomized
//! affine kernels (invariant refs, sub-line and line-crossing sweeps,
//! pointer chases, prefetch hints the simulators ignore, conditional
//! bodies, two-latch loops, trip counts down to 1), asserting that no
//! verdict is ever contradicted — the same gate
//! `umi_lint` runs over the 32-workload suite, minus every assumption
//! about what the programs look like. From the same run it also holds
//! the verdicts a composed report carries (`compose_program(..).sites`),
//! which `umi_lint` checks for the original programs, to the same checks
//! as `absint_program`'s rows, and checks the report's miss-count
//! intervals.

use umi_analyze::{absint_program, compose_program, CacheGeometry};
use umi_bench::audit::{check_intervals, check_verdicts, GroundTruth};
use umi_cache::CacheConfig;
use umi_ir::{MemRef, Program, ProgramBuilder, Reg, Width};
use umi_testkit::{check, Xoshiro256pp};

/// Fuel cap per audited run; every generated kernel is a bounded counted
/// loop, so this is slack, not a truncation.
const MAX_INSNS: u64 = 1_000_000;

/// A random L1/L2 pair: shared line size (16/32/64), L1 of 2–64 sets and
/// 1–4 ways, L2 at least as large in both dimensions.
fn random_geometries(rng: &mut Xoshiro256pp) -> (CacheConfig, CacheConfig) {
    let line = [16u64, 32, 64][rng.below(3) as usize];
    let l1_sets = 1usize << rng.range_u64(1, 6);
    let l1_ways = rng.range_u64(1, 4) as usize;
    let l2_sets = l1_sets << rng.range_u64(1, 3);
    let l2_ways = l1_ways + rng.range_u64(0, 4) as usize;
    (
        CacheConfig::from_geometry(CacheGeometry::new(l1_sets, l1_ways, line)),
        CacheConfig::from_geometry(CacheGeometry::new(l2_sets, l2_ways, line)),
    )
}

/// Registers safe for kernel data: the counter lives in `ecx`, array
/// bases and scratch draw from this pool.
const BASES: [Reg; 3] = [Reg::ESI, Reg::EDI, Reg::R8];

/// Emits 1–3 random references on `bb` against the allocated bases:
/// invariant loads/stores at small displacements, strided loads/stores
/// through `ecx` at scales 1/2/4/8, irregular pointer chases, and
/// prefetch hints (which the simulators ignore — verdicts on the demand
/// accesses must hold without any residency credit from them).
fn random_refs<'a>(
    mut bb: umi_ir::BlockBuilder<'a>,
    rng: &mut Xoshiro256pp,
    n_arrays: usize,
) -> umi_ir::BlockBuilder<'a> {
    for _ in 0..rng.range_u64(1, 3) {
        let base = BASES[rng.below(n_arrays as u64) as usize];
        let disp = 8 * rng.range_i64(0, 7);
        let scale = 1u8 << rng.below(4);
        bb = match rng.below(6) {
            0 => bb.load(Reg::EAX, MemRef::base_disp(base, disp), Width::W8),
            1 => bb.store(MemRef::base_disp(base, disp), Reg::EAX, Width::W8),
            2 => bb.load(
                Reg::EBX,
                MemRef {
                    base: Some(base),
                    index: Some((Reg::ECX, scale)),
                    disp: 0,
                },
                Width::W8,
            ),
            3 => bb.store(
                MemRef {
                    base: Some(base),
                    index: Some((Reg::ECX, scale)),
                    disp: 0,
                },
                Reg::EAX,
                Width::W8,
            ),
            // A pointer chase: the loaded value feeds the next address,
            // so the site is irregular and its footprint unknown.
            4 => bb.load(Reg::R13, MemRef::base_disp(Reg::R13, 0), Width::W8),
            // A prefetch hint, invariant or strided: ignored by the
            // simulated caches, so any verdict leaning on it is unsound.
            _ => bb.prefetch(MemRef {
                base: Some(base),
                index: (rng.below(2) == 0).then_some((Reg::ECX, scale)),
                disp,
            }),
        };
    }
    bb
}

/// One random counted-loop kernel: 1–3 arrays, a trip count in 1..=100,
/// and a body that is a straight latch, a conditional diamond, or a
/// two-latch shape.
fn random_kernel(rng: &mut Xoshiro256pp) -> Program {
    let n_arrays = rng.range_u64(1, 3) as usize;
    let trips = rng.range_u64(1, 100) as i64;
    let mut pb = ProgramBuilder::new();
    let f = pb.begin_func("main");
    let header = pb.new_block();
    let body = pb.new_block();
    let exit = pb.new_block();

    let mut entry = pb.block(f.entry());
    for &base in &BASES[..n_arrays] {
        let size = 8 * rng.range_u64(8, 512);
        entry = entry.alloc(base, size as i64);
    }
    entry.movi(Reg::ECX, 0).jmp(header);

    // The counter advances in the header, so every latch shape below
    // makes progress and the loop provably runs `trips` iterations.
    pb.block(header)
        .addi(Reg::ECX, 1)
        .cmpi(Reg::ECX, trips)
        .br_gt(exit, body);

    match rng.below(3) {
        // Straight body: one latch.
        0 => {
            random_refs(pb.block(body), rng, n_arrays).jmp(header);
        }
        // Diamond: both arms rejoin at a shared latch.
        1 => {
            let a = pb.new_block();
            let b = pb.new_block();
            let latch = pb.new_block();
            random_refs(pb.block(body), rng, n_arrays)
                .cmpi(Reg::EAX, 7)
                .br_eq(a, b);
            random_refs(pb.block(a), rng, n_arrays).jmp(latch);
            random_refs(pb.block(b), rng, n_arrays).jmp(latch);
            pb.block(latch).jmp(header);
        }
        // Two latches: both arms re-enter the header directly.
        _ => {
            let a = pb.new_block();
            random_refs(pb.block(body), rng, n_arrays)
                .cmpi(Reg::EAX, 7)
                .br_eq(header, a);
            random_refs(pb.block(a), rng, n_arrays).jmp(header);
        }
    }
    pb.block(exit).ret();
    pb.finish()
}

#[test]
fn absint_verdicts_sound_under_random_geometries_and_kernels() {
    let mut classified = 0u64;
    let mut hits = 0u64;
    check("absint-soundness", 256, |rng| {
        let program = random_kernel(rng);
        assert_eq!(program.validate(), Ok(()));
        let (l1, l2) = random_geometries(rng);
        let (g1, g2) = (l1.geometry(), l2.geometry());
        let truth = GroundTruth::measure(&program, l1, l2, MAX_INSNS);
        let checks = check_verdicts(&truth, &absint_program(&program, &g1, &g2));
        if let Some(v) = checks.iter().find(|c| !c.ok) {
            panic!(
                "geometry {:?}: {:#x} {}",
                l1.geometry(),
                v.pc.0,
                v.violation_message()
            );
        }
        let composed = compose_program(&program, &g1, &g2, 0.10);
        let sites: Vec<_> = composed.sites.iter().map(|s| s.behavior).collect();
        assert_eq!(
            check_verdicts(&truth, &sites),
            checks,
            "composed sites and absint rows disagree"
        );
        // Every kernel halts within the fuel cap, so the composed
        // intervals are checked against the same run.
        let intervals = check_intervals(&truth, &composed);
        if let Some(v) = intervals.violations().next() {
            panic!(
                "geometry {:?}: {:#x} {}",
                l1.geometry(),
                v.bound.pc.0,
                v.violation_message()
            );
        }
        assert!(
            intervals.aggregate_ok,
            "geometry {:?}: aggregate interval escaped",
            l1.geometry()
        );
        classified += checks.len() as u64;
        hits += checks
            .iter()
            .filter(|c| c.verdict == umi_analyze::Verdict::AlwaysHit)
            .count() as u64;
    });
    // The property is vacuous if the interpreter never proves anything
    // on random kernels; require a healthy amount of audited claims
    // (the fixed seed schedule currently yields 200 groups, 117 of them
    // AlwaysHit).
    assert!(
        classified >= 100 && hits >= 50,
        "too few audited verdicts ({classified} groups, {hits} AlwaysHit)"
    );
}
