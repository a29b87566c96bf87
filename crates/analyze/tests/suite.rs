//! The verifier and classifier over the full 32-workload suite.

use umi_analyze::{
    absint_program, analyze_program, classify_program, compose_program, render_errors, verify,
    CacheGeometry, Cfg, StaticClass,
};
use umi_workloads::{all32, Scale};

#[test]
fn verifier_accepts_every_workload() {
    for spec in all32() {
        let program = spec.build(Scale::Test);
        if let Err(errs) = verify(&program) {
            panic!(
                "{}: verifier rejected the program:\n{}",
                spec.name,
                render_errors(&errs)
            );
        }
    }
}

#[test]
fn classifier_finds_strides_and_irregularity_across_the_suite() {
    let mut strided = 0usize;
    let mut irregular = 0usize;
    for spec in all32() {
        let program = spec.build(Scale::Test);
        for r in classify_program(&program) {
            match r.class {
                StaticClass::ConstantStride(s) => {
                    assert_ne!(s, 0, "{}: zero stride must be LoopInvariant", spec.name);
                    strided += 1;
                }
                StaticClass::Irregular => irregular += 1,
                _ => {}
            }
        }
    }
    // The suite mixes dense array kernels with pointer chasing: the
    // static view must see both shapes.
    assert!(strided > 0, "no constant-stride ops found suite-wide");
    assert!(irregular > 0, "no irregular ops found suite-wide");
}

/// `NaturalLoop::is_latch` binary-searches the latch list, so every
/// loop the suite produces must list its latches sorted and unique.
#[test]
fn latches_are_sorted_and_unique_on_every_workload() {
    let mut loops = 0usize;
    for spec in all32() {
        let program = spec.build(Scale::Test);
        let cfg = Cfg::build(&program);
        for fa in analyze_program(&program, &cfg) {
            for lp in &fa.loops {
                loops += 1;
                assert!(!lp.latches.is_empty(), "{}: loop without latch", spec.name);
                assert!(
                    lp.latches.windows(2).all(|w| w[0] < w[1]),
                    "{}: latches of loop at {} not sorted and unique: {:?}",
                    spec.name,
                    lp.header,
                    lp.latches
                );
                for &b in &lp.body {
                    assert_eq!(lp.is_latch(b), lp.latches.contains(&b), "{}", spec.name);
                }
            }
        }
    }
    assert!(
        loops > 32,
        "the suite should have loops everywhere ({loops})"
    );
}

/// A composed report's sites carry exactly the absint rows, so
/// `umi_lint` takes an original program's verdicts from the report it
/// composes instead of running the interpreter a second time.
#[test]
fn composed_sites_carry_the_absint_rows_on_every_workload() {
    let (l1, l2) = (CacheGeometry::pentium4_l1d(), CacheGeometry::pentium4_l2());
    for spec in all32() {
        let program = spec.build(Scale::Test);
        let mut rows = absint_program(&program, &l1, &l2);
        rows.sort_by_key(|r| (r.pc, r.is_store, r.block));
        let report = compose_program(&program, &l1, &l2, 0.10);
        let sites: Vec<_> = report.sites.iter().map(|s| s.behavior).collect();
        assert_eq!(sites, rows, "{}", spec.name);
    }
}
