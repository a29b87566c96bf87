//! The verifier and classifier over the full 32-workload suite.

use umi_analyze::{analyze_program, classify_program, render_errors, verify, Cfg, StaticClass};
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
