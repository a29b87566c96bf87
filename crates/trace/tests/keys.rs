//! Program keys: `program_key` must separate programs that differ in a
//! single instruction field, terminator target or data byte.

use umi_ir::{BlockId, Insn, Program, Terminator};
use umi_trace::store;
use umi_workloads::{all32, Scale};

fn suite() -> Vec<Program> {
    all32().iter().map(|w| w.build(Scale::Test)).collect()
}

/// The displacement of the first memory operand in the program, if any.
fn first_disp(p: &mut Program) -> Option<&mut i64> {
    p.blocks
        .iter_mut()
        .flat_map(|b| b.insns.iter_mut())
        .find_map(|insn| match insn {
            Insn::Load { mem, .. } | Insn::Store { mem, .. } | Insn::Lea { mem, .. } => {
                Some(&mut mem.disp)
            }
            _ => None,
        })
}

/// The target of the first direct jump or branch in the program, if any.
fn first_target(p: &mut Program) -> Option<&mut BlockId> {
    p.blocks.iter_mut().find_map(|b| match &mut b.terminator {
        Terminator::Jmp(t) | Terminator::Br { taken: t, .. } => Some(t),
        _ => None,
    })
}

#[test]
fn program_key_is_stable_and_separates_one_field_edits() {
    let (mut disps, mut targets, mut bytes) = (0, 0, 0);
    for program in suite() {
        let key = store::program_key(&program);
        assert_eq!(
            store::program_key(&program.clone()),
            key,
            "{}",
            program.name
        );

        let mut p = program.clone();
        if let Some(disp) = first_disp(&mut p) {
            *disp += 8;
            assert_ne!(
                store::program_key(&p),
                key,
                "{}: displacement",
                program.name
            );
            disps += 1;
        }

        let mut p = program.clone();
        if let Some(t) = first_target(&mut p) {
            t.0 ^= 1;
            assert_ne!(
                store::program_key(&p),
                key,
                "{}: branch target",
                program.name
            );
            targets += 1;
        }

        let mut p = program.clone();
        if let Some(b) = p.data.iter_mut().find_map(|s| s.bytes.last_mut()) {
            *b ^= 0x01;
            assert_ne!(store::program_key(&p), key, "{}: data byte", program.name);
            bytes += 1;
        }
    }
    // Each kind of edit was exercised on the suite, not vacuously skipped.
    assert!(
        disps > 0 && targets > 0 && bytes > 0,
        "{disps} {targets} {bytes}"
    );
}

#[test]
fn suite_programs_have_distinct_keys() {
    let mut keys: Vec<_> = suite().iter().map(store::program_key).collect();
    let n = keys.len();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), n);
}
