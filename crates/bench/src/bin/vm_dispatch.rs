//! vm_dispatch — dispatch-path microbenchmark for the interpreter
//! engines.
//!
//! Three synthetic kernels stress the three dispatch regimes the
//! profile-guided superinstructions target: a fusion-friendly arithmetic
//! hot loop, a branch-dominated loop (data-dependent control flow, so
//! block dispatch — not op dispatch — is the bottleneck), and a
//! call-heavy loop (call/ret terminators plus push/pop stack traffic).
//! Each kernel runs under the tree-walk engine and the decoded engine at
//! both fusion levels; the decoded runs carry the `op-profile` counter
//! so the printed dispatch reductions are *measured*, not derived.
//!
//! Stdout is architectural and deterministic — retired instructions,
//! dynamic micro-op dispatches per level, and the cross-engine agreement
//! verdict — and is golden-checked by `scripts/smoke.sh`. Per-cell
//! wall-clock (the actual insns/sec of each `kernel/engine` pair) goes
//! to `results/BENCH_pipeline.json` via the shared [`Harness`]; each
//! cell reruns its kernel on a fresh VM until it has run for
//! [`MIN_CELL_TIME`](umi_bench::engine::MIN_CELL_TIME), and the printed
//! statistics come from the first run.

use umi_bench::engine::{repeat_for_min_time, Cell, Harness};
use umi_bench::scale_from_env;
use umi_ir::{FusionLevel, Program, ProgramBuilder, Reg, Width};
use umi_vm::{NullSink, OpProfile, Vm, VmStats};
use umi_workloads::Scale;

/// LCG constants (Knuth MMIX) — 64-bit immediates, the fusion rules'
/// hardest case.
const LCG_MUL: i64 = 6_364_136_223_846_793_005;
const LCG_ADD: i64 = 1_442_695_040_888_963_407;

fn iters(scale: Scale) -> i64 {
    match scale {
        Scale::Test => 20_000,
        Scale::Bench => 2_000_000,
    }
}

/// Arithmetic hot loop: load, ALU chain (hash-index triple + LCG
/// update), store, counted back edge. Nearly every adjacent pair is a
/// measured-hot fusion candidate.
fn hot_loop(scale: Scale) -> Program {
    let n = iters(scale);
    let mut pb = ProgramBuilder::new();
    let f = pb.begin_func("main");
    let body = pb.new_block();
    let done = pb.new_block();
    pb.block(f.entry())
        .movi(Reg::ECX, 0)
        .movi(Reg::EAX, 1)
        .alloc(Reg::ESI, 8 * 1024)
        .jmp(body);
    pb.block(body)
        .mov(Reg::EDX, Reg::EAX)
        .shr(Reg::EDX, 54)
        .and(Reg::EDX, 1023)
        .load(Reg::EBX, Reg::ESI + (Reg::EDX, 8), Width::W8)
        .addi(Reg::EBX, 3)
        .store(Reg::ESI + (Reg::EDX, 8), Reg::EBX, Width::W8)
        .mul(Reg::EAX, LCG_MUL)
        .addi(Reg::EAX, LCG_ADD)
        .addi(Reg::ECX, 1)
        .cmpi(Reg::ECX, n)
        .br_lt(body, done);
    pb.block(done).ret();
    pb.finish()
}

/// Branch-dominated loop: a parity test steers every iteration through
/// one of two short arms, so blocks are tiny and terminator dispatch
/// dominates. The three-wide back-edge fusion and hot-first ordering are
/// what this kernel measures.
fn branchy(scale: Scale) -> Program {
    let n = iters(scale);
    let mut pb = ProgramBuilder::new();
    let f = pb.begin_func("main");
    let head = pb.new_block();
    let even = pb.new_block();
    let odd = pb.new_block();
    let next = pb.new_block();
    let done = pb.new_block();
    pb.block(f.entry())
        .movi(Reg::ECX, 0)
        .movi(Reg::EAX, 0x2545_F491_4F6C_DD1D)
        .jmp(head);
    pb.block(head)
        .mov(Reg::EBX, Reg::EAX)
        .and(Reg::EBX, 1)
        .cmpi(Reg::EBX, 0)
        .br_eq(even, odd);
    pb.block(even).shr(Reg::EAX, 1).addi(Reg::EAX, 11).jmp(next);
    pb.block(odd)
        .mul(Reg::EAX, 3)
        .addi(Reg::EAX, 1)
        .shr(Reg::EAX, 2)
        .jmp(next);
    pb.block(next)
        .addi(Reg::ECX, 1)
        .cmpi(Reg::ECX, n)
        .br_lt(head, done);
    pb.block(done).ret();
    pb.finish()
}

/// Call-heavy loop: every iteration pushes an argument, calls a small
/// leaf, and pops the result — call/ret terminators and stack micro-ops,
/// the cold-path forms the hot-first dispatch pushes out of line.
fn call_heavy(scale: Scale) -> Program {
    let n = iters(scale) / 4;
    let mut pb = ProgramBuilder::new();
    let main = pb.begin_func("main");
    let leaf = pb.begin_func("leaf");
    let call = pb.new_block();
    let after = pb.new_block();
    let done = pb.new_block();
    pb.block(main.entry())
        .movi(Reg::ECX, 0)
        .movi(Reg::EAX, 7)
        .jmp(call);
    pb.block(call).push_val(Reg::EAX).call(leaf, after);
    pb.block(leaf.entry())
        .mul(Reg::EAX, 13)
        .addi(Reg::EAX, 5)
        .ret();
    pb.block(after)
        .pop(Reg::EBX)
        .add(Reg::EAX, Reg::EBX)
        .addi(Reg::ECX, 1)
        .cmpi(Reg::ECX, n)
        .br_lt(call, done);
    pb.block(done).ret();
    pb.finish()
}

/// A named kernel-program builder.
type Kernel = (&'static str, fn(Scale) -> Program);

const KERNELS: [Kernel; 3] = [
    ("hot_loop", hot_loop),
    ("branchy", branchy),
    ("call_heavy", call_heavy),
];

const ENGINES: [&str; 3] = ["tree", "decoded_base", "decoded_full"];

/// One `kernel/engine` cell's outcome: the architectural statistics and,
/// for decoded runs, the dispatch profile.
struct Run {
    stats: VmStats,
    profile: Option<OpProfile>,
}

fn main() {
    let scale = scale_from_env();
    let mut harness = Harness::new("vm_dispatch", scale);
    let cells: Vec<(usize, usize)> = (0..KERNELS.len())
        .flat_map(|k| (0..ENGINES.len()).map(move |e| (k, e)))
        .collect();
    let runs: Vec<Run> = harness.run(&cells, |&(k, e)| {
        let (name, build) = KERNELS[k];
        let program = build(scale);
        let (run, reps) = repeat_for_min_time(|| match ENGINES[e] {
            "tree" => Run {
                stats: {
                    let r = Vm::new(&program).run_tree(&mut NullSink, u64::MAX);
                    assert!(r.finished, "{name}: tree walk did not finish");
                    r.stats
                },
                profile: None,
            },
            engine => {
                let level = if engine == "decoded_base" {
                    FusionLevel::Baseline
                } else {
                    FusionLevel::Full
                };
                let mut vm = Vm::with_fusion_level(&program, level);
                vm.enable_op_profile();
                let r = vm.run(&mut NullSink, u64::MAX);
                assert!(r.finished, "{name}: {engine} did not finish");
                Run {
                    stats: r.stats,
                    profile: vm.op_profile(),
                }
            }
        });
        Cell {
            label: format!("{name}/{}", ENGINES[e]),
            insns: reps * run.stats.insns,
            value: run,
        }
    });

    println!("vm_dispatch — interpreter dispatch microbenchmark");
    println!("(stdout is architectural: retired insns and measured micro-op dispatches;");
    println!(" per-engine wall-clock goes to results/BENCH_pipeline.json)");
    println!();
    println!(
        "{:<12} {:>12} {:>10} {:>11} {:>11} {:>10}",
        "kernel", "insns", "blocks", "uops/insn", "fused u/i", "Δdispatch"
    );
    for (k, (name, _)) in KERNELS.iter().enumerate() {
        let runs_k = &runs[k * ENGINES.len()..(k + 1) * ENGINES.len()];
        let tree = &runs_k[0];
        for r in runs_k {
            assert_eq!(
                r.stats, tree.stats,
                "{name}: engine VmStats diverge — dispatch bug"
            );
        }
        let base = runs_k[1].profile.as_ref().expect("baseline profiled");
        let full = runs_k[2].profile.as_ref().expect("full profiled");
        assert_eq!(base.blocks, full.blocks, "{name}: block-count divergence");
        let insns = tree.stats.insns;
        let cut = 100.0 * (base.total_ops - full.total_ops) as f64 / base.total_ops as f64;
        println!(
            "{:<12} {:>12} {:>10} {:>11.3} {:>11.3} {:>9.1}%",
            name,
            insns,
            base.blocks,
            base.total_ops as f64 / insns as f64,
            full.total_ops as f64 / insns as f64,
            cut
        );
    }
    println!();
    println!("engines agree: tree-walk, decoded(Baseline), decoded(Full) retire identical");
    println!("VmStats on every kernel (asserted above; streams pinned by the differential).");
    harness.finish();
}
