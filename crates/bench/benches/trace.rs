//! Host cost of the trace layer's hashing and serialization: the
//! program key of 176.gcc at `Scale::Test` (the largest program in the
//! suite, what every cached harness cell computes once), the payload
//! checksum over 1 MiB, a `to_bytes` + `from_bytes` round trip of one
//! captured suite trace, and a decode of that trace's event stream
//! (what a replay cursor reads). A `trace`-layer change can be sized
//! with this bench in seconds instead of a full umibench `replay` run.
//!
//! Plain `std::time::Instant` harness, like `sinks`: each case runs
//! `REPS` times per sample and reports the median of five samples.

use std::hint::black_box;
use std::time::Instant;
use umi_ir::Program;
use umi_trace::{codec, store, ExecTrace, TraceWriter};
use umi_vm::{BlockSource, NullSink, Vm};
use umi_workloads::{build, Scale};

const REPS: usize = 20;

/// Runs `f` `REPS` times per sample and reports the median time per
/// call, and `work` items of `unit` per call as a throughput (millions
/// per second).
fn bench<T>(name: &str, work: usize, unit: &str, mut f: impl FnMut() -> T) {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..REPS {
            black_box(f());
        }
        samples.push(t0.elapsed().as_secs_f64() / REPS as f64);
    }
    samples.sort_by(f64::total_cmp);
    let secs = samples[samples.len() / 2];
    println!(
        "{name:<32} {:>10.3} ms/call {:>10.1} M{unit}/s",
        1e3 * secs,
        work as f64 / secs / 1e6
    );
}

/// Captures `program`'s native block/access stream from a plain `Vm`.
fn capture(program: &Program) -> ExecTrace {
    let mut vm = Vm::new(program);
    let mut writer = TraceWriter::new();
    while !vm.is_finished() {
        let exit = BlockSource::step_block(&mut vm, &mut NullSink);
        writer.record_block(exit.block, BlockSource::block_accesses(&vm));
    }
    writer.finish(store::program_key(program), BlockSource::stats(&vm))
}

fn main() {
    let gcc = build("176.gcc", Scale::Test).expect("suite workload");
    let insns: usize = gcc.blocks.iter().map(|b| b.insns.len()).sum();
    println!("176.gcc: {} blocks, {insns} instructions", gcc.blocks.len());
    bench("trace/program_key_gcc", insns, "insn", || {
        store::program_key(black_box(&gcc))
    });

    let payload: Vec<u8> = (0..1u32 << 20)
        .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
        .collect();
    bench("trace/fnv64_1mib", payload.len(), "B", || {
        codec::fnv64(black_box(&payload))
    });

    let mcf = build("181.mcf", Scale::Test).expect("suite workload");
    let trace = capture(&mcf);
    let bytes = trace.to_bytes().len();
    println!("181.mcf trace: {bytes} bytes serialized");
    bench("trace/round_trip_mcf", bytes, "B", || {
        let out = trace.to_bytes();
        ExecTrace::from_bytes(black_box(&out), Some(trace.key())).expect("valid trace")
    });
    bench("trace/decode_mcf", trace.event_bytes(), "B", || {
        black_box(&trace).replay_into(&mut NullSink)
    });
}
