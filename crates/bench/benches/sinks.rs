//! Per-reference cost of the memory-system sinks: the Pentium 4
//! `Machine` with hardware prefetching off and fully on, and the exact
//! `FullSimulator`.
//!
//! The stream has the shape of a loop nest with more loads than the
//! stride prefetcher has stream slots: each iteration runs three hot
//! loads that stream through their own arrays, then three or four cold
//! loads and stores drawn from a pool of 64 pcs that each touch a
//! random line of a 1 MiB region (twice the L2). The hot pcs stay resident in the 8-slot stream table
//! and every cold reference allocates a stream, 11 of every 20
//! references (55%). A `hw`-layer change can be sized with this bench
//! in seconds instead of a full umibench run.
//!
//! Plain `std::time::Instant` harness, like `minisim`: each case replays
//! the stream in 16-reference batches (the VM delivers one batch per
//! block) and reports the median of five samples.

use std::hint::black_box;
use std::time::Instant;
use umi_cache::FullSimulator;
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_ir::{AccessKind, MemAccess, Pc};
use umi_vm::AccessSink;

const REFS: usize = 1 << 19;
const HOT: u64 = 3;
const COLD_POOL: u64 = 64;
const SLOTS: usize = 8;

fn stream() -> Vec<MemAccess> {
    let mut out = Vec::with_capacity(REFS + 8);
    let mut rng = 0x2545_f491_4f6c_dd1du64;
    let mut iter = 0u64;
    let mut cold_pc = 0u64;
    while out.len() < REFS {
        for h in 0..HOT {
            out.push(MemAccess {
                pc: Pc(0x40_0000 + 4 * h),
                // 8-byte elements over 2 MiB per array: each line serves
                // eight iterations, and the streams outgrow L2.
                addr: 0x1000_0000 * (h + 1) + (iter * 8) % (2 << 20),
                width: 8,
                kind: AccessKind::Load,
            });
        }
        // Cold counts 4, 4, 3 repeating: 11 allocations per 20 refs.
        for _ in 0..if iter % 3 == 2 { 3 } else { 4 } {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            out.push(MemAccess {
                pc: Pc(0x50_0000 + 4 * cold_pc),
                addr: 0x8000_0000 + (rng % (1 << 20)),
                width: 8,
                kind: if rng & 3 == 0 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
            });
            cold_pc = (cold_pc + 1) % COLD_POOL;
        }
        iter += 1;
    }
    out
}

/// Share of references that miss an LRU table of `SLOTS` pcs, i.e. that
/// allocate a stride stream.
fn allocation_share(stream: &[MemAccess]) -> f64 {
    let mut lru: Vec<u64> = Vec::with_capacity(SLOTS);
    let mut misses = 0usize;
    for a in stream {
        match lru.iter().position(|&pc| pc == a.pc.0) {
            Some(i) => {
                lru.remove(i);
            }
            None => {
                misses += 1;
                if lru.len() == SLOTS {
                    lru.pop();
                }
            }
        }
        lru.insert(0, a.pc.0);
    }
    misses as f64 / stream.len() as f64
}

/// Replays `stream` through a fresh sink from `make` five times and
/// reports the median time per reference.
fn bench<S: AccessSink>(name: &str, stream: &[MemAccess], make: impl Fn() -> S) {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let mut sink = make();
        let t0 = Instant::now();
        for batch in stream.chunks(16) {
            sink.access_batch(black_box(batch));
        }
        samples.push(t0.elapsed().as_secs_f64());
        black_box(&sink);
    }
    samples.sort_by(f64::total_cmp);
    let secs = samples[samples.len() / 2];
    println!(
        "{name:<32} {:>10.2} ns/ref {:>12.2} Mref/s",
        1e9 * secs / stream.len() as f64,
        stream.len() as f64 / secs / 1e6
    );
}

fn main() {
    let stream = stream();
    println!(
        "{} refs, {:.1}% allocate a stride stream",
        stream.len(),
        100.0 * allocation_share(&stream)
    );
    bench("sinks/machine_p4_off", &stream, || {
        Machine::new(Platform::pentium4(), PrefetchSetting::Off)
    });
    bench("sinks/machine_p4_full", &stream, || {
        Machine::new(Platform::pentium4(), PrefetchSetting::Full)
    });
    bench("sinks/full_simulator_p4", &stream, FullSimulator::pentium4);
}
