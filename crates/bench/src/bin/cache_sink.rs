//! cache_sink — microbenchmark for the batched cache-hierarchy sinks.
//!
//! Drives the two production sinks ([`FullSimulator`] and [`Machine`])
//! through `access_batch` with three synthetic reference patterns chosen
//! to pin the batch path's behavior at its extremes:
//!
//! * `hot_loop` — a small working set with long same-line runs, the
//!   coalescer's best case (almost every reference is a deferred hit);
//! * `streaming` — unit-stride loads far past L2, one miss plus an
//!   8-long run per line, the prefetchers' home turf;
//! * `conflict` — lines aliasing into one L1 set beyond associativity,
//!   no runs at all, every access a full set scan and eviction.
//!
//! Stdout is deterministic — reference counts, miss counts, and ratios
//! only, plus the sampled-vs-exact error panel — so the output is golden
//! in `scripts/smoke.sh`. Wall-clock throughput goes to
//! `results/BENCH_pipeline.json` via the shared [`Harness`], never to
//! stdout. `insns` in that report counts sink *references* here: each
//! pattern is replayed into fresh sinks, once per sink configuration,
//! until the cell has run for
//! [`MIN_CELL_TIME`](umi_bench::engine::MIN_CELL_TIME), and the printed
//! counts come from the first replay.

use std::sync::Arc;
use umi_bench::engine::{repeat_for_min_time, Cell, Harness};
use umi_bench::scale_from_env;
use umi_cache::{CacheConfig, CacheStats, FullSimulator};
use umi_hw::{HwCounters, Machine, Platform, PrefetchSetting};
use umi_ir::{AccessKind, MemAccess, Pc};
use umi_trace::{store, ExecTrace, TraceWriter};
use umi_vm::AccessSink;
use umi_workloads::Scale;

const LINE: u64 = 64;
/// Accesses per `access_batch` call — the order of a typical per-block
/// batch from the VM.
const BATCH: usize = 16;
/// Set-sampling factor exercised by the error panel.
const SAMPLE_FACTOR: u32 = 8;

fn hot_loop(refs: usize) -> Vec<MemAccess> {
    // 4 KB working set (half the P4 L1), four references per line per
    // sweep, one of them a store: after the 64 compulsory misses,
    // everything is a same-line run hit.
    let lines = 64u64;
    let mut out = Vec::with_capacity(refs + 4);
    let mut sweep = 0u64;
    while out.len() < refs {
        let line = sweep % lines;
        for k in 0..4u64 {
            out.push(MemAccess {
                pc: Pc(10 + k),
                addr: line * LINE + k * 8,
                width: 8,
                kind: if k == 3 {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
            });
        }
        sweep += 1;
    }
    out
}

fn streaming(refs: usize) -> Vec<MemAccess> {
    // Unit-stride 8-byte loads over fresh memory: an 8-long run per
    // line, every line a compulsory miss.
    let mut out = Vec::with_capacity(refs);
    let mut addr = 0x100_0000u64;
    while out.len() < refs {
        out.push(MemAccess {
            pc: Pc(20),
            addr,
            width: 8,
            kind: AccessKind::Load,
        });
        addr += 8;
    }
    out
}

fn conflict(refs: usize) -> Vec<MemAccess> {
    // Twelve lines aliasing into one L1 set (4 ways): reuse distance
    // beyond associativity, so every reference misses L1, scans a full
    // set, and evicts — and no two consecutive references share a line.
    let stride = CacheConfig::pentium4_l1d().sets as u64 * LINE;
    let mut out = Vec::with_capacity(refs);
    let mut i = 0u64;
    while out.len() < refs {
        out.push(MemAccess {
            pc: Pc(30),
            addr: 0x40_0000 + (i % 12) * stride,
            width: 8,
            kind: AccessKind::Load,
        });
        i += 1;
    }
    out
}

struct Pattern {
    name: &'static str,
    generate: fn(usize) -> Vec<MemAccess>,
}

const PATTERNS: &[Pattern] = &[
    Pattern {
        name: "hot_loop",
        generate: hot_loop,
    },
    Pattern {
        name: "streaming",
        generate: streaming,
    },
    Pattern {
        name: "conflict",
        generate: conflict,
    },
];

/// Everything one pattern produces across the four sink configurations.
struct Row {
    l1: CacheStats,
    l2: CacheStats,
    exact_ratio: f64,
    sampled_ratio: f64,
    off: HwCounters,
    off_stalls: u64,
    full: HwCounters,
    full_stalls: u64,
}

/// The pattern's stream as a trace, from the cross-harness cache when
/// possible: the generator is deterministic, so the capture key only
/// has to describe it exhaustively. Captured in raw (template) mode —
/// each `BATCH`-sized chunk becomes one pseudo-block record, so replay
/// delivers the exact `access_batch` chunking `feed` used to.
fn pattern_trace(pattern: &Pattern, refs: usize) -> Arc<ExecTrace> {
    let key = store::context_key(&format!(
        "cache_sink:{}:refs={refs}:batch={BATCH}",
        pattern.name
    ));
    if let Some(trace) = store::fetch(key) {
        return trace;
    }
    let stream = (pattern.generate)(refs);
    let mut writer = TraceWriter::new();
    for chunk in stream.chunks(BATCH) {
        writer.access_batch(chunk);
        writer.end_block_auto();
    }
    store::publish(writer.finish_raw(key))
}

fn main() {
    let scale = scale_from_env();
    let refs = match scale {
        Scale::Bench => 2_000_000usize,
        Scale::Test => 250_000,
    };
    let mut harness = Harness::new("cache_sink", scale);
    let rows: Vec<Row> = harness.run(PATTERNS, |pattern| {
        let trace = pattern_trace(pattern, refs);

        let (row, runs) = repeat_for_min_time(|| {
            let mut exact = FullSimulator::pentium4();
            trace.replay_into(&mut exact);
            let mut sampled = FullSimulator::pentium4_sampled(SAMPLE_FACTOR);
            trace.replay_into(&mut sampled);
            let mut off = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
            trace.replay_into(&mut off);
            let mut full = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
            trace.replay_into(&mut full);
            Row {
                l1: exact.l1_stats(),
                l2: exact.l2_stats(),
                exact_ratio: exact.l2_miss_ratio(),
                sampled_ratio: sampled.l2_miss_ratio(),
                off: off.counters(),
                off_stalls: off.stall_cycles(),
                full: full.counters(),
                full_stalls: full.stall_cycles(),
            }
        });

        Cell {
            label: pattern.name.to_string(),
            insns: runs * 4 * trace.summary().accesses,
            value: row,
        }
    });

    println!("cache_sink — batched cache-hierarchy sink microbenchmark");
    println!("{refs} references per pattern, batches of {BATCH} (P4 memory system)");
    println!();
    println!(
        "{:<10} {:>10} {:>9} {:>9} {:>9} {:>8}  {:>12} {:>12} {:>9}",
        "pattern",
        "L1 refs",
        "L1 miss",
        "L2 refs",
        "L2 miss",
        "ratio",
        "stalls(off)",
        "stalls(full)",
        "hw fills"
    );
    for (p, r) in PATTERNS.iter().zip(&rows) {
        println!(
            "{:<10} {:>10} {:>9} {:>9} {:>9} {:>8.4}  {:>12} {:>12} {:>9}",
            p.name,
            r.l1.accesses,
            r.l1.misses,
            r.l2.accesses,
            r.l2.misses,
            r.exact_ratio,
            r.off_stalls,
            r.full_stalls,
            r.full.hw_prefetch_fills,
        );
    }

    // The machine with prefetching off must agree with the full
    // simulator on every demand statistic — same hierarchy, same batch
    // path — so the table above describes both sinks at once.
    for (p, r) in PATTERNS.iter().zip(&rows) {
        assert_eq!(r.off.l1_refs, r.l1.accesses, "{}: sink divergence", p.name);
        assert_eq!(r.off.l1_misses, r.l1.misses, "{}: sink divergence", p.name);
        assert_eq!(r.off.l2_misses, r.l2.misses, "{}: sink divergence", p.name);
    }

    println!();
    println!("sampled mode (factor {SAMPLE_FACTOR}) vs exact, L2 miss ratio:");
    let mut worst = 0.0f64;
    for (p, r) in PATTERNS.iter().zip(&rows) {
        let err = (r.sampled_ratio - r.exact_ratio).abs();
        worst = worst.max(err);
        println!(
            "  {:<10} exact {:>7.4}   sampled {:>7.4}   |err| {:>7.4}",
            p.name, r.exact_ratio, r.sampled_ratio, err
        );
    }
    println!("  worst |err| {worst:.4} (bound: 0.0100)");
    assert!(worst <= 0.01, "sampled-mode error bound violated");
    harness.finish();
}
