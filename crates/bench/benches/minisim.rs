//! Microbenchmarks of UMI's hot paths: the mini cache simulator (the
//! analyzer's inner loop), stride discovery over address-profile columns
//! (the analyzer's other half), and the underlying set-associative
//! cache.
//!
//! The paper's practicality claim rests on the analyzer being cheap
//! relative to the profiled execution; these benches quantify the
//! reproduction's per-reference analysis cost.
//!
//! Plain `std::time::Instant` harness (the build environment has no
//! registry access for criterion): each case reports the best-of-5
//! median throughput.

use std::hint::black_box;
use std::time::Instant;
use umi_cache::{CacheConfig, SetAssocCache};
use umi_core::{classify_default, detect_stride, MiniSimulator, ProfileStore};
use umi_dbi::TraceId;
use umi_ir::Pc;

/// One full address profile: 16 ops × 256 rows of strided references.
fn build_profile() -> Vec<(TraceId, umi_core::AddressProfile)> {
    let ops: Vec<Pc> = (0..16).map(|i| Pc(0x40_0000 + 4 * i)).collect();
    let mut store = ProfileStore::new(1 << 20, 256);
    let t = TraceId(0);
    store.register(t, ops);
    for row in 0..256u64 {
        store.begin_row(t);
        for op in 0..16u16 {
            store.record(t, op, 0x100_0000 + row * 64 + op as u64 * 8, false);
        }
    }
    store.drain()
}

/// The three column shapes stride discovery meets, 256 rows each: a
/// strided stream, a load alternating between two lines (the ±64 tie),
/// and an irregular xorshift walk over 1 MB (no delta dominates).
fn build_columns() -> [(&'static str, Vec<u64>); 3] {
    let strided = (0..256u64).map(|i| 0x100_0000 + i * 64).collect();
    let alternating = (0..256u64).map(|i| 0x100_0000 + (i % 2) * 64).collect();
    let mut x = 0x1234_5678u64;
    let irregular = (0..256)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            0x100_0000 + x % (1 << 20)
        })
        .collect();
    [
        ("strided", strided),
        ("alternating", alternating),
        ("irregular", irregular),
    ]
}

/// Times `iters` calls of `f`, five samples, and reports the median in
/// elements/second over `elems_per_iter`.
fn bench<F: FnMut()>(name: &str, iters: u64, elems_per_iter: u64, mut f: F) {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64());
    }
    samples.sort_by(f64::total_cmp);
    let secs = samples[samples.len() / 2];
    let elems = (iters * elems_per_iter) as f64;
    println!(
        "{name:<32} {:>10.1} ns/elem {:>12.2} Melem/s",
        1e9 * secs / elems,
        elems / secs / 1e6
    );
}

fn main() {
    let profiles = build_profile();
    let refs = 16 * 256;
    bench("minisim/analyze_16x256", 200, refs, || {
        let mut sim = MiniSimulator::new(CacheConfig::pentium4_l2(), 2, Some(1_000_000));
        black_box(sim.analyze(&profiles, 0, |_| true));
    });

    // A predicted load's stride, then a pattern vote: the two reads the
    // analyzer takes of one column.
    for (shape, column) in build_columns() {
        bench(&format!("stride/{shape}_256"), 20_000, 256, || {
            black_box(detect_stride(black_box(&column), 4, 0.5));
            black_box(classify_default(black_box(&column)));
        });
    }

    let mut lru = SetAssocCache::new(CacheConfig::pentium4_l2());
    let mut addr = 0u64;
    bench("cache/l2_access_streaming", 2_000_000, 1, || {
        addr = addr.wrapping_add(64) & 0xf_ffff;
        black_box(lru.access(black_box(0x100_0000 + addr)));
    });

    let mut hot = SetAssocCache::new(CacheConfig::pentium4_l2());
    hot.access(0x5000);
    bench("cache/l2_access_hit", 2_000_000, 1, || {
        black_box(hot.access(black_box(0x5000)));
    });
}
