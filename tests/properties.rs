//! Property-based tests (umi-testkit randomized harness) on the core data
//! structures and invariants: caches, memory, profiles, delinquent sets,
//! correlation, and stride detection.

use umi::cache::{delinquent_set, CacheConfig, PcMissStats, PerPcStats, SetAssocCache};
use umi::core::{detect_stride, pearson, ProfileStore};
use umi::dbi::TraceId;
use umi::ir::Pc;
use umi::vm::Memory;
use umi_testkit::check;

/// A line just accessed is always resident (probe) and hits on
/// re-access, for any geometry.
#[test]
fn cache_hit_after_access() {
    check("cache_hit_after_access", 128, |rng| {
        let sets = 1usize << rng.below(8);
        let ways = 1 + rng.below(7) as usize;
        let cfg = CacheConfig::new(sets, ways, 64);
        let mut c = SetAssocCache::new(cfg);
        for a in rng.vec_below(1, 200, 1_000_000) {
            c.access(a);
            assert!(c.probe(a), "just-accessed line not resident");
            assert!(c.access(a).hit, "immediate re-access missed");
        }
    });
}

/// Resident lines never exceed capacity, and stats stay consistent.
#[test]
fn cache_capacity_and_stats_invariants() {
    check("cache_capacity_and_stats_invariants", 128, |rng| {
        let addrs = rng.vec_below(1, 500, 100_000);
        let cfg = CacheConfig::new(8, 2, 64);
        let mut c = SetAssocCache::new(cfg);
        for a in &addrs {
            c.access(*a);
            assert!(c.resident_lines() <= 16);
        }
        let s = c.stats();
        assert_eq!(s.accesses, addrs.len() as u64);
        assert!(s.misses <= s.accesses);
        assert!((0.0..=1.0).contains(&s.miss_ratio()));
    });
}

/// Under LRU, an eviction never removes the most recently used line.
#[test]
fn lru_never_evicts_most_recent() {
    check("lru_never_evicts_most_recent", 128, |rng| {
        let tags = rng.vec_below(2, 300, 64);
        let cfg = CacheConfig::new(1, 4, 64); // one set: pure LRU stack
        let mut c = SetAssocCache::new(cfg);
        let mut last: Option<u64> = None;
        for t in tags {
            let addr = t * 64;
            let out = c.access(addr);
            if let (Some(prev), Some(evicted)) = (last, out.evicted) {
                assert_ne!(evicted, prev * 64, "evicted the MRU line");
            }
            last = Some(t);
        }
    });
}

/// Memory reads return exactly what was last written, at every width.
#[test]
fn memory_read_after_write() {
    check("memory_read_after_write", 256, |rng| {
        let addr = rng.below(0x10_0000);
        let value = rng.range_u64(0, u64::MAX);
        let width = [1u8, 2, 4, 8][rng.below(4) as usize];
        let mut m = Memory::new();
        m.write(addr, width, value);
        let mask = if width == 8 {
            u64::MAX
        } else {
            (1u64 << (8 * width)) - 1
        };
        assert_eq!(m.read(addr, width), value & mask);
    });
}

/// Writes never disturb bytes outside their window.
#[test]
fn memory_writes_are_contained() {
    check("memory_writes_are_contained", 256, |rng| {
        let addr = rng.range_u64(8, 0x1_0000);
        let value = rng.range_u64(0, u64::MAX);
        let mut m = Memory::new();
        m.write(addr - 8, 8, 0x1111_1111_1111_1111);
        m.write(addr + 4, 4, 0x2222_2222);
        m.write(addr, 4, value);
        assert_eq!(m.read(addr - 8, 8), 0x1111_1111_1111_1111);
        assert_eq!(m.read(addr + 4, 4), 0x2222_2222);
    });
}

/// The delinquent set covers at least the target and is minimal: the
/// last member is necessary.
#[test]
fn delinquent_set_covers_and_is_minimal() {
    check("delinquent_set_covers_and_is_minimal", 192, |rng| {
        let misses = rng.vec_below(1, 50, 1000);
        let x = rng.range_f64(0.05, 1.0);
        let stats: PerPcStats = misses
            .iter()
            .enumerate()
            .map(|(i, m)| {
                (
                    Pc(i as u64),
                    PcMissStats {
                        load_accesses: m + 1,
                        load_misses: *m,
                        ..Default::default()
                    },
                )
            })
            .collect();
        let c = delinquent_set(&stats, x);
        let total: u64 = misses.iter().sum();
        if total > 0 {
            assert!(
                c.coverage() >= x - 1e-9,
                "coverage {} < {}",
                c.coverage(),
                x
            );
            // Minimality: dropping the smallest member goes below target.
            let smallest: u64 = c
                .pcs
                .iter()
                .map(|pc| stats.get(*pc).load_misses)
                .min()
                .unwrap_or(0);
            let without = (c.covered_misses - smallest) as f64 / total as f64;
            assert!(without < x, "set is not minimal");
        } else {
            assert!(c.is_empty());
        }
    });
}

/// Pearson correlation is bounded, symmetric, and exactly 1 against a
/// positive affine image of itself.
#[test]
fn pearson_properties() {
    check("pearson_properties", 192, |rng| {
        let n = rng.range_u64(2, 40) as usize;
        let xs: Vec<f64> = (0..n).map(|_| rng.range_f64(-1e6, 1e6)).collect();
        let a = rng.range_f64(0.1, 100.0);
        let b = rng.range_f64(-100.0, 100.0);
        let ys: Vec<f64> = xs.iter().map(|x| a * x + b).collect();
        let r = pearson(&xs, &ys);
        assert!((-1.0..=1.0).contains(&r));
        assert_eq!(pearson(&xs, &ys).to_bits(), pearson(&ys, &xs).to_bits());
        let distinct = xs.windows(2).any(|w| w[0] != w[1]);
        if distinct {
            assert!(
                (r - 1.0).abs() < 1e-6,
                "affine image must correlate at 1, got {r}"
            );
        }
    });
}

/// A pure arithmetic sequence always yields its stride at confidence 1.
#[test]
fn stride_detection_on_pure_sequences() {
    check("stride_detection_on_pure_sequences", 256, |rng| {
        let base = rng.below(1_000_000);
        let stride = if rng.below(2) == 0 {
            rng.range_i64(1, 4095)
        } else {
            rng.range_i64(-4096, -1)
        };
        let len = rng.range_u64(5, 63) as usize;
        let col: Vec<u64> = (0..len)
            .map(|i| {
                0x10_0000_0000u64
                    .wrapping_add(base)
                    .wrapping_add((stride * i as i64) as u64)
            })
            .collect();
        let info = detect_stride(&col, 4, 0.5).expect("pure stride");
        assert_eq!(info.stride, stride);
        assert_eq!(info.confidence, 1.0);
    });
}

/// Profile stores never exceed their row capacity and drain resets
/// the trace-profile usage.
#[test]
fn profile_store_capacity() {
    check("profile_store_capacity", 192, |rng| {
        let rows = rng.range_u64(1, 39) as usize;
        let cap = rng.range_u64(1, 9) as usize;
        let mut s = ProfileStore::new(1 << 20, cap);
        let t = TraceId(0);
        s.register(t, vec![Pc(1)]);
        let mut began = 0;
        for _ in 0..rows {
            if s.trigger(t).is_some() {
                let drained = s.drain();
                assert_eq!(drained.len(), 1);
                assert!(drained[0].1.row_count() <= cap);
                assert_eq!(s.trace_profile_usage(), 0);
                assert!(!s.is_registered(t));
                s.register(t, vec![Pc(1)]);
            }
            s.begin_row(t);
            began += 1;
        }
        assert_eq!(began, rows);
    });
}
