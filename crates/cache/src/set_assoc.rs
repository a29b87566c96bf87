//! The set-associative cache.
//!
//! Each set keeps its resident lines in replacement order, the way
//! Cachegrind keeps its tags: one flat `u64` array holds every set's
//! entries back to back, and the valid lines of a set are the prefix of
//! its entries whose length is the set's byte in `lens`. Under LRU the
//! prefix runs most- to least-recently used, under FIFO newest to oldest
//! insertion, and under Random a position is a way. A repeat reference
//! to the most recent line is therefore the first compare, and the LRU
//! or FIFO victim is always the last entry, so no timestamp, clock or
//! victim scan exists.

use crate::config::{CacheConfig, ReplacementPolicy};
use crate::stats::CacheStats;

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the reference hit.
    pub hit: bool,
    /// Line-aligned address of a line evicted to make room, if any.
    pub evicted: Option<u64>,
}

/// A set-associative cache over line-aligned addresses.
///
/// Mirrors the paper's mini-simulator (§5): each reference maps to a set,
/// the tag is compared against every line in the set; on a hit the line
/// becomes the most recent; on a miss an empty or the least recent line
/// receives the tag. The paper's "counter to simulate time" is kept as
/// an order rather than as numbers: only the comparisons between lines'
/// times ever decided anything, and the order is exactly those.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Per-line `tag << 1 | dirty`, sets back to back. Within a set the
    /// first `lens[set]` entries are the valid lines in replacement
    /// order (see the module doc); the rest are stale.
    entries: Vec<u64>,
    /// Per-set number of valid lines. The only invalidation is a whole
    /// cache [`flush`](SetAssocCache::flush), and a fill never leaves a
    /// gap, so the valid lines always form a prefix.
    lens: Vec<u8>,
    stats: CacheStats,
    /// xorshift state for [`ReplacementPolicy::Random`].
    rng: u64,
    /// `log2(line_size)`, precomputed: the access path runs once per
    /// simulated reference and the geometry divisions dominated it.
    line_shift: u32,
    /// `sets - 1` (sets is a power of two).
    set_mask: usize,
    /// `log2(sets)`.
    set_bits: u32,
    /// Index into `entries` of the line the last access hit or filled,
    /// for [`reuse_mru`](SetAssocCache::reuse_mru).
    last: usize,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the associativity exceeds 255 (a set's valid length is
    /// one byte), or if the geometry has one set of one-byte lines (the
    /// tag would then be the whole address, leaving no bit for the dirty
    /// flag packed beside it).
    pub fn new(config: CacheConfig) -> SetAssocCache {
        assert!(
            config.ways <= u8::MAX as usize,
            "associativity {} exceeds the 255-way limit of a set's one-byte length",
            config.ways
        );
        let line_shift = config.line_size.trailing_zeros();
        let set_bits = config.sets.trailing_zeros();
        assert!(
            line_shift + set_bits >= 1,
            "one set of one-byte lines leaves no tag bit for the dirty flag"
        );
        SetAssocCache {
            config,
            entries: vec![0; config.sets * config.ways],
            lens: vec![0; config.sets],
            stats: CacheStats::default(),
            rng: 0x9e37_79b9_7f4a_7c15,
            line_shift,
            set_mask: config.sets - 1,
            set_bits,
            last: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets the statistics, keeping cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// `log2(line_size)` — the shift that turns an address into a line
    /// (block) number. Batch consumers use it to detect same-line runs.
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// References `addr` as a read, updating replacement state and
    /// statistics.
    #[inline]
    pub fn access(&mut self, addr: u64) -> AccessOutcome {
        self.access_inner::<true>(addr, false)
    }

    /// References `addr` as a write: like [`access`](Self::access), and
    /// additionally marks the line dirty (write-back, write-allocate).
    #[inline]
    pub fn access_write(&mut self, addr: u64) -> AccessOutcome {
        self.access_inner::<true>(addr, true)
    }

    /// `COUNT` selects whether the access updates demand statistics: the
    /// demand path counts, the prefetch-fill path does not. The
    /// replacement order and the Random-policy rng advance identically
    /// either way.
    #[inline]
    fn access_inner<const COUNT: bool>(&mut self, addr: u64, write: bool) -> AccessOutcome {
        let block = addr >> self.line_shift;
        let tag = block >> self.set_bits;
        let set = block as usize & self.set_mask;
        let ways = self.config.ways;
        let base = set * ways;
        let len = self.lens[set] as usize;
        let set_entries = &mut self.entries[base..base + ways];
        let valid = &mut set_entries[..len];

        if COUNT {
            self.stats.accesses += 1;
        }
        for i in 0..valid.len() {
            if valid[i] >> 1 == tag {
                let hit = valid[i] | write as u64;
                if self.config.policy == ReplacementPolicy::Lru {
                    // Move to the front; FIFO and Random never reorder.
                    insert_front(valid, i, hit);
                    self.last = base;
                } else {
                    valid[i] = hit;
                    self.last = base + i;
                }
                return AccessOutcome {
                    hit: true,
                    evicted: None,
                };
            }
        }
        if COUNT {
            self.stats.misses += 1;
        }

        let line = (tag << 1) | write as u64;
        let (pos, victim) = if len < ways {
            self.lens[set] += 1;
            (len, None)
        } else if self.config.policy == ReplacementPolicy::Random {
            // xorshift64*
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let w = (self.rng % ways as u64) as usize;
            (w, Some(set_entries[w]))
        } else {
            (ways - 1, Some(set_entries[ways - 1]))
        };
        if self.config.policy == ReplacementPolicy::Random {
            set_entries[pos] = line;
            self.last = base + pos;
        } else {
            // LRU and FIFO insert at the front; `pos` is the first entry
            // past the valid prefix or the evicted last one.
            insert_front(set_entries, pos, line);
            self.last = base;
        }
        let evicted = victim.map(|old| {
            if COUNT && old & 1 != 0 {
                self.stats.writebacks += 1;
            }
            (((old >> 1) << self.set_bits) | set as u64) << self.line_shift
        });
        AccessOutcome {
            hit: false,
            evicted,
        }
    }

    /// Re-references the most recently accessed line `n` more times
    /// (`any_write` = whether any of them writes), without scanning the
    /// set: the batch consumers' run-coalescing primitive.
    ///
    /// Equivalent to `n` calls of [`access`](Self::access) /
    /// [`access_write`](Self::access_write) on that line — all guaranteed
    /// hits — provided the line was hit or filled by the immediately
    /// preceding access to *this* cache. Each per-item hit would count an
    /// access and OR the dirty bit, and would leave the order unchanged:
    /// the line is already at the front under LRU and never moves on a
    /// hit under FIFO or Random. The line's entry is the one that access
    /// touched, which is at the front only under LRU.
    ///
    /// # Panics
    ///
    /// Debug-asserts that the touched entry is still inside its set's
    /// valid prefix, which fails when no access has happened yet or a
    /// flush came after it.
    #[inline]
    pub fn reuse_mru(&mut self, n: u64, any_write: bool) {
        debug_assert!(
            self.last % self.config.ways < self.lens[self.last / self.config.ways] as usize,
            "reuse_mru without a preceding access to a still-valid line"
        );
        self.stats.accesses += n;
        self.entries[self.last] |= any_write as u64;
    }

    /// Inserts the line containing `addr` without counting an access, a
    /// miss, or a writeback — used to model prefetch fills, which are not
    /// demand traffic. Replacement state (the set's order, the Random rng,
    /// the entry [`reuse_mru`](Self::reuse_mru) targets) advances exactly
    /// as a demand read would.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.access_inner::<false>(addr, false).evicted
    }

    /// Whether the line containing `addr` is present, without touching
    /// replacement state or statistics.
    pub fn probe(&self, addr: u64) -> bool {
        let block = addr >> self.line_shift;
        let tag = block >> self.set_bits;
        let set = block as usize & self.set_mask;
        let base = set * self.config.ways;
        self.entries[base..base + self.lens[set] as usize]
            .iter()
            .any(|&e| e >> 1 == tag)
    }

    /// Invalidates every line (the analyzer's periodic flush, §5).
    pub fn flush(&mut self) {
        self.lens.fill(0);
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }
}

/// Shifts `entries[..pos]` one place back, over `entries[pos]`, and puts
/// `entry` at the front.
#[inline]
fn insert_front(entries: &mut [u64], pos: usize, entry: u64) {
    let entries = &mut entries[..=pos];
    let mut j = pos;
    while j > 0 {
        entries[j] = entries[j - 1];
        j -= 1;
    }
    entries[0] = entry;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: ReplacementPolicy) -> SetAssocCache {
        // 2 sets, 2 ways, 64B lines: easy to force conflicts.
        SetAssocCache::new(CacheConfig::new(2, 2, 64).policy(policy))
    }

    /// Address landing in set 0 with distinct tag `t`.
    fn set0(t: u64) -> u64 {
        t * 2 * 64
    }

    #[test]
    fn compulsory_miss_then_hit() {
        let mut c = tiny(ReplacementPolicy::Lru);
        assert!(!c.access(0x0).hit);
        assert!(c.access(0x3f).hit, "same line");
        assert!(!c.access(0x40).hit, "next line misses");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(set0(1));
        c.access(set0(2));
        c.access(set0(1)); // refresh tag 1
        let out = c.access(set0(3)); // evicts tag 2
        assert_eq!(out.evicted, Some(set0(2)));
        assert!(c.probe(set0(1)));
        assert!(!c.probe(set0(2)));
    }

    #[test]
    fn fifo_ignores_refreshes() {
        let mut c = tiny(ReplacementPolicy::Fifo);
        c.access(set0(1));
        c.access(set0(2));
        c.access(set0(1)); // would refresh under LRU, not FIFO
        let out = c.access(set0(3)); // evicts tag 1 (oldest insert)
        assert_eq!(out.evicted, Some(set0(1)));
    }

    #[test]
    fn random_policy_is_deterministic_and_valid() {
        let mut a = tiny(ReplacementPolicy::Random);
        let mut b = tiny(ReplacementPolicy::Random);
        for t in 0..100 {
            assert_eq!(a.access(set0(t)).evicted, b.access(set0(t)).evicted);
        }
        assert_eq!(a.resident_lines(), 2);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(set0(1));
        c.access(set0(2));
        assert!(c.probe(set0(1))); // must NOT refresh
        let out = c.access(set0(3));
        assert_eq!(out.evicted, Some(set0(1)), "probe refreshed LRU state");
    }

    #[test]
    fn fill_does_not_count_stats() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(set0(1));
        assert_eq!(c.stats(), CacheStats::default());
        assert!(c.probe(set0(1)));
        assert!(c.access(set0(1)).hit, "fill installed the line");
    }

    #[test]
    fn fill_never_counts_writebacks() {
        // Dirty a full set, then fill a conflicting line: the dirty
        // eviction must not show up in the stats (the old save/restore
        // hack hid it; the dedicated path must too).
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access_write(set0(1));
        c.access_write(set0(2));
        let before = c.stats();
        let evicted = c.fill(set0(3));
        assert_eq!(evicted, Some(set0(1)), "fill still evicts");
        assert_eq!(c.stats(), before, "fill touched the stats");
    }

    #[test]
    fn fill_advances_replacement_like_a_read() {
        // Interleaving fills must leave the LRU order exactly as a demand
        // read would: the filled line is MRU.
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(set0(1));
        c.fill(set0(2)); // later logical time than tag 1
        let out = c.access(set0(3));
        assert_eq!(out.evicted, Some(set0(1)), "fill did not refresh time");
    }

    #[test]
    fn reuse_mru_matches_per_item_accesses() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let mut bulk = tiny(policy);
            let mut item = tiny(policy);
            bulk.access(set0(1));
            item.access(set0(1));
            bulk.reuse_mru(3, true);
            item.access(set0(1));
            item.access_write(set0(1));
            item.access(set0(1));
            // Same stats and same observable replacement behavior.
            assert_eq!(bulk.stats(), item.stats(), "{policy:?}");
            bulk.access(set0(2));
            item.access(set0(2));
            let b = bulk.access(set0(3));
            let i = item.access(set0(3));
            assert_eq!(b, i, "{policy:?}: diverged after bulk reuse");
        }
    }

    /// Hits line `x` while it sits at the back of its two-line set,
    /// coalesces a write onto it with `reuse_mru`, then evicts it with
    /// fresh reads: the eviction must count exactly one writeback. Under
    /// FIFO and Random the touched entry stays at the back, so a
    /// `reuse_mru` that assumed the front would dirty the wrong line.
    fn back_hit_then_reuse_writes_back(policy: ReplacementPolicy) {
        let mut c = SetAssocCache::new(CacheConfig::new(1, 2, 64).policy(policy));
        // LRU and FIFO hold [2, 1] (front first); Random holds 1 at way 0
        // and 2 at way 1, so the back line is 1 or 2 respectively.
        c.access(set0(1));
        c.access(set0(2));
        let x = if policy == ReplacementPolicy::Random {
            2
        } else {
            1
        };
        assert!(c.access(set0(x)).hit);
        c.reuse_mru(3, true);
        assert_eq!(c.stats().accesses, 6);
        let mut t = 3;
        while c.probe(set0(x)) {
            c.access(set0(t));
            t += 1;
        }
        assert_eq!(c.stats().writebacks, 1, "{policy:?}: dirty bit lost");
    }

    #[test]
    fn reuse_mru_after_back_hit_lru() {
        back_hit_then_reuse_writes_back(ReplacementPolicy::Lru);
    }

    #[test]
    fn reuse_mru_after_back_hit_fifo() {
        back_hit_then_reuse_writes_back(ReplacementPolicy::Fifo);
    }

    #[test]
    fn reuse_mru_after_back_hit_random() {
        back_hit_then_reuse_writes_back(ReplacementPolicy::Random);
    }

    #[test]
    #[should_panic(expected = "reuse_mru without a preceding access")]
    #[cfg(debug_assertions)]
    fn reuse_mru_after_flush_is_caught() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(0x0);
        c.flush();
        c.reuse_mru(1, true);
    }

    #[test]
    fn top_address_bit_survives_smallest_geometries() {
        // The smallest geometries `new` accepts: one set of two-byte
        // lines, and two sets of one-byte lines. Addresses differing
        // only in bit 63 must not alias, and a dirty line with bit 63 set
        // must come back intact on eviction.
        for (sets, line) in [(1, 2), (2, 1)] {
            let mut c = SetAssocCache::new(CacheConfig::new(sets, 1, line));
            let top = 1u64 << 63;
            assert!(!c.access_write(top).hit);
            let out = c.access(0);
            assert!(!out.hit, "{sets}x{line}B: bit 63 was dropped");
            assert_eq!(out.evicted, Some(top));
            assert_eq!(c.stats().writebacks, 1);
            assert_eq!(c.access(top).evicted, Some(0));
        }
    }

    #[test]
    #[should_panic(expected = "no tag bit for the dirty flag")]
    fn one_set_of_one_byte_lines_is_rejected() {
        SetAssocCache::new(CacheConfig::new(1, 4, 1));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.access(0x0);
        c.access(0x40);
        assert_eq!(c.resident_lines(), 2);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0x0).hit);
    }

    #[test]
    fn evicted_address_is_line_aligned_and_same_set() {
        let cfg = CacheConfig::new(16, 2, 64);
        let mut c = SetAssocCache::new(cfg);
        let a1 = 0x1040;
        let a2 = a1 + 16 * 64;
        let a3 = a2 + 16 * 64;
        c.access(a1);
        c.access(a2);
        let out = c.access(a3);
        let ev = out.evicted.expect("full set must evict");
        assert_eq!(ev, cfg.line_addr(a1));
        assert_eq!(cfg.set_index(ev), cfg.set_index(a3));
    }
}
