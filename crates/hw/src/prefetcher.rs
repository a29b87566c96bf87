//! Hardware L2 prefetchers (Pentium 4 style, paper §8).
//!
//! "It implements two prefetching algorithms for its L2 cache. They are
//! *adjacent cache line* prefetching and *stride* prefetching. The latter
//! can track up to 8 independent prefetch streams."

use umi_ir::Pc;

/// A hardware prefetch engine: observes demand references (at line
/// granularity) and proposes line addresses to install into L2.
pub trait PrefetchEngine {
    /// Observes one demand reference; pushes line addresses to prefetch
    /// into `out` (which the caller reuses across decisions — engines
    /// must append, never clear).
    ///
    /// `line_addr` is the line-aligned address, `l2_miss` whether the
    /// reference missed L2. This runs once per demand reference, so it
    /// yields into the caller's buffer instead of allocating a `Vec` per
    /// decision.
    fn observe_into(&mut self, pc: Pc, line_addr: u64, l2_miss: bool, out: &mut Vec<u64>);

    /// Convenience wrapper over [`observe_into`](Self::observe_into) that
    /// allocates: tests and one-shot callers.
    fn observe(&mut self, pc: Pc, line_addr: u64, l2_miss: bool) -> Vec<u64> {
        let mut out = Vec::new();
        self.observe_into(pc, line_addr, l2_miss, &mut out);
        out
    }

    /// Resets all predictor state.
    fn reset(&mut self);
}

/// Adjacent-cache-line prefetching: on an L2 demand miss, also fetch the
/// other half of the aligned 128-byte pair (the line's "buddy").
#[derive(Clone, Debug)]
pub struct AdjacentLinePrefetcher {
    line_size: u64,
}

impl AdjacentLinePrefetcher {
    /// Creates the prefetcher for the given line size.
    pub fn new(line_size: u64) -> AdjacentLinePrefetcher {
        AdjacentLinePrefetcher { line_size }
    }
}

impl PrefetchEngine for AdjacentLinePrefetcher {
    fn observe_into(&mut self, _pc: Pc, line_addr: u64, l2_miss: bool, out: &mut Vec<u64>) {
        if l2_miss {
            out.push(line_addr ^ self.line_size);
        }
    }

    fn reset(&mut self) {}
}

/// The most streams one [`StridePrefetcher`] tracks: its recency order
/// is one `u64` of 4-bit slot indices.
const MAX_STREAMS: usize = 16;

/// `0x1111_1111_1111_1111`: a 1 in every nibble.
const NIBBLE_ONES: u64 = u64::MAX / 0xf;

/// IP-indexed stride prefetching with a fixed number of streams (8 on the
/// Pentium 4). Two consecutive equal line-strides arm a stream; armed
/// streams prefetch `distance` strides ahead. A pc with no stream takes
/// the first free slot, else the least recently used one.
///
/// `observe_into` runs once per demand reference, and consecutive
/// references almost never share a pc (loop bodies interleave their
/// loads), so the table is laid out for a full lookup on every call:
///
/// * Stream state is stored field-per-array (SoA), and the pc match
///   compares every slot without branching, masks the result with the
///   validity word and takes the lowest set bit.
/// * Recency is an order, not a clock: `order` packs the slot indices
///   4 bits apiece, most recent first, so the least recently used valid
///   slot is the last nibble and a touch moves one nibble to the front
///   after a SWAR zero-nibble search finds it.
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    /// Owning pc per slot (garbage for invalid slots — masked by `valid`).
    pcs: [u64; MAX_STREAMS],
    /// Last observed line address per slot.
    last_lines: [u64; MAX_STREAMS],
    /// Armed stride per slot (line-address delta).
    strides: [i64; MAX_STREAMS],
    /// Consecutive equal-stride observations per slot.
    confidences: [u8; MAX_STREAMS],
    /// Valid slots by recency: nibble `k` is the slot touched `k`-th most
    /// recently. The first `valid.count_ones()` nibbles are a permutation
    /// of the valid slots; nibbles past them are stale and never read as
    /// a position, because the search stops at the first match.
    order: u64,
    /// Validity bitmask: bit `i` = slot `i` holds a live stream. Slots are
    /// only invalidated all at once ([`reset`](PrefetchEngine::reset)),
    /// so the valid slots are always `0..valid.count_ones()`.
    valid: u64,
    /// Number of slots (`1..=MAX_STREAMS`).
    streams: usize,
    line_size: u64,
    distance: u64,
}

impl StridePrefetcher {
    /// Pentium 4 configuration: 8 streams, prefetch 2 strides ahead.
    pub fn pentium4(line_size: u64) -> StridePrefetcher {
        StridePrefetcher::new(8, line_size, 2)
    }

    /// Creates a prefetcher with `streams` tracking slots and the given
    /// prefetch `distance` (in strides).
    ///
    /// # Panics
    ///
    /// Panics unless `1 ..= 16` streams are requested (the recency order
    /// is one word of 4-bit slot indices).
    pub fn new(streams: usize, line_size: u64, distance: u64) -> StridePrefetcher {
        assert!(
            (1..=MAX_STREAMS).contains(&streams),
            "stream count {streams} outside 1..={MAX_STREAMS}"
        );
        StridePrefetcher {
            pcs: [0; MAX_STREAMS],
            last_lines: [0; MAX_STREAMS],
            strides: [0; MAX_STREAMS],
            confidences: [0; MAX_STREAMS],
            order: 0,
            valid: 0,
            streams,
            line_size,
            distance,
        }
    }

    /// The valid slot owned by `pc`, or `None`. Valid streams have unique
    /// pcs, so the lowest match is the match.
    #[inline]
    fn find(&self, pc: u64) -> Option<usize> {
        let mut hits = 0u64;
        for (i, &p) in self.pcs.iter().enumerate() {
            hits |= u64::from(p == pc) << i;
        }
        hits &= self.valid;
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Moves valid `slot` to the front of the recency order.
    #[inline]
    fn touch(&mut self, slot: usize) {
        // Zero the nibbles equal to `slot`; the lowest flagged zero
        // nibble is exact (borrows only run upward from a zero nibble).
        let x = self.order ^ (slot as u64 * NIBBLE_ONES);
        let zeros = x.wrapping_sub(NIBBLE_ONES) & !x & (NIBBLE_ONES << 3);
        let at = zeros.trailing_zeros() & !3;
        let newer = self.order & ((1 << at) - 1);
        let older = self.order & (u64::MAX << at << 4);
        self.order = older | newer << 4 | slot as u64;
    }
}

impl PrefetchEngine for StridePrefetcher {
    fn observe_into(&mut self, pc: Pc, line_addr: u64, l2_miss: bool, out: &mut Vec<u64>) {
        if let Some(i) = self.find(pc.0) {
            self.touch(i);
            let delta = line_addr as i64 - self.last_lines[i] as i64;
            self.last_lines[i] = line_addr;
            if delta == 0 {
                return; // same line; no new information
            }
            if delta == self.strides[i] {
                self.confidences[i] = self.confidences[i].saturating_add(1);
            } else {
                self.strides[i] = delta;
                self.confidences[i] = 1;
            }
            // Prefetches issue only on demand misses: real prefetchers
            // are trained continuously but throttle issue, which is what
            // keeps them from eliminating every streaming miss.
            if !l2_miss {
                return;
            }
            if self.confidences[i] >= 2 {
                for k in 1..=self.distance {
                    let target = line_addr as i64 + self.strides[i] * k as i64;
                    if target >= 0 {
                        out.push(target as u64 & !(self.line_size - 1));
                    }
                }
            }
            return;
        }

        // Allocate a new stream: the first invalid slot, else the least
        // recently used one, which is the last of the `streams` nibbles.
        // Either way the slot goes to the front; a full table's victim
        // nibble is shifted out of the order.
        let slot = if self.valid != u64::MAX >> (64 - self.streams) {
            (!self.valid).trailing_zeros() as usize
        } else {
            (self.order >> (4 * (self.streams - 1)) & 0xf) as usize
        };
        self.order = self.order << 4 | slot as u64;
        self.pcs[slot] = pc.0;
        self.last_lines[slot] = line_addr;
        self.strides[slot] = 0;
        self.confidences[slot] = 0;
        self.valid |= 1 << slot;
    }

    fn reset(&mut self) {
        self.valid = 0;
        self.order = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_line_fetches_buddy_on_miss_only() {
        let mut p = AdjacentLinePrefetcher::new(64);
        assert_eq!(p.observe(Pc(1), 0x1000, true), vec![0x1040]);
        assert_eq!(p.observe(Pc(1), 0x1040, true), vec![0x1000]);
        assert!(p.observe(Pc(1), 0x1000, false).is_empty());
    }

    #[test]
    fn stride_arms_after_two_equal_deltas() {
        let mut p = StridePrefetcher::new(8, 64, 2);
        assert!(p.observe(Pc(1), 0x0, true).is_empty()); // allocate
        assert!(p.observe(Pc(1), 0x40, true).is_empty()); // first delta
        let out = p.observe(Pc(1), 0x80, true); // second equal delta: armed
        assert_eq!(out, vec![0xc0, 0x100]);
    }

    #[test]
    fn stride_issues_only_on_misses() {
        let mut p = StridePrefetcher::new(8, 64, 2);
        p.observe(Pc(1), 0x0, true);
        p.observe(Pc(1), 0x40, true);
        // Armed, but this access hits: training continues, no issue.
        assert!(p.observe(Pc(1), 0x80, false).is_empty());
        // The next miss issues.
        assert_eq!(p.observe(Pc(1), 0xc0, true), vec![0x100, 0x140]);
    }

    #[test]
    fn stride_rearms_on_pattern_change() {
        let mut p = StridePrefetcher::new(8, 64, 1);
        p.observe(Pc(1), 0x0, true);
        p.observe(Pc(1), 0x40, true);
        assert!(!p.observe(Pc(1), 0x80, true).is_empty());
        // Break the pattern: stride changes, confidence resets.
        assert!(p.observe(Pc(1), 0x400, true).is_empty());
        assert!(p.observe(Pc(1), 0x440, true).is_empty());
        assert_eq!(p.observe(Pc(1), 0x480, true), vec![0x4c0]);
    }

    #[test]
    fn stream_table_capacity_is_bounded() {
        // With 2 streams, a third PC evicts the least recently used.
        let mut p = StridePrefetcher::new(2, 64, 1);
        for step in 0..3u64 {
            p.observe(Pc(1), 0x1000 + step * 64, true);
            p.observe(Pc(2), 0x8000 + step * 64, true);
        }
        assert!(!p.observe(Pc(1), 0x1000 + 3 * 64, true).is_empty());
        // PC 3 evicts PC 2 (least recently used is deterministic here).
        p.observe(Pc(3), 0x20000, true);
        // PC 1 is still tracked and armed.
        assert!(!p.observe(Pc(1), 0x1000 + 4 * 64, true).is_empty());
    }

    #[test]
    fn negative_strides_prefetch_downward() {
        let mut p = StridePrefetcher::new(8, 64, 1);
        p.observe(Pc(1), 0x1000, true);
        p.observe(Pc(1), 0xfc0, true);
        assert_eq!(p.observe(Pc(1), 0xf80, true), vec![0xf40]);
    }

    #[test]
    #[should_panic(expected = "stream count 17 outside 1..=16")]
    fn more_than_sixteen_streams_are_rejected() {
        StridePrefetcher::new(17, 64, 1);
    }

    #[test]
    fn reset_clears_streams() {
        let mut p = StridePrefetcher::new(8, 64, 1);
        p.observe(Pc(1), 0x0, true);
        p.observe(Pc(1), 0x40, true);
        p.reset();
        assert!(
            p.observe(Pc(1), 0x80, true).is_empty(),
            "state survived reset"
        );
    }
}
