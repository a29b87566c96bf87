//! The machine model: hierarchy + prefetchers + counters + stall cycles.

use crate::counters::HwCounters;
use crate::platform::Platform;
use crate::prefetcher::{AdjacentLinePrefetcher, PrefetchEngine, StridePrefetcher};
use umi_cache::{Hierarchy, HitLevel};
use umi_ir::{AccessKind, MemAccess};
use umi_vm::AccessSink;

/// Which hardware prefetchers are enabled (paper §8: "The prefetchers can
/// be disabled independently but for our experiments, adjacent line
/// prefetching is always on" — both settings are provided).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PrefetchSetting {
    /// All hardware prefetching disabled (the paper's "HW prefetching
    /// disabled" configuration, and the only option on the K7).
    #[default]
    Off,
    /// Adjacent-line prefetching only.
    AdjacentOnly,
    /// Adjacent-line + stride prefetching (the Pentium 4 default).
    Full,
}

/// The simulated memory system of one platform.
///
/// Attach it to a VM run as the [`AccessSink`]; afterwards read the
/// [`HwCounters`] (what the paper's PAPI measurements see) and the stall
/// cycles (what the running-time figures are built from).
///
/// Every reference, whatever the [`PrefetchSetting`], goes through one
/// batch loop ([`access`](AccessSink::access) is a one-element batch)
/// that keeps its run state and stall total in locals, reaches the
/// inlined cache hit path without a call, and installs each prefetch
/// with a single scan of its L2 set.
///
/// ```
/// use umi_hw::{Machine, Platform, PrefetchSetting};
/// use umi_vm::AccessSink;
/// use umi_ir::{AccessKind, MemAccess, Pc};
///
/// let mut m = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
/// m.access(MemAccess { pc: Pc(0x400000), addr: 0x1000, width: 8, kind: AccessKind::Load });
/// assert_eq!(m.counters().l2_misses, 1);
/// ```
#[derive(Debug)]
pub struct Machine {
    platform: Platform,
    hierarchy: Hierarchy,
    adjacent: Option<AdjacentLinePrefetcher>,
    stride: Option<StridePrefetcher>,
    hw_fills: u64,
    sw_fills: u64,
    stall_cycles: u64,
    /// Line address of the most recent L2 miss, for the MLP/row-buffer
    /// discount.
    last_miss_line: Option<u64>,
    /// `log2(l1 line size)`, for same-line run detection.
    l1_shift: u32,
    /// L1 line number of the most recent demand reference (`u64::MAX` =
    /// none yet). Repeats of this line are counted while a batch runs and
    /// settled as one `l1_reuse_mru` call: they are guaranteed L1 hits
    /// (nothing between them can evict the line — prefetch fills touch
    /// only L2), so they cost no stall and never reach L2. The only run
    /// state that outlives a sink call.
    cur_block: u64,
    /// Reusable scratch for prefetcher decisions (avoids a `Vec`
    /// allocation per observed reference).
    fill_buf: Vec<u64>,
}

impl Machine {
    /// Creates a machine for `platform` with the requested prefetchers.
    ///
    /// Requesting prefetching on a platform without hardware prefetch
    /// support (the K7) silently degrades to [`PrefetchSetting::Off`],
    /// mirroring reality.
    pub fn new(platform: Platform, prefetch: PrefetchSetting) -> Machine {
        let effective = if platform.has_hw_prefetch {
            prefetch
        } else {
            PrefetchSetting::Off
        };
        let line = platform.l2.line_size;
        let adjacent =
            (effective != PrefetchSetting::Off).then(|| AdjacentLinePrefetcher::new(line));
        let stride = (effective == PrefetchSetting::Full).then(|| StridePrefetcher::pentium4(line));
        let l1_shift = platform.l1.line_size.trailing_zeros();
        Machine {
            hierarchy: Hierarchy::new(platform.l1, platform.l2),
            platform,
            adjacent,
            stride,
            hw_fills: 0,
            sw_fills: 0,
            stall_cycles: 0,
            last_miss_line: None,
            l1_shift,
            cur_block: u64::MAX,
            fill_buf: Vec::new(),
        }
    }

    /// The platform description.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Counter values accumulated so far.
    ///
    /// Derived from the hierarchy's own statistics — the access path does
    /// not maintain a second set of per-reference counters.
    pub fn counters(&self) -> HwCounters {
        let l1 = self.hierarchy.l1_stats();
        let l2 = self.hierarchy.l2_stats();
        HwCounters {
            l1_refs: l1.accesses,
            l1_misses: l1.misses,
            l2_refs: l2.accesses,
            l2_misses: l2.misses,
            hw_prefetch_fills: self.hw_fills,
            sw_prefetch_fills: self.sw_fills,
            insns: 0,
        }
    }

    /// Memory stall cycles accumulated so far.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Total running time in cycles for a run that retired `insns`
    /// instructions through this machine: one base cycle per instruction
    /// plus the accumulated memory stalls.
    pub fn total_cycles(&self, insns: u64) -> u64 {
        insns + self.stall_cycles
    }
}

impl AccessSink for Machine {
    fn access(&mut self, access: MemAccess) {
        self.access_batch(std::slice::from_ref(&access));
    }

    /// The one access loop, for every [`PrefetchSetting`] and for
    /// [`access`](Self::access) as a one-element batch. Same-line runs
    /// are coalesced: a repeat of the previous demand reference's L1 line
    /// is counted in a local and settled as one `l1_reuse_mru` call when
    /// the run ends or the batch does. `cur_block` deliberately survives
    /// across calls (the MRU L1 line stays resident between them), so
    /// runs that span batch boundaries still coalesce. The prefetchers
    /// observe every demand reference, run tails included, with
    /// `l2_miss = false` for a tail: their stream training and recency
    /// order must see the same traffic a per-reference model would.
    fn access_batch(&mut self, accesses: &[MemAccess]) {
        let prefetching = self.adjacent.is_some() || self.stride.is_some();
        let mut cur_block = self.cur_block;
        let mut pending = 0u64;
        let mut pending_write = false;
        let mut stall = 0u64;
        for a in accesses {
            if a.kind == AccessKind::Prefetch {
                // Software prefetch: install into L2, charge one issue
                // cycle. L2-only, so it does not break the L1 run.
                stall += 1;
                let line = self.platform.l2.line_addr(a.addr);
                self.sw_fills += u64::from(self.hierarchy.prefetch_fill_l2(line));
                continue;
            }
            let block = a.addr >> self.l1_shift;
            let l2_miss = if block == cur_block {
                // Same-line repeat: a guaranteed L1 hit, no stall, no L2
                // reference.
                pending += 1;
                pending_write |= a.kind == AccessKind::Store;
                false
            } else {
                if pending > 0 {
                    self.hierarchy.l1_reuse_mru(pending, pending_write);
                    pending = 0;
                    pending_write = false;
                }
                cur_block = block;
                let level = if a.kind == AccessKind::Store {
                    self.hierarchy.access_write(a.addr)
                } else {
                    self.hierarchy.access(a.addr)
                };
                match level {
                    HitLevel::L1 => {}
                    HitLevel::L2 => stall += self.platform.l2_hit_cycles,
                    HitLevel::Memory => {
                        // Memory-level parallelism / DRAM row-buffer
                        // proxy: a miss near the previous miss overlaps
                        // with it (streaming reads pipeline in hardware);
                        // distant misses — pointer chases — pay the full
                        // serialized latency.
                        let line = self.platform.l2.line_addr(a.addr);
                        let near = self.last_miss_line.is_some_and(|prev| {
                            prev.abs_diff(line) <= 16 * self.platform.l2.line_size
                        });
                        stall += if near {
                            self.platform.memory_cycles / 3
                        } else {
                            self.platform.memory_cycles
                        };
                        self.last_miss_line = Some(line);
                    }
                }
                level == HitLevel::Memory
            };
            // Hardware prefetchers observe demand traffic at line
            // granularity. Neither reads the caches, so their proposals
            // install after both have observed, adjacent's first.
            if prefetching {
                let line = self.platform.l2.line_addr(a.addr);
                if let Some(adj) = &mut self.adjacent {
                    adj.observe_into(a.pc, line, l2_miss, &mut self.fill_buf);
                }
                if let Some(st) = &mut self.stride {
                    st.observe_into(a.pc, line, l2_miss, &mut self.fill_buf);
                }
                for &fill in &self.fill_buf {
                    self.hw_fills += u64::from(self.hierarchy.prefetch_fill_l2(fill));
                }
                self.fill_buf.clear();
            }
        }
        if pending > 0 {
            self.hierarchy.l1_reuse_mru(pending, pending_write);
        }
        self.cur_block = cur_block;
        self.stall_cycles += stall;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umi_ir::Pc;

    fn load(pc: u64, addr: u64) -> MemAccess {
        MemAccess {
            pc: Pc(pc),
            addr,
            width: 8,
            kind: AccessKind::Load,
        }
    }

    #[test]
    fn misses_cost_memory_latency() {
        let mut m = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
        m.access(load(1, 0x1000));
        assert_eq!(m.stall_cycles(), Platform::pentium4().memory_cycles);
        m.access(load(1, 0x1000));
        assert_eq!(
            m.stall_cycles(),
            Platform::pentium4().memory_cycles,
            "L1 hit is free"
        );
        assert_eq!(m.total_cycles(10), 10 + m.stall_cycles());
    }

    #[test]
    fn stride_prefetch_hides_streaming_misses() {
        let mut off = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
        let mut on = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
        // Stream over 4 MB (too big for L2) with 64-byte stride.
        for i in 0..65536u64 {
            let a = 0x100_0000 + i * 64;
            off.access(load(1, a));
            on.access(load(1, a));
        }
        // Miss-triggered issue with distance 2 covers two of every three
        // lines: a ~67% reduction, close to the paper's measured 69% for
        // the hardware prefetcher.
        assert!(
            on.counters().l2_misses * 2 < off.counters().l2_misses,
            "prefetch on: {} misses, off: {}",
            on.counters().l2_misses,
            off.counters().l2_misses
        );
        assert!(on.stall_cycles() < off.stall_cycles());
        assert!(on.counters().hw_prefetch_fills > 0);
    }

    #[test]
    fn adjacent_only_halves_sequential_byte_misses() {
        let mut off = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
        let mut adj = Machine::new(Platform::pentium4(), PrefetchSetting::AdjacentOnly);
        for i in 0..32768u64 {
            let a = 0x200_0000 + i * 64;
            off.access(load(1, a));
            adj.access(load(1, a));
        }
        let r = adj.counters().l2_misses as f64 / off.counters().l2_misses as f64;
        assert!(
            r < 0.6,
            "adjacent-line should roughly halve misses, got {r}"
        );
    }

    #[test]
    fn k7_never_prefetches() {
        let mut m = Machine::new(Platform::k7(), PrefetchSetting::Full);
        for i in 0..4096u64 {
            m.access(load(1, 0x100_0000 + i * 64));
        }
        assert_eq!(m.counters().hw_prefetch_fills, 0);
    }

    #[test]
    fn software_prefetch_counts_separately_and_fills_l2() {
        let mut m = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
        m.access(MemAccess {
            pc: Pc(1),
            addr: 0x3000,
            width: 64,
            kind: AccessKind::Prefetch,
        });
        assert_eq!(m.counters().sw_prefetch_fills, 1);
        assert_eq!(m.counters().l1_refs, 0, "prefetch is not demand traffic");
        m.access(load(2, 0x3000));
        assert_eq!(
            m.counters().l2_misses,
            0,
            "demand load hits the prefetched line in L2"
        );
    }
}
