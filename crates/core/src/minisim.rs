//! The profile analyzer: a fast cache mini-simulator (paper §5).

use crate::profiles::AddressProfile;
use umi_cache::{CacheConfig, CacheStats, PerPcStats, SetAssocCache};
use umi_dbi::TraceId;
use umi_ir::Pc;

/// Per-operation results of one analyzer invocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpAnalysis {
    /// The instrumented instruction.
    pub pc: Pc,
    /// References simulated for it this invocation (post-warm-up).
    pub accesses: u64,
    /// Of those, how many missed.
    pub misses: u64,
    /// Whether the instruction performs loads (vs stores only).
    pub is_load: bool,
}

impl OpAnalysis {
    /// Miss ratio of this invocation in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Per-trace results of one analyzer invocation.
#[derive(Clone, Debug)]
pub struct TraceAnalysis {
    /// The trace whose profile was analyzed.
    pub trace: TraceId,
    /// Per-operation outcomes.
    pub ops: Vec<OpAnalysis>,
}

/// Results of one analyzer invocation across all drained profiles.
#[derive(Clone, Debug, Default)]
pub struct AnalysisResult {
    /// Per-trace outcomes.
    pub per_trace: Vec<TraceAnalysis>,
    /// References simulated (including warm-up rows).
    pub refs_simulated: u64,
    /// Whether the logical cache was flushed before this invocation.
    pub flushed: bool,
}

/// The fast cache simulator invoked on drained profiles.
///
/// Faithful to §5 of the paper:
/// * configured to match the host's secondary cache (sets, line size,
///   associativity), LRU replacement;
/// * miss accounting only starts after the first `warmup_rows` executions
///   of each profile (cache warming, "akin to functional warming in
///   offline cache simulations");
/// * a *single logical cache* analyses all profiles — state carries over
///   from one profile (and one invocation) to the next;
/// * the state is flushed when more than `flush_after` cycles elapsed
///   since the previous invocation ("to avoid long term contamination").
#[derive(Clone, Debug)]
pub struct MiniSimulator {
    /// The logical cache (typically duty-scaled from the host's L2 by
    /// `UmiConfig::sim_capacity_divisor`: sparse sampling starves a
    /// host-sized cache of capacity pressure).
    cache: SetAssocCache,
    /// Small L1-shaped cache used only to decide which references count
    /// toward the reported (L2-style) miss ratio.
    l1_filter: SetAssocCache,
    /// Lines ever touched (since the last flush). When compulsory
    /// exclusion is on, a line's first touch is simulated but not counted:
    /// with only a small fraction of references profiled, first touches
    /// are overwhelmingly sampling artifacts, "the high number of
    /// compulsory misses ... that would otherwise arise" (§5).
    /// Inserted on logical-cache misses only: a line can hit only after
    /// the miss that filled it, and a flush clears the cache and this set
    /// together, so a hit line is always already here.
    seen_lines: umi_ir::fastmap::U64Set,
    exclude_compulsory: bool,
    warmup_rows: usize,
    flush_after: Option<u64>,
    last_run: Option<u64>,
    cumulative: PerPcStats,
    overall: CacheStats,
    invocations: u64,
    flushes: u64,
}

impl MiniSimulator {
    /// Creates a mini-simulator with the given cache geometry, warm-up and
    /// flush policy.
    pub fn new(cache: CacheConfig, warmup_rows: usize, flush_after: Option<u64>) -> MiniSimulator {
        MiniSimulator::with_l1_filter(cache, CacheConfig::pentium4_l1d(), warmup_rows, flush_after)
    }

    /// Creates a mini-simulator with an explicit accounting-filter
    /// geometry (the host's L1; see [`UmiConfig::sim_l1_filter`]).
    ///
    /// [`UmiConfig::sim_l1_filter`]: crate::UmiConfig::sim_l1_filter
    pub fn with_l1_filter(
        cache: CacheConfig,
        l1_filter: CacheConfig,
        warmup_rows: usize,
        flush_after: Option<u64>,
    ) -> MiniSimulator {
        MiniSimulator {
            cache: SetAssocCache::new(cache),
            l1_filter: SetAssocCache::new(l1_filter),
            seen_lines: umi_ir::fastmap::U64Set::new(),
            exclude_compulsory: true,
            warmup_rows,
            flush_after,
            last_run: None,
            cumulative: PerPcStats::new(),
            overall: CacheStats::default(),
            invocations: 0,
            flushes: 0,
        }
    }

    /// Enables or disables compulsory-miss exclusion (on by default; the
    /// `ablations` bench measures the difference).
    ///
    /// Set it before the first [`analyze`](Self::analyze): `seen_lines`
    /// records only the misses simulated while exclusion is on, so
    /// turning it on mid-run would count a resident line's next hit as
    /// a first touch. Debug builds assert this.
    pub fn set_exclude_compulsory(&mut self, on: bool) {
        debug_assert!(
            self.invocations == 0 || on == self.exclude_compulsory,
            "exclude_compulsory changed after the first analyze"
        );
        self.exclude_compulsory = on;
    }

    /// Analyzer invocations so far.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Cache flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Cumulative per-instruction statistics over all invocations.
    pub fn per_pc(&self) -> &PerPcStats {
        &self.cumulative
    }

    /// Cumulative post-warm-up hit/miss statistics — the UMI-simulated
    /// miss ratio `s_i` used in the correlation study (Table 4).
    pub fn overall(&self) -> CacheStats {
        self.overall
    }

    /// The simulated miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        self.overall.miss_ratio()
    }

    /// Runs one analyzer invocation over the drained profiles.
    ///
    /// `now_cycles` is the current virtual time, used for the flush
    /// policy. `is_load` classifies instrumented instructions (stores are
    /// simulated and counted in the overall ratio but are not delinquency
    /// candidates).
    pub fn analyze<F>(
        &mut self,
        profiles: &[(TraceId, AddressProfile)],
        now_cycles: u64,
        mut is_load: F,
    ) -> AnalysisResult
    where
        F: FnMut(Pc) -> bool,
    {
        let flushed = match (self.flush_after, self.last_run) {
            (Some(limit), Some(last)) if now_cycles.saturating_sub(last) > limit => {
                self.cache.flush();
                self.l1_filter.flush();
                self.seen_lines.clear();
                self.flushes += 1;
                true
            }
            _ => false,
        };
        self.last_run = Some(now_cycles);
        self.invocations += 1;

        let mut result = AnalysisResult {
            flushed,
            ..Default::default()
        };
        // Run coalescing: a reference to the very lines the previous
        // reference touched is a guaranteed hit in both the logical cache
        // and the L1 accounting filter (nothing intervened to evict them,
        // and restamping an already-MRU line before the set is touched
        // again leaves every LRU comparison unchanged), so the accounting
        // below drops it via `l1_hit`, and a hit inserts nothing into
        // `seen_lines`. Such tails — ubiquitous in strided profiles, where an op
        // walks a cache line across consecutive rows — skip all three
        // structure probes. State carries across rows and profiles, so
        // the memo does too.
        let cache_shift = self.cache.line_shift();
        let filter_shift = self.l1_filter.line_shift();
        let mut prev_block = u64::MAX;
        let mut prev_fblock = u64::MAX;
        for (tid, profile) in profiles {
            // Invocation-local per-op accounting, indexed by column.
            let mut acc = vec![(0u64, 0u64); profile.ops.len()];
            for (row_idx, row) in profile.rows().enumerate() {
                let counting = row_idx >= self.warmup_rows;
                for r in row {
                    result.refs_simulated += 1;
                    let block = r.addr >> cache_shift;
                    let fblock = r.addr >> filter_shift;
                    if block == prev_block && fblock == prev_fblock {
                        continue;
                    }
                    prev_block = block;
                    prev_fblock = fblock;
                    let hit = self.cache.access(r.addr).hit;
                    let l1_hit = self.l1_filter.access(r.addr).hit;
                    let first_touch = self.exclude_compulsory
                        && !hit
                        && self
                            .seen_lines
                            .insert(self.cache.config().line_addr(r.addr));
                    // Accounting counts only references past the warm-up
                    // rows that would miss a host-L1-shaped cache, making
                    // the statistics L2-style quantities commensurable
                    // with the hardware counters and Cachegrind's L2 rows.
                    // Sampling-induced first touches are the compulsory
                    // tuning (§5): the *overall* correlation ratio drops
                    // them entirely (reuse behaviour is what tracks the
                    // hardware); per-operation delinquency counts them, as
                    // the paper's analyzer does — the adaptive threshold
                    // is the false-positive control (§7.1).
                    if !counting || l1_hit {
                        continue;
                    }
                    if !first_touch {
                        self.overall.accesses += 1;
                        self.overall.misses += (!hit) as u64;
                    }
                    let miss = !hit;
                    let pc = profile.ops[r.op as usize];
                    if r.is_store {
                        self.cumulative.record_store(pc, miss);
                    } else {
                        self.cumulative.record_load(pc, miss);
                    }
                    let slot = &mut acc[r.op as usize];
                    slot.0 += 1;
                    slot.1 += miss as u64;
                }
            }
            let ops = profile
                .ops
                .iter()
                .zip(&acc)
                .filter(|(_, (a, _))| *a > 0)
                .map(|(pc, (a, m))| OpAnalysis {
                    pc: *pc,
                    accesses: *a,
                    misses: *m,
                    is_load: is_load(*pc),
                })
                .collect();
            result.per_trace.push(TraceAnalysis { trace: *tid, ops });
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ProfileStore;
    use umi_cache::CacheConfig;

    /// Mechanics-testing simulator: compulsory exclusion off so the raw
    /// warm-up/flush/carry behaviour is visible.
    fn sim() -> MiniSimulator {
        let mut s = MiniSimulator::new(CacheConfig::pentium4_l2(), 2, Some(1_000_000));
        s.set_exclude_compulsory(false);
        s
    }

    /// Builds a profile whose single op streams over fresh lines (always
    /// misses) across `rows` executions.
    fn streaming_profile(rows: usize) -> (TraceId, AddressProfile) {
        let mut store = ProfileStore::new(1 << 20, rows.max(1));
        let t = TraceId(0);
        store.register(t, vec![Pc(0x100)]);
        for i in 0..rows {
            store.begin_row(t);
            store.record(t, 0, 0x100_0000 + i as u64 * 64, false);
        }
        store.drain().pop().expect("one profile")
    }

    #[test]
    fn warmup_rows_are_simulated_but_not_counted() {
        let mut s = sim();
        let prof = streaming_profile(10);
        let r = s.analyze(&[prof], 0, |_| true);
        assert_eq!(r.refs_simulated, 10);
        assert_eq!(s.overall().accesses, 8, "two warm-up rows excluded");
        let op = &r.per_trace[0].ops[0];
        assert_eq!(op.accesses, 8);
        assert_eq!(op.misses, 8, "streaming misses every time");
        assert_eq!(op.miss_ratio(), 1.0);
    }

    #[test]
    fn warmup_actually_warms_the_cache() {
        let mut s = sim();
        // One op that re-references the same line every execution: the
        // compulsory miss lands in the warm-up rows, and subsequent
        // references are L1-resident, so no miss is ever counted.
        let mut store = ProfileStore::new(1 << 20, 16);
        let t = TraceId(0);
        store.register(t, vec![Pc(0x100)]);
        for _ in 0..10 {
            store.begin_row(t);
            store.record(t, 0, 0x5000, false);
        }
        let prof = store.drain().pop().expect("profile");
        let r = s.analyze(&[prof], 0, |_| true);
        let counted_misses: u64 = r.per_trace[0].ops.iter().map(|o| o.misses).sum();
        assert_eq!(counted_misses, 0, "compulsory miss leaked past warm-up");
    }

    #[test]
    fn cache_state_carries_across_invocations() {
        // A one-line accounting filter so alternating lines always count.
        let mut s = MiniSimulator::with_l1_filter(
            CacheConfig::pentium4_l2(),
            CacheConfig::new(1, 1, 64),
            0,
            None,
        );
        s.set_exclude_compulsory(false);
        let mk = || {
            let mut store = ProfileStore::new(1 << 20, 4);
            let t = TraceId(0);
            store.register(t, vec![Pc(0x100)]);
            store.begin_row(t);
            store.record(t, 0, 0x9000, false);
            store.begin_row(t);
            store.record(t, 0, 0xa000, false);
            store.drain().pop().expect("profile")
        };
        let r1 = s.analyze(&[mk()], 0, |_| true);
        assert_eq!(r1.per_trace[0].ops[0].misses, 2, "cold logical cache");
        // Same lines in the next invocation: hits because state persisted.
        let r2 = s.analyze(&[mk()], 100, |_| true);
        assert_eq!(r2.per_trace[0].ops[0].misses, 0, "state did not persist");
        assert_eq!(s.invocations(), 2);
    }

    #[test]
    fn flush_after_long_gap() {
        let mut s = MiniSimulator::new(CacheConfig::pentium4_l2(), 0, Some(1_000_000));
        s.set_exclude_compulsory(false);
        let mk = |addr: u64| {
            let mut store = ProfileStore::new(1 << 20, 4);
            let t = TraceId(0);
            store.register(t, vec![Pc(0x100)]);
            store.begin_row(t);
            store.record(t, 0, addr, false);
            store.drain().pop().expect("profile")
        };
        s.analyze(&[mk(0x9000)], 0, |_| true);
        // >1M cycles later: the cache must be flushed first.
        let r = s.analyze(&[mk(0x9000)], 2_000_000, |_| true);
        assert!(r.flushed);
        assert_eq!(
            r.per_trace[0].ops[0].misses, 1,
            "state was contaminated-free"
        );
        assert_eq!(s.flushes(), 1);
    }

    #[test]
    fn compulsory_exclusion_counts_only_reuse() {
        // Default simulator: first touches uncounted; the second pass over
        // the same two lines is counted and hits.
        let mut s = MiniSimulator::new(CacheConfig::pentium4_l2(), 0, None);
        // 256 lines (16 KB): reuse misses the 8 KB L1 filter but stays
        // resident in the 512 KB logical cache.
        let mut store = ProfileStore::new(1 << 20, 2048);
        let t = TraceId(0);
        store.register(t, vec![Pc(0x100)]);
        for _pass in 0..2 {
            for line in 0..256u64 {
                store.begin_row(t);
                store.record(t, 0, 0x4_0000 + line * 64, false);
            }
        }
        let prof = store.drain().pop().expect("profile");
        s.analyze(&[prof], 0, |_| true);
        assert_eq!(s.overall().accesses, 256, "only the reuse touches count");
        assert_eq!(s.overall().misses, 0, "reuse of resident lines hits");
    }

    #[test]
    fn a_line_retouched_after_a_flush_is_a_first_touch_again() {
        // Compulsory exclusion on (the default), a one-line accounting
        // filter so every reference past the filter counts.
        let mut s = MiniSimulator::with_l1_filter(
            CacheConfig::pentium4_l2(),
            CacheConfig::new(1, 1, 64),
            0,
            Some(1_000),
        );
        let mk = |addrs: &[u64]| {
            let mut store = ProfileStore::new(1 << 20, 16);
            let t = TraceId(0);
            store.register(t, vec![Pc(0x100)]);
            for &a in addrs {
                store.begin_row(t);
                store.record(t, 0, a, false);
            }
            store.drain().pop().expect("profile")
        };
        // First touches of two lines, then a reuse of the first: only
        // the reuse counts, and it hits.
        s.analyze(&[mk(&[0x9000, 0xa000, 0x9000])], 0, |_| true);
        assert_eq!(s.overall().accesses, 1);
        assert_eq!(s.overall().misses, 0);
        // Within the flush window the line is still known: counted, hit.
        s.analyze(&[mk(&[0xa000])], 10, |_| true);
        assert_eq!(s.overall().accesses, 2);
        // After the flush the same line is a first touch again — missed
        // and uncounted — and its reuse counts as a hit.
        let r = s.analyze(&[mk(&[0x9000, 0xa000, 0x9000])], 5_000, |_| true);
        assert!(r.flushed);
        assert_eq!(s.overall().accesses, 3, "re-touched lines counted as reuse");
        assert_eq!(s.overall().misses, 0);
        assert_eq!(
            r.per_trace[0].ops[0].misses, 2,
            "both lines missed after the flush"
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exclude_compulsory changed")]
    fn exclusion_cannot_change_after_the_first_analyze() {
        let mut s = MiniSimulator::new(CacheConfig::pentium4_l2(), 0, None);
        s.analyze(&[streaming_profile(1)], 0, |_| true);
        s.set_exclude_compulsory(false);
    }

    #[test]
    fn no_flush_when_disabled() {
        let mut s = MiniSimulator::new(CacheConfig::pentium4_l2(), 0, None);
        s.set_exclude_compulsory(false);
        let prof = streaming_profile(1);
        s.analyze(std::slice::from_ref(&prof), 0, |_| true);
        let r = s.analyze(&[prof], u64::MAX, |_| true);
        assert!(!r.flushed);
    }

    #[test]
    fn store_refs_count_toward_overall_not_load_stats() {
        let mut s = MiniSimulator::new(CacheConfig::pentium4_l2(), 0, None);
        s.set_exclude_compulsory(false);
        let mut store = ProfileStore::new(1 << 20, 4);
        let t = TraceId(0);
        store.register(t, vec![Pc(0x100)]);
        store.begin_row(t);
        store.record(t, 0, 0x7000, true);
        let prof = store.drain().pop().expect("profile");
        s.analyze(&[prof], 0, |_| false);
        assert_eq!(s.overall().accesses, 1);
        assert_eq!(s.per_pc().get(Pc(0x100)).store_misses, 1);
        assert_eq!(s.per_pc().get(Pc(0x100)).load_accesses, 0);
    }
}
