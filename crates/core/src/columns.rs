//! Stride discovery and pattern votes over an analyzer invocation's
//! drained profiles (paper §8).
//!
//! The analyzer reads columns — one operation's addresses across a
//! profile's rows — for every predicted load (its stride feeds the
//! prefetcher) and, when pattern classification is on, for every
//! profiled operation. [`ColumnScan`] walks each drained profile once to
//! gather all of them into buffers it keeps across invocations, then
//! takes one delta vote per column and reads every threshold from it.

use crate::patterns::{
    classify_voted, PatternTally, RefPattern, DEFAULT_LOCAL_FOOTPRINT, STRIDED_MIN_CONFIDENCE,
    STRIDED_MIN_SAMPLES,
};
use crate::profiles::AddressProfile;
use crate::stride::{StrideInfo, StrideVote};
use std::collections::{HashMap, HashSet};
use umi_dbi::TraceId;
use umi_ir::Pc;

/// Fewest deltas a predicted load's column needs for a stride.
const PREFETCH_MIN_SAMPLES: usize = 4;
/// Share of its column's deltas a predicted load's stride must hold.
const PREFETCH_MIN_CONFIDENCE: f64 = 0.5;

/// The column buffers of one UMI run. They grow to the widest
/// profile and the longest column seen and are reused, so a
/// steady-state invocation allocates nothing here.
#[derive(Debug, Default)]
pub(crate) struct ColumnScan {
    /// `columns[op]`: column `op` of the profile being scanned (filled
    /// only where `needed[op]`).
    columns: Vec<Vec<u64>>,
    /// `predicted[op]`: whether column `op`'s operation is a predicted
    /// load.
    predicted: Vec<bool>,
    /// Runs [`per_column`] instead, the path this scan replaced.
    #[cfg(test)]
    pub(crate) oracle: bool,
}

impl ColumnScan {
    /// Records the stride of every predicted load in `drained` into
    /// `strides` and, when `classify` is set, one pattern vote per column
    /// of every profiled operation into `patterns`. Profiles are visited
    /// in order and columns in column order, so a later column of the
    /// same pc overwrites an earlier stride.
    pub(crate) fn run(
        &mut self,
        drained: &[(TraceId, AddressProfile)],
        predicted: &HashSet<Pc>,
        classify: bool,
        strides: &mut HashMap<Pc, StrideInfo>,
        patterns: &mut HashMap<Pc, PatternTally>,
    ) {
        #[cfg(test)]
        if self.oracle {
            return per_column(drained, predicted, classify, strides, patterns);
        }
        for (_, profile) in drained {
            let ops = &profile.ops;
            self.predicted.clear();
            self.predicted
                .extend(ops.iter().map(|pc| predicted.contains(pc)));
            if !classify && !self.predicted.contains(&true) {
                continue;
            }
            if self.columns.len() < ops.len() {
                self.columns.resize_with(ops.len(), Vec::new);
            }
            let columns = &mut self.columns[..ops.len()];
            columns.iter_mut().for_each(Vec::clear);
            for r in profile.refs() {
                let op = r.op as usize;
                if classify || self.predicted[op] {
                    columns[op].push(r.addr);
                }
            }
            for ((pc, column), &is_predicted) in ops.iter().zip(&*columns).zip(&self.predicted) {
                if !classify && !is_predicted {
                    continue;
                }
                let vote = StrideVote::majority(column);
                if is_predicted {
                    if let Some(s) = vote.stride(PREFETCH_MIN_SAMPLES, PREFETCH_MIN_CONFIDENCE) {
                        strides.insert(*pc, s);
                    }
                }
                if classify {
                    if let Some(p) = classify_voted(column, &vote, DEFAULT_LOCAL_FOOTPRINT) {
                        let stride = (p == RefPattern::Strided)
                            .then(|| vote.stride(STRIDED_MIN_SAMPLES, STRIDED_MIN_CONFIDENCE))
                            .flatten()
                            .map(|s| s.stride);
                        patterns.entry(*pc).or_default().record(p, stride);
                    }
                }
            }
        }
    }
}

/// The analyzer's column step before [`ColumnScan`]: one
/// [`AddressProfile::column`] rescan per needed column, and separate
/// counting votes for the prefetch stride, the pattern and the pattern's
/// stride. Kept as the differential tests' oracle.
#[cfg(test)]
fn per_column(
    drained: &[(TraceId, AddressProfile)],
    predicted: &HashSet<Pc>,
    classify: bool,
    strides: &mut HashMap<Pc, StrideInfo>,
    patterns: &mut HashMap<Pc, PatternTally>,
) {
    use crate::patterns::classify_counting;
    use crate::stride::detect_stride_counting;
    for (_, profile) in drained {
        for (col, pc) in profile.ops.iter().enumerate() {
            let is_predicted = predicted.contains(pc);
            if !is_predicted && !classify {
                continue;
            }
            let column = profile.column(col as u16);
            if is_predicted {
                if let Some(s) = detect_stride_counting(&column, 4, 0.5) {
                    strides.insert(*pc, s);
                }
            }
            if classify {
                if let Some(p) = classify_counting(&column, 512 << 10) {
                    let stride = if p == RefPattern::Strided {
                        detect_stride_counting(&column, 3, 0.6).map(|s| s.stride)
                    } else {
                        None
                    };
                    patterns.entry(*pc).or_default().record(p, stride);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delinquency::DelinquencyTracker;
    use crate::minisim::MiniSimulator;
    use crate::profiles::ProfileStore;
    use crate::stride::{detect_stride, detect_stride_counting};
    use umi_cache::CacheConfig;
    use umi_testkit::{check, Xoshiro256pp};

    /// How one random column moves from row to row.
    #[derive(Clone, Copy)]
    enum Shape {
        Strided(i64),
        Alternating(u64),
        Constant,
        Irregular(u64),
    }

    fn shape(rng: &mut Xoshiro256pp) -> Shape {
        match rng.below(4) {
            0 => Shape::Strided([8, 64, -64, 4096, -8, 1][rng.below(6) as usize]),
            1 => Shape::Alternating([64, 8, 4096][rng.below(3) as usize]),
            2 => Shape::Constant,
            _ => Shape::Irregular([64 << 10, 64 << 20][rng.below(2) as usize]),
        }
    }

    /// Address of a column of shape `s` based at `base` in `row`, with an
    /// occasional outlier so votes are not always unanimous.
    fn addr(rng: &mut Xoshiro256pp, s: Shape, base: u64, row: u64) -> u64 {
        if rng.below(16) == 0 {
            return base + rng.below(1 << 16) * 8;
        }
        match s {
            Shape::Strided(d) => base.wrapping_add((row as i64 * d) as u64),
            Shape::Alternating(d) => base + (row % 2) * d,
            Shape::Constant => base,
            Shape::Irregular(span) => base + rng.below(span),
        }
    }

    /// One drain of 1–3 random traces of 1–16 ops each. Pcs come from a
    /// small pool so a pc can own columns in several traces, some rows
    /// skip some ops, and some ops are stores.
    fn random_drain(rng: &mut Xoshiro256pp, max_rows: usize) -> Vec<(TraceId, AddressProfile)> {
        let mut store = ProfileStore::new(1 << 20, max_rows);
        let traces = rng.range_u64(1, 3) as u32;
        for t in 0..traces {
            let tid = TraceId(t * 2);
            let ops = rng.range_u64(1, 16) as usize;
            let pcs: Vec<Pc> = (0..ops)
                .map(|_| Pc(0x40_0000 + 4 * rng.below(24)))
                .collect();
            let cols: Vec<(Shape, u64, bool, u64)> = (0..ops)
                .map(|_| {
                    let s = shape(rng);
                    let base = 0x100_0000 + rng.below(1 << 20) * 64;
                    (s, base, rng.below(5) == 0, rng.below(4))
                })
                .collect();
            store.register(tid, pcs);
            let rows = rng.range_u64(1, max_rows as u64);
            for row in 0..rows {
                store.begin_row(tid);
                for (op, &(s, base, is_store, skip)) in cols.iter().enumerate() {
                    // `skip` of 3 drops every other row of that op.
                    if skip == 3 && row % 2 == 1 {
                        continue;
                    }
                    let a = addr(rng, s, base, row);
                    store.record(tid, op as u16, a, is_store);
                }
            }
        }
        store.drain()
    }

    /// Drives several random invocations through a mini-simulator (with
    /// random warm-up rows) and the delinquency tracker, plus a random
    /// extra predicted set, and holds the one-walk scan to the
    /// per-column oracle on every invocation, both with and without
    /// pattern classification.
    fn scan_matches_oracle(rng: &mut Xoshiro256pp) {
        let max_rows = rng.range_u64(2, 64) as usize;
        let warmup = rng.below(max_rows as u64) as usize;
        let mut sim = MiniSimulator::new(CacheConfig::pentium4_l2(), warmup, Some(1 << 20));
        let mut tracker = DelinquencyTracker::new(0.9, 0.1, 0.1, true);
        let mut scans = [ColumnScan::default(), ColumnScan::default()];
        scans[1].oracle = true;
        for classify in [false, true] {
            let mut maps: [(HashMap<Pc, StrideInfo>, HashMap<Pc, PatternTally>); 2] =
                Default::default();
            for invocation in 0..rng.range_u64(1, 4) {
                let drained = random_drain(rng, max_rows);
                let result = sim.analyze(&drained, invocation * 1000, |_| true);
                tracker.decay(drained[0].0);
                tracker.label(&result);
                let mut predicted = tracker.predicted().clone();
                for (_, p) in &drained {
                    predicted.extend(p.ops.iter().filter(|_| rng.below(3) == 0));
                }
                for (scan, (strides, patterns)) in scans.iter_mut().zip(&mut maps) {
                    scan.run(&drained, &predicted, classify, strides, patterns);
                }
                assert_eq!(
                    maps[0], maps[1],
                    "classify={classify} invocation {invocation}"
                );
            }
        }
    }

    #[test]
    fn one_walk_scan_matches_per_column_oracle_on_random_profiles() {
        check(
            "one-walk column scan vs per-column oracle",
            256,
            scan_matches_oracle,
        );
    }

    /// Seeded replay: a failing case of the property above names its
    /// seed; this runs one seed on its own, as a failure would be
    /// replayed.
    #[test]
    fn one_walk_scan_replays_a_seed() {
        scan_matches_oracle(&mut Xoshiro256pp::seed_from_u64(0x5eed_0021));
    }

    #[test]
    fn delta_vote_matches_counting_vote_on_random_columns() {
        check("delta vote vs counting vote", 1024, |rng| {
            let base = 0x100_0000 + rng.below(1 << 20) * 64;
            let len = rng.below(80);
            let column: Vec<u64> = if rng.below(2) == 0 {
                let s = shape(rng);
                (0..len).map(|row| addr(rng, s, base, row)).collect()
            } else {
                // Deltas from a small alphabet, zero included: counts near
                // one half and exact ties, the majority vote's edge cases.
                let alphabet = [64i64, -64, 8, 0, -8, 4096];
                let k = rng.range_u64(1, alphabet.len() as u64);
                let mut a = base;
                (0..len)
                    .map(|_| {
                        a = a.wrapping_add(alphabet[rng.below(k) as usize] as u64);
                        a
                    })
                    .collect()
            };
            for (samples, confidence) in [(4, 0.5), (3, 0.6), (0, 0.0), (2, 0.25), (1, 1.0)] {
                assert_eq!(
                    detect_stride(&column, samples, confidence),
                    detect_stride_counting(&column, samples, confidence)
                );
            }
            assert_eq!(
                crate::patterns::classify_default(&column),
                crate::patterns::classify_counting(&column, DEFAULT_LOCAL_FOOTPRINT)
            );
        });
    }
}
