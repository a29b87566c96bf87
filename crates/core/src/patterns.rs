//! Reference-pattern classification and working-set estimation.
//!
//! Beyond delinquency, the paper motivates UMI with "locality enhancing
//! optimizations [that] can significantly benefit from accurate
//! measurements of the working sets size and characterization of their
//! predominant reference patterns" (§1). These analyses run over the same
//! address-profile columns the delinquency analysis uses.

use crate::profiles::AddressProfile;
use crate::stride::detect_stride;
use std::collections::{BTreeMap, HashSet};

/// The predominant reference pattern of one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefPattern {
    /// Repeatedly references the same address (e.g. a spilled scalar).
    Constant,
    /// A dominant non-zero stride — amenable to stride prefetching.
    Strided,
    /// Irregular but confined to a small footprint (hash/table lookups).
    IrregularLocal,
    /// Irregular over a large footprint (pointer chasing, large hashes) —
    /// the delinquent-but-unprefetchable class.
    IrregularWide,
}

/// Classifies one address-profile column.
///
/// `local_footprint` is the span (bytes) under which irregular streams
/// still count as local; the default used by [`classify_default`] is the
/// host L2 capacity.
pub fn classify(column: &[u64], local_footprint: u64) -> Option<RefPattern> {
    if column.len() < 4 {
        return None;
    }
    if column.windows(2).all(|w| w[0] == w[1]) {
        return Some(RefPattern::Constant);
    }
    if detect_stride(column, 3, 0.6).is_some() {
        return Some(RefPattern::Strided);
    }
    let lo = *column.iter().min().expect("non-empty");
    let hi = *column.iter().max().expect("non-empty");
    if hi - lo <= local_footprint {
        Some(RefPattern::IrregularLocal)
    } else {
        Some(RefPattern::IrregularWide)
    }
}

/// [`classify`] with the Pentium 4 L2 capacity as the locality bound.
pub fn classify_default(column: &[u64]) -> Option<RefPattern> {
    classify(column, 512 << 10)
}

/// Accumulated dynamic classification of one profiled instruction across
/// analyzer invocations: one vote per drained address-profile column the
/// instruction appeared in. Filled by the runtime when
/// [`UmiConfig::classify_patterns`](crate::UmiConfig::classify_patterns)
/// is set; consumed by the `umi_lint` static report, which compares the
/// dominant dynamic pattern against the static affine classifier.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PatternTally {
    /// Columns classified [`RefPattern::Constant`].
    pub constant: u32,
    /// Columns classified [`RefPattern::Strided`].
    pub strided: u32,
    /// Columns classified [`RefPattern::IrregularLocal`].
    pub irregular_local: u32,
    /// Columns classified [`RefPattern::IrregularWide`].
    pub irregular_wide: u32,
    /// Votes per detected stride value (bytes), for strided columns. A
    /// `BTreeMap` so iteration order — and everything derived from it —
    /// is deterministic.
    pub stride_votes: BTreeMap<i64, u32>,
}

impl PatternTally {
    /// Adds one column's verdict (and its detected stride, when strided).
    pub fn record(&mut self, pattern: RefPattern, stride: Option<i64>) {
        match pattern {
            RefPattern::Constant => self.constant += 1,
            RefPattern::Strided => self.strided += 1,
            RefPattern::IrregularLocal => self.irregular_local += 1,
            RefPattern::IrregularWide => self.irregular_wide += 1,
        }
        if let Some(s) = stride {
            *self.stride_votes.entry(s).or_insert(0) += 1;
        }
    }

    /// Total classified columns.
    pub fn total(&self) -> u32 {
        self.constant + self.strided + self.irregular_local + self.irregular_wide
    }

    /// The pattern with the most votes; ties break toward the more
    /// regular pattern (Constant > Strided > IrregularLocal >
    /// IrregularWide), so the result is deterministic.
    pub fn dominant(&self) -> Option<RefPattern> {
        let ranked = [
            (self.constant, RefPattern::Constant),
            (self.strided, RefPattern::Strided),
            (self.irregular_local, RefPattern::IrregularLocal),
            (self.irregular_wide, RefPattern::IrregularWide),
        ];
        let best = ranked.iter().map(|(n, _)| *n).max().unwrap_or(0);
        if best == 0 {
            return None;
        }
        ranked.iter().find(|(n, _)| *n == best).map(|(_, p)| *p)
    }

    /// The stride value with the most votes; ties break toward the
    /// smaller magnitude, then the smaller value.
    pub fn dominant_stride(&self) -> Option<i64> {
        self.stride_votes
            .iter()
            .max_by(|(sa, na), (sb, nb)| na.cmp(nb).then(sb.abs().cmp(&sa.abs())).then(sb.cmp(sa)))
            .map(|(s, _)| *s)
    }
}

/// An estimate of a profile's working set: distinct cache lines touched,
/// in lines and bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkingSet {
    /// Distinct 64-byte lines referenced.
    pub lines: usize,
    /// `lines * 64`.
    pub bytes: u64,
    /// Total references observed.
    pub refs: u64,
}

impl WorkingSet {
    /// References per distinct line — a crude reuse indicator (1.0 means
    /// pure streaming; large values mean a hot resident set).
    pub fn reuse_factor(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.refs as f64 / self.lines as f64
        }
    }
}

/// Estimates the working set of a batch of profiles at line granularity.
///
/// This measures the *sampled* working set; with bursty sampling it is a
/// lower bound on the program's, but ratios between code regions are
/// meaningful (the quantity locality optimizations need).
pub fn working_set<'a, I>(profiles: I) -> WorkingSet
where
    I: IntoIterator<Item = &'a AddressProfile>,
{
    let mut lines = HashSet::new();
    let mut refs = 0u64;
    for p in profiles {
        for row in p.rows() {
            for r in row {
                lines.insert(r.addr / 64);
                refs += 1;
            }
        }
    }
    WorkingSet {
        lines: lines.len(),
        bytes: lines.len() as u64 * 64,
        refs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::ProfileStore;
    use umi_dbi::TraceId;
    use umi_ir::Pc;

    #[test]
    fn classifies_constant() {
        let col = vec![0x1000u64; 8];
        assert_eq!(classify_default(&col), Some(RefPattern::Constant));
    }

    #[test]
    fn classifies_strided() {
        let col: Vec<u64> = (0..16).map(|i| 0x1000 + i * 8).collect();
        assert_eq!(classify_default(&col), Some(RefPattern::Strided));
    }

    #[test]
    fn classifies_irregular_by_footprint() {
        // xorshift addresses inside 64 KB vs spread over 64 MB.
        let mut x = 0x1234_5678u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let local: Vec<u64> = (0..32).map(|_| 0x10_0000 + step() % (64 << 10)).collect();
        let wide: Vec<u64> = (0..32).map(|_| 0x10_0000 + step() % (64 << 20)).collect();
        assert_eq!(classify_default(&local), Some(RefPattern::IrregularLocal));
        assert_eq!(classify_default(&wide), Some(RefPattern::IrregularWide));
    }

    #[test]
    fn short_columns_are_unclassified() {
        assert_eq!(classify_default(&[1, 2, 3]), None);
        assert_eq!(classify_default(&[]), None);
    }

    #[test]
    fn tally_dominant_prefers_regular_on_ties() {
        let mut t = PatternTally::default();
        assert_eq!(t.dominant(), None);
        t.record(RefPattern::Strided, Some(8));
        t.record(RefPattern::IrregularWide, None);
        // 1–1 tie: the more regular (prefetchable) pattern wins.
        assert_eq!(t.dominant(), Some(RefPattern::Strided));
        t.record(RefPattern::IrregularWide, None);
        assert_eq!(t.dominant(), Some(RefPattern::IrregularWide));
        assert_eq!(t.total(), 3);
    }

    #[test]
    fn tally_dominant_stride_breaks_ties_by_magnitude() {
        let mut t = PatternTally::default();
        assert_eq!(t.dominant_stride(), None);
        t.record(RefPattern::Strided, Some(64));
        t.record(RefPattern::Strided, Some(-8));
        t.record(RefPattern::Strided, Some(8));
        t.record(RefPattern::Strided, Some(8));
        assert_eq!(t.dominant_stride(), Some(8));
        t.record(RefPattern::Strided, Some(-8));
        t.record(RefPattern::Strided, Some(64));
        // 2–2–2 tie: smaller magnitude drops 64, smaller value picks -8.
        assert_eq!(t.dominant_stride(), Some(-8));
    }

    #[test]
    fn working_set_counts_distinct_lines() {
        let mut store = ProfileStore::new(1 << 10, 1 << 10);
        let t = TraceId(0);
        store.register(t, vec![Pc(1)]);
        for i in 0..100u64 {
            store.begin_row(t);
            // 50 distinct lines, each touched twice.
            store.record(t, 0, (i % 50) * 64, false);
        }
        let drained = store.drain();
        let ws = working_set(drained.iter().map(|(_, p)| p));
        assert_eq!(ws.lines, 50);
        assert_eq!(ws.bytes, 50 * 64);
        assert_eq!(ws.refs, 100);
        assert!((ws.reuse_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_working_set() {
        let ws = working_set(std::iter::empty());
        assert_eq!(ws.lines, 0);
        assert_eq!(ws.reuse_factor(), 0.0);
    }
}
