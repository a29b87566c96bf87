//! Stride discovery from address-profile columns (paper §8).
//!
//! "We modified the profile analyzer to also calculate the stride distance
//! between successive memory references for individual loads."

use std::cmp::Reverse;

/// A detected reference pattern for one instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrideInfo {
    /// Dominant distance, in bytes, between successive references.
    pub stride: i64,
    /// Fraction of observed deltas equal to the dominant one, in `(0, 1]`.
    pub confidence: f64,
    /// Number of deltas observed.
    pub samples: usize,
}

/// Detects the dominant non-zero stride in an address sequence (one
/// address-profile column).
///
/// The dominant delta is the non-zero delta seen most often; a tie goes
/// to the smaller magnitude, then to the positive delta. So a column
/// alternating between two lines 64 bytes apart (+64 and −64 equally
/// often, confidence exactly 0.5) always reports +64, and the answer
/// never depends on iteration order.
///
/// Returns `None` when fewer than `min_samples` deltas exist or no single
/// non-zero delta reaches `min_confidence` of the observations —
/// irregular (pointer-chasing) streams yield no stride and are left to
/// other prefetch strategies, exactly as a stride prefetcher would skip
/// them.
pub fn detect_stride(
    column: &[u64],
    min_samples: usize,
    min_confidence: f64,
) -> Option<StrideInfo> {
    if min_confidence >= 0.5 {
        StrideVote::majority(column).stride(min_samples, min_confidence)
    } else {
        detect_stride_counting(column, min_samples, min_confidence)
    }
}

/// The delta vote of one column: its dominant non-zero delta and how
/// many deltas it observed. Every threshold the analyzer reads is a read
/// of the same vote, so it takes one vote per column.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StrideVote {
    /// The dominant non-zero delta and its count (a majority vote's is
    /// exact only when the count can reach half the deltas; see
    /// [`majority`](Self::majority)); `None` when every delta is zero or
    /// there is none.
    winner: Option<(i64, usize)>,
    /// Deltas observed, zero deltas included.
    total: usize,
}

/// Orders `(delta, count)` pairs by [`detect_stride`]'s rule: count,
/// then smaller magnitude, then positive. Distinct deltas never tie.
fn rank(&(delta, count): &(i64, usize)) -> (usize, Reverse<u64>, bool) {
    (count, Reverse(delta.unsigned_abs()), delta > 0)
}

/// The deltas between successive addresses of `column`.
fn deltas(column: &[u64]) -> impl Iterator<Item = i64> + '_ {
    column.windows(2).map(|w| w[1].wrapping_sub(w[0]) as i64)
}

impl StrideVote {
    /// The vote for confidences of at least one half, in one pass over
    /// the column, without allocating or hashing: a Misra–Gries summary
    /// with two slots keeps every delta that holds more than a third of
    /// the non-zero deltas, and each delta's true count is at most its
    /// slot's count plus the number of decrement steps. When that bound
    /// leaves every delta below half the deltas — an irregular column —
    /// the vote ends there, its winner's count a lower bound that no
    /// threshold of one half or more accepts. Otherwise the two slots
    /// are recounted exactly, and the winner is the dominant delta.
    pub(crate) fn majority(column: &[u64]) -> StrideVote {
        // An unused slot holds 0, which no counted delta equals.
        let (mut slot, mut count, mut decrements) = ([0i64; 2], [0usize; 2], 0usize);
        for d in deltas(column).filter(|&d| d != 0) {
            if d == slot[0] {
                count[0] += 1;
            } else if d == slot[1] {
                count[1] += 1;
            } else if count[0] == 0 {
                (slot[0], count[0]) = (d, 1);
            } else if count[1] == 0 {
                (slot[1], count[1]) = (d, 1);
            } else {
                count[0] -= 1;
                count[1] -= 1;
                decrements += 1;
            }
        }
        let total = column.len().saturating_sub(1);
        let bound = count[0].max(count[1]) + decrements;
        if decrements > 0 && 2 * bound >= total {
            count = [0, 0];
            for d in deltas(column).filter(|&d| d != 0) {
                count[0] += (d == slot[0]) as usize;
                count[1] += (d == slot[1]) as usize;
            }
        }
        let winner = slot
            .into_iter()
            .zip(count)
            .filter(|&(d, _)| d != 0)
            .max_by_key(rank);
        StrideVote { winner, total }
    }

    /// Whether the column never moved (no non-zero delta).
    pub(crate) fn is_constant(&self) -> bool {
        self.winner.is_none()
    }

    /// [`detect_stride`]'s answer at these thresholds (for a majority
    /// vote, a `min_confidence` of at least one half).
    pub(crate) fn stride(&self, min_samples: usize, min_confidence: f64) -> Option<StrideInfo> {
        if self.total == 0 || self.total < min_samples {
            return None;
        }
        let (stride, count) = self.winner?;
        let confidence = count as f64 / self.total as f64;
        (confidence >= min_confidence).then_some(StrideInfo {
            stride,
            confidence,
            samples: self.total,
        })
    }
}

/// [`detect_stride`] by a count per delta in a hash map, exact at every
/// `min_confidence`: the per-column vote the analyzer used before
/// [`StrideVote`], and the differential tests' oracle.
pub(crate) fn detect_stride_counting(
    column: &[u64],
    min_samples: usize,
    min_confidence: f64,
) -> Option<StrideInfo> {
    let mut counts: std::collections::HashMap<i64, usize> = std::collections::HashMap::new();
    for delta in deltas(column).filter(|&d| d != 0) {
        *counts.entry(delta).or_insert(0) += 1;
    }
    StrideVote {
        winner: counts.into_iter().max_by_key(rank),
        total: column.len().saturating_sub(1),
    }
    .stride(min_samples, min_confidence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_stride() {
        let col: Vec<u64> = (0..32).map(|i| 0x1000 + i * 8).collect();
        let s = detect_stride(&col, 4, 0.5).expect("stride");
        assert_eq!(s.stride, 8);
        assert_eq!(s.confidence, 1.0);
        assert_eq!(s.samples, 31);
    }

    #[test]
    fn negative_stride() {
        let col: Vec<u64> = (0..16).map(|i| 0x8000 - i * 64).collect();
        let s = detect_stride(&col, 4, 0.5).expect("stride");
        assert_eq!(s.stride, -64);
    }

    #[test]
    fn noisy_stride_above_threshold() {
        // 3 of every 4 deltas are +64.
        let mut col = Vec::new();
        let mut a = 0x1000u64;
        for i in 0..32 {
            col.push(a);
            a = if i % 4 == 3 { a + 4096 } else { a + 64 };
        }
        let s = detect_stride(&col, 4, 0.5).expect("stride");
        assert_eq!(s.stride, 64);
        assert!(s.confidence > 0.7 && s.confidence < 0.8);
    }

    #[test]
    fn random_walk_has_no_stride() {
        // Pseudo-random addresses: no delta dominates.
        let mut x = 0x12345678u64;
        let col: Vec<u64> = (0..64)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % (1 << 20)
            })
            .collect();
        assert_eq!(detect_stride(&col, 4, 0.5), None);
    }

    #[test]
    fn constant_address_has_no_stride() {
        let col = vec![0x1000u64; 16];
        assert_eq!(detect_stride(&col, 4, 0.5), None, "all deltas are zero");
    }

    #[test]
    fn alternating_tie_is_pinned_to_the_positive_stride() {
        // Two lines 64 bytes apart, alternating: +64 and −64 equally
        // often, so confidence is exactly the 0.5 threshold.
        let col: Vec<u64> = (0..33).map(|i| 0x4000 + (i % 2) * 64).collect();
        let first = detect_stride(&col, 4, 0.5).expect("a tied stride still passes 0.5");
        assert_eq!(first.stride, 64);
        assert_eq!(first.confidence, 0.5);
        assert_eq!(first.samples, 32);
        for _ in 0..1_000 {
            assert_eq!(detect_stride(&col, 4, 0.5), Some(first));
        }
        assert_eq!(detect_stride_counting(&col, 4, 0.5), Some(first));
    }

    #[test]
    fn ties_prefer_the_smaller_magnitude() {
        // +8, −8, +64, −64, repeated: four deltas tied on count.
        let mut col = vec![0x1_0000u64];
        for _ in 0..8 {
            for d in [8i64, -8, 64, -64] {
                col.push(col.last().unwrap().wrapping_add(d as u64));
            }
        }
        let s = detect_stride(&col, 4, 0.0).expect("stride");
        assert_eq!(s.stride, 8);
        assert_eq!(s.confidence, 0.25);
    }

    #[test]
    fn too_few_samples() {
        assert_eq!(detect_stride(&[0x0, 0x40], 4, 0.5), None);
        assert_eq!(detect_stride(&[], 1, 0.5), None);
        assert_eq!(detect_stride(&[0x0], 0, 0.5), None);
    }
}
