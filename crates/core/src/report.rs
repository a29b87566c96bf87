//! The end-of-run introspection report.

use crate::patterns::PatternTally;
use crate::stride::StrideInfo;
use std::collections::{HashMap, HashSet};
use umi_cache::PerPcStats;
use umi_dbi::DbiStats;
use umi_ir::Pc;
use umi_vm::VmStats;

/// Everything a UMI run learned, plus its accounting — the raw material
/// for Tables 3, 4 and 6 and Figures 2–6.
#[derive(Clone, Debug)]
pub struct UmiReport {
    /// Name of the profiled program.
    pub program_name: String,
    /// The mini-simulation L2 miss ratio `s_i` (cumulative, post-warm-up).
    pub umi_miss_ratio: f64,
    /// Predicted delinquent loads `P`.
    pub predicted: HashSet<Pc>,
    /// Detected reference strides for predicted loads (input to the
    /// software prefetcher).
    pub strides: HashMap<Pc, StrideInfo>,
    /// Per-operation dynamic reference-pattern tallies across all
    /// profiled ops. Empty unless
    /// [`UmiConfig::classify_patterns`](crate::UmiConfig::classify_patterns)
    /// was set.
    pub patterns: HashMap<Pc, PatternTally>,
    /// Cumulative per-instruction mini-simulation statistics.
    pub per_pc: PerPcStats,
    /// Address profiles handed to the analyzer ("Profiles Collected",
    /// Table 3).
    pub profiles_collected: u64,
    /// Analyzer invocations ("Analyzer Invocations", Table 3).
    pub analyzer_invocations: u64,
    /// Analyzer logical-cache flushes.
    pub cache_flushes: u64,
    /// Distinct traces instrumented at least once.
    pub instrumented_traces: usize,
    /// Distinct static instructions selected for profiling ("Profiled
    /// Operations", Table 3).
    pub profiled_ops: usize,
    /// Program static loads (Table 3, "Static Loads").
    pub static_loads: usize,
    /// Program static stores (Table 3, "Static Stores").
    pub static_stores: usize,
    /// Cycles of UMI overhead: instrumentation, profiling writes, prolog
    /// checks, analyzer runs and context switches.
    pub umi_overhead_cycles: u64,
    /// Cycles of DBI overhead (translation, dispatch, trace building,
    /// indirect lookups).
    pub dbi_overhead_cycles: u64,
    /// PC samples taken by the region selector.
    pub samples_taken: u64,
    /// Architectural execution statistics.
    pub vm_stats: VmStats,
    /// DBI execution statistics.
    pub dbi_stats: DbiStats,
}

/// The dynamic delinquency label UMI's run assigned one operation —
/// the ground truth the static `umi_lint` verdicts are scored against.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DynamicDelinquency {
    /// In the predicted delinquent set `P`.
    Hot,
    /// Profiled as a load (mini-simulated at least once) but never
    /// predicted delinquent.
    Cold,
    /// Never mini-simulated as a load: sampled out, filtered, or below
    /// the frequency threshold — the dynamic side has no opinion.
    Unprofiled,
}

impl DynamicDelinquency {
    /// Short stable label used in reports and goldens.
    pub fn label(self) -> &'static str {
        match self {
            DynamicDelinquency::Hot => "hot",
            DynamicDelinquency::Cold => "cold",
            DynamicDelinquency::Unprofiled => "unprofiled",
        }
    }
}

impl UmiReport {
    /// The dynamic delinquency label for the operation at `pc`.
    ///
    /// A method rather than a stored field: it is a pure function of the
    /// prediction set and the per-pc profile already in the report.
    pub fn delinquency_label(&self, pc: Pc) -> DynamicDelinquency {
        if self.predicted.contains(&pc) {
            DynamicDelinquency::Hot
        } else if self.per_pc.get(pc).load_accesses > 0 {
            DynamicDelinquency::Cold
        } else {
            DynamicDelinquency::Unprofiled
        }
    }

    /// "% Profiled" of Table 3: profiled operations over the program's
    /// static memory instructions.
    pub fn percent_profiled(&self) -> f64 {
        let total = self.static_loads + self.static_stores;
        if total == 0 {
            0.0
        } else {
            100.0 * self.profiled_ops as f64 / total as f64
        }
    }

    /// Total non-native cycles (DBI + UMI overhead).
    pub fn total_overhead_cycles(&self) -> u64 {
        self.umi_overhead_cycles + self.dbi_overhead_cycles
    }

    /// The predicted delinquent loads ranked by profiled L2 miss volume
    /// (descending, ties by pc) — the dynamic ranking that static
    /// delinquency rankings are scored against in `umi_lint`.
    pub fn ranked_delinquents(&self) -> Vec<Pc> {
        let mut ranked: Vec<Pc> = self.predicted.iter().copied().collect();
        ranked.sort_by_key(|pc| (std::cmp::Reverse(self.per_pc.get(*pc).load_misses), *pc));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank() -> UmiReport {
        UmiReport {
            program_name: "t".into(),
            umi_miss_ratio: 0.0,
            predicted: HashSet::new(),
            strides: HashMap::new(),
            patterns: HashMap::new(),
            per_pc: PerPcStats::new(),
            profiles_collected: 0,
            analyzer_invocations: 0,
            cache_flushes: 0,
            instrumented_traces: 0,
            profiled_ops: 25,
            static_loads: 60,
            static_stores: 40,
            umi_overhead_cycles: 10,
            dbi_overhead_cycles: 5,
            samples_taken: 0,
            vm_stats: VmStats::default(),
            dbi_stats: DbiStats::default(),
        }
    }

    #[test]
    fn percent_profiled_uses_loads_plus_stores() {
        let r = blank();
        assert!((r.percent_profiled() - 25.0).abs() < 1e-12);
        assert_eq!(r.total_overhead_cycles(), 15);
    }

    #[test]
    fn delinquency_labels_partition_hot_cold_unprofiled() {
        let mut r = blank();
        r.predicted.insert(Pc(0x40_0000));
        for _ in 0..10 {
            r.per_pc.record_load(Pc(0x40_0000), true);
            r.per_pc.record_load(Pc(0x40_0004), false);
        }
        assert_eq!(r.delinquency_label(Pc(0x40_0000)), DynamicDelinquency::Hot);
        assert_eq!(r.delinquency_label(Pc(0x40_0004)), DynamicDelinquency::Cold);
        assert_eq!(
            r.delinquency_label(Pc(0x40_0008)),
            DynamicDelinquency::Unprofiled
        );
        assert_eq!(DynamicDelinquency::Hot.label(), "hot");
    }

    #[test]
    fn ranked_delinquents_order_by_miss_volume_then_pc() {
        let mut r = blank();
        for pc in [0x40_0000u64, 0x40_0004, 0x40_0008] {
            r.predicted.insert(Pc(pc));
        }
        for _ in 0..5 {
            r.per_pc.record_load(Pc(0x40_0004), true);
        }
        r.per_pc.record_load(Pc(0x40_0008), true);
        assert_eq!(
            r.ranked_delinquents(),
            vec![Pc(0x40_0004), Pc(0x40_0008), Pc(0x40_0000)]
        );
    }

    #[test]
    fn zero_static_ops_is_zero_percent() {
        let mut r = blank();
        r.static_loads = 0;
        r.static_stores = 0;
        assert_eq!(r.percent_profiled(), 0.0);
    }
}
