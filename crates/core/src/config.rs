//! UMI configuration: all the knobs the paper names, with its defaults.

use umi_cache::CacheConfig;

/// How the region selector's sample-based reinforcement operates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingMode {
    /// No sampling: every trace is instrumented as soon as it is built and
    /// re-instrumented after each analysis. This is the configuration of
    /// Table 3 — "an empirical upper bound on the instrumentation
    /// overhead".
    Off,
    /// Periodic sampling every `period_insns` retired instructions (the
    /// stand-in for the paper's 10 ms timer: deterministic virtual time).
    /// A trace must accumulate `frequency_threshold` samples to be
    /// selected.
    Periodic {
        /// Instructions between samples.
        period_insns: u64,
    },
}

/// Configuration of a UMI runtime.
///
/// Defaults correspond to the paper's prototype: frequency threshold 64,
/// trace profile of 8,192 entries, address profiles of 256 operations ×
/// 256 executions, warm-up of 2 trace executions, analyzer cache flushed
/// when more than 1M cycles elapsed since its last run, delinquency
/// threshold adaptively lowered from 0.90 by 0.10 per invocation down to
/// 0.10 (§3–§7).
#[derive(Clone, Debug, PartialEq)]
pub struct UmiConfig {
    /// Sampling policy for the region selector.
    pub sampling: SamplingMode,
    /// Samples needed to select a trace ("frequency threshold", default 64).
    pub frequency_threshold: u32,
    /// Capacity of the global trace profile (rows across all address
    /// profiles before the guard page triggers the analyzer), default 8192.
    pub trace_profile_capacity: usize,
    /// Maximum instrumented operations per address profile (default 256).
    pub addr_profile_ops: usize,
    /// Maximum recorded executions per address profile (default 256).
    pub addr_profile_rows: usize,
    /// Trace executions simulated but excluded from miss accounting at the
    /// start of each address profile (default 2).
    pub warmup_rows: usize,
    /// Mini-simulator cache geometry (the host's L2 by default).
    pub sim_cache: CacheConfig,
    /// Geometry of the small filter cache used purely for *accounting*:
    /// the reported miss ratio `s_i` counts only references that would
    /// miss a host-L1-shaped cache, making it commensurable with the
    /// hardware counters' L2-miss-per-L2-reference ratio (Tables 4/5).
    /// Per-operation delinquency statistics remain unfiltered.
    pub sim_l1_filter: CacheConfig,
    /// Whether a line's very first touch is excluded from miss accounting
    /// (the paper's compulsory-miss tuning, §5). Default `true`.
    pub exclude_compulsory: bool,
    /// Power-of-two divisor applied to the logical cache's set count.
    /// Only a small fraction of references is profiled, so a host-sized
    /// cache never feels capacity pressure; shrinking it restores "the
    /// low number of conflict and capacity misses that would otherwise
    /// arise" (§5 — the paper notes results are insensitive to simulating
    /// "caches that are much smaller than that of the host machine").
    /// Default 4. Set to 1 for the literal host-L2 geometry.
    pub sim_capacity_divisor: usize,
    /// Flush the analyzer's logical cache when this many cycles have
    /// elapsed since its previous invocation (default 1M; `None` disables
    /// the flush — an ablation the paper argues against: "long term
    /// contamination").
    pub flush_after_cycles: Option<u64>,
    /// Initial per-trace delinquency threshold α (default 0.90).
    pub delinquency_initial: f64,
    /// Decrement applied to a trace's threshold after each analyzer
    /// invocation it is responsible for (default 0.10).
    pub delinquency_step: f64,
    /// Threshold floor (default 0.10).
    pub delinquency_floor: f64,
    /// Whether thresholds adapt per-trace; `false` pins every trace to
    /// `delinquency_initial` (the paper's "singular global delinquency
    /// threshold" baseline, which it reports raises false positives from
    /// 56.76% to 82.61%).
    pub adaptive_threshold: bool,
    /// Whether the instrumentor's operation filter (skip stack/static
    /// references) is applied; `true` in the paper, `false` is an
    /// ablation.
    pub operation_filter: bool,
    /// Modelled cost, in cycles, of recording one memory reference
    /// (the paper reduces a naive 9 operations to 4–6; default 5).
    pub record_cost: u64,
    /// Modelled prolog cost per entry into an instrumented trace (one
    /// conditional jump thanks to the guard-page trick; default 2).
    pub prolog_cost: u64,
    /// Modelled analyzer cost per simulated reference (default 3).
    pub analyze_cost_per_ref: u64,
    /// Modelled one-time cost of instrumenting a trace: cloning `T_c` and
    /// rewriting `T` (default 1000).
    pub instrument_cost_base: u64,
    /// Additional instrumentation cost per selected operation (default 20).
    pub instrument_cost_per_op: u64,
    /// In [`SamplingMode::Off`], a trace whose profile was analyzed reverts
    /// to its clean clone and is re-instrumented after this many further
    /// executions — the "bursty profiling" cadence (§3). With sampling,
    /// re-selection is the sampler's job and this is unused.
    pub burst_gap_execs: u64,
    /// Tally a dynamic reference-pattern classification
    /// ([`crate::RefPattern`]) for *every* profiled operation the analyzer
    /// drains, not just predicted delinquent loads. Off by default: the
    /// paper's pipeline only needs strides for its predicted set, and the
    /// extra per-column pass is pure introspection (nothing else in the
    /// report changes). The `umi_lint` static report turns it on in the one
    /// UMI run all its sections read, to check the static classifier.
    pub classify_patterns: bool,
}

impl UmiConfig {
    /// The paper's default configuration (periodic sampling).
    ///
    /// The 10 ms sampling period at ~3 GHz is on the order of 10⁷ cycles;
    /// our workloads retire ~10⁶–10⁷ instructions rather than ~10¹¹, so
    /// the period is scaled to 20 000 instructions to keep the
    /// sample-to-work ratio comparable.
    pub fn sampled() -> UmiConfig {
        UmiConfig {
            sampling: SamplingMode::Periodic {
                period_insns: 20_000,
            },
            ..UmiConfig::no_sampling()
        }
    }

    /// The no-sampling configuration (Table 3; instrumentation upper
    /// bound).
    pub fn no_sampling() -> UmiConfig {
        UmiConfig {
            sampling: SamplingMode::Off,
            frequency_threshold: 64,
            trace_profile_capacity: 8_192,
            addr_profile_ops: 256,
            addr_profile_rows: 256,
            warmup_rows: 2,
            sim_cache: CacheConfig::pentium4_l2(),
            sim_l1_filter: CacheConfig::pentium4_l1d(),
            exclude_compulsory: true,
            sim_capacity_divisor: 4,
            flush_after_cycles: Some(1_000_000),
            delinquency_initial: 0.90,
            delinquency_step: 0.10,
            delinquency_floor: 0.10,
            adaptive_threshold: true,
            operation_filter: true,
            record_cost: 5,
            prolog_cost: 2,
            analyze_cost_per_ref: 3,
            instrument_cost_base: 1_000,
            instrument_cost_per_op: 20,
            burst_gap_execs: 1_024,
            classify_patterns: false,
        }
    }

    /// Sets the mini-simulator cache geometry (builder-style).
    pub fn sim_cache(mut self, cache: CacheConfig) -> UmiConfig {
        self.sim_cache = cache;
        self
    }

    /// Sets the frequency threshold (builder-style).
    pub fn frequency_threshold(mut self, t: u32) -> UmiConfig {
        self.frequency_threshold = t;
        self
    }

    /// Sets the address-profile row capacity (builder-style).
    pub fn addr_profile_rows(mut self, rows: usize) -> UmiConfig {
        self.addr_profile_rows = rows;
        self
    }

    /// Validates parameter sanity.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.warmup_rows >= self.addr_profile_rows {
            return Err(format!(
                "warmup_rows {} must be below addr_profile_rows {}",
                self.warmup_rows, self.addr_profile_rows
            ));
        }
        if self.frequency_threshold == 0 {
            return Err("frequency_threshold must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.delinquency_initial)
            || !(0.0..=1.0).contains(&self.delinquency_floor)
            || self.delinquency_floor > self.delinquency_initial
        {
            return Err("delinquency thresholds must satisfy 0 <= floor <= initial <= 1".into());
        }
        if self.trace_profile_capacity == 0 || self.addr_profile_rows == 0 {
            return Err("profile capacities must be positive".into());
        }
        if !self.sim_capacity_divisor.is_power_of_two()
            || self.sim_capacity_divisor > self.sim_cache.sets
        {
            return Err(format!(
                "sim_capacity_divisor {} must be a power of two no larger than the {} sets",
                self.sim_capacity_divisor, self.sim_cache.sets
            ));
        }
        Ok(())
    }
}

impl UmiConfig {
    /// The effective (duty-scaled) logical-cache geometry the analyzer
    /// simulates.
    pub fn effective_sim_cache(&self) -> CacheConfig {
        scale_sets(self.sim_cache, self.sim_capacity_divisor)
    }

    /// The effective (duty-scaled) accounting-filter geometry.
    pub fn effective_l1_filter(&self) -> CacheConfig {
        scale_sets(self.sim_l1_filter, self.sim_capacity_divisor)
    }
}

fn scale_sets(c: CacheConfig, divisor: usize) -> CacheConfig {
    CacheConfig::new((c.sets / divisor).max(1), c.ways, c.line_size).policy(c.policy)
}

impl Default for UmiConfig {
    fn default() -> UmiConfig {
        UmiConfig::sampled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = UmiConfig::default();
        assert_eq!(c.frequency_threshold, 64);
        assert_eq!(c.trace_profile_capacity, 8192);
        assert_eq!(c.addr_profile_ops, 256);
        assert_eq!(c.addr_profile_rows, 256);
        assert_eq!(c.warmup_rows, 2);
        assert_eq!(c.flush_after_cycles, Some(1_000_000));
        assert_eq!(c.delinquency_initial, 0.90);
        assert!(c.adaptive_threshold);
        assert!(c.operation_filter);
        assert_eq!(c.sim_cache, CacheConfig::pentium4_l2());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn no_sampling_differs_only_in_mode() {
        let a = UmiConfig::no_sampling();
        assert_eq!(a.sampling, SamplingMode::Off);
        assert!(a.validate().is_ok());
    }

    #[test]
    fn validate_catches_bad_warmup() {
        let c = UmiConfig::no_sampling().addr_profile_rows(2);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_thresholds() {
        let mut c = UmiConfig::no_sampling();
        c.delinquency_floor = 0.95;
        assert!(c.validate().is_err());
    }
}
