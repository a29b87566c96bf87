//! # umi-bench — experiment harnesses for every table and figure
//!
//! One binary per experiment (see DESIGN.md §4 for the index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | HW-counter sampling overhead vs sample size |
//! | `table2` | the qualitative tradeoff matrix |
//! | `table3` | profiling statistics (no sampling) |
//! | `table4` | miss-ratio correlations, P4 ± prefetch and K7 |
//! | `table5` | SPEC CPU2006 correlations |
//! | `table6` | delinquent-load prediction quality |
//! | `fig2` | runtime overhead (DBI / UMI / UMI+sampling) |
//! | `fig3` | running time, P4, HW prefetch off, ± SW prefetch |
//! | `fig4` | running time, AMD K7, ± SW prefetch |
//! | `fig5` | running time, P4, HW prefetch on: SW / HW / SW+HW |
//! | `fig6` | L2 misses, P4: SW / HW / SW+HW |
//! | `umi_lint` | the static report and gate, one section per pass: static vs dynamic reference classes; IR lints and plan checks; must-cache verdicts and composed miss-bound intervals checked against one exact run ([`audit`]); static-vs-dynamic plan A/B |
//! | `sensitivity` | §7.2 threshold & profile-length sweeps |
//! | `ablations` | design-choice ablations from DESIGN.md §5 |
//!
//! All binaries accept `UMI_SCALE=test` to run the shrunken workloads
//! (CI-sized); the default is the full `bench` scale. `UMI_JOBS=<n>`
//! bounds the experiment engine's worker threads (default: all available
//! cores); any job count prints byte-identical output — see
//! [`engine`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod corr;
pub mod engine;
pub mod report;
pub mod study;

/// The interval audit's former path, which the `umibench` self-test
/// (`umibench/src/ops.rs`) still imports.
pub use audit as staticplan_audit;

use umi_core::{SamplingMode, UmiConfig};
use umi_workloads::{Scale, Suite};

/// The workload scale selected by `UMI_SCALE` (`test` or `bench`).
pub fn scale_from_env() -> Scale {
    match std::env::var("UMI_SCALE").as_deref() {
        Ok("test") => Scale::Test,
        _ => Scale::Bench,
    }
}

/// The name `UMI_SCALE` and the JSON reports use for a scale.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Bench => "bench",
    }
}

/// The sampled UMI configuration appropriate for a scale: the paper's
/// 10 ms period / threshold 64 assume minutes-long SPEC runs, so both are
/// shrunk proportionally to our workload sizes.
pub fn sampled_config(scale: Scale) -> UmiConfig {
    let mut c = UmiConfig::sampled();
    match scale {
        Scale::Bench => {
            c.sampling = SamplingMode::Periodic {
                period_insns: 10_000,
            };
            c.frequency_threshold = 48;
        }
        Scale::Test => {
            c.sampling = SamplingMode::Periodic {
                period_insns: 2_000,
            };
            c.frequency_threshold = 24;
        }
    }
    c
}

/// Human label for a suite group.
pub fn suite_label(suite: Suite) -> &'static str {
    match suite {
        Suite::Cfp2000 => "CFP2000",
        Suite::Cint2000 => "CINT2000",
        Suite::Olden => "Olden",
        Suite::Cfp2006 => "CFP2006",
        Suite::Cint2006 => "CINT2006",
    }
}

/// Geometric mean of positive values (how the paper-style "average
/// normalized running time" is aggregated).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn scale_defaults_to_bench() {
        // The env var is unset in tests (or set to something else).
        let s = scale_from_env();
        assert!(matches!(s, Scale::Bench | Scale::Test));
    }

    #[test]
    fn sampled_config_scales() {
        let b = sampled_config(Scale::Bench);
        let t = sampled_config(Scale::Test);
        assert!(t.frequency_threshold < b.frequency_threshold);
        assert!(b.validate().is_ok() && t.validate().is_ok());
    }
}
