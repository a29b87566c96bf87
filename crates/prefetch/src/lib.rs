//! # umi-prefetch — the example runtime optimization (paper §8)
//!
//! "We illustrate an example use scenario for UMI by implementing a simple
//! stride prefetching optimization in software. The optimization issues L2
//! prefetch requests for loads labeled as delinquent by the introspection
//! phase."
//!
//! The pipeline:
//!
//! 1. run UMI over the program ([`umi_core::UmiRuntime`]) to obtain the
//!    predicted delinquent loads and their reference strides;
//! 2. [`PrefetchPlan::from_report`] selects the profitable loads and picks
//!    a prefetch distance;
//! 3. [`inject_prefetches`] rewrites the program, planting a `prefetch`
//!    instruction in front of each planned load (the reproduction's
//!    equivalent of DynamoRIO's trace rewriting — see DESIGN.md for the
//!    substitution note);
//! 4. the [`harness`] runners measure running time and L2 misses under
//!    every combination of software and hardware prefetching, which is
//!    exactly what Figures 3–6 plot.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod check;
pub mod harness;
mod plan;
mod rewrite;
mod staticplan;

pub use check::{check_rewritten, check_rewritten_with, CheckKind, PlanDiagnostic};
pub use plan::{PlanEntry, PrefetchPlan};
pub use rewrite::inject_prefetches;
pub use staticplan::{
    static_prefetch_plan, static_prefetch_plan_with, StaticPlanEntry, StaticPlanReport,
};
