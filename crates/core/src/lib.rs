//! # umi-core — Ubiquitous Memory Introspection
//!
//! The online, lightweight, simulation-based memory-profiling methodology
//! of *Ubiquitous Memory Introspection* (Zhao, Rabbah, Amarasinghe,
//! Rudolph, Wong — CGO 2007), reproduced over the `umi-dbi` substrate.
//!
//! The three components of the conceptual framework (paper §2) map to:
//!
//! * **Region selector** — the DBI trace builder (hot code discovery) plus
//!   the sample-based reinforcement of [`RegionSelector`]: a periodic PC
//!   sample increments the counter of its enclosing trace, and a trace is
//!   selected for instrumentation when the counter saturates at the
//!   *frequency threshold* (default 64).
//! * **Instrumentor** — [`Instrumentor`] filters the memory operations of a
//!   selected trace (dropping `esp`/`ebp`-relative and absolute-address
//!   references, §4.1), assigns the survivors profile columns, and models
//!   the cost of the injected profiling code (4–6 operations per recorded
//!   reference, §4.2) and of the trace clone `T_c` used to switch
//!   profiling off.
//! * **Profile analyzer** — [`MiniSimulator`], a fast cache simulator in
//!   the image of the host's L2: LRU, warm-up rows excluded from miss
//!   accounting, one logical cache shared across profiles, periodically
//!   flushed (§5). Its per-instruction miss ratios feed the
//!   [`DelinquencyTracker`] (adaptive per-trace thresholds, §7.1) and the
//!   stride detector used by the software prefetcher (§8).
//!
//! [`UmiRuntime`] ties everything together and produces a [`UmiReport`].
//!
//! # Example
//!
//! ```
//! use umi_core::{UmiConfig, UmiRuntime};
//! use umi_ir::{ProgramBuilder, Reg, Width};
//! use umi_vm::NullSink;
//!
//! // Two passes over a 1 MB array: the load misses constantly, and the
//! // second pass gives the analyzer the reuse its compulsory-miss tuning
//! // needs (DESIGN.md §5).
//! let mut pb = ProgramBuilder::new();
//! let main = pb.begin_func("main");
//! let outer = pb.new_block();
//! let body = pb.new_block();
//! let next = pb.new_block();
//! let done = pb.new_block();
//! pb.block(main.entry()).movi(Reg::R8, 0).alloc(Reg::ESI, 1 << 20).jmp(outer);
//! pb.block(outer).movi(Reg::ECX, 0).jmp(body);
//! pb.block(body)
//!     .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
//!     .addi(Reg::ECX, 1)
//!     .cmpi(Reg::ECX, 1 << 17)
//!     .br_lt(body, next);
//! pb.block(next).addi(Reg::R8, 1).cmpi(Reg::R8, 2).br_lt(outer, done);
//! pb.block(done).ret();
//! let program = pb.finish();
//!
//! let mut umi = UmiRuntime::new(&program, UmiConfig::no_sampling());
//! let report = umi.run(&mut NullSink, u64::MAX);
//! assert!(report.analyzer_invocations > 0);
//! assert_eq!(report.predicted.len(), 1, "the streaming load is delinquent");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cached;
mod columns;
mod config;
mod delinquency;
mod instrumentor;
mod metrics;
mod minisim;
mod patterns;
mod profiles;
mod report;
mod runtime;
mod selector;
mod stride;
mod whatif;

pub use cached::{introspect_cached, introspect_traced, CachedIntrospection};
pub use config::{SamplingMode, UmiConfig};
pub use delinquency::DelinquencyTracker;
pub use instrumentor::{Instrumentor, TraceInstrumentation};
pub use metrics::{pearson, PredictionQuality};
pub use minisim::MiniSimulator;
pub use patterns::{classify, classify_default, working_set, PatternTally, RefPattern, WorkingSet};
pub use profiles::{AddressProfile, ProfileStore, TriggerReason};
pub use report::{DynamicDelinquency, UmiReport};
pub use runtime::UmiRuntime;
pub use selector::RegionSelector;
pub use stride::{detect_stride, StrideInfo};
pub use whatif::{Scenario, WhatIfAnalyzer};
