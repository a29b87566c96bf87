//! # umi-cache — cache simulation substrate
//!
//! Provides the cache machinery every other layer builds on:
//!
//! * [`SetAssocCache`] — a set-associative cache with LRU (default), FIFO
//!   or pseudo-random replacement. The paper's mini-simulator uses "a
//!   counter to simulate time" (§5); a victim choice only ever compares
//!   two lines' times, so each set here keeps its lines in that order
//!   instead (most recent first under LRU, newest insertion first under
//!   FIFO) and evicts the last one, with the same outcomes.
//! * [`Hierarchy`] — an L1+L2 data-cache hierarchy used by the simulated
//!   hardware platforms (`umi-hw`).
//! * [`FullSimulator`] — the Cachegrind equivalent: a complete-trace
//!   simulator with per-instruction miss accounting, used offline as the
//!   ground truth that defines the delinquent-load set `C` (§7).
//! * [`delinquent_set`] — the paper's definition of `C`: the minimal set of
//!   load instructions covering at least `x%` of all L2 load misses.
//!
//! # Example
//!
//! ```
//! use umi_cache::{CacheConfig, SetAssocCache};
//!
//! // The Pentium 4 L2 from the paper: 512 KB, 8-way, 64-byte lines.
//! let mut l2 = SetAssocCache::new(CacheConfig::with_capacity(512 << 10, 8, 64));
//! assert!(!l2.access(0x1000).hit);  // compulsory miss
//! assert!(l2.access(0x1004).hit);   // same line
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod delinquent;
mod full_sim;
mod hierarchy;
mod per_insn;
mod set_assoc;
mod stats;

pub use config::{
    CacheConfig, ReplacementPolicy, K7_L2_HIT_CYCLES, K7_MEMORY_CYCLES,
    MIN_PREFETCH_DISTANCE_BYTES, PAGE_BYTES, PENTIUM4_L2_HIT_CYCLES, PENTIUM4_MEMORY_CYCLES,
};
pub use delinquent::{delinquent_set, DelinquentSet};
pub use full_sim::FullSimulator;
pub use hierarchy::{Hierarchy, HitLevel};
pub use per_insn::{PcMissStats, PerPcStats};
pub use set_assoc::{AccessOutcome, SetAssocCache};
pub use stats::CacheStats;
pub use umi_geom::CacheGeometry;
