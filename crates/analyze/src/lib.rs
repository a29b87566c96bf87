//! # umi-analyze — whole-program static analysis over `umi-ir`
//!
//! UMI's thesis (Zhao et al., CGO 2007) is that *dynamic* introspection
//! finds memory behavior that static inspection cannot. This crate is the
//! static side of that comparison, plus a correctness gate for every
//! program the decoded-µop VM executes:
//!
//! * [`verify`] / [`verify_program`] / [`verify_decoded`] — an IR
//!   verifier: branch targets resolve, register indices fit the
//!   interpreter's file, absolute memory operands land in declared data
//!   segments, pc ranges never overlap, and the decoded lowering's fusion
//!   invariants (load+op, cmp+branch) hold. `umi-vm` runs it behind
//!   `debug_assert!` when loading a program.
//! * [`Cfg`], [`Dominators`], [`natural_loops`] — intra-procedural
//!   control-flow graphs with dominator trees and natural-loop detection.
//! * [`liveness`], [`insn_defs`], [`insn_uses`] — per-block def–use
//!   summaries and live-register sets.
//! * [`classify_program`] — a static affine/stride classifier that
//!   symbolically evaluates effective addresses around loop back edges,
//!   labeling every memory op constant-stride, loop-invariant, or
//!   irregular. The `table_static` harness in `umi-bench` cross-checks
//!   these labels against UMI's dynamic profiles on all 32 workloads.
//! * [`absint_program`] — an abstract interpreter composing the affine
//!   facts with a constant-propagation layer ([`value_analysis`]) and
//!   Ferdinand-style must-cache states ([`MustState`]), proving per-site
//!   AlwaysHit / AlwaysMiss / Persistent cache verdicts that the full
//!   simulator audits (the `table_absint` harness and the `umi_lint`
//!   soundness gate).
//! * [`ProgramFacts`] — the CFG, loop, constant and affine facts the
//!   whole-program passes share, built at most once per program. Each
//!   pass's free function builds one; [`ProgramFacts::absint`],
//!   [`ProgramFacts::predict`] and [`ProgramFacts::compose`] let a
//!   pipeline of passes over one program share it.
//!
//! # Example
//!
//! ```
//! use umi_analyze::{classify_program, verify, StaticClass};
//! use umi_ir::{ProgramBuilder, Reg, Width};
//!
//! let mut pb = ProgramBuilder::new();
//! let main = pb.begin_func("main");
//! let body = pb.new_block();
//! let done = pb.new_block();
//! pb.block(main.entry())
//!     .movi(Reg::ECX, 0)
//!     .alloc(Reg::ESI, 8 * 64)
//!     .jmp(body);
//! pb.block(body)
//!     .load(Reg::EAX, Reg::ESI + (Reg::ECX, 8), Width::W8)
//!     .addi(Reg::ECX, 1)
//!     .cmpi(Reg::ECX, 64)
//!     .br_lt(body, done);
//! pb.block(done).ret();
//! let program = pb.finish();
//!
//! assert_eq!(verify(&program), Ok(()));
//! let refs = classify_program(&program);
//! assert_eq!(refs[0].class, StaticClass::ConstantStride(8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod absint;
mod affine;
mod cachepred;
mod cfg;
mod compose;
mod domain;
mod facts;
mod lint;
mod liveness;
mod trips;
mod value;
mod verify;

pub use absint::{absint_program, CacheBehavior, UnclassifiedReason, Verdict};
pub use affine::{classify_program, loop_reg_kinds, RegKind, StaticClass, StaticRef};
pub use cachepred::{
    loop_trip_bound, predict_program, CacheGeometry, CachePrediction, Delinquency,
};
pub use cfg::{
    analyze_program, innermost_loop_map, natural_loops, Cfg, Dominators, FuncAnalysis, NaturalLoop,
};
pub use compose::{
    compose_program, MissInterval, PcMissBound, SiteMissBound, StaticDelinquent, StaticReport,
};
pub use domain::{LineToken, MustState};
pub use facts::ProgramFacts;
pub use lint::{lint_program, Lint, LintKind, Severity};
pub use liveness::{insn_defs, insn_uses, liveness, reg_bit, regs_in, term_uses, Liveness};
pub use trips::{trip_analysis, ExecBound, TripAnalysis, TripBound};
pub use value::{value_analysis, Val, ValueAnalysis, ValueState};
pub use verify::{
    render_errors, sort_errors, verify, verify_decoded, verify_decoded_block,
    verify_decoded_block_with, verify_decoded_with, verify_program, VerifyError,
};
