//! The paper's "radical example" (§1.4): use one introspection run to
//! evaluate multiple what-if cache scenarios at once — here, "how would
//! this workload's profiled references behave under different L2 sizes?"
//!
//! ```sh
//! cargo run --release --example whatif [workload]
//! ```

use umi::cache::CacheConfig;
use umi::core::{classify_default, working_set, RefPattern, WhatIfAnalyzer};
use umi::core::{MiniSimulator, ProfileStore};
use umi::dbi::{CostModel, DbiRuntime};
use umi::ir::Pc;
use umi::vm::NullSink;
use umi::workloads::{build, Scale};

fn main() {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "179.art".to_string());
    let program = match build(&name, Scale::Test) {
        Some(p) => p,
        None => {
            eprintln!("unknown workload `{name}`");
            std::process::exit(1);
        }
    };

    // Drive the DBI by hand and capture raw profiles so the same stream
    // feeds the what-if scenarios, the pattern classifier and the
    // working-set estimator. (UmiRuntime automates this; here we use the
    // pieces directly.)
    let mut rt = DbiRuntime::new(&program, CostModel::default());
    let instrumentor = umi::core::Instrumentor::new(true, 256);
    let mut store = ProfileStore::new(8192, 256);
    let mut minisim = MiniSimulator::new(CacheConfig::pentium4_l2(), 2, None);
    let mut whatif = WhatIfAnalyzer::new();
    whatif
        .add_scenario("128KB/8-way", CacheConfig::with_capacity(128 << 10, 8, 64))
        .add_scenario("512KB/8-way (P4)", CacheConfig::pentium4_l2())
        .add_scenario("2MB/8-way", CacheConfig::with_capacity(2 << 20, 8, 64))
        .add_scenario("512KB/2-way", CacheConfig::with_capacity(512 << 10, 2, 64));

    let mut plans: std::collections::HashMap<_, umi::core::TraceInstrumentation> =
        Default::default();
    let mut all_profiles = Vec::new();
    let mut sink = NullSink;
    while !rt.finished() {
        let mut drained = Vec::new();
        let created = {
            let info = rt.step(&mut sink);
            if let Some(tid) = info.trace {
                if let Some(plan) = plans.get(&tid) {
                    if info.entered_trace {
                        if store.trigger(tid).is_some() {
                            // Keep profiling every drained trace.
                            drained = store.drain();
                            for (t, p) in &drained {
                                store.register(*t, p.ops.clone());
                            }
                        }
                        if store.is_registered(tid) && store.trigger(tid).is_none() {
                            store.begin_row(tid);
                        }
                    }
                    for a in info.accesses.iter().filter(|a| a.is_demand()) {
                        if let Some(op) = plan.op_of(a.pc) {
                            store.record(tid, op, a.addr, a.kind == umi::ir::AccessKind::Store);
                        }
                    }
                }
            }
            info.trace_created
        };
        if let Some(tid) = created {
            let plan = instrumentor.instrument(rt.program(), rt.traces().trace(tid));
            if plan.op_count() > 0 {
                store.register(tid, plan.ops.clone());
                plans.insert(tid, plan);
            }
        }
        if !drained.is_empty() {
            minisim.analyze(&drained, 0, |_| true);
            whatif.analyze(&drained);
            all_profiles.extend(drained);
        }
    }
    let rest = store.drain();
    minisim.analyze(&rest, 0, |_| true);
    whatif.analyze(&rest);
    all_profiles.extend(rest);

    println!("=== what-if scenarios for {name} (same profiled references) ===");
    for s in whatif.scenarios() {
        println!(
            "{:<22} miss ratio {:>6.2}%  ({} refs)",
            s.label,
            100.0 * s.miss_ratio(),
            s.stats().accesses
        );
    }
    if let Some(best) = whatif.best() {
        println!("best scenario: {}", best.label);
    }

    let ws = working_set(all_profiles.iter().map(|(_, p)| p));
    println!(
        "\nsampled working set: {} lines = {} KB, reuse factor {:.1}",
        ws.lines,
        ws.bytes >> 10,
        ws.reuse_factor()
    );

    println!("\nper-operation reference patterns:");
    let mut shown: std::collections::HashSet<Pc> = Default::default();
    for (_, profile) in &all_profiles {
        for (col, pc) in profile.ops.iter().enumerate() {
            if !shown.insert(*pc) {
                continue;
            }
            let column = profile.column(col as u16);
            if let Some(pattern) = classify_default(&column) {
                let tag = match pattern {
                    RefPattern::Constant => "constant",
                    RefPattern::Strided => "strided (prefetchable)",
                    RefPattern::IrregularLocal => "irregular, local",
                    RefPattern::IrregularWide => "irregular, wide (chase-like)",
                };
                println!("  {pc}  {tag}");
            }
        }
    }
}
