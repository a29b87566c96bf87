//! One op per workload: a single program through its pipeline, with
//! every output checked.
//!
//! Each op builds its models empty, as the paper's tables do, so an op's
//! simulated results depend only on its program. They are returned in a
//! [`Tally`] together with the layers' event counts; a program that runs
//! twice must produce the same tally.

use crate::gen::Workload;
use crate::probe::{Layer, Probe, Tracer, UmiPass, UmiSetup};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use umi_analyze::{
    absint_program, analyze_program, classify_program, compose_program, lint_program,
    predict_program, trip_analysis, value_analysis, Cfg, Severity, StaticReport, Verdict,
};
use umi_cache::{CacheConfig, FullSimulator};
use umi_core::{SamplingMode, UmiConfig, UmiReport};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_ir::{Pc, Program};
use umi_prefetch::{check_rewritten, inject_prefetches, static_prefetch_plan, PrefetchPlan};
use umi_trace::store::program_key;
use umi_trace::{ExecTrace, ReplayCursor};
use umi_vm::{Tee, Vm};

/// Instruction cap per pass; a program that does not end within it is
/// a failed op. Pool programs retire at most a few tens of millions.
pub const FUEL: u64 = 500_000_000;

/// Prefetch lookahead of the dynamic planner, as in the §8 study.
const DISTANCE_REFS: i64 = 32;

/// Deterministic per-op results, keyed by metric-like names.
pub type Tally = BTreeMap<&'static str, f64>;

/// What one op produced.
pub struct OpOut {
    /// Simulated results and layer event counts.
    pub tally: Tally,
    /// Instructions simulated by every pass of the op.
    pub insns: u64,
    /// Host seconds of the capture pass (replay only).
    pub capture_s: f64,
    /// Host seconds of the UMI-over-replay pass (replay only).
    pub replay_s: f64,
}

/// Runs one op of `workload` on `program`.
pub fn run<P: Probe>(probe: &P, workload: Workload, program: &Program) -> Result<OpOut, String> {
    match workload {
        Workload::Loops => loops(probe, program),
        Workload::Control => control(probe, program),
        Workload::Static => static_op(probe, program),
        Workload::Replay => replay(probe, program),
    }
}

fn add(t: &mut Tally, key: &'static str, v: impl Into<f64>) {
    *t.entry(key).or_default() += v.into();
}

fn finished(pass: &UmiPass, program: &Program) -> Result<(), String> {
    if pass.finished {
        Ok(())
    } else {
        Err(format!(
            "{} did not finish within {FUEL} instructions",
            program.name
        ))
    }
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Core and DBI counts of a report; VM counts only when a live VM ran.
fn add_umi(t: &mut Tally, r: &UmiReport, live: bool) {
    if live {
        add(t, "vm.insns", r.vm_stats.insns as f64);
        add(t, "vm.blocks", r.vm_stats.blocks as f64);
    }
    let d = &r.dbi_stats;
    add(t, "dbi.traces_built", d.traces_built as f64);
    add(t, "dbi.blocks_translated", d.blocks_translated as f64);
    add(t, "dbi.indirect_branches", d.indirect_branches as f64);
    add(t, "dbi.context_switches", d.context_switches as f64);
    add(t, "dbi.trace_blocks", d.blocks_from_trace_cache as f64);
    add(
        t,
        "dbi.dispatched_blocks",
        (d.blocks_from_trace_cache + d.blocks_from_bb_cache) as f64,
    );
    add(t, "core.profiles_collected", r.profiles_collected as f64);
    add(
        t,
        "core.analyzer_invocations",
        r.analyzer_invocations as f64,
    );
    add(t, "core.cache_flushes", r.cache_flushes as f64);
    add(t, "core.instrumented_traces", r.instrumented_traces as f64);
    add(t, "core.profiled_ops", r.profiled_ops as f64);
    add(t, "core.samples_taken", r.samples_taken as f64);
    add(t, "core.predicted_loads", r.predicted.len() as f64);
}

fn add_hw(t: &mut Tally, m: &Machine) {
    let c = m.counters();
    add(t, "hw.accesses", c.l1_refs as f64);
    add(t, "hw.l2_misses", c.l2_misses as f64);
    add(t, "hw.hw_prefetch_fills", c.hw_prefetch_fills as f64);
    add(t, "hw.sw_prefetch_fills", c.sw_prefetch_fills as f64);
}

fn add_cache(t: &mut Tally, s: &FullSimulator) {
    add(t, "cache.accesses", s.l1_stats().accesses as f64);
    add(t, "cache.l1_misses", s.l1_stats().misses as f64);
    add(t, "cache.l2_misses", s.l2_stats().misses as f64);
}

/// `umi_bench::sampled_config(Scale::Test)`: the paper's sampling,
/// scaled to test-size programs (a self-test keeps the two equal).
fn sampled_config() -> UmiConfig {
    let mut c = UmiConfig::sampled();
    c.sampling = SamplingMode::Periodic {
        period_insns: 2_000,
    };
    c.frequency_threshold = 24;
    c
}

fn k7_config() -> UmiConfig {
    let mut c = UmiConfig::no_sampling().sim_cache(CacheConfig::k7_l2());
    c.sim_l1_filter = CacheConfig::k7_l1d();
    c
}

fn pass_cycles(machine: &Machine, r: &UmiReport) -> (f64, f64) {
    let native = machine.total_cycles(r.vm_stats.insns);
    (
        native as f64,
        (native + r.dbi_overhead_cycles + r.umi_overhead_cycles) as f64,
    )
}

/// The §8 study cell: UMI with the P4 machine riding along, a plan, the
/// rewrite, and UMI again over the rewritten program into both
/// prefetch settings.
fn loops<P: Probe>(p: &P, program: &Program) -> Result<OpOut, String> {
    let config = UmiConfig::no_sampling();
    let setup = UmiSetup {
        config: &config,
        shadows: &[],
        capture: false,
    };
    let mut t = Tally::new();
    let mut off = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
    let first = p.umi(
        || Ok(Vm::new(program)),
        &setup,
        &mut off,
        (Layer::Vm, Layer::Hw),
    )?;
    finished(&first, program)?;
    let r1 = &first.report;
    let (native, umi_only) = pass_cycles(&off, r1);
    add_umi(&mut t, r1, true);
    add_hw(&mut t, &off);
    add(&mut t, "loops.native_cycles", native);
    add(&mut t, "loops.umi_cycles", umi_only);
    let mut insns = r1.vm_stats.insns;

    let plan = p.span(Layer::PrefetchPlan, || {
        PrefetchPlan::from_report(r1, DISTANCE_REFS)
    });
    add(&mut t, "prefetch.planned_loads", plan.len() as f64);
    if !plan.is_empty() {
        let optimized = p.span(Layer::PrefetchRewrite, || inject_prefetches(program, &plan));
        let mut sw_off = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
        let mut sw_full = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
        let second = p.umi(
            || Ok(Vm::new(&optimized)),
            &setup,
            &mut Tee(&mut sw_off, &mut sw_full),
            (Layer::Vm, Layer::Hw),
        )?;
        finished(&second, &optimized)?;
        let r2 = &second.report;
        p.span(Layer::BenchCheck, || {
            check(
                (r2.vm_stats.loads, r2.vm_stats.stores) == (r1.vm_stats.loads, r1.vm_stats.stores)
                    && sw_off.counters().l1_refs == off.counters().l1_refs
                    && sw_full.counters().l1_refs == off.counters().l1_refs,
                || format!("{}: the rewrite changed the demand stream", program.name),
            )
        })?;
        let (_, with_sw) = pass_cycles(&sw_off, r2);
        add_umi(&mut t, r2, true);
        add_hw(&mut t, &sw_off);
        add_hw(&mut t, &sw_full);
        add(&mut t, "loops.sw_cycles", with_sw);
        insns += r2.vm_stats.insns;
    }
    Ok(OpOut {
        tally: t,
        insns,
        capture_s: 0.0,
        replay_s: 0.0,
    })
}

/// Sampled UMI with an exact P4 simulation riding along, scored against
/// the ground-truth delinquent set `C` at x = 90%.
fn control<P: Probe>(p: &P, program: &Program) -> Result<OpOut, String> {
    let config = sampled_config();
    let setup = UmiSetup {
        config: &config,
        shadows: &[],
        capture: false,
    };
    let mut full = FullSimulator::pentium4();
    let pass = p.umi(
        || Ok(Vm::new(program)),
        &setup,
        &mut full,
        (Layer::Vm, Layer::Cache),
    )?;
    finished(&pass, program)?;
    let r = &pass.report;
    let (c, hit) = p.span(Layer::BenchCheck, || {
        let demand = r.vm_stats.loads + r.vm_stats.stores;
        check(full.l1_stats().accesses == demand, || {
            format!("{}: the simulator saw a different stream", program.name)
        })?;
        let truth: HashSet<Pc> = full.delinquent_set(0.90).pcs.into_iter().collect();
        let hit = r.predicted.intersection(&truth).count();
        Ok::<_, String>((truth.len(), hit))
    })?;
    let mut t = Tally::new();
    add_umi(&mut t, r, true);
    add_cache(&mut t, &full);
    add(&mut t, "control.truth", c as f64);
    add(&mut t, "control.hits", hit as f64);
    Ok(OpOut {
        tally: t,
        insns: r.vm_stats.insns,
        capture_s: 0.0,
        replay_s: 0.0,
    })
}

/// Composed intervals a run escaped, audited as `table_staticplan`
/// does (`umi_bench::staticplan_audit`; a self-test keeps the two in
/// agreement): every `(pc, kind)` group and the three aggregates.
fn interval_violations(report: &StaticReport, sim: &FullSimulator) -> Vec<String> {
    let mut out = Vec::new();
    let mut totals = (0u64, 0u64, 0u64);
    for b in &report.per_pc {
        let (l1, mem) = (sim.l1_per_pc().get(b.pc), sim.per_pc().get(b.pc));
        let (accesses, l1_misses, mem_misses) = if b.is_store {
            (l1.store_accesses, l1.store_misses, mem.store_misses)
        } else {
            (l1.load_accesses, l1.load_misses, mem.load_misses)
        };
        totals.0 += accesses;
        totals.1 += l1_misses;
        totals.2 += mem_misses;
        let in_exec = accesses >= b.accesses.min && b.accesses.max.is_none_or(|h| accesses <= h);
        if !(in_exec && b.l1.contains(l1_misses) && b.mem.contains(mem_misses)) {
            out.push(format!(
                "{:#x}: {accesses} accesses, {l1_misses} L1 and {mem_misses} memory misses \
                 escape {:?} / {:?} / {:?}",
                b.pc.0, b.accesses, b.l1, b.mem
            ));
        }
    }
    let a = &report.accesses;
    if !(totals.0 >= a.min
        && a.max.is_none_or(|h| totals.0 <= h)
        && report.l1.contains(totals.1)
        && report.mem.contains(totals.2))
    {
        out.push(format!(
            "aggregate counts {totals:?} escape their intervals"
        ));
    }
    out
}

/// The static pipeline: plan from analysis alone, rewrite, check the
/// rewrite, and audit every composed interval against one exact run.
fn static_op<P: Probe>(p: &P, program: &Program) -> Result<OpOut, String> {
    let floor = UmiConfig::no_sampling().delinquency_floor;
    let (l1, l2) = (CacheConfig::pentium4_l1d(), CacheConfig::pentium4_l2());
    let (g1, g2) = (l1.geometry(), l2.geometry());
    let planned = p.span(Layer::PrefetchStaticplan, || {
        static_prefetch_plan(program, &g1, &g2, floor)
    });
    let plan = planned.plan();
    let rewritten = p.span(Layer::PrefetchRewrite, || inject_prefetches(program, &plan));
    let diagnostics = p.span(Layer::PrefetchCheck, || {
        check_rewritten(&rewritten, &g1, &g2, floor)
    });
    let mut sim = FullSimulator::new(l1, l2).with_l1_audit();
    let (done, stats) = p.run(|| Vm::new(program), &mut sim, (Layer::Vm, Layer::Cache));
    check(done, || {
        format!("{} did not finish within {FUEL} instructions", program.name)
    })?;
    let report = &planned.report;
    p.span(Layer::BenchCheck, || {
        let escaped = interval_violations(report, &sim);
        check(escaped.is_empty(), || {
            format!(
                "{}: {} composed interval(s) violated, first: {}",
                program.name,
                escaped.len(),
                escaped[0]
            )
        })
    })?;
    let mut t = Tally::new();
    add(&mut t, "vm.insns", stats.insns as f64);
    add(&mut t, "vm.blocks", stats.blocks as f64);
    add_cache(&mut t, &sim);
    add(&mut t, "prefetch.planned_loads", plan.len() as f64);
    let errors = diagnostics
        .iter()
        .filter(|d| d.severity() == Severity::Error)
        .count();
    add(&mut t, "prefetch.check_errors", errors as f64);
    Ok(OpOut {
        tally: t,
        insns: stats.insns,
        capture_s: 0.0,
        replay_s: 0.0,
    })
}

/// Whether a replayed report is the live one: everything UMI decided and
/// charged.
fn same_report(a: &UmiReport, b: &UmiReport) -> bool {
    let per_pc = |r: &UmiReport| {
        let mut v: Vec<_> = r.per_pc.iter().map(|(pc, s)| (pc, *s)).collect();
        v.sort_by_key(|&(pc, _)| pc);
        v
    };
    a.predicted == b.predicted
        && a.strides == b.strides
        && a.umi_miss_ratio.to_bits() == b.umi_miss_ratio.to_bits()
        && a.profiles_collected == b.profiles_collected
        && a.analyzer_invocations == b.analyzer_invocations
        && a.cache_flushes == b.cache_flushes
        && a.instrumented_traces == b.instrumented_traces
        && a.profiled_ops == b.profiled_ops
        && a.umi_overhead_cycles == b.umi_overhead_cycles
        && a.dbi_overhead_cycles == b.dbi_overhead_cycles
        && a.samples_taken == b.samples_taken
        && a.vm_stats == b.vm_stats
        && a.dbi_stats == b.dbi_stats
        && per_pc(a) == per_pc(b)
}

/// Capture once, then read the trace three ways: UMI over a replay
/// cursor, a native replay into the prefetching machine, and a
/// serialization round trip.
fn replay<P: Probe>(p: &P, program: &Program) -> Result<OpOut, String> {
    let config = UmiConfig::no_sampling();
    let mut live_hw = Machine::new(Platform::pentium4(), PrefetchSetting::Off);
    let capture = p.umi(
        || Ok(Vm::new(program)),
        &UmiSetup {
            config: &config,
            shadows: &[],
            capture: true,
        },
        &mut live_hw,
        (Layer::Vm, Layer::Hw),
    )?;
    finished(&capture, program)?;
    let live = &capture.report;
    let writer = capture
        .writer
        .ok_or_else(|| format!("{}: the capture recorded no trace", program.name))?;
    let trace = Arc::new(p.span(Layer::TraceEncode, || {
        writer.finish(program_key(program), live.vm_stats)
    }));

    let k7 = [k7_config()];
    let mut p4_sim = FullSimulator::pentium4().ratios_only();
    let mut k7_sim = FullSimulator::k7();
    let replayed = p.umi(
        || {
            ReplayCursor::new(program, Arc::clone(&trace)).map_err(|e| {
                format!(
                    "{}: the replay cursor rejected the trace: {e}",
                    program.name
                )
            })
        },
        &UmiSetup {
            config: &config,
            shadows: &k7,
            capture: false,
        },
        &mut Tee(&mut p4_sim, &mut k7_sim),
        (Layer::TraceDecode, Layer::Cache),
    )?;
    finished(&replayed, program)?;

    let mut full_hw = Machine::new(Platform::pentium4(), PrefetchSetting::Full);
    let summary = p.replay_into(&trace, &mut full_hw, Layer::Hw);

    let bytes = p.span(Layer::TraceSerialize, || trace.to_bytes());
    let back = p
        .span(Layer::TraceDeserialize, || {
            ExecTrace::from_bytes(&bytes, Some(trace.key()))
        })
        .map_err(|e| format!("{}: from_bytes rejected the trace: {e}", program.name))?;

    p.span(Layer::BenchCheck, || {
        let hw = live_hw.counters();
        let l2 = p4_sim.l2_stats();
        check(same_report(live, &replayed.report), || {
            format!(
                "{}: the replayed report differs from the live one",
                program.name
            )
        })?;
        check(
            (l2.accesses, l2.misses) == (hw.l2_refs, hw.l2_misses),
            || {
                format!(
                    "{}: replayed L2 counters differ from the live ones",
                    program.name
                )
            },
        )?;
        check(
            summary.stats == live.vm_stats && full_hw.counters().l1_refs == hw.l1_refs,
            || {
                format!(
                    "{}: the native replay differs from the capture",
                    program.name
                )
            },
        )?;
        check(back == *trace, || {
            format!(
                "{}: the serialization round trip changed the trace",
                program.name
            )
        })
    })?;

    let mut t = Tally::new();
    let (native, umi_only) = pass_cycles(&live_hw, live);
    add(&mut t, "replay.native_cycles", native);
    add(&mut t, "replay.umi_cycles", umi_only);
    add_umi(&mut t, live, true);
    add_umi(&mut t, &replayed.report, false);
    add_hw(&mut t, &live_hw);
    add_hw(&mut t, &full_hw);
    add_cache(&mut t, &p4_sim);
    add_cache(&mut t, &k7_sim);
    add(&mut t, "replay.k7_miss_ratio", replayed.shadow_ratios[0]);
    add(&mut t, "trace.bytes", bytes.len() as f64);
    add(&mut t, "trace.accesses", summary.accesses as f64);
    Ok(OpOut {
        tally: t,
        insns: 3 * live.vm_stats.insns,
        capture_s: capture.secs,
        replay_s: replayed.secs,
    })
}

/// Calls each `umi_analyze` pass once on its own, outside the op, and
/// returns the composed report's site and group counts. Each pass's time
/// includes the passes it calls (see the README for the call structure).
pub fn standalone_passes(tracer: &Tracer, program: &Program) -> Tally {
    let floor = UmiConfig::no_sampling().delinquency_floor;
    let g1 = CacheConfig::pentium4_l1d().geometry();
    let g2 = CacheConfig::pentium4_l2().geometry();
    tracer.outside("analyze.cfg", || {
        let cfg = Cfg::build(program);
        black_box(analyze_program(program, &cfg));
    });
    tracer.outside("analyze.value", || black_box(value_analysis(program)));
    tracer.outside("analyze.affine", || black_box(classify_program(program)));
    tracer.outside("analyze.cachepred", || {
        black_box(predict_program(program, &g1, floor))
    });
    tracer.outside("analyze.absint", || {
        black_box(absint_program(program, &g1, &g2))
    });
    tracer.outside("analyze.trips", || black_box(trip_analysis(program)));
    tracer.outside("analyze.lint", || black_box(lint_program(program)));
    let report = tracer.outside("analyze.compose", || {
        compose_program(program, &g1, &g2, floor)
    });
    let mut t = Tally::new();
    add(&mut t, "analyze.sites", report.sites.len() as f64);
    let unclassified = report
        .sites
        .iter()
        .filter(|s| s.behavior.l1 == Verdict::Unclassified)
        .count();
    add(&mut t, "analyze.unclassified_sites", unclassified as f64);
    add(&mut t, "analyze.groups", report.per_pc.len() as f64);
    let bounded = report.per_pc.iter().filter(|g| g.bounded).count();
    add(&mut t, "analyze.bounded_groups", bounded as f64);
    t
}

/// The standalone pass names, in the order [`standalone_passes`] runs
/// them.
pub const PASSES: [&str; 8] = [
    "analyze.cfg",
    "analyze.value",
    "analyze.affine",
    "analyze.cachepred",
    "analyze.absint",
    "analyze.trips",
    "analyze.lint",
    "analyze.compose",
];

/// The binary restates two helpers of `umi-bench` rather than linking it
/// (see `Cargo.toml`); these tests keep the copies equal to the originals.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::pool;
    use umi_bench::staticplan_audit::{audit_staticplan, BoundCheck};

    #[test]
    fn sampled_config_is_the_harnesses_test_scale_config() {
        assert_eq!(
            sampled_config(),
            umi_bench::sampled_config(umi_workloads::Scale::Test)
        );
    }

    #[test]
    fn interval_audit_agrees_with_the_harnesses_audit() {
        let floor = UmiConfig::no_sampling().delinquency_floor;
        // The static pool's stream, stencil and chase slots.
        for program in pool(Workload::Static, 1).into_iter().skip(1).take(3) {
            let audit = audit_staticplan(&program, floor);
            let mut sim =
                FullSimulator::new(CacheConfig::pentium4_l1d(), CacheConfig::pentium4_l2())
                    .with_l1_audit();
            assert!(Vm::new(&program).run(&mut sim, FUEL).finished);
            assert!(audit.violations().next().is_none() && audit.aggregate_ok);
            assert!(interval_violations(&audit.report, &sim).is_empty());

            // Push every third group's L1 interval past its count: both
            // audits must flag exactly those groups.
            let mut report = audit.report.clone();
            let mut flagged = 0;
            for (i, (b, c)) in report.per_pc.iter_mut().zip(&audit.checked).enumerate() {
                if i % 3 == 0 {
                    b.l1.lo = c.l1_misses + 1;
                }
                let check = BoundCheck { bound: *b, ..*c };
                flagged += usize::from(!check.ok());
            }
            assert!(flagged > 0, "{}: nothing was tampered with", program.name);
            assert_eq!(
                interval_violations(&report, &sim).len(),
                flagged,
                "{}",
                program.name
            );
        }
    }
}
