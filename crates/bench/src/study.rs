//! Shared measurement procedure for the prefetching figures (3–6).

use crate::engine::{run_cells, Cell, CellStat};
use umi_core::{introspect_cached, introspect_traced, UmiConfig, UmiRuntime};
use umi_hw::{Machine, Platform, PrefetchSetting};
use umi_prefetch::harness::{run_native_trace, RunOutcome};
use umi_prefetch::{inject_prefetches, PrefetchPlan};
use umi_vm::Tee;
use umi_workloads::{Scale, WorkloadSpec};

/// Measurements for one prefetch-friendly workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchRow {
    /// The workload.
    pub spec: WorkloadSpec,
    /// Number of loads the plan prefetches.
    pub planned: usize,
    /// Native, all prefetching off — the normalization baseline.
    pub native_off: RunOutcome,
    /// UMI introspection only, HW prefetch off (Fig. 3/4, first bar).
    pub umi_only_off: RunOutcome,
    /// UMI + SW prefetch, HW prefetch off (Fig. 3/4, second bar; Fig. 5
    /// "SW" bar).
    pub umi_sw_off: RunOutcome,
    /// Native with the platform's HW prefetchers (Fig. 5 "HW" bar).
    /// `None` on a platform without them (the K7), where it would equal
    /// `native_off`.
    pub native_hw: Option<RunOutcome>,
    /// UMI + SW prefetch with HW prefetch on (Fig. 5 "SW+HW" bar);
    /// `None` under the same conditions as `native_hw`.
    pub umi_sw_hw: Option<RunOutcome>,
}

/// One workload's §8 measurement; `None` when the planner found no
/// prefetching opportunity (the workload is then not a study row, but
/// its introspection pass still shows up in the cell stats).
fn study_cell(
    spec: &WorkloadSpec,
    scale: Scale,
    platform: &Platform,
    config: &UmiConfig,
) -> Cell<Option<PrefetchRow>> {
    let program = spec.build(scale);
    let mut insns = 0u64;
    // Pass 1: introspection over the unmodified program with the HW
    // model riding as the sink (prefetch off — prefetch does not change
    // what UMI sees anyway; it ignores prefetch side effects). The DBI
    // forwards the exact native demand stream, so this one pass yields
    // the "UMI only" outcome, the plan, AND the native baseline — same
    // machine state, minus the runtime-overhead cycles. Workloads
    // without a plan are rejected before any further run. Feedback-free,
    // so it runs capture-or-replay against the trace cache; the HW
    // variants re-drive the pass-1 stream through a prefetch-on machine
    // later, so they force capture even without a cross-process cache.
    let mut machine_off = Machine::new(platform.clone(), PrefetchSetting::Off);
    let ci = if platform.has_hw_prefetch {
        introspect_traced(&program, config, &[], &mut machine_off)
    } else {
        introspect_cached(&program, config, &[], &mut machine_off)
    };
    let report = ci.report;
    let pass_insns = report.vm_stats.insns;
    insns += pass_insns;
    let native_off = RunOutcome {
        cycles: machine_off.total_cycles(pass_insns),
        counters: machine_off.counters(),
        insns: pass_insns,
    };
    let umi_only_off = RunOutcome {
        cycles: native_off.cycles + report.dbi_overhead_cycles + report.umi_overhead_cycles,
        counters: native_off.counters,
        insns: pass_insns,
    };
    let plan = PrefetchPlan::from_report(&report, 32);
    if plan.is_empty() {
        return Cell {
            label: spec.name.to_string(),
            insns,
            value: None,
        };
    }
    let optimized = inject_prefetches(&program, &plan);
    // Pass 2: introspection over the optimized program. The prefetch-on
    // machine (Figures 5/6) rides the same pass through a `Tee` — the
    // setting changes only machine-internal behaviour, never the stream
    // the sink receives — so both SW-prefetch bars come from one
    // interpretation. Only the native-HW bar still needs its own run
    // (nothing else interprets the unmodified program with prefetch on).
    let mut sw_off = Machine::new(platform.clone(), PrefetchSetting::Off);
    let mut sw_hw = platform
        .has_hw_prefetch
        .then(|| Machine::new(platform.clone(), PrefetchSetting::Full));
    let mut umi2 = UmiRuntime::new(&optimized, config.clone());
    let report2 = match sw_hw.as_mut() {
        Some(hw) => {
            let mut sink = Tee(&mut sw_off, hw);
            umi2.run(&mut sink, u64::MAX)
        }
        None => umi2.run(&mut sw_off, u64::MAX),
    };
    assert!(
        umi2.finished(),
        "workload {} did not finish",
        optimized.name
    );
    let overhead2 = report2.dbi_overhead_cycles + report2.umi_overhead_cycles;
    let pass2_insns = report2.vm_stats.insns;
    insns += pass2_insns;
    let umi_sw_off = RunOutcome {
        cycles: sw_off.total_cycles(pass2_insns) + overhead2,
        counters: sw_off.counters(),
        insns: pass2_insns,
    };
    let umi_sw_hw = sw_hw.map(|hw| RunOutcome {
        cycles: hw.total_cycles(pass2_insns) + overhead2,
        counters: hw.counters(),
        insns: pass2_insns,
    });
    let native_hw = if platform.has_hw_prefetch {
        // Replayed, not re-interpreted: the prefetch setting changes only
        // machine-internal behaviour, so the pass-1 trace drives the
        // prefetch-on machine to exactly the state a live run reaches.
        let trace = ci
            .trace
            .as_ref()
            .expect("traced introspection kept its capture");
        let out = run_native_trace(trace, platform.clone(), PrefetchSetting::Full);
        insns += out.insns;
        Some(out)
    } else {
        None
    };
    Cell {
        label: spec.name.to_string(),
        insns,
        value: Some(PrefetchRow {
            spec: *spec,
            planned: plan.len(),
            native_off,
            umi_only_off,
            umi_sw_off,
            native_hw,
            umi_sw_hw,
        }),
    }
}

/// Runs the §8 study on `specs`, fanned out over `jobs` engine workers
/// (cells are per-workload and independent; rows come back in `specs`
/// order at any job count). The harness passes the whole suite, the
/// tests a subset.
///
/// "Of the 32 benchmarks in our suite, we discovered prefetching
/// opportunities for 11 of them" — here the set is whatever the planner
/// finds a confident stride for. On a platform with HW prefetchers the
/// rows also carry the prefetch-on variants (Figures 5/6).
pub fn prefetch_cells_for(
    specs: &[WorkloadSpec],
    scale: Scale,
    platform: &Platform,
    config: &UmiConfig,
    jobs: usize,
) -> (Vec<PrefetchRow>, Vec<CellStat>) {
    let (rows, stats) = run_cells(jobs, specs, |spec| {
        study_cell(spec, scale, platform, config)
    });
    (rows.into_iter().flatten().collect(), stats)
}
