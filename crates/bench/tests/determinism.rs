//! The engine's contract: job count changes wall-clock, never results.
//!
//! Each test runs a real harness measurement (at `Scale::Test`) through
//! the parallel engine at several job counts and against a hand-rolled
//! sequential loop, and requires identical values in identical order.
//! A representative subset of the suite keeps the debug-profile cost
//! down while still covering several suites and both planner outcomes
//! (plan found / no plan).

use umi_bench::corr::{corr_cell, CorrRow};
use umi_bench::engine::run_cells;
use umi_bench::sampled_config;
use umi_bench::study::{prefetch_cells_for, PrefetchRow};
use umi_hw::Platform;
use umi_workloads::{all32, Scale, WorkloadSpec};

fn some_workloads() -> Vec<WorkloadSpec> {
    all32().into_iter().step_by(4).collect()
}

#[test]
fn prefetch_study_rows_identical_across_job_counts() {
    let specs = some_workloads();
    let study = |jobs: usize| -> Vec<PrefetchRow> {
        prefetch_cells_for(
            &specs,
            Scale::Test,
            &Platform::pentium4(),
            &sampled_config(Scale::Test),
            jobs,
        )
        .0
    };
    let sequential = study(1);
    assert!(
        !sequential.is_empty(),
        "subset must contain prefetch opportunities"
    );
    assert!(sequential
        .iter()
        .all(|r| r.native_hw.is_some() && r.umi_sw_hw.is_some()));
    let parallel = study(4);
    assert_eq!(parallel, sequential, "rows differ at jobs=4");
}

#[test]
fn prefetch_stats_keep_workload_order() {
    let specs = some_workloads();
    let run = |jobs: usize| {
        prefetch_cells_for(
            &specs,
            Scale::Test,
            &Platform::k7(),
            &sampled_config(Scale::Test),
            jobs,
        )
    };
    let (seq_rows, seq_stats) = run(1);
    let (par_rows, par_stats) = run(4);
    assert_eq!(par_rows, seq_rows);
    let names: Vec<&str> = specs.iter().map(|s| s.name).collect();
    let seq: Vec<&str> = seq_stats.iter().map(|s| s.label.as_str()).collect();
    let par: Vec<&str> = par_stats.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(seq, names, "sequential stats must follow suite order");
    assert_eq!(par, names, "parallel stats must follow suite order");
    // The K7 study skips the HW-prefetch variants entirely.
    assert!(seq_rows
        .iter()
        .all(|r| r.native_hw.is_none() && r.umi_sw_hw.is_none()));
}

#[test]
fn correlation_rows_identical_across_job_counts_and_vs_plain_loop() {
    let specs: Vec<WorkloadSpec> = all32().into_iter().step_by(8).collect();

    // The pre-engine harness shape: a plain sequential loop.
    let by_hand: Vec<CorrRow> = specs
        .iter()
        .map(|spec| corr_cell(spec, Scale::Test).value)
        .collect();

    // Pin the decoded-engine rows across UMI_JOBS ∈ {1, 2, all-cores}.
    let all_jobs = std::thread::available_parallelism().map_or(4, |n| n.get());
    for jobs in [1, 2, all_jobs] {
        let (rows, stats) = run_cells(jobs, &specs, |spec| corr_cell(spec, Scale::Test));
        assert_eq!(rows, by_hand, "correlation rows differ at jobs={jobs}");
        let labels: Vec<&str> = stats.iter().map(|s| s.label.as_str()).collect();
        let expected: Vec<&str> = specs.iter().map(|s| s.name).collect();
        assert_eq!(labels, expected, "stat order differs at jobs={jobs}");
    }
}
